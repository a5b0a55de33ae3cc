"""The benchmark's second oracle, the stage-by-stage replay, against the engine.

At every sweep seed but its reference one, the benchmark checks the
engine's rmse.csv against ``benchmark/replay.py``, which composes each trial
from the public per-trial functions (``trial_seeds``, ``synthesize``,
``draw_measurement_matrix``, ``omp``, ``cosamp``, ...). These tests load
that module as it is and check that it agrees with ``csdoa montecarlo`` and
``csdoa.run_single`` away from the reference seeds.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import csdoa
from csdoa import cli

REPLAY = Path(__file__).resolve().parents[1] / "benchmark" / "replay.py"

# Each sweep workload's sources, coherent groups (zero-based), SNR points,
# trials per point and `csdoa montecarlo` flags, without the seed.
SWEEPS = {
    "mc-2src": (
        [-60.0, 60.0], [], (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0), 3,
        ["--sources", "-60,60", "--snr-sweep=-10:20:5", "--trials", "3"],
    ),
    "mc-3src": (
        [-60.0, 0.0, 40.0], [[1, 2]], (0.0,), 20,
        ["--sources", "-60,0,40", "--coherent", "2,3", "--snr-sweep", "0:0:1", "--trials", "20"],
    ),
}


@pytest.fixture(scope="module")
def replay():
    spec = importlib.util.spec_from_file_location("benchmark_replay", REPLAY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [5, 1_234_567_891])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_engine_sweeps_equal_the_replay_at_non_reference_seeds(tmp_path, replay, name, seed):
    sources, coherent, snr_points, trials, flags = SWEEPS[name]
    assert cli.main(["montecarlo", *flags, "--seed", str(seed), "--out", str(tmp_path)]) == 0
    scenario = csdoa.build_scenario(sources, coherent_groups=coherent, snr_db=0.0, seed=seed)
    expected = replay.replay_sweep(replay.Untraced(), scenario, snr_points, trials, replay.Stats())
    assert (tmp_path / "rmse.csv").read_text(encoding="utf-8") == expected


def test_replayed_single_runs_equal_run_single(replay):
    base = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0)
    for seed in (0, 1, 2, 2047, 90_001):
        scenario = dataclasses.replace(base, seed=seed)
        runs = csdoa.run_single(scenario).runs
        outcome = replay.replay_single(replay.Untraced(), scenario, replay.Stats())
        assert outcome.keys() == runs.keys()
        for algorithm, run in runs.items():
            assert np.array_equal(outcome[algorithm][0], run.estimated.doas_deg), (seed, algorithm)
