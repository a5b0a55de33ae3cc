"""The gated benchmark workloads' recorded outputs, checked by the test suite.

``benchmark/reference/`` holds the rmse.csv bytes of the two sweep workloads
at their reference seeds and the run_single estimates of the single-shot
workload for seeds 0-2047; the benchmark fails a timed run whose outputs
differ from them. These tests only read those files, so an output that
moves shows up here as well as in the benchmark.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import csdoa
from csdoa import cli

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
REFERENCE = BENCHMARK / "reference"

# The flags of each sweep workload's `csdoa montecarlo` call at its reference seed.
SWEEPS = {
    "mc-2src": ["--sources", "-60,60", "--snr-sweep=-10:20:5", "--trials", "3", "--seed", "0"],
    "mc-3src": ["--sources", "-60,0,40", "--coherent", "2,3", "--snr-sweep", "0:0:1",
                "--trials", "20", "--seed", "17"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_workloads_write_their_reference_bytes(tmp_path, name):
    assert cli.main(["montecarlo", *SWEEPS[name], "--out", str(tmp_path)]) == 0
    reference = (REFERENCE / f"{name}.csv").read_bytes()
    assert (tmp_path / "rmse.csv").read_bytes() == reference


def test_single_shot_estimates_match_the_reference():
    # One line per seed: "<seed> omp:<doas> cosamp:<doas>", angles as %.12g.
    lines = (REFERENCE / "single-shot.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2048
    base = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0)
    for seed, line in enumerate(lines):
        runs = csdoa.run_single(dataclasses.replace(base, seed=seed)).runs
        estimates = " ".join(
            f"{algorithm}:" + ",".join("%.12g" % doa for doa in run.estimated.doas_deg)
            for algorithm, run in runs.items()
        )
        assert line == f"{seed} {estimates}"


def test_benchmark_selftest_passes():
    # The self-test runs the benchmark's output checks, sweep and single-shot,
    # against the reference files, and its trace-wrapper and name checks; it
    # does not run the replay (test_benchmark_replay.py checks that).
    done = subprocess.run(
        [sys.executable, str(BENCHMARK / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
