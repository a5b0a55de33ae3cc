"""Tests for scenario assembly, seeded trials, and Monte Carlo aggregation."""

import dataclasses
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdoa
from conftest import (
    curve_key,
    per_trial_curve,
    pinned_for_kernel,
    psi_spy,
    reference_phi,
    reference_synthesize,
    reference_trial_seeds,
)
from csdoa import experiments


# ---------------------------------------------------------------------------
# build_scenario / Scenario


def test_build_scenario_defaults():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0])
    assert scenario.geometry.num_sensors == 15
    assert scenario.geometry.spacing_over_wavelength == 0.5
    assert len(scenario.grid.angles_deg) == 181
    assert scenario.measurement.kind == csdoa.GAUSSIAN
    assert scenario.measurement.num_measurements == 10
    assert scenario.solver.sparsity == 3
    assert scenario.solver.max_iterations == 50
    assert scenario.solver.residual_tol == 1e-6
    assert scenario.algorithms == (csdoa.OMP, csdoa.COSAMP)
    assert scenario.snr_db == 0.0
    assert scenario.seed == 0


def test_default_num_measurements_exceeds_minimum():
    assert csdoa.default_num_measurements(3, 15) == 10
    assert csdoa.default_num_measurements(2, 15) == 7
    assert csdoa.default_num_measurements(3, 15) > csdoa.min_measurements(3, 15)


@pytest.mark.parametrize(
    ("num_sources", "num_sensors", "name"),
    [(True, 15, "num_sources"), (2.5, 15, "num_sources"), (2, 15.5, "num_sensors")],
)
def test_default_num_measurements_takes_integer_counts(num_sources, num_sensors, name):
    with pytest.raises(TypeError, match=name):
        csdoa.default_num_measurements(num_sources, num_sensors)


def test_build_scenario_completes_partial_groups():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[(1, 2)])
    assert scenario.sources.coherent_groups == ((0,), (1, 2))


def test_build_scenario_orders_groups_canonically():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[(2, 1)])
    assert scenario.sources.coherent_groups == ((0,), (1, 2))


def test_build_scenario_identity_defaults_to_sensor_count():
    scenario = csdoa.build_scenario([0.0], measurement_kind=csdoa.IDENTITY)
    assert scenario.measurement.num_measurements == 15


def test_build_scenario_deduplicates_algorithms():
    scenario = csdoa.build_scenario([0.0], algorithms=["omp", "omp"])
    assert scenario.algorithms == ("omp",)


def test_build_scenario_validation():
    with pytest.raises(csdoa.OffGridSourceError):
        csdoa.build_scenario([0.5])
    with pytest.raises(ValueError):
        csdoa.build_scenario([0.0], algorithms=["music"])
    with pytest.raises(ValueError):
        csdoa.build_scenario([0.0], algorithms=[])
    with pytest.raises(ValueError):
        csdoa.build_scenario([0.0], seed=-1)
    with pytest.raises(ValueError):
        csdoa.build_scenario([-60.0, 0.0, 40.0], num_measurements=5)  # cosamp needs 2M <= m
    with pytest.raises(ValueError):
        csdoa.build_scenario([-60.0, 0.0, 40.0], num_measurements=2, algorithms=["omp"])
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.build_scenario([0.0], measurement_kind=csdoa.IDENTITY, num_measurements=10)
    with pytest.raises(ValueError):
        csdoa.build_scenario([0.0], snr_db=float("-inf"))
    with pytest.raises(ValueError):
        csdoa.build_scenario([0.0], snr_db=float("nan"))


def test_integer_settings_take_numpy_integers_and_refuse_bools_and_floats():
    scenario = csdoa.build_scenario(
        [-60.0, 60.0],
        num_sensors=np.int64(15),
        num_measurements=np.int32(8),
        sparsity=np.int16(2),
        max_iterations=np.uint8(9),
        seed=np.int64(4),
    )
    settings = (
        scenario.geometry.num_sensors,
        scenario.measurement.num_measurements,
        scenario.solver.sparsity,
        scenario.solver.max_iterations,
        scenario.seed,
    )
    assert settings == (15, 8, 2, 9, 4)
    assert all(type(value) is int for value in settings)  # so meta.json can hold them
    for bad in (
        {"num_sensors": 15.0},
        {"num_measurements": 8.0},
        {"sparsity": True},
        {"max_iterations": 9.5},
        {"seed": False},
        {"seed": np.float64(1.0)},
    ):
        with pytest.raises(TypeError, match="must be an integer"):
            csdoa.build_scenario([-60.0, 60.0], **bad)
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="residual_tol"):
            csdoa.SolverConfig(sparsity=1, residual_tol=tol)


def test_scenario_rejects_repeated_algorithms_directly():
    base = csdoa.build_scenario([0.0])
    with pytest.raises(ValueError):
        csdoa.Scenario(
            geometry=base.geometry,
            grid=base.grid,
            sources=base.sources,
            snr_db=base.snr_db,
            measurement=base.measurement,
            solver=base.solver,
            algorithms=("omp", "omp"),
            seed=0,
        )


# ---------------------------------------------------------------------------
# trial_seeds


def test_trial_seeds_are_deterministic_and_distinct():
    assert csdoa.trial_seeds(0, 0, 0) == csdoa.trial_seeds(0, 0, 0)
    seen = set()
    for seed in range(3):
        for snr_index in range(3):
            for trial in range(3):
                pair = csdoa.trial_seeds(seed, snr_index, trial)
                assert len(pair) == 2
                assert pair not in seen
                seen.add(pair)


# ---------------------------------------------------------------------------
# run_single


def test_run_single_is_deterministic():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=12)
    a = csdoa.run_single(scenario)
    b = csdoa.run_single(scenario)
    assert np.array_equal(a.snapshot.data, b.snapshot.data)
    for name in scenario.algorithms:
        assert a.runs[name].estimated.doas_deg == b.runs[name].estimated.doas_deg
        assert a.runs[name].residual_norm == b.runs[name].residual_norm
        assert np.array_equal(a.runs[name].errors_deg, b.runs[name].errors_deg)


def test_run_single_produces_one_run_per_algorithm():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=1)
    result = csdoa.run_single(scenario)
    assert set(result.runs) == {"omp", "cosamp"}
    for run in result.runs.values():
        assert len(run.errors_deg) == 3
        assert len(run.spectrum.power) == 181
        # spectrum power sits exactly on the estimate's support
        positive = np.nonzero(run.spectrum.power > 0)[0]
        angles = tuple(scenario.grid.angles_deg[j] for j in positive)
        assert angles == run.estimated.doas_deg


def test_run_single_noiseless_uncompressed_single_source():
    for seed in (0, 1, 2):
        scenario = csdoa.build_scenario(
            [0.0], snr_db=float("inf"), measurement_kind=csdoa.IDENTITY, seed=seed
        )
        result = csdoa.run_single(scenario)
        for run in result.runs.values():
            assert run.estimated.doas_deg == (0.0,)
            assert run.success
            assert np.array_equal(run.errors_deg, np.zeros(1))
            assert run.residual_norm < 1e-8


def test_run_single_survives_solver_failure():
    # -90 and +90 deg share (numerically) one steering column; the coherent
    # pair makes the merged candidate support rank-deficient for cosamp
    scenario = csdoa.build_scenario(
        [-90.0, 90.0],
        snr_db=float("inf"),
        measurement_kind=csdoa.IDENTITY,
        coherent_groups=[(0, 1)],
        seed=3,
    )
    result = csdoa.run_single(scenario)
    cosamp_run = result.runs["cosamp"]
    assert not cosamp_run.success
    assert cosamp_run.estimated.doas_deg == ()
    assert np.array_equal(cosamp_run.errors_deg, np.full(2, 180.0))
    assert cosamp_run.iterations == 0
    assert np.array_equal(cosamp_run.spectrum.power, np.zeros(181))
    omp_run = result.runs["omp"]
    assert not omp_run.success
    assert sorted(omp_run.errors_deg) == [0.0, 180.0]


def test_run_single_success_rates_over_100_seeds():
    # frozen regression counts for the three-source benchmark geometry
    def count(**kwargs):
        hits = {"omp": 0, "cosamp": 0}
        for seed in range(100):
            scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], seed=seed, **kwargs)
            result = csdoa.run_single(scenario)
            for name, run in result.runs.items():
                hits[name] += run.success
        return hits

    assert count(snr_db=0.0) == {"omp": 0, "cosamp": 0}
    assert count(snr_db=float("inf")) == {"omp": 2, "cosamp": 0}
    assert count(snr_db=float("inf"), measurement_kind=csdoa.IDENTITY) == {
        "omp": 57,
        "cosamp": 31,
    }


# ---------------------------------------------------------------------------
# run_monte_carlo


def test_monte_carlo_single_trial_matches_run_single():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=6)
    curve = csdoa.run_monte_carlo(scenario, [0.0], 1)
    single = csdoa.run_single(scenario)
    assert curve.trials == 1
    assert curve.snr_points_db == (0.0,)
    for name, agg in curve.per_algorithm.items():
        errors = np.asarray(single.runs[name].errors_deg, dtype=float)
        expected = float(np.sqrt(np.mean(errors**2)))
        assert abs(agg.rmse_deg[0] - expected) < 1e-12
        assert agg.success_rate[0] == float(single.runs[name].success)


def test_monte_carlo_parallel_matches_serial():
    scenario = csdoa.build_scenario([-60.0, 60.0], snr_db=0.0, seed=2)
    serial = csdoa.run_monte_carlo(scenario, [0.0, 10.0], 40, workers=1)
    parallel = csdoa.run_monte_carlo(scenario, [0.0, 10.0], 40, workers=3)
    for name in scenario.algorithms:
        assert serial.per_algorithm[name].rmse_deg == parallel.per_algorithm[name].rmse_deg
        assert serial.per_algorithm[name].success_rate == parallel.per_algorithm[name].success_rate


def test_monte_carlo_noiseless_two_sources():
    scenario = csdoa.build_scenario([-60.0, 60.0], snr_db=float("inf"), seed=0)
    assert scenario.measurement.num_measurements == 7
    curve = csdoa.run_monte_carlo(scenario, [float("inf")], 100)
    omp = curve.per_algorithm["omp"]
    cosamp = curve.per_algorithm["cosamp"]
    # exact-bin recovery stays rare even without noise at m=7 (frozen rates);
    # successful trials have zero error on this integer grid
    assert omp.success_rate[0] == 0.03
    assert cosamp.success_rate[0] == 0.02
    assert omp.rmse_success_only_deg[0] == 0.0
    assert cosamp.rmse_success_only_deg[0] == 0.0
    assert omp.rmse_deg[0] > 0.0


def test_monte_carlo_noiseless_uncompressed_two_sources():
    scenario = csdoa.build_scenario(
        [-60.0, 60.0], snr_db=float("inf"), measurement_kind=csdoa.IDENTITY, seed=0
    )
    curve = csdoa.run_monte_carlo(scenario, [float("inf")], 100)
    assert curve.per_algorithm["omp"].success_rate[0] == 0.09
    assert curve.per_algorithm["cosamp"].success_rate[0] == 0.26
    for agg in curve.per_algorithm.values():
        assert agg.rmse_success_only_deg[0] == 0.0
        assert agg.rmse_deg[0] < 5.0


def test_monte_carlo_rate_accounting():
    scenario = csdoa.build_scenario([-60.0, 60.0], snr_db=0.0, seed=4)
    curve = csdoa.run_monte_carlo(scenario, [0.0, 20.0], 50)
    for agg in curve.per_algorithm.values():
        for i in range(2):
            rate = agg.success_rate[i]
            assert 0.0 <= rate <= 1.0
            assert abs(rate * 50 - round(rate * 50)) < 1e-9
            if rate > 0.0:
                assert agg.rmse_success_only_deg[i] <= agg.rmse_deg[i] + 1e-12
            else:
                assert math.isnan(agg.rmse_success_only_deg[i])


def test_monte_carlo_no_success_gives_nan_success_rmse():
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=0)
    curve = csdoa.run_monte_carlo(scenario, [0.0], 100)
    for agg in curve.per_algorithm.values():
        assert agg.success_rate[0] == 0.0
        assert math.isnan(agg.rmse_success_only_deg[0])
        assert agg.rmse_deg[0] > 0.0


def test_monte_carlo_validates_arguments():
    scenario = csdoa.build_scenario([0.0])
    with pytest.raises(ValueError):
        csdoa.run_monte_carlo(scenario, [], 10)
    with pytest.raises(ValueError):
        csdoa.run_monte_carlo(scenario, [0.0], 0)
    for workers in (0, -3):
        with pytest.raises(ValueError):
            csdoa.run_monte_carlo(scenario, [0.0], 1, workers=workers)


# ---------------------------------------------------------------------------
# batched trial engine


@settings(max_examples=12, deadline=None)
@given(
    sources=st.lists(st.integers(-90, 90), min_size=1, max_size=3, unique=True),
    coherent=st.sampled_from(["none", "pair", "all"]),
    extra_sparsity=st.integers(0, 1),
    sweep=st.lists(st.sampled_from([-10.0, 0.0, 20.0, math.inf]), min_size=1, max_size=3),
    trials=st.integers(1, 9),
    seed=st.integers(0, 2**31 - 1),
)
@example(sources=[-90, 90], coherent="all", extra_sparsity=0, sweep=[math.inf], trials=4, seed=3)
@example(sources=[-90, 30], coherent="none", extra_sparsity=1, sweep=[-10.0, 20.0], trials=5,
         seed=8)
@example(sources=[-60, 0, 40], coherent="pair", extra_sparsity=1, sweep=[0.0], trials=9, seed=17)
# 6 points x 2 trials: at chunk 7 the ring has 5 slots and the second chunk writes slots 3, 4, 0
@example(sources=[-30, 45], coherent="none", extra_sparsity=0,
         sweep=[-10.0, 0.0, 20.0, math.inf, -10.0, 0.0], trials=2, seed=5)
def test_monte_carlo_is_independent_of_chunking_and_workers(
    sources, coherent, extra_sparsity, sweep, trials, seed
):
    groups = {"none": [], "pair": [[0, len(sources) - 1]], "all": [list(range(len(sources)))]}
    scenario = csdoa.build_scenario(
        [float(s) for s in sources],
        coherent_groups=groups[coherent] if len(sources) > 1 else [],
        sparsity=len(sources) + extra_sparsity,
        seed=seed,
    )
    expected = per_trial_curve(scenario, sweep, trials)
    for chunk in (1, 7, experiments.CHUNK_TRIALS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "CHUNK_TRIALS", chunk)
            assert curve_key(csdoa.run_monte_carlo(scenario, sweep, trials)) == expected
    assert curve_key(csdoa.run_monte_carlo(scenario, sweep, trials, workers=2)) == expected


@pytest.mark.parametrize(
    "sources, identity, sweep, trials",
    [
        # 2 sources x 70 trials: 140 squares a point, some points partly successful
        ([-59.9, 29.0], True, [10.0, 30.0], 70),
        # 1 source x 140 trials: partly successful points, then every trial a success
        ([-59.9], False, [10.0, 20.0, math.inf], 140),
    ],
)
def test_monte_carlo_aggregates_past_numpys_pairwise_block(sources, identity, sweep, trials):
    # numpy's pairwise summation changes its order past 128 values; the
    # chunking examples above stop at 27 values a point. On the 1 degree grid
    # every error is an integer and any order sums exactly; on a 0.7 degree
    # grid it is not, so the order of the sum shows.
    scenario = csdoa.build_scenario(
        sources,
        grid_spec=(-90.0, 90.0, 0.7),
        measurement_kind=csdoa.IDENTITY if identity else csdoa.GAUSSIAN,
        seed=5,
    )
    expected = per_trial_curve(scenario, sweep, trials)
    for chunk in (7, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "CHUNK_TRIALS", chunk)
            assert curve_key(csdoa.run_monte_carlo(scenario, sweep, trials)) == expected


def test_monte_carlo_rejects_a_nan_or_minus_inf_sweep_point():
    scenario = csdoa.build_scenario([0.0])
    for snr in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            csdoa.run_monte_carlo(scenario, [0.0, snr], 1)


def test_concurrent_sweeps_in_threads_equal_the_serial_curve():
    # Each stream draws from its own generator and each thread keeps its own
    # Psi buffers: shared ones would be changed by one sweep mid-chunk of another.
    scenarios = [
        csdoa.build_scenario([-60.0, 60.0], seed=3),
        csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[[1, 2]], seed=17),
    ]
    sweep, trials = [0.0, 20.0], 40
    expected = [curve_key(csdoa.run_monte_carlo(s, sweep, trials)) for s in scenarios]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool, pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "CHUNK_TRIALS", 7)
            futures = [
                pool.submit(csdoa.run_monte_carlo, s, sweep, trials)
                for _ in range(3)
                for s in scenarios
            ]
            curves = [curve_key(f.result(timeout=120)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert curves == expected * 3


COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
import csdoa, csdoa.cli

POOL = ("multiprocessing", "concurrent.futures.process")
scenario = csdoa.build_scenario([-60.0, 60.0], seed=1)
csdoa.build_manifold(scenario.grid, scenario.geometry)
random_at_setup = "numpy.random" in sys.modules
csdoa.run_single(scenario)
serial = csdoa.run_monte_carlo(scenario, [0.0, 10.0], 4)
loaded = [[name for name in POOL if name in sys.modules]]
pooled = csdoa.run_monte_carlo(scenario, [0.0, 10.0], 4, workers=2)
loaded.append([name for name in POOL if name in sys.modules])
same = pooled.per_algorithm["omp"].rmse_deg == serial.per_algorithm["omp"].rmse_deg
print(json.dumps(loaded + [same, random_at_setup]))
"""


def test_only_a_pooled_sweep_loads_the_process_pool():
    src = Path(csdoa.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    before, after, same, random_at_setup = json.loads(done.stdout.splitlines()[-1])
    # The benchmark's setup_s times import, build_scenario and build_manifold;
    # numpy.random (about 19 ms) loads with the first draw, not before.
    assert not random_at_setup
    assert before == []
    assert after == ["multiprocessing", "concurrent.futures.process"]
    assert same


def test_a_pool_task_does_not_carry_the_dictionary(monkeypatch):
    # A thread-backed pool that pickles each task and its result as a process
    # pool does. The workers take A from build_manifold's cache, so a task
    # holds the scenario, the sweep and its range, not A's 43 KB.
    import concurrent.futures

    sizes = []

    class PicklingPool(ThreadPoolExecutor):
        def map(self, fn, *iterables):
            def run(item):
                task = pickle.dumps((fn, item))
                sizes.append(len(task))
                solve, flat = pickle.loads(task)
                return pickle.loads(pickle.dumps(solve(flat)))

            return super().map(run, *iterables)

    scenario = csdoa.build_scenario([-60.0, 60.0], seed=3)
    sweep = range(-10, 25, 5)
    serial = csdoa.run_monte_carlo(scenario, sweep, 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    pooled = csdoa.run_monte_carlo(scenario, sweep, 4, workers=2)
    manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
    assert len(sizes) == 7  # 28 trials in chunks of 4
    assert max(sizes) < manifold.nbytes / 4
    assert curve_key(pooled) == curve_key(serial)


def test_a_pool_forks_no_more_workers_than_there_are_chunks(monkeypatch):
    # A process pool forks all its max_workers at the first task, so a sweep
    # of 7 one-trial chunks must not ask for 64. The stub runs in-process, on
    # a stand-in 64-core host, so that the core cap (tested below) stays out.
    import concurrent.futures

    monkeypatch.setattr(os, "cpu_count", lambda: 64)

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    scenario = csdoa.build_scenario([-60.0, 60.0], seed=3)
    sweep = range(-10, 25, 5)
    serial = curve_key(csdoa.run_monte_carlo(scenario, sweep, 1))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert curve_key(csdoa.run_monte_carlo(scenario, sweep, 1, workers=64)) == serial
    assert curve_key(csdoa.run_monte_carlo(scenario, sweep, 1, workers=3)) == serial
    assert sizes == [7, 3]


def test_a_pool_forks_no_more_workers_than_there_are_cores(monkeypatch):
    # A million workers on a sweep of 56 trials: the pool gets at most one
    # process per core, and the chunks are cut as for that many workers. The
    # stub records the pool's size and maps in-process, so nothing is forked.
    import concurrent.futures

    sizes, chunks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for flat in iterables[0]:
                chunks.append(len(flat))
                yield fn(flat)

    scenario = csdoa.build_scenario([-60.0, 60.0], seed=3)
    sweep = range(-10, 25, 5)
    serial = curve_key(csdoa.run_monte_carlo(scenario, sweep, 8))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert curve_key(csdoa.run_monte_carlo(scenario, sweep, 8, workers=10**6)) == serial
    split, chunks[:] = chunks[:], []
    cores = os.cpu_count() or 1
    assert curve_key(csdoa.run_monte_carlo(scenario, sweep, 8, workers=max(2, cores))) == serial
    assert 1 <= sizes[0] <= cores and sizes[0] == sizes[1]
    assert split == chunks and sum(split) == 56


def test_rank_deficient_trial_scores_the_same_alone_and_in_a_sweep():
    # Trial (596, 0, 0) of the criterion-3 scenario at -10 dB: CoSaMP's
    # least-squares fit on the merged support is rank deficient.
    scenario = csdoa.build_scenario([-60.0, 60.0], snr_db=-10.0, seed=596)
    manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
    data_seed, phi_seed = reference_trial_seeds(596, 0, 0)
    snapshot = csdoa.synthesize(scenario, np.random.default_rng(data_seed))
    phi = csdoa.draw_measurement_matrix(7, 15, csdoa.GAUSSIAN, seed=phi_seed)
    system = csdoa.build_sensing_system(phi, manifold)
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.cosamp(system, csdoa.compress(phi, snapshot.data), scenario.solver)

    alone = csdoa.run_single(scenario).runs["cosamp"]
    assert alone.estimated.doas_deg == ()
    assert np.array_equal(alone.spectrum.power, np.zeros(len(scenario.grid)))
    assert np.array_equal(alone.errors_deg, np.full(2, csdoa.MISS_PENALTY_DEG))
    assert alone.iterations == 0
    assert not alone.success
    assert alone.residual_norm == float(np.linalg.norm(csdoa.compress(phi, snapshot.data)))
    tasks = [(0, t) for t in range(6)]
    _, estimates, scores = experiments._run_trials(scenario, (scenario.snr_db,), tasks)
    estimate, row = estimates["cosamp"], 6  # CoSaMP's rows follow OMP's 6
    assert estimate.deficient[0] and scores.counts[row] == 0
    assert np.array_equal(scores.power[row], np.zeros(len(scenario.grid)))
    assert np.array_equal(scores.errors_deg[row], np.full(2, csdoa.MISS_PENALTY_DEG))
    assert estimate.iterations[0] == 0
    assert not scores.success[row]
    assert estimate.residual_norm[0] == alone.residual_norm
    curve = csdoa.run_monte_carlo(scenario, [-10.0], 1)
    assert curve.per_algorithm["cosamp"].rmse_deg == (csdoa.MISS_PENALTY_DEG,)
    assert curve.per_algorithm["cosamp"].success_rate == (0.0,)


# SHA-256 over every field of every StackedEstimate the engine makes on the
# sweeps below, in call order. The set holds 4 OMP trials that converge a step
# early while the rest of their stack goes on, 24 CoSaMP stacks whose trials
# stop at different iterations, and 2 rank-deficient trials. CSV bytes cannot
# see residual bits or iteration counts; this digest does. Re-record it only
# in a change that means to move a solver's output, and say so. Each trial's
# Psi = Phi A rounds as the loaded OpenBLAS kernels round a lone product, so
# the digest is kept per core name (see ``conftest.openblas_core``).
_ENGINE_DIGEST = {
    "SkylakeX": "c69b818b6f75334e704ce1ba08afebcc782c5a1c73ee11af4b6d4e2bc915a547",
    "Haswell": "cf0cd273b0975fdfaff7b5d5a1ee3a42593b3dc0b6374533a3cc71bae46f572c",
    "Katmai": "022e716dc36a4fc0bf3f834cac4957be0c9adc128653037e2bffb48c9f311f39",
    "Sandybridge": "55d68097b3c50736777e030315f5e95f5e5ff52825836e236a97a82ebac870c5",
}
# The same digest where numpy runs only its baseline (X86_V2) loops, as it
# reports X86_V3 "not found" on a CPU without AVX2/FMA or with X86_V3 disabled
# in NPY_DISABLE_CPU_FEATURES: some of those loops round differently.
_ENGINE_DIGEST_X86_V2 = {
    "SkylakeX": "40b1d38cbe87fc1acb0422e79f240648bd67b8a649cce74b20e78826c7415d53",
    "Haswell": "3278a2a04ecef473f632ef4c5e8081e06863a3c8eb26dd7090d7b84501ea03eb",
    "Katmai": "5d1de280b9761e300a3583dac1e541539ec5dfa663deebc5e66ac08c68a14320",
    "Sandybridge": "7f8b92379673484d1700ac0cea943bd0a0e9fc0dfdd2af720e43db02cc8554bc",
}
_CRITERION3_SWEEP = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]


def test_engine_estimates_keep_their_pinned_bits(monkeypatch):
    runs = [(csdoa.build_scenario([-60.0, 60.0], seed=s), _CRITERION3_SWEEP, 3) for s in range(10)]
    runs += [
        (csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[[1, 2]], seed=s), [0.0], 20)
        for s in range(10)
    ]
    runs.append((csdoa.build_scenario([-60.0, 60.0], seed=0), _CRITERION3_SWEEP, 64))
    runs.append((csdoa.build_scenario([-60.0, 60.0], sparsity=3, seed=0), [math.inf], 64))
    digest = hashlib.sha256()

    def hashed(solver):
        def solve(*args):
            estimate = solver(*args)
            for name in ("coefficients", "support", "residual_norm", "iterations", "converged",
                         "deficient"):
                digest.update(np.ascontiguousarray(getattr(estimate, name)).tobytes())
            return estimate

        return solve

    for algorithm, solver in list(experiments._STACK_SOLVERS.items()):
        monkeypatch.setitem(experiments._STACK_SOLVERS, algorithm, hashed(solver))
    for scenario, sweep, trials in runs:
        csdoa.run_monte_carlo(scenario, sweep, trials)
    if "X86_V3" in np.show_config(mode="dicts")["SIMD Extensions"].get("not found", ()):
        pinned = pinned_for_kernel(_ENGINE_DIGEST_X86_V2, "the engine digest on X86_V2 loops")
    else:
        pinned = pinned_for_kernel(_ENGINE_DIGEST, "the engine digest")
    assert digest.hexdigest() == pinned


def test_cosamp_mostly_stops_on_a_first_iterate_that_fits_worse_than_zero():
    # Why CoSaMP trails OMP in the criterion-3 sweep (seed 0): at -10, 5 and
    # 20 dB, most of its trials that are not rank deficient leave at iteration
    # 1 with a residual above ||y||, so the zero estimate would fit better and
    # the stagnation test stops them there. The counts are measured; a change
    # that moves them changes what CoSaMP returns.
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=0)
    sweep = tuple(_CRITERION3_SWEEP)
    for point, (first, fitted) in {0: (890, 997), 3: (933, 999), 6: (960, 1000)}.items():
        stopped = kept = 0
        for start in range(0, 1000, 64):
            tasks = [(point, t) for t in range(start, min(start + 64, 1000))]
            (data, _, _), entries = experiments._draw_trials(scenario, sweep, tasks)
            norm_y = np.linalg.norm(np.matmul(entries, data[..., None])[..., 0], axis=1)
            _, estimates, _ = experiments._run_trials(scenario, sweep, tasks)
            cosamp = estimates["cosamp"]
            ok = ~cosamp.deficient
            kept += np.count_nonzero(ok)
            stopped += np.count_nonzero(
                ok & (cosamp.iterations == 1) & (cosamp.residual_norm > norm_y))
        assert (stopped, kept) == (first, fitted), sweep[point]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    sources=st.lists(st.integers(-90, 90), min_size=1, max_size=3, unique=True),
    half_degree_grid=st.booleans(),
    amplitude_model=st.sampled_from(csdoa.AMPLITUDE_MODELS),
    coherent=st.sampled_from(["none", "pair", "all"]),
    identity=st.booleans(),
    # -12.5 and 6.3 dB: numpy's power and Python's ** round 10^(snr/10) differently
    sweep=st.lists(st.sampled_from([-12.5, 0.0, 6.3, 20.0, math.inf]), min_size=1, max_size=3),
    trials=st.sampled_from([1, 7, 64]),
    seed=st.integers(0, 2**31 - 1),
)
@example(sources=[-90, 90], half_degree_grid=False, amplitude_model="unit_modulus",
         coherent="all", identity=False, sweep=[math.inf, 0.0], trials=7, seed=3)
@example(sources=[-60, 0, 40], half_degree_grid=True, amplitude_model="complex_gaussian",
         coherent="pair", identity=True, sweep=[6.3, -12.5], trials=64, seed=17)
def test_chunk_draws_equal_per_trial_draws(
    sources, half_degree_grid, amplitude_model, coherent, identity, sweep, trials, seed
):
    if half_degree_grid:  # off the whole degrees, except +90 endfire
        doas = [s + 0.5 if s < 90 else 90.0 for s in sources]
    else:
        doas = [float(s) for s in sources]
    groups = {"none": [], "pair": [[0, len(doas) - 1]], "all": [list(range(len(doas)))]}
    scenario = csdoa.build_scenario(
        doas,
        grid_spec=(-90.0, 90.0, 0.5 if half_degree_grid else 1.0),
        coherent_groups=groups[coherent] if len(doas) > 1 else [],
        amplitude_model=amplitude_model,
        measurement_kind=csdoa.IDENTITY if identity else csdoa.GAUSSIAN,
        seed=seed,
    )
    points = {i: replace(scenario, snr_db=snr) for i, snr in enumerate(sweep)}
    tasks = [(k % len(sweep), k // len(sweep)) for k in range(trials)]
    (data, clean, noise), entries = experiments._draw_trials(scenario, tuple(sweep), tasks)
    spec = scenario.measurement
    assert entries.shape == (trials, spec.num_measurements, scenario.geometry.num_sensors)
    for k, (snr_index, trial_index) in enumerate(tasks):
        data_seed, phi_seed = reference_trial_seeds(seed, snr_index, trial_index)
        alone = csdoa.synthesize(points[snr_index], np.random.default_rng(data_seed))
        reference = reference_synthesize(points[snr_index], np.random.default_rng(data_seed))
        for stacked, single, loop in zip(
            (data, clean, noise), (alone.data, alone.clean, alone.noise), reference
        ):
            assert _same_bits(stacked[k], single) and _same_bits(single, loop)
        args = (spec.num_measurements, scenario.geometry.num_sensors, spec.kind)
        single_phi = csdoa.draw_measurement_matrix(*args, seed=phi_seed)
        assert _same_bits(entries[k], single_phi)
        assert _same_bits(single_phi, reference_phi(*args, phi_seed))


_EDGE = 2**32 - 1  # the largest sweep or trial position


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 1])
@pytest.mark.parametrize(
    "kind, snr_db", [(csdoa.GAUSSIAN, 6.3), (csdoa.IDENTITY, 6.3), (csdoa.GAUSSIAN, math.inf)]
)
def test_a_lone_trial_draws_what_it_draws_in_a_chunk(seed, kind, snr_db):
    # A chunk of one seeds its streams through numpy's own SeedSequence and
    # PCG64, a larger chunk through the vectorised replica. The property test
    # above draws seeds below 2**31 only; these span one, two and three
    # entropy words, at both ends of the position range.
    scenario = csdoa.build_scenario(
        [-60.0, 0.0, 40.0], coherent_groups=[[0, 2]], measurement_kind=kind, seed=seed
    )
    tasks = [(0, 0), (0, _EDGE), (_EDGE, 0), (_EDGE, _EDGE)]
    sweep = {0: snr_db, _EDGE: snr_db - 5.0}  # only indexed: stands in for 2**32 points
    (data, clean, noise), entries = experiments._draw_trials(scenario, sweep, tasks)
    for k, task in enumerate(tasks):
        assert csdoa.trial_seeds(seed, *task) == reference_trial_seeds(seed, *task)
        lone, lone_entries = experiments._draw_trials(scenario, sweep, [task])
        for stacked, single in zip((data, clean, noise, entries), (*lone, lone_entries)):
            assert _same_bits(stacked[k], single[0])
    assert math.isfinite(snr_db) == bool(noise.any())


def test_an_identity_phi_builds_no_phi_generators(monkeypatch):
    # A chunk seeds its PCG64s through np.random.PCG64, a lone trial through
    # np.random.default_rng; both are counted.
    built = []
    pcg64, default_rng = np.random.PCG64, np.random.default_rng

    class CountedPCG64(pcg64):
        def __init__(self, seed=None):
            built.append(seed)
            super().__init__(seed)

    def counted_default_rng(seed=None):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "PCG64", CountedPCG64)
    monkeypatch.setattr(np.random, "default_rng", counted_default_rng)
    tasks = [(0, t) for t in range(5)]
    for kind, chunk, lone in ((csdoa.IDENTITY, 5, 1), (csdoa.GAUSSIAN, 10, 2)):
        scenario = csdoa.build_scenario([-60.0, 60.0], measurement_kind=kind, seed=3)
        built.clear()
        experiments._draw_trials(scenario, (0.0,), tasks)
        assert len(built) == chunk
        built.clear()
        experiments._draw_trials(scenario, (0.0,), tasks[:1])
        assert len(built) == lone


# ---------------------------------------------------------------------------
# the Psi stack's size bound and each thread's kept Psi buffers


def test_scenario_refuses_a_trial_psi_over_the_limit():
    # A 1e-4 degree grid: 1.8M points, one trial's Psi is 192 MiB at m = 7.
    # Only the grid's angles (14 MB) are allocated before the refusal.
    with pytest.raises(csdoa.InstanceTooLargeError, match="one trial's Psi"):
        csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, 1e-4))


def test_psi_limit_is_m_times_grid_points():
    # At 7 sensors and m = 7, A (sensors x grid points) is as large as Psi,
    # which is checked first.
    at_limit = 7 * 181 * 16
    flags = dict(num_sensors=7, num_measurements=7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MAX_ARRAY_BYTES", at_limit)
        csdoa.build_scenario([-60.0, 60.0], **flags)
        mp.setattr(experiments, "MAX_ARRAY_BYTES", at_limit - 1)
        with pytest.raises(csdoa.InstanceTooLargeError, match="one trial's Psi"):
            csdoa.build_scenario([-60.0, 60.0], **flags)


def test_fine_grid_within_the_limit_builds():
    # 0.001 degrees: 180,001 points, 20 MB of Psi a trial; a 64-trial stack
    # would pass the limit, but a chunk takes fewer trials.
    scenario = csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, 1e-3))
    assert len(scenario.grid.angles_deg) == 180_001


def test_chunk_layouts_of_the_benchmark_sweeps_and_criterion_3(monkeypatch):
    # Each of these scenarios' 64-trial Psi stacks fits the kept-buffer
    # budget, so the budget cuts none of their chunks: these are the layouts
    # the chunks had while the 128 MiB bound sized them. Two cores, as the
    # pool's sweeps are laid out on a 2-vCPU host.
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    two = csdoa.build_scenario([-60.0, 60.0])
    coherent = csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[[1, 2]])
    three = csdoa.build_scenario([-60.0, 0.0, 40.0])
    layouts = [
        (two, 7, 3, 1, (64, 7, 1)),  # mc-2src
        (two, 7, 40, 2, (35, 2, 2)),  # its pool sweep
        (coherent, 1, 20, 1, (64, 1, 1)),  # mc-3src
        (coherent, 1, 300, 2, (38, 1, 2)),  # its pool sweep
        (three, 1, 1, 1, (64, 1, 1)),  # single-shot
        (three, 1, 300, 2, (38, 1, 2)),  # its pool sweep
        (two, 7, 1000, 1, (64, 2, 1)),  # criterion 3
        (two, 7, 1000, 2, (64, 2, 2)),
    ]
    for scenario, points, trials, workers, layout in layouts:
        assert experiments._sweep_layout(scenario, points, trials, workers) == layout


@pytest.mark.parametrize("step", [1.0, 0.1, 0.01, 0.001])
def test_every_chunk_of_two_or_more_trials_fits_the_kept_buffers(step):
    # Psi or Phi may be the larger; identity Phi included. A chunk takes as
    # many trials as fit the budget, up to CHUNK_TRIALS, and builds Psi in
    # the thread's kept pair unless it is a lone trial over the budget. A
    # Scenario whose A(theta) would pass the array bound is refused.
    budget, points = experiments.KEPT_PSI_BYTES, round(180 / step) + 1
    for sensors, m, kind in [
        (15, 7, csdoa.GAUSSIAN), (15, 10, csdoa.GAUSSIAN), (15, 15, csdoa.IDENTITY),
        (40, 25, csdoa.GAUSSIAN), (46, 46, csdoa.IDENTITY), (300, 300, csdoa.IDENTITY),
        (417, 417, csdoa.IDENTITY), (2000, 30, csdoa.GAUSSIAN),
    ]:
        flags = dict(num_sensors=sensors, num_measurements=m, measurement_kind=kind)
        limit = experiments.MAX_ARRAY_BYTES
        if 16 * sensors * points > limit:  # Psi is checked first
            refused = "one trial's Psi" if 16 * m * points > limit else r"A\(theta\)"
            with pytest.raises(csdoa.InstanceTooLargeError, match=refused):
                csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, step), **flags)
            continue
        scenario = csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, step), **flags)
        assert len(scenario.grid.angles_deg) == points
        trial = 16 * m * max(points, sensors)
        for workers in (1, 2):
            size, _, _ = experiments._sweep_layout(scenario, 7, 1000, workers)
            assert 1 <= size <= experiments.CHUNK_TRIALS
            if size > 1:
                assert size * 16 * m * points <= budget and size * 16 * m * sensors <= budget
                psi, _ = experiments._psi_buffers((size, m, points))
                assert np.shares_memory(psi, _kept_buffers()[0])
            if workers == 1:  # as many as fit
                assert size == experiments.CHUNK_TRIALS or (size + 1) * trial > budget


def test_a_fine_grid_sweep_runs_in_lone_trials_in_little_memory():
    # 0.01 degrees: 18,001 points and 2.0 MB of Psi a trial at m = 7, so each
    # chunk is one trial. One 64-trial chunk would build a 129 MB Psi stack
    # and as much scratch (a 363.5 MiB traced peak). A(theta) is cached by
    # the reference curve before tracing starts.
    scenario = csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, 0.01), seed=5)
    expected = per_trial_curve(scenario, [0.0, 20.0], 32)
    tracemalloc.start()
    try:
        serial = csdoa.run_monte_carlo(scenario, [0.0, 20.0], 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve_key(serial) == expected
    assert peak < 16 * 2**20
    assert curve_key(csdoa.run_monte_carlo(scenario, [0.0, 20.0], 32, workers=2)) == expected


def test_chunks_take_fewer_trials_to_keep_psi_under_the_limit(monkeypatch):
    seen = psi_spy(monkeypatch)
    monkeypatch.setattr(experiments, "KEPT_PSI_BYTES", 10 * 7 * 181 * 16 + 1)
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=3)
    curve = csdoa.run_monte_carlo(scenario, [0.0, 20.0], 13)
    assert [psi.shape[0] for psi, _, _ in seen] == [10, 10, 6]
    assert curve_key(curve) == per_trial_curve(scenario, [0.0, 20.0], 13)


def test_chunks_take_fewer_trials_to_keep_phi_under_the_limit(monkeypatch):
    # On a 30 degree grid (7 points) an identity Phi (15 x 15) is larger than
    # Psi (15 x 7), so Phi alone sets the chunk: 10 trials of 3600 bytes.
    seen = psi_spy(monkeypatch)
    monkeypatch.setattr(experiments, "KEPT_PSI_BYTES", 10 * 15 * 15 * 16 + 1)
    scenario = csdoa.build_scenario(
        [-60.0, 60.0], grid_spec=(-90.0, 90.0, 30.0), measurement_kind=csdoa.IDENTITY, seed=3
    )
    curve = csdoa.run_monte_carlo(scenario, [0.0, 20.0], 13)
    assert [psi.shape for psi, _, _ in seen] == [(10, 15, 7), (10, 15, 7), (6, 15, 7)]
    assert curve_key(curve) == per_trial_curve(scenario, [0.0, 20.0], 13)


def test_phi_limit_is_m_times_sensors_checked_after_psi():
    # Identity Phi at 15 sensors is 3600 bytes a trial and its Psi on a 30
    # degree grid 1680: the Scenario refuses Phi at a limit between them,
    # and names Psi first when both pass the limit.
    flags = dict(grid_spec=(-90.0, 90.0, 30.0), measurement_kind=csdoa.IDENTITY)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MAX_ARRAY_BYTES", 15 * 15 * 16)
        csdoa.build_scenario([-60.0, 60.0], **flags)
        mp.setattr(experiments, "MAX_ARRAY_BYTES", 15 * 15 * 16 - 1)
        with pytest.raises(csdoa.InstanceTooLargeError, match="one trial's Phi at m = 15 on 15"):
            csdoa.build_scenario([-60.0, 60.0], **flags)
        mp.setattr(experiments, "MAX_ARRAY_BYTES", 15 * 7 * 16 - 1)
        with pytest.raises(csdoa.InstanceTooLargeError, match="one trial's Psi"):
            csdoa.build_scenario([-60.0, 60.0], **flags)


def _forbidden(*args, **kwargs):
    raise AssertionError("the sweep started work before its size check")


def test_sweep_refuses_point_buffers_over_the_limit(monkeypatch):
    # 1e9 trials a point would need a 64 GiB ring of point buffers. The check
    # runs before the manifold, the ring or any chunk is built.
    monkeypatch.setattr(experiments, "build_manifold", _forbidden)
    monkeypatch.setattr(experiments, "_run_trials", _forbidden)
    scenario = csdoa.build_scenario([-60.0, 60.0])
    with pytest.raises(csdoa.InstanceTooLargeError, match="MiB of point buffers"):
        csdoa.run_monte_carlo(scenario, [0.0, 10.0], 1_000_000_000)


def test_monte_carlo_refuses_non_integer_trials_and_workers(monkeypatch):
    # As SolverConfig and the CLI do: a float, even an integral one, or a bool
    # is refused by name before any chunk runs.
    monkeypatch.setattr(experiments, "_run_trials", _forbidden)
    scenario = csdoa.build_scenario([-60.0, 60.0])
    for trials in (2.5, 3.0, True):
        with pytest.raises(TypeError, match="trials must be an integer"):
            csdoa.run_monte_carlo(scenario, [0.0], trials)
    for workers in (1.5, True):
        with pytest.raises(TypeError, match="workers must be an integer"):
            csdoa.run_monte_carlo(scenario, [0.0], 3, workers=workers)


def test_ring_limit_counts_each_errors_and_success_byte():
    # 7 points of 3 trials fit one 64-trial chunk, so the ring has 7 slots of
    # 2 algorithms x 3 trials x (2 float64 errors + 1 bool flag).
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=3)
    at_limit = 7 * 2 * 3 * (2 * 8 + 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MAX_RING_BYTES", at_limit)
        curve = csdoa.run_monte_carlo(scenario, range(0, 35, 5), 3)
        mp.setattr(experiments, "MAX_RING_BYTES", at_limit - 1)
        with pytest.raises(csdoa.InstanceTooLargeError, match="MiB of point buffers"):
            csdoa.run_monte_carlo(scenario, range(0, 35, 5), 3)
    assert curve_key(curve) == per_trial_curve(scenario, range(0, 35, 5), 3)


def _arrays(*objects) -> list:
    """Every array in ``objects``: arrays, tuples, dicts and dataclasses, searched through."""
    found = []
    for obj in objects:
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            found += _arrays(*obj)
        elif isinstance(obj, dict):
            found += _arrays(*obj.values())
        elif dataclasses.is_dataclass(obj):
            found += _arrays(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    return found


def _kept_buffers() -> tuple:
    return getattr(experiments._THREAD, "psi", ())


def test_equal_chunks_build_psi_in_the_threads_kept_storage(monkeypatch):
    seen = psi_spy(monkeypatch)
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=2)
    csdoa.run_monte_carlo(scenario, [0.0, 10.0], experiments.CHUNK_TRIALS)
    (first, _, _), (second, _, _) = seen
    assert first.shape == second.shape == (experiments.CHUNK_TRIALS, 7, 181)
    assert first.ctypes.data == second.ctypes.data
    kept = _kept_buffers()
    assert np.shares_memory(first, kept[0])

    # Under a budget below one trial's Psi, each chunk is a lone trial that
    # builds Psi in fresh storage and keeps nothing.
    monkeypatch.setattr(experiments, "KEPT_PSI_BYTES", 7 * 181 * 16 - 1)
    seen.clear()
    csdoa.run_monte_carlo(scenario, [0.0], 3)
    assert [psi.shape for psi, _, _ in seen] == [(1, 7, 181)] * 3
    assert _kept_buffers() is kept
    for psi, _, _ in seen:
        assert not any(np.shares_memory(psi, buffer) for buffer in kept)

    def kept_after_an_over_cap_sweep() -> tuple:
        csdoa.run_monte_carlo(scenario, [0.0], 3)
        return _kept_buffers()

    with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread, which keeps nothing
        assert pool.submit(kept_after_an_over_cap_sweep).result(timeout=60) == ()


def test_no_result_shares_memory_with_the_kept_psi_buffers():
    three = csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[[1, 2]], seed=4)
    manifold = csdoa.build_manifold(three.grid, three.geometry)
    phi = csdoa.draw_measurement_matrix(10, 15, csdoa.GAUSSIAN, seed=1)
    held = _arrays(csdoa.build_sensing_system(phi, manifold), csdoa.run_single(three))
    before = [a.copy() for a in held]
    scenarios = [
        (csdoa.build_scenario([-60.0, 60.0], seed=1), [0.0, 20.0], 40),
        (three, [0.0], 20),
        (csdoa.build_scenario([-60.0, 60.0], measurement_kind=csdoa.IDENTITY, seed=6),
         [10.0], 30),
        (csdoa.build_scenario([-59.5, 30.0], grid_spec=(-90.0, 90.0, 0.5), seed=8), [5.0], 9),
    ]
    for scenario, sweep, trials in scenarios:
        csdoa.run_monte_carlo(scenario, sweep, trials)
        tasks = [(0, t) for t in range(trials)]
        returned = _arrays(experiments._run_trials(scenario, tuple(sweep), tasks))
        kept = _kept_buffers()
        assert kept
        for array in held + returned:
            assert not any(np.shares_memory(array, buffer) for buffer in kept)
    assert all(_same_bits(a, b) for a, b in zip(held, before))


def _single_key(result) -> dict:
    """``per_trial_curve``'s values for a one-trial sweep, from a ``run_single`` result."""
    key = {}
    for algorithm, run in result.runs.items():
        rmse = float(np.sqrt(np.mean(run.errors_deg ** 2)))
        hit = run.success
        key[algorithm] = tuple(
            (repr(v),) for v in (rmse, rmse if hit else float("nan"), 1.0 if hit else 0.0)
        )
    return key


def test_kept_psi_buffers_survive_shape_churn_in_one_thread():
    # One fresh thread runs chunks of many shapes: full and tail chunks, m of
    # 7, 10 and 15 (the buffers grow), a trial of one, and lone trials over
    # the budget. Every curve must still be the trial-by-trial one.
    criterion3 = csdoa.build_scenario([-60.0, 60.0], seed=0)
    coherent = csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[[1, 2]], seed=17)
    identity = csdoa.build_scenario([-60.0, 60.0], measurement_kind=csdoa.IDENTITY, seed=6)
    single = csdoa.build_scenario([-60.0, 0.0, 40.0], seed=9)
    runs = {
        "criterion3": (criterion3, [0.0, 20.0], 70),  # chunks of 64, 64 and 12
        "coherent": (coherent, [0.0], 20),
        "identity": (identity, [10.0], 40),
        "over_cap": (criterion3, [20.0, 0.0], 11),
    }
    expected = {name: per_trial_curve(*run) for name, run in runs.items()}
    expected["single"] = per_trial_curve(single, [single.snr_db], 1)
    order = ["criterion3", "coherent", "single", "identity", "criterion3", "over_cap",
             "single", "coherent", "criterion3"]

    def churn() -> dict:
        got = {}
        for name in order:
            if name == "single":
                got.setdefault(name, []).append(_single_key(csdoa.run_single(single)))
                continue
            with pytest.MonkeyPatch.context() as mp:
                if name == "over_cap":
                    mp.setattr(experiments, "KEPT_PSI_BYTES", 7 * 181 * 16 - 1)
                curve = csdoa.run_monte_carlo(*runs[name])
            got.setdefault(name, []).append(curve_key(curve))
        return got

    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(max_workers=1) as pool:
        mp.setattr(experiments, "CHUNK_TRIALS", 64)
        got = pool.submit(churn).result(timeout=120)
    assert got == {name: [expected[name]] * order.count(name) for name in expected}
