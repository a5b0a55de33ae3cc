"""Tests for scenario assembly, seeded trials, and Monte Carlo aggregation."""

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdoa
from conftest import (
    curve_key,
    per_trial_curve,
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
    # Each thread draws from its own generator: a shared one would be reset
    # by one sweep between another's reset and its draws.
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
    _, estimates, scores = experiments._run_trials(scenario, (scenario.snr_db,), manifold, tasks)
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
    manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
    tasks = [(k % len(sweep), k // len(sweep)) for k in range(trials)]
    (data, clean, noise), phi = experiments._draw_trials(scenario, tuple(sweep), manifold, tasks)
    spec = scenario.measurement
    assert phi.entries.shape == (trials, spec.num_measurements, scenario.geometry.num_sensors)
    for k, (snr_index, trial_index) in enumerate(tasks):
        data_seed, phi_seed = reference_trial_seeds(seed, snr_index, trial_index)
        alone = csdoa.synthesize(points[snr_index], np.random.default_rng(data_seed))
        reference = reference_synthesize(points[snr_index], np.random.default_rng(data_seed))
        for stacked, single, loop in zip(
            (data, clean, noise), (alone.data, alone.clean, alone.noise), reference
        ):
            assert _same_bits(stacked[k], single) and _same_bits(single, loop)
        args = (spec.num_measurements, scenario.geometry.num_sensors, spec.kind)
        single_phi = csdoa.draw_measurement_matrix(*args, seed=phi_seed).entries
        assert _same_bits(phi.entries[k], single_phi)
        assert _same_bits(single_phi, reference_phi(*args, phi_seed))


# ---------------------------------------------------------------------------
# the Psi stack's size bound and each thread's kept Psi buffers


def test_scenario_refuses_a_trial_psi_over_the_limit():
    # A 1e-4 degree grid: 1.8M points, one trial's Psi is 192 MiB at m = 7.
    # Only the grid's angles (14 MB) are allocated before the refusal.
    with pytest.raises(csdoa.InstanceTooLargeError, match="one trial's Psi"):
        csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, 1e-4))


def test_psi_limit_is_m_times_grid_points():
    at_limit = 7 * 181 * 16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "MAX_PSI_STACK_BYTES", at_limit)
        csdoa.build_scenario([-60.0, 60.0])
        mp.setattr(experiments, "MAX_PSI_STACK_BYTES", at_limit - 1)
        with pytest.raises(csdoa.InstanceTooLargeError, match="one trial's Psi"):
            csdoa.build_scenario([-60.0, 60.0])


def test_fine_grid_within_the_limit_builds():
    # 0.001 degrees: 180,001 points, 20 MB of Psi a trial; a 64-trial stack
    # would pass the limit, but a chunk takes fewer trials.
    scenario = csdoa.build_scenario([-60.0, 60.0], grid_spec=(-90.0, 90.0, 1e-3))
    assert len(scenario.grid.angles_deg) == 180_001


def test_chunks_take_fewer_trials_to_keep_psi_under_the_limit(monkeypatch):
    seen = _psi_spy(monkeypatch)
    monkeypatch.setattr(experiments, "MAX_PSI_STACK_BYTES", 10 * 7 * 181 * 16 + 1)
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=3)
    curve = csdoa.run_monte_carlo(scenario, [0.0, 20.0], 13)
    assert [psi.shape[0] for psi in seen] == [10, 10, 6]
    assert curve_key(curve) == per_trial_curve(scenario, [0.0, 20.0], 13)


def _psi_spy(monkeypatch) -> list:
    """Each engine chunk's Psi, as it reaches the OMP solver."""
    seen = []
    solve = experiments._STACK_SOLVERS[csdoa.OMP]

    def spy(system, y, config):
        seen.append(system.psi)
        return solve(system, y, config)

    monkeypatch.setitem(experiments._STACK_SOLVERS, csdoa.OMP, spy)
    return seen


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
    seen = _psi_spy(monkeypatch)
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=2)
    csdoa.run_monte_carlo(scenario, [0.0, 10.0], experiments.CHUNK_TRIALS)
    first, second = seen
    assert first.shape == second.shape == (experiments.CHUNK_TRIALS, 7, 181)
    assert first.ctypes.data == second.ctypes.data
    kept = _kept_buffers()
    assert np.shares_memory(first, kept[0])

    # Over the cap, a chunk builds Psi in fresh storage and keeps nothing.
    monkeypatch.setattr(experiments, "KEPT_PSI_BYTES", 10 * 7 * 181 * 16)
    seen.clear()
    csdoa.run_monte_carlo(scenario, [0.0], 11)
    assert seen[0].shape == (11, 7, 181)
    assert _kept_buffers() is kept
    assert not any(np.shares_memory(seen[0], buffer) for buffer in kept)

    def kept_after_an_over_cap_sweep() -> tuple:
        csdoa.run_monte_carlo(scenario, [0.0], 11)
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
        chunk_manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
        tasks = [(0, t) for t in range(trials)]
        returned = _arrays(experiments._run_trials(scenario, tuple(sweep), chunk_manifold, tasks))
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
    # 7, 10 and 15 (the buffers grow), a trial of one, and a stack over the
    # kept size. Every curve must still be the trial-by-trial one.
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
                    mp.setattr(experiments, "KEPT_PSI_BYTES", 10 * 7 * 181 * 16)
                curve = csdoa.run_monte_carlo(*runs[name])
            got.setdefault(name, []).append(curve_key(curve))
        return got

    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(max_workers=1) as pool:
        mp.setattr(experiments, "CHUNK_TRIALS", 64)
        got = pool.submit(churn).result(timeout=120)
    assert got == {name: [expected[name]] * order.count(name) for name in expected}
