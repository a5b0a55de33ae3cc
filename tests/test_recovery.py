"""Tests for the complex least-squares core and the three sparse solvers."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import csdoa
from conftest import (
    _reference_least_squares,
    gaussian_system,
    normal_equations,
    oracle_match_counts,
    planted_instance,
    reference_cosamp,
    reference_l0_oracle,
    reference_omp,
)
from csdoa import cli, experiments, recovery
from csdoa.recovery import cosamp_stack, omp_stack


# ---------------------------------------------------------------------------
# SolverConfig


def test_solver_config_defaults_and_validation():
    config = csdoa.SolverConfig(sparsity=3)
    assert config.max_iterations == 50
    assert config.residual_tol == 1e-6
    with pytest.raises(ValueError):
        csdoa.SolverConfig(sparsity=0)
    with pytest.raises(ValueError):
        csdoa.SolverConfig(sparsity=1, max_iterations=0)
    with pytest.raises(ValueError):
        csdoa.SolverConfig(sparsity=1, residual_tol=-1.0)


def test_the_iteration_cap_has_one_default():
    # SolverConfig states max(50, sparsity) once; build_scenario passes its
    # max_iterations through. 80 identity rows let OMP take every sparsity.
    for sparsity in range(1, 81):
        config = csdoa.SolverConfig(sparsity=sparsity)
        assert config.max_iterations == max(50, sparsity)
        scenario = csdoa.build_scenario(
            [-60.0, 60.0], num_sensors=80, measurement_kind="identity", algorithms=["omp"],
            sparsity=sparsity,
        )
        assert scenario.solver == config


def test_omp_runs_a_default_config_whose_sparsity_exceeds_50():
    geometry, grid = csdoa.ArrayGeometry(64), csdoa.make_grid(-90.0, 90.0, 1.0)
    system = csdoa.SensingSystem(np.eye(64, dtype=complex), csdoa.build_manifold(grid, geometry))
    atom = grid.index_of(20.0)
    estimate = csdoa.omp(system, system.psi[:, atom], csdoa.SolverConfig(sparsity=60))
    assert estimate.support == (atom,)
    assert estimate.converged


# ---------------------------------------------------------------------------
# least_squares


def test_least_squares_constant_column():
    basis = np.ones((4, 1), dtype=complex)
    y = 3.0 * np.ones(4, dtype=complex)
    coef = csdoa.least_squares(basis, y)
    assert coef.shape == (1,)
    assert abs(coef[0] - 3.0) < 1e-12


def test_least_squares_orthonormal_basis_projects():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    coef = csdoa.least_squares(q, y)
    assert np.linalg.norm(coef - q.conj().T @ y) < 1e-10


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        basis = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coef = csdoa.least_squares(basis, y)
        expected = normal_equations(basis, y)
        assert np.linalg.norm(coef - expected) <= 1e-8 * (1.0 + np.linalg.norm(expected))


def test_least_squares_empty_basis():
    coef = csdoa.least_squares(np.zeros((4, 0), dtype=complex), np.ones(4, dtype=complex))
    assert coef.shape == (0,)


def test_least_squares_rejects_rank_deficiency():
    rng = np.random.default_rng(2)
    col = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.least_squares(np.column_stack([col, col]), y)
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.least_squares(np.column_stack([col, 2.0 * col]), y)
    # more columns than rows is always rank-deficient
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.least_squares(rng.standard_normal((3, 5)) + 0j, np.ones(3, dtype=complex))


def test_least_squares_stack_solves_each_trial_and_marks_deficient_ones():
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((5, 8, 3)) + 1j * rng.standard_normal((5, 8, 3))
    basis[2, :, 2] = 2.0 * basis[2, :, 0]
    y = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    coef = csdoa.least_squares(basis, y)
    assert coef.shape == (5, 3)
    assert np.all(np.isnan(coef[2]))
    for t in (0, 1, 3, 4):
        assert np.array_equal(coef[t], csdoa.least_squares(basis[t], y[t]))
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.least_squares(basis[2], y[2])


@settings(max_examples=80, deadline=None)
@given(
    trials=st.integers(1, 8),
    shape=st.integers(1, 10).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
    edits=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.sampled_from(["duplicate", "zero", "scale"]),
            st.integers(0, 9),
            st.integers(0, 9),
            st.sampled_from([2.0**-40, 1e-12, 1e-6, 3.0, 2.0**30]),
        ),
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_least_squares_equals_the_numpy_reference_bit_for_bit(trials, shape, edits, seed):
    m, k = shape
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((trials, m, k)) + 1j * rng.standard_normal((trials, m, k))
    y = rng.standard_normal((trials, m)) + 1j * rng.standard_normal((trials, m))
    for t, edit, j, source, factor in edits:
        t, j, source = t % trials, j % k, source % k
        if edit == "duplicate":
            basis[t, :, j] = basis[t, :, source]
        elif edit == "zero":
            basis[t, :, j] = 0.0
        else:
            basis[t, :, j] *= factor
    coef = csdoa.least_squares(basis, y)
    assert coef.shape == (trials, k)
    for t in range(trials):
        try:
            expected = _reference_least_squares(basis[t], y[t])
        except csdoa.RankDeficientError:
            assert np.all(np.isnan(coef[t]))
            with pytest.raises(csdoa.RankDeficientError):
                csdoa.least_squares(basis[t], y[t])
            continue
        assert np.array_equal(coef[t], expected)
        assert np.array_equal(csdoa.least_squares(basis[t], y[t]), expected)


# ---------------------------------------------------------------------------
# _top_indices


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-np.inf, 0.0, 0.5, 1.0, 2.0]), min_size=n, max_size=n),
            min_size=1,
            max_size=5,
        )
    ),
    fraction=st.floats(0.0, 1.0),
)
def test_top_indices_is_a_stable_argsort_with_distinct_picks(rows, fraction):
    # Few distinct values force ties. No caller passes -inf entries; with them the
    # picks are distinct only up to a row's entries above -inf.
    values = np.array(rows)
    above = int(np.count_nonzero(values > -np.inf, axis=1).min())
    count = round(fraction * above)
    scratch = values.copy()
    top = recovery._top_indices(scratch, count)
    assert top.shape == (len(rows), count)
    assert np.array_equal(top, np.argsort(-values, axis=1, kind="stable")[:, :count])
    chosen = np.zeros(values.shape, dtype=bool)
    chosen[np.arange(len(rows))[:, None], top] = True
    assert np.array_equal(scratch, np.where(chosen, -np.inf, values))
    assert all(len(set(row)) == count for row in top.tolist())


# ---------------------------------------------------------------------------
# correlate


def _stacked(systems):
    """The (T, m, N_s) Psi and (T, N_s) column norms of T one-trial systems."""
    systems = list(systems)
    return np.stack([s.psi for s in systems]), np.stack([s.column_norms for s in systems])


def test_correlate_zero_residual():
    system = gaussian_system(8, 12, seed=0)
    proxy = csdoa.correlate(system.psi, system.column_norms, np.zeros(8, dtype=complex))
    assert np.array_equal(proxy, np.zeros(12))


def test_correlate_matches_scalar_loop():
    system = gaussian_system(8, 12, seed=0)
    rng = np.random.default_rng(3)
    residual = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    proxy = csdoa.correlate(system.psi, system.column_norms, residual)
    for j in range(12):
        expected = abs(np.vdot(system.psi[:, j], residual)) / system.column_norms[j]
        assert abs(proxy[j] - expected) < 1e-12


def test_correlate_stack_matches_each_trial():
    systems = [gaussian_system(8, 12, seed=s) for s in range(4)]
    rng = np.random.default_rng(6)
    residual = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    proxy = csdoa.correlate(*_stacked(systems), residual)
    shared = csdoa.correlate(systems[0].psi, systems[0].column_norms, residual)
    for t, single in enumerate(systems):
        alone = csdoa.correlate(single.psi, single.column_norms, residual[t])
        assert np.array_equal(proxy[t], alone)
        first = csdoa.correlate(systems[0].psi, systems[0].column_norms, residual[t])
        assert np.array_equal(shared[t], first)


def _orthonormal_system(m=8, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return csdoa.build_sensing_system(q, np.eye(m, dtype=complex))


# ---------------------------------------------------------------------------
# omp


def test_omp_orthonormal_single_atom():
    system = _orthonormal_system()
    y = 3.0 * system.psi[:, 5]
    estimate = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=1))
    assert estimate.support == (5,)
    assert abs(estimate.coefficients[5] - 3.0) < 1e-10
    assert estimate.residual_norm < 1e-10
    assert estimate.converged
    assert estimate.iterations == 1


def test_omp_zero_measurement():
    system = gaussian_system(8, 12, seed=0)
    estimate = csdoa.omp(system, np.zeros(8, dtype=complex), csdoa.SolverConfig(sparsity=3))
    assert estimate.support == ()
    assert estimate.iterations == 0
    assert estimate.converged
    assert np.array_equal(estimate.coefficients, np.zeros(12, dtype=complex))


def test_omp_recovers_planted_supports():
    for inst in range(5):
        system, y, support, x = planted_instance(200, inst)
        estimate = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=2))
        assert tuple(sorted(estimate.support)) == support
        assert np.linalg.norm(estimate.coefficients - x) < 1e-8
        assert estimate.residual_norm < 1e-8 * np.linalg.norm(y)


def test_omp_never_reselects_an_atom():
    for inst in range(100):
        system, y, _, _ = planted_instance(7000, inst)
        estimate = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=2))
        assert len(set(estimate.support)) == len(estimate.support)
        assert 1 <= len(estimate.support) <= 2


def test_omp_selection_is_prefix_consistent():
    for inst in range(100):
        system, y, _, _ = planted_instance(9000, inst, sparsity=3)
        one = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=1))
        two = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=2))
        three = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=3))
        assert two.support[:1] == one.support
        assert three.support[:2] == two.support
        assert three.residual_norm <= two.residual_norm + 1e-12
        assert two.residual_norm <= one.residual_norm + 1e-12


def test_omp_residual_orthogonal_to_selected_columns():
    system, y, _, _ = planted_instance(11000, 0, sparsity=3)
    estimate = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=3))
    residual = y - system.psi @ estimate.coefficients
    for j in estimate.support:
        bound = 1e-8 * np.linalg.norm(y) * system.column_norms[j]
        assert abs(np.vdot(system.psi[:, j], residual)) <= bound


def test_omp_stops_early_on_small_residual():
    system, y, support, _ = planted_instance(13000, 0, sparsity=1)
    estimate = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=3))
    assert estimate.iterations == 1
    assert estimate.support == support
    assert estimate.converged


def test_omp_validates_config_against_system():
    system = gaussian_system(4, 12, seed=0)
    y = system.psi[:, 0]
    with pytest.raises(ValueError):
        csdoa.omp(system, y, csdoa.SolverConfig(sparsity=5))
    with pytest.raises(ValueError):
        csdoa.omp(system, y, csdoa.SolverConfig(sparsity=3, max_iterations=2))


def test_omp_scaling_invariance():
    system, y, _, _ = planted_instance(15000, 0)
    alpha = 2.0 - 3.0j
    base = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=2))
    scaled = csdoa.omp(system, alpha * y, csdoa.SolverConfig(sparsity=2))
    assert scaled.support == base.support
    assert scaled.iterations == base.iterations
    assert np.linalg.norm(scaled.coefficients - alpha * base.coefficients) < 1e-10
    assert abs(scaled.residual_norm - abs(alpha) * base.residual_norm) < 1e-10


# ---------------------------------------------------------------------------
# cosamp


def test_cosamp_orthonormal_single_atom():
    system = _orthonormal_system()
    y = 2.0 * system.psi[:, 3]
    estimate = csdoa.cosamp(system, y, csdoa.SolverConfig(sparsity=1))
    assert estimate.support == (3,)
    assert abs(estimate.coefficients[3] - 2.0) < 1e-10
    assert estimate.converged


def test_cosamp_zero_measurement():
    system = gaussian_system(8, 12, seed=0)
    estimate = csdoa.cosamp(system, np.zeros(8, dtype=complex), csdoa.SolverConfig(sparsity=3))
    assert estimate.support == ()
    assert estimate.iterations == 0
    assert estimate.converged


def test_cosamp_recovers_planted_supports():
    for inst in range(5):
        system, y, support, x = planted_instance(200, inst)
        estimate = csdoa.cosamp(system, y, csdoa.SolverConfig(sparsity=2))
        assert estimate.support == support
        assert np.linalg.norm(estimate.coefficients - x) < 1e-8


def test_cosamp_returns_best_iterate():
    # the returned residual can never exceed the first iteration's
    system, y, _, _ = planted_instance(17000, 0, sparsity=3)
    first = csdoa.cosamp(system, y, csdoa.SolverConfig(sparsity=3, max_iterations=1))
    full = csdoa.cosamp(system, y, csdoa.SolverConfig(sparsity=3))
    assert full.residual_norm <= first.residual_norm + 1e-12
    assert full.iterations <= 50


def test_cosamp_requires_twice_sparsity_measurements():
    system = gaussian_system(5, 12, seed=0)
    with pytest.raises(ValueError):
        csdoa.cosamp(system, system.psi[:, 0], csdoa.SolverConfig(sparsity=3))


def test_cosamp_raises_on_rank_deficient_merged_support():
    # duplicated dictionary column: both copies enter the candidate set
    phi = csdoa.draw_measurement_matrix(6, 6, csdoa.GAUSSIAN, seed=8)
    manifold = np.eye(6, dtype=complex)
    manifold[:, 4] = manifold[:, 1]
    system = csdoa.build_sensing_system(phi, manifold)
    y = system.psi[:, 1].copy()
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.cosamp(system, y, csdoa.SolverConfig(sparsity=1))


def test_cosamp_scaling_invariance():
    system, y, _, _ = planted_instance(15000, 0)
    alpha = 2.0 - 3.0j
    base = csdoa.cosamp(system, y, csdoa.SolverConfig(sparsity=2))
    scaled = csdoa.cosamp(system, alpha * y, csdoa.SolverConfig(sparsity=2))
    assert scaled.support == base.support
    assert np.linalg.norm(scaled.coefficients - alpha * base.coefficients) < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "steering"]),
    sparsity=st.integers(1, 3),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    y_power=st.integers(-30, 30),
    column_power=st.integers(-30, 30),
    column=st.integers(0, 180),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_of_two_scaling_keeps_each_selection(
    kind, sparsity, noise, y_power, column_power, column, seed
):
    # Scaling by a power of two rounds exactly, so every comparison the
    # solvers make comes out the same. Scaling a column is checked for OMP
    # only: CoSaMP's prune keeps the largest raw coefficients, so a scaled
    # column does move its support.
    manifold = np.array(_dictionary(kind))
    n, num_atoms = manifold.shape
    rng = np.random.default_rng(seed)
    phi = csdoa.draw_measurement_matrix(2 * sparsity + 1, n, csdoa.GAUSSIAN, seed=seed)
    system = csdoa.build_sensing_system(phi, manifold)
    x = np.zeros(num_atoms, dtype=complex)
    atoms = rng.choice(num_atoms, size=sparsity, replace=False)
    x[atoms] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, sparsity))
    y = system.psi @ x
    y += noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    config = csdoa.SolverConfig(sparsity=sparsity)

    def outcome(solver, system, y):
        try:
            estimate = solver(system, y, config)
        except csdoa.RankDeficientError:
            return None
        return estimate.support, estimate.iterations

    for solver in (csdoa.omp, csdoa.cosamp):
        assert outcome(solver, system, 2.0**y_power * y) == outcome(solver, system, y)
    base = outcome(csdoa.omp, system, y)
    # The column OMP picks first, and one drawn column.
    scaled = manifold.copy()
    for j in {column % num_atoms, *(base[0][:1] if base else ())}:
        scaled[:, j] *= 2.0**column_power
    assert outcome(csdoa.omp, csdoa.build_sensing_system(phi, scaled), y) == base


# The benchmark's two sweep scenarios: two sources at m = 7, and three at
# m = 10 with the second and third coherent.
_BENCHMARK_SCENARIOS = [([-60.0, 60.0], []), ([-60.0, 0.0, 40.0], [[1, 2]])]
# Their grid without the -90 degree atom: at d/lambda = 0.5 it aliases the +90
# one, so the two proxies tie and rounding picks either. With both in the grid
# CoSaMP's first merge on trial (0, 0) of the three-source scenario, noiseless
# at seed 4713, takes atom -90 (its fit passes the rank guard) or +90 (it
# fails) as numpy's dispatch and the phase of y round that tie.
_ALIAS_FREE_GRID = (-89.0, 90.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    scenario=st.sampled_from(_BENCHMARK_SCENARIOS),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 4),
    snr_db=st.one_of(st.floats(-5.0, 25.0), st.just(math.inf)),
    power=st.integers(-40, 40),
    phase=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
)
def test_both_solvers_are_invariant_to_scaling_and_rotating_y(
    scenario, seed, trials, snr_db, power, phase
):
    # y -> c e^{j phase} y with c = 2^power rescales every proxy and residual
    # alike, so each relative test the solvers make has the same outcome.
    sources, coherent = scenario
    scenario = csdoa.build_scenario(
        sources, grid_spec=_ALIAS_FREE_GRID, coherent_groups=coherent, snr_db=snr_db, seed=seed
    )
    tasks = [(0, t) for t in range(trials)]
    (data, _, _), phis = experiments._draw_trials(scenario, (snr_db,), tasks)
    manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
    psi, column_norms = _stacked(csdoa.SensingSystem(phi, manifold) for phi in phis)
    y = np.matmul(phis, data[..., None])[..., 0]
    c, rotation = 2.0**power, np.exp(1j * phase)
    floor = 1e-12 * c * np.linalg.norm(y, axis=1)  # a noiseless fit's residual is rounding
    for solver in (omp_stack, cosamp_stack):
        base = solver(psi, column_norms, y, scenario.solver)
        scaled = solver(psi, column_norms, c * rotation * y, scenario.solver)
        assert np.array_equal(scaled.support, base.support)
        assert np.array_equal(scaled.iterations, base.iterations)
        assert np.array_equal(scaled.converged, base.converged)
        assert np.array_equal(scaled.deficient, base.deficient)
        np.testing.assert_allclose(scaled.coefficients, c * rotation * base.coefficients,
                                   rtol=1e-9, atol=0)
        gap = np.abs(scaled.residual_norm - c * base.residual_norm)
        assert np.all(gap <= 1e-9 * c * base.residual_norm + floor)


# ---------------------------------------------------------------------------
# l0_oracle


def test_oracle_single_atom():
    system = _orthonormal_system()
    y = system.psi[:, 2].copy()
    estimate = csdoa.l0_oracle(system, y, 1)
    assert estimate.support == (2,)
    assert estimate.residual_norm < 1e-10


def test_oracle_finds_planted_support():
    system, y, support, x = planted_instance(200, 0)
    estimate = csdoa.l0_oracle(system, y, 2)
    assert estimate.support == support
    assert np.linalg.norm(estimate.coefficients - x) < 1e-8


def test_oracle_counts_evaluated_subsets():
    system = gaussian_system(8, 6, seed=1)
    y = system.psi[:, 0] + system.psi[:, 3]
    estimate = csdoa.l0_oracle(system, y, 2)
    assert estimate.iterations == 15  # C(6, 2)


def test_oracle_full_support_when_sparsity_equals_atoms():
    system = gaussian_system(8, 3, seed=2)
    rng = np.random.default_rng(4)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    estimate = csdoa.l0_oracle(system, y, 3)
    assert estimate.support == (0, 1, 2)
    assert estimate.iterations == 1


def test_oracle_breaks_exact_ties_lexicographically():
    phi = csdoa.draw_measurement_matrix(6, 6, csdoa.GAUSSIAN, seed=8)
    manifold = np.eye(6, dtype=complex)
    manifold[:, 1] = manifold[:, 0]
    system = csdoa.build_sensing_system(phi, manifold)
    y = system.psi[:, 0].copy()
    estimate = csdoa.l0_oracle(system, y, 1)
    assert estimate.support == (0,)


def test_oracle_skips_rank_deficient_subsets():
    phi = csdoa.draw_measurement_matrix(6, 6, csdoa.GAUSSIAN, seed=8)
    manifold = np.eye(6, dtype=complex)
    manifold[:, 1] = manifold[:, 0]
    system = csdoa.build_sensing_system(phi, manifold)
    y = system.psi[:, 0] + 0.5 * system.psi[:, 3]
    estimate = csdoa.l0_oracle(system, y, 2)
    assert estimate.support in ((0, 3), (1, 3))
    assert estimate.support == (0, 3)


def test_oracle_raises_when_every_subset_is_rank_deficient():
    phi = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    manifold = np.ones((2, 3), dtype=complex)
    system = csdoa.build_sensing_system(phi, manifold)
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.l0_oracle(system, np.array([1.0, 2.0], dtype=complex), 2)


def test_oracle_refuses_a_sparsity_above_the_atom_count():
    # No subset of 6 among 5 atoms exists; refused by its bound, not as rank deficient.
    system = gaussian_system(8, 5, seed=0)
    with pytest.raises(ValueError, match=r"sparsity must lie in \[1, 5\]") as raised:
        csdoa.l0_oracle(system, system.psi[:, 0].copy(), 6)
    assert not isinstance(raised.value, csdoa.RankDeficientError)
    assert csdoa.l0_oracle(system, system.psi[:, 0].copy(), 5).support == (0, 1, 2, 3, 4)


def test_oracle_refuses_huge_searches():
    system = gaussian_system(10, 50, seed=0)
    with pytest.raises(csdoa.InstanceTooLargeError):
        csdoa.l0_oracle(system, system.psi[:, 0].copy(), 5)  # C(50,5) > 10^6


@pytest.mark.parametrize("sparsity", [True, 2.0, np.float64(1)], ids=["bool", "float", "numpy-float"])
def test_oracle_takes_an_integer_sparsity(sparsity):
    # Refused by name before any enumeration; True used to run as sparsity 1.
    system = gaussian_system(8, 12, seed=0)
    with pytest.raises(TypeError, match="^sparsity must be an integer"):
        csdoa.l0_oracle(system, system.psi[:, 0].copy(), sparsity)
    assert csdoa.l0_oracle(system, system.psi[:, 0].copy(), np.int64(1)).support == (0,)


def _assert_oracle_is_the_subset_loop(system, y, sparsity: int) -> None:
    """l0_oracle's stacked search returns what the per-subset loop returns, bit for bit."""
    try:
        expected = reference_l0_oracle(system, y, sparsity)
    except csdoa.RankDeficientError:
        with pytest.raises(csdoa.RankDeficientError):
            csdoa.l0_oracle(system, y, sparsity)
        return
    assert _same(csdoa.l0_oracle(system, y, sparsity), expected)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(3, 10),
    num_atoms=st.integers(4, 22),
    sparsity=st.integers(1, 3),
    # (source, copy) column pairs: subsets holding both are rank deficient,
    # and a copy ties exactly with its source.
    duplicates=st.lists(st.tuples(st.integers(0, 21), st.integers(0, 21)), max_size=3),
    tiny=st.lists(st.integers(0, 21), max_size=3),  # columns scaled by 2^-30
    target=st.sampled_from(["random", "planted", "duplicated column"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4, num_atoms=6, sparsity=2, duplicates=[(0, 1), (2, 5)], tiny=[3],
         target="duplicated column", seed=0)
def test_oracle_stacks_equal_the_subset_loop(m, num_atoms, sparsity, duplicates, tiny, target, seed):
    rng = np.random.default_rng(seed)
    manifold = rng.standard_normal((m, num_atoms)) + 1j * rng.standard_normal((m, num_atoms))
    for source, copy in duplicates:
        manifold[:, copy % num_atoms] = manifold[:, source % num_atoms]
    for j in tiny:
        manifold[:, j % num_atoms] *= 2.0**-30
    system = csdoa.build_sensing_system(np.eye(m, dtype=complex), manifold)
    if target == "random":
        y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    elif target == "planted":
        atoms = rng.choice(num_atoms, size=sparsity, replace=False)
        y = system.psi[:, atoms] @ np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, sparsity))
    else:
        y = system.psi[:, duplicates[0][0] % num_atoms if duplicates else 0].copy()
    _assert_oracle_is_the_subset_loop(system, y, sparsity)


def test_oracle_ties_go_to_the_first_support_across_stacks():
    # C(60, 3) = 34,220 subsets: two stacks, the second of which holds every
    # subset whose first atom is 39 or later. Atoms 39, 41 and 43 copy atoms 0, 40 and 42, so
    # the 8 supports that take one atom of each pair keep the columns in one
    # order and tie exactly: (0, 40, 42), (0, 41, 43) and others in the first
    # stack, (39, 40, 42) and others in the second. A subset holding both
    # atoms of a pair is rank deficient.
    rng = np.random.default_rng(60)
    manifold = rng.standard_normal((10, 60)) + 1j * rng.standard_normal((10, 60))
    manifold[:, [39, 41, 43]] = manifold[:, [0, 40, 42]]
    system = csdoa.build_sensing_system(np.eye(10, dtype=complex), manifold)
    y = system.psi[:, [0, 40, 42]] @ np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
    y += 0.01 * (rng.standard_normal(10) + 1j * rng.standard_normal(10))
    estimate = csdoa.l0_oracle(system, y, 3)
    assert estimate.support == (0, 40, 42)
    assert estimate.iterations == 34_220 - 3 * 58  # each pair, with any third atom
    _assert_oracle_is_the_subset_loop(system, y, 3)
    # More atoms than measurements: every subset is underdetermined.
    small = csdoa.build_sensing_system(np.eye(3, dtype=complex), manifold[:3, :5])
    for oracle in (csdoa.l0_oracle, reference_l0_oracle):
        with pytest.raises(csdoa.RankDeficientError):
            oracle(small, small.psi[:, 0].copy(), 4)


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, -np.inf)])
@pytest.mark.parametrize("solver", ["omp", "cosamp", "l0_oracle"])
def test_public_solvers_reject_a_non_finite_y(solver, bad):
    # Raised before any arithmetic, so no RuntimeWarning (an error in this
    # suite) comes first, and a NaN row is not scored as a silent miss.
    system = gaussian_system(8, 12, seed=0)
    y = system.psi[:, 0] + system.psi[:, 5]
    y[3] = bad
    config = csdoa.SolverConfig(sparsity=2)
    call = {
        "omp": lambda: csdoa.omp(system, y, config),
        "cosamp": lambda: csdoa.cosamp(system, y, config),
        "l0_oracle": lambda: csdoa.l0_oracle(system, y, 2),
    }[solver]
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize(
    "shape", [(7,), (9,), (1, 8), (2, 8), ()], ids=["short", "long", "row", "stack", "scalar"]
)
@pytest.mark.parametrize("solver", ["omp", "cosamp", "l0_oracle"])
def test_public_solvers_reject_a_y_that_is_not_one_trials_vector(solver, shape):
    # The public solvers take one trial; a stack of y, or a y of the wrong
    # length, is refused by name before any arithmetic.
    system = gaussian_system(8, 12, seed=0)
    y = np.ones(shape, dtype=complex)
    config = csdoa.SolverConfig(sparsity=2)
    call = {
        "omp": lambda: csdoa.omp(system, y, config),
        "cosamp": lambda: csdoa.cosamp(system, y, config),
        "l0_oracle": lambda: csdoa.l0_oracle(system, y, 2),
    }[solver]
    with pytest.raises(csdoa.DimensionMismatchError, match="y must be a vector of length 8"):
        call()


# ---------------------------------------------------------------------------
# shared estimate invariants


def test_estimates_report_consistent_residuals():
    system, y, _, _ = planted_instance(19000, 0, sparsity=3)
    config = csdoa.SolverConfig(sparsity=3)
    for solver in (csdoa.omp, csdoa.cosamp):
        estimate = solver(system, y, config)
        recomputed = np.linalg.norm(y - system.psi @ estimate.coefficients)
        assert abs(recomputed - estimate.residual_norm) <= 1e-8 * (1.0 + np.linalg.norm(y))
        off_support = np.delete(estimate.coefficients, list(estimate.support))
        assert np.array_equal(off_support, np.zeros_like(off_support))


def test_both_solvers_track_the_oracle_on_generic_instances():
    report = oracle_match_counts(200, 100)
    assert report["matches"]["omp"] >= 99
    assert report["matches"]["cosamp"] >= 99
    assert report["worst_coef_rel"]["omp"] <= 1e-8
    assert report["worst_coef_rel"]["cosamp"] <= 1e-8


def _exact_recovery_coefficient(psi: np.ndarray, support: np.ndarray) -> float:
    """Tropp's ERC: the largest ||pinv(Psi_S) psi_j||_1 over atoms j off S, on unit-norm columns."""
    unit = psi / np.linalg.norm(psi, axis=0)
    off = np.setdiff1d(np.arange(psi.shape[1]), support)
    return np.abs(np.linalg.pinv(unit[:, support]) @ unit[:, off]).sum(axis=0).max()


@settings(max_examples=200, deadline=None)
@given(
    step=st.integers(10, 30),
    m=st.integers(10, 14),
    num_sources=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_omp_and_the_oracle_recover_every_support_that_meets_the_exact_recovery_condition(
    step, m, num_sources, seed
):
    # Tropp, "Greed is good" (IEEE Trans. IT 50(10), 2004): when ERC < 1,
    # noiseless OMP picks an atom of S at every step, whatever its amplitudes.
    # The -90 degree atom is left out: at d/lambda = 0.5 it aliases the +90 one.
    grid = csdoa.make_grid(step - 90.0, 90.0, step)
    manifold = csdoa.build_manifold(grid, csdoa.ArrayGeometry(15))
    rng = np.random.default_rng(seed)
    phi = csdoa.draw_measurement_matrix(m, 15, csdoa.GAUSSIAN, seed=int(rng.integers(2**32)))
    system = csdoa.SensingSystem(phi, manifold)
    support = np.sort(rng.choice(system.num_atoms, size=num_sources, replace=False))
    assume(_exact_recovery_coefficient(system.psi, support) < 1 - 1e-6)
    x = np.zeros(system.num_atoms, dtype=complex)
    x[support] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, num_sources))
    y = system.psi @ x
    estimate = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=num_sources))
    assert sorted(estimate.support) == support.tolist()
    assert list(csdoa.l0_oracle(system, y, num_sources).support) == support.tolist()


# ---------------------------------------------------------------------------
# stacked solvers against the per-trial loop references


def _dictionary(kind: str) -> np.ndarray:
    if kind == "steering":
        return csdoa.build_manifold(csdoa.make_grid(-90.0, 90.0, 1.0), csdoa.ArrayGeometry(15))
    rng = np.random.default_rng(20)
    manifold = rng.standard_normal((15, 20)) + 1j * rng.standard_normal((15, 20))
    if kind == "duplicate":
        manifold[:, 7] = manifold[:, 3]  # both copies can enter one support
    return manifold


def _row(stack, t: int):
    """Trial ``t`` of a stacked result as a SparseEstimate; None if its fit was rank deficient."""
    if stack.deficient[t]:
        return None
    support = stack.support[t]
    return csdoa.SparseEstimate(
        stack.coefficients[t],
        tuple(support[support >= 0].tolist()),
        float(stack.residual_norm[t]),
        int(stack.iterations[t]),
        bool(stack.converged[t]),
    )


def _is_empty_row(stack, t: int, y: np.ndarray) -> bool:
    """A rank-deficient trial's row: no coefficients or support, residual ||y||, 0 iterations."""
    return (
        not np.any(stack.coefficients[t])
        and np.all(stack.support[t] == -1)
        and stack.residual_norm[t] == np.linalg.norm(y)
        and stack.iterations[t] == 0
        and not stack.converged[t]
    )


def _same(estimate, reference) -> bool:
    return (
        np.array_equal(estimate.coefficients, reference.coefficients)
        and estimate.support == reference.support
        and estimate.residual_norm == reference.residual_norm
        and estimate.iterations == reference.iterations
        and estimate.converged == reference.converged
    )


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["gaussian", "steering", "duplicate"]),
    trials=st.integers(1, 9),
    sparsity=st.integers(1, 3),
    extra_rows=st.integers(0, 4),
    planted=st.integers(1, 3),
    noise=st.sampled_from([0.0, 0.1, 1.0]),
    zero_trial=st.sampled_from(["none", "first", "last", "every"]),
    # Caps of 1 to 3 stop stacks at the cap, where CoSaMP returns the better
    # of its last two iterates; 50, the default, is rarely reached.
    max_iterations=st.sampled_from([1, 2, 3, 50]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_solvers_match_the_per_trial_loops(
    kind, trials, sparsity, extra_rows, planted, noise, zero_trial, max_iterations, seed
):
    m = 2 * sparsity + extra_rows
    manifold = _dictionary(kind)
    n, num_atoms = manifold.shape
    rng = np.random.default_rng(seed)
    phis = [
        csdoa.draw_measurement_matrix(m, n, csdoa.GAUSSIAN, seed=int(s))
        for s in rng.integers(0, 2**32, trials)
    ]
    x = np.zeros((trials, num_atoms), dtype=complex)
    for t in range(trials):
        atoms = rng.choice(num_atoms, size=planted, replace=False)
        x[t, atoms] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, planted))
    psi, column_norms = _stacked(csdoa.SensingSystem(phi, manifold) for phi in phis)
    y = np.matmul(psi, x[..., None])[..., 0]
    y += noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    zeroed = {"none": [], "first": [0], "last": [trials - 1], "every": list(range(trials))}
    y[zeroed[zero_trial]] = 0.0
    cosamp_config = csdoa.SolverConfig(sparsity=sparsity, max_iterations=max_iterations)
    omp_config = replace(cosamp_config, max_iterations=max(max_iterations, sparsity))
    for solver, config in ((OMP_SOLVERS, omp_config), (COSAMP_SOLVERS, cosamp_config)):
        stacked = solver[0](psi, column_norms, y, config)
        assert stacked.coefficients.shape == (trials, num_atoms)
        _assert_rows_are_lone_solves(stacked, solver, phis, manifold, y, config)


OMP_SOLVERS = (omp_stack, csdoa.omp, reference_omp)
COSAMP_SOLVERS = (cosamp_stack, csdoa.cosamp, reference_cosamp)


def _assert_rows_are_lone_solves(stacked, solver, phis, manifold, y, config) -> None:
    """Every row of ``stacked`` equals its trial solved alone, by the reference and the solver."""
    _, scalar, reference = solver
    for t in range(len(phis)):
        estimate = _row(stacked, t)
        single = csdoa.build_sensing_system(phis[t], manifold)
        try:
            expected = reference(single, y[t], config)
        except csdoa.RankDeficientError:
            assert estimate is None and _is_empty_row(stacked, t, y[t])
            with pytest.raises(csdoa.RankDeficientError):
                scalar(single, y[t], config)
            continue
        assert estimate is not None and _same(estimate, expected)
        assert _same(scalar(single, y[t], config), expected)


@pytest.mark.parametrize(
    "solver, sparsity, planted, iterations",
    [
        # Trial 0 is one atom: it converges at step 1 of 3 while the others go on.
        pytest.param(OMP_SOLVERS, 3, (1, 3, 3, 3), [1, 3, 3, 3], id="omp"),
        # Trial 0 is exact and stops after one iteration, and only trial 2
        # runs a third: the live set goes from 4 trials to 3, then to 1.
        pytest.param(COSAMP_SOLVERS, 2, (2, 2, 2, 2), [1, 2, 3, 2], id="cosamp"),
    ],
)
def test_stacks_that_lose_trials_mid_solve_match_lone_solves(solver, sparsity, planted, iterations):
    # Every trial is live at the first step; a trial that stops leaves the
    # live set, and the later steps run on the trials still in it.
    psi, column_norms, y, phis, manifold = _stack_that_loses_trials(planted)
    config = csdoa.SolverConfig(sparsity=sparsity)
    stacked = solver[0](psi, column_norms, y, config)
    assert stacked.iterations.tolist() == iterations
    assert stacked.converged[0] and not stacked.deficient.any()
    _assert_rows_are_lone_solves(stacked, solver, phis, manifold, y, config)


def _stack_that_loses_trials(planted):
    """A stack of ``len(planted)`` trials at m = 6: trial 0 is exact, the rest noisy.

    Returns ``(psi, column_norms, y, phis, manifold)``.
    """
    m, noise = 6, 0.1
    manifold = _dictionary("gaussian")
    n, num_atoms = manifold.shape
    rng = np.random.default_rng(11)
    phis = [
        csdoa.draw_measurement_matrix(m, n, csdoa.GAUSSIAN, seed=int(s))
        for s in rng.integers(0, 2**32, len(planted))
    ]
    psi, column_norms = _stacked(csdoa.SensingSystem(phi, manifold) for phi in phis)
    x = np.zeros((len(planted), num_atoms), dtype=complex)
    for t, count in enumerate(planted):
        x[t, rng.choice(num_atoms, size=count, replace=False)] = np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi, count)
        )
    y = np.matmul(psi, x[..., None])[..., 0]
    y[1:] += noise * (rng.standard_normal(y[1:].shape) + 1j * rng.standard_normal(y[1:].shape))
    return psi, column_norms, y, phis, manifold


@pytest.mark.parametrize(
    "solver, sparsity, planted, live",
    [
        pytest.param(omp_stack, 3, (1, 3, 3, 3), [4, 3, 3], id="omp"),
        pytest.param(cosamp_stack, 2, (2, 2, 2, 2), [4, 3, 1], id="cosamp"),
    ],
)
def test_each_step_correlates_the_live_trials_only(monkeypatch, solver, sparsity, planted, live):
    # The stacks above: a trial that has stopped is not correlated again, and
    # each step sees the live trials' Psi and norms only.
    psi, column_norms, y, _, _ = _stack_that_loses_trials(planted)
    original, seen = recovery.correlate, []

    def spy(psi, column_norms, residual):
        seen.append((len(residual), len(psi), len(column_norms)))
        return original(psi, column_norms, residual)

    monkeypatch.setattr(recovery, "correlate", spy)
    solver(psi, column_norms, y, csdoa.SolverConfig(sparsity=sparsity))
    assert seen == [(rows, rows, rows) for rows in live]


@pytest.mark.parametrize(
    "solver, sparsity, planted",
    [
        pytest.param(omp_stack, 3, (1, 3, 3, 3), id="omp"),
        pytest.param(cosamp_stack, 2, (2, 2, 2, 2), id="cosamp"),
    ],
)
def test_stacked_solvers_read_only_psi_and_its_norms(solver, sparsity, planted):
    # The stacks above shrink mid-solve. The engine hands the solvers views of
    # storage its thread keeps, so a solve must not write to Psi, its norms
    # or y: read-only copies solve bit for bit as the originals do.
    psi, column_norms, y, _, _ = _stack_that_loses_trials(planted)
    config = csdoa.SolverConfig(sparsity=sparsity)
    expected = solver(psi, column_norms, y, config)
    frozen = [np.array(a) for a in (psi, column_norms, y)]
    for a in frozen:
        a.flags.writeable = False
    got = solver(*frozen, config)
    for field in ("coefficients", "support", "residual_norm", "iterations", "converged",
                  "deficient"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field


@pytest.mark.parametrize("solver", [omp_stack, cosamp_stack])
def test_stacked_solvers_reject_one_system_for_several_trials(solver):
    # One trial's Psi is a stack of one; it does not serve a second row of y,
    # and a one-trial y is not a stack.
    psi, column_norms = _stacked([gaussian_system(8, 12, seed=0)])
    config = csdoa.SolverConfig(sparsity=2)
    for y in (np.ones((2, 8), dtype=complex), np.ones(8, dtype=complex)):
        with pytest.raises(ValueError, match=r"must be a \(1, 8\) stack, a row per trial"):
            solver(psi, column_norms, y, config)


def test_omp_stack_drops_a_rank_deficient_trial_and_finishes_the_others():
    # Trial 0's two columns coincide, so its second fit is rank deficient.
    entries = np.array([[[1, 1], [0, 0]], [[1, 0], [0, 1]]], dtype=complex)
    first, single = (csdoa.SensingSystem(e, np.eye(2, dtype=complex)) for e in entries)
    y = np.array([[1.0, 0.5], [1.0, 0.5]], dtype=complex)
    config = csdoa.SolverConfig(sparsity=2)
    stacked = omp_stack(*_stacked([first, single]), y, config)
    deficient, healthy = _row(stacked, 0), _row(stacked, 1)
    assert deficient is None and _is_empty_row(stacked, 0, y[0])
    assert healthy.support == (0, 1)
    assert _same(healthy, reference_omp(single, y[1], config))
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.omp(first, y[0], config)


@pytest.mark.parametrize(
    "supports, sizes",
    [
        # Row 1's support lies inside its omega; rows 0 and 2 add both atoms.
        pytest.param([[8, 9], [1, 3], [10, 19]], [6, 4, 6], id="two-sizes"),
        pytest.param([[8, 9], [5, 6], [10, 19]], [6, 6, 6], id="one-size"),
    ],
)
def test_merged_fit_fits_each_row_on_the_psi_its_trials_entry_names(supports, sizes):
    # Psi holds 5 trials and y only 3 rows; trials[i, 0], not i, names row i's Psi.
    rng = np.random.default_rng(33)
    psi = rng.standard_normal((5, 8, 20)) + 1j * rng.standard_normal((5, 8, 20))
    y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    trials = np.array([[4], [1], [3]])
    omega = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [4, 11, 7, 2]])
    support = np.array(supports)
    merged = np.concatenate([omega, support], axis=1)
    assert [np.unique(row).size for row in merged] == sizes
    kept, coef = recovery._merged_fit(psi, y, trials, omega, support, 2)
    for i, t in enumerate(trials[:, 0]):
        alone = recovery._merged_fit(
            psi[t][None], y[i][None], np.array([[0]]), omega[i][None], support[i][None], 2)
        assert np.array_equal(kept[i], alone[0][0])
        assert coef[i].tobytes() == alone[1][0].tobytes()


# ---------------------------------------------------------------------------
# call counts at the traced replay's hook point

# The benchmark's traced replay times least_squares and correlate by wrapping
# these module attributes, so the solvers must look both up there at call
# time. The counts below are pinned for fixed trial sets.
_WORKLOADS = {
    "mc-2src": (["--sources", "-60,60", "--snr-sweep=-10:20:5", "--trials", "3"], 0),
    "mc-3src": (["--sources", "-60,0,40", "--coherent", "2,3", "--snr-sweep", "0:0:1",
                 "--trials", "20"], 17),
}


def _count_calls(monkeypatch) -> Counter:
    counts = Counter()
    for name in ("least_squares", "correlate"):
        original = getattr(recovery, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(recovery, name, wrapper)
    return counts


def _per_trial_calls(scenario, sweep, trials, counts) -> dict:
    """Calls the single-trial solvers make on each trial of a sweep, drawn stage by stage."""
    manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
    spec = scenario.measurement
    counts.clear()
    for i, snr in enumerate(sweep):
        point = replace(scenario, snr_db=snr)
        for t in range(trials):
            data_seed, phi_seed = csdoa.trial_seeds(scenario.seed, i, t)
            snapshot = csdoa.synthesize(point, np.random.default_rng(data_seed))
            phi = csdoa.draw_measurement_matrix(
                spec.num_measurements, scenario.geometry.num_sensors, spec.kind, seed=phi_seed
            )
            system = csdoa.build_sensing_system(phi, manifold)
            y = csdoa.compress(phi, snapshot.data)
            for solver in (csdoa.omp, csdoa.cosamp):
                try:
                    solver(system, y, scenario.solver)
                except csdoa.RankDeficientError:
                    pass
    return dict(counts)


def test_solver_call_counts_are_pinned_for_fixed_trial_sets(tmp_path, monkeypatch):
    counts = _count_calls(monkeypatch)
    engine = {}
    for name, (flags, seed) in _WORKLOADS.items():
        counts.clear()
        argv = ["montecarlo", *flags, "--seed", str(seed), "--out", str(tmp_path / name)]
        assert cli.main(argv) == 0
        engine[name] = dict(counts)
    counts.clear()
    csdoa.run_single(csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=0))
    engine["single-shot"] = dict(counts)
    # The engine solves each chunk as one stack: one call per greedy step.
    assert engine == {
        "mc-2src": {"correlate": 4, "least_squares": 4},
        "mc-3src": {"correlate": 5, "least_squares": 5},
        "single-shot": {"correlate": 4, "least_squares": 4},
    }
    # The traced replay solves trial by trial: 64 calls over 21 trials, and
    # 81 over 20, whatever time box the benchmark runs for.
    two = csdoa.build_scenario([-60.0, 60.0], seed=0)
    three = csdoa.build_scenario([-60.0, 0.0, 40.0], coherent_groups=[[1, 2]], seed=17)
    replayed = {
        "mc-2src": _per_trial_calls(two, [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0], 3, counts),
        "mc-3src": _per_trial_calls(three, [0.0], 20, counts),
    }
    assert replayed == {
        "mc-2src": {"correlate": 64, "least_squares": 64},
        "mc-3src": {"correlate": 81, "least_squares": 81},
    }
