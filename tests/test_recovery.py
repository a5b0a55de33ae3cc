"""Tests for the complex least-squares core and the three sparse solvers."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csdoa
from conftest import (
    _reference_least_squares,
    gaussian_system,
    normal_equations,
    oracle_match_counts,
    planted_instance,
    reference_cosamp,
    reference_omp,
    stack_measurements,
)
from csdoa import cli, recovery
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
# correlate


def test_correlate_zero_residual():
    system = gaussian_system(8, 12, seed=0)
    assert np.array_equal(csdoa.correlate(system, np.zeros(8, dtype=complex)), np.zeros(12))


def test_correlate_matches_scalar_loop():
    system = gaussian_system(8, 12, seed=0)
    rng = np.random.default_rng(3)
    residual = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    proxy = csdoa.correlate(system, residual)
    for j in range(12):
        expected = abs(np.vdot(system.psi[:, j], residual)) / system.column_norms[j]
        assert abs(proxy[j] - expected) < 1e-12


def test_correlate_stack_matches_each_trial():
    phis = [csdoa.draw_measurement_matrix(8, 12, csdoa.GAUSSIAN, seed=s) for s in range(4)]
    stacked = csdoa.build_sensing_system(stack_measurements(phis), np.eye(12, dtype=complex))
    rng = np.random.default_rng(6)
    residual = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    proxy = csdoa.correlate(stacked, residual)
    shared = csdoa.correlate(gaussian_system(8, 12, seed=0), residual)
    for t, phi in enumerate(phis):
        single = csdoa.build_sensing_system(phi, np.eye(12, dtype=complex))
        assert np.array_equal(proxy[t], csdoa.correlate(single, residual[t]))
        assert np.array_equal(shared[t], csdoa.correlate(gaussian_system(8, 12, 0), residual[t]))


def _orthonormal_system(m=8, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    phi = csdoa.MeasurementMatrix(q, csdoa.GAUSSIAN)
    return csdoa.build_sensing_system(phi, np.eye(m, dtype=complex))


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
    phi = csdoa.MeasurementMatrix(
        np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex), csdoa.GAUSSIAN
    )
    manifold = np.ones((2, 3), dtype=complex)
    system = csdoa.build_sensing_system(phi, manifold)
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.l0_oracle(system, np.array([1.0, 2.0], dtype=complex), 2)


def test_oracle_refuses_huge_searches():
    system = gaussian_system(10, 50, seed=0)
    with pytest.raises(csdoa.InstanceTooLargeError):
        csdoa.l0_oracle(system, system.psi[:, 0].copy(), 5)  # C(50,5) > 10^6


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
    zero_trial=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_solvers_match_the_per_trial_loops(
    kind, trials, sparsity, extra_rows, planted, noise, zero_trial, seed
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
    phi = stack_measurements(phis)
    system = csdoa.build_sensing_system(phi, manifold)
    y = np.matmul(system.psi, x[..., None])[..., 0]
    y += noise * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    if zero_trial:
        y[0] = 0.0
    config = csdoa.SolverConfig(sparsity=sparsity)
    for stack, scalar, reference in (
        (omp_stack, csdoa.omp, reference_omp),
        (cosamp_stack, csdoa.cosamp, reference_cosamp),
    ):
        stacked = stack(system, y, config)
        assert stacked.coefficients.shape == (trials, num_atoms)
        for t in range(trials):
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


def test_omp_stack_drops_a_rank_deficient_trial_and_finishes_the_others():
    # Trial 0's two columns coincide, so its second fit is rank deficient.
    entries = np.array([[[1, 1], [0, 0]], [[1, 0], [0, 1]]], dtype=complex)
    phi = csdoa.MeasurementMatrix(entries, csdoa.GAUSSIAN)
    system = csdoa.build_sensing_system(phi, np.eye(2, dtype=complex))
    y = np.array([[1.0, 0.5], [1.0, 0.5]], dtype=complex)
    config = csdoa.SolverConfig(sparsity=2)
    stacked = omp_stack(system, y, config)
    deficient, healthy = _row(stacked, 0), _row(stacked, 1)
    assert deficient is None and _is_empty_row(stacked, 0, y[0])
    single = csdoa.build_sensing_system(
        csdoa.MeasurementMatrix(entries[1], csdoa.GAUSSIAN), np.eye(2, dtype=complex)
    )
    assert healthy.support == (0, 1)
    assert _same(healthy, reference_omp(single, y[1], config))
    first = csdoa.build_sensing_system(
        csdoa.MeasurementMatrix(entries[0], csdoa.GAUSSIAN), np.eye(2, dtype=complex)
    )
    with pytest.raises(csdoa.RankDeficientError):
        csdoa.omp(first, y[0], config)


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
