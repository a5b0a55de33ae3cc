"""Greedy sparse solvers on complex data: OMP, CoSaMP, and a brute-force oracle.

All solvers work on a :class:`~csdoa.sensing.SensingSystem` and return a
:class:`SparseEstimate` whose coefficient vector is zero off the support.
Atom selection uses column-normalized correlations; the least-squares refits
use the raw columns. Scaling ``y``, or for OMP a column of Psi, by a power of
two leaves every choice unchanged. CoSaMP's prune keeps the largest raw
coefficients, so a scaled column can move its support.

OMP and CoSaMP have one implementation each, over a stack of T trials
(:func:`omp_stack`, :func:`cosamp_stack`): every greedy step runs once for
the whole stack, the result is one :class:`StackedEstimate`, and
``omp``/``cosamp`` are a stack of one. Per trial, the stacked steps round
exactly as the single-trial ones do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InstanceTooLargeError, RankDeficientError
from .sensing import SensingSystem

# Relative threshold on the QR diagonal below which a column set is treated
# as rank deficient.
RANK_TOL = 1e-10

# Relative residual improvement below which CoSaMP is considered stalled.
STAGNATION_TOL = 1e-6

OMP = "omp"
COSAMP = "cosamp"


@dataclass(frozen=True)
class SolverConfig:
    """Sparsity budget and termination settings shared by both solvers."""

    sparsity: int
    max_iterations: int = 50
    residual_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.residual_tol < 0:
            raise ValueError("residual_tol must be >= 0")


def check_config(algorithm: str, config: SolverConfig, m: int) -> None:
    """Raise ValueError unless solver ``algorithm`` can run ``config`` on ``m`` measurements."""
    if algorithm == OMP and config.sparsity > m:
        raise ValueError(f"omp needs sparsity <= {m} measurements, got {config.sparsity}")
    if algorithm == OMP and config.max_iterations < config.sparsity:
        raise ValueError("omp needs max_iterations >= sparsity")
    if algorithm == COSAMP and 2 * config.sparsity > m:
        raise ValueError(f"cosamp needs 2 * sparsity <= {m} measurements, got {config.sparsity}")


@dataclass(eq=False)
class SparseEstimate:
    """Recovered coefficient vector with its support and solver diagnostics."""

    coefficients: np.ndarray
    support: tuple[int, ...]
    residual_norm: float
    iterations: int
    converged: bool


@dataclass(eq=False)
class StackedEstimate:
    """The estimates of a stacked solve of T trials; row ``t`` belongs to trial ``t``.

    ``support`` rows hold the chosen atoms (in selection order for OMP,
    ascending for CoSaMP), padded with -1. A trial whose fit was rank
    deficient (``deficient``) has no estimate: its row has zero
    coefficients, an empty support, the norm of its ``y`` as residual and
    0 iterations, which scores as a miss of every source.
    """

    coefficients: np.ndarray  # (T, N_s) complex
    support: np.ndarray  # (T, k) int
    residual_norm: np.ndarray  # (T,)
    iterations: np.ndarray  # (T,) int
    converged: np.ndarray  # (T,) bool
    deficient: np.ndarray  # (T,) bool


@cache
def _upper(k: int) -> np.ndarray:
    """Mask of the upper triangle, diagonal included, of a k x k matrix."""
    return np.triu(np.ones((k, k), dtype=bool))


def least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of ``y`` against the columns of ``basis``.

    Solved through a reduced QR factorization with an explicit rank guard:
    the smallest magnitude on the R diagonal must exceed ``RANK_TOL`` times
    the largest. A single system (``basis`` m x k, ``y`` of length m) that
    fails the guard raises :class:`RankDeficientError`. A stack of T systems
    (``basis`` (T, m, k), ``y`` (T, m)) is solved trial by trial, and the
    coefficient rows of trials that fail the guard are NaN. Requires at least
    as many rows as columns. The basis is factored as complex.

    The fit calls numpy's LAPACK gufuncs directly, the same calls with the
    same signatures that ``np.linalg.qr`` and ``np.linalg.solve`` make on
    complex input, so it rounds exactly as they do without their per-call
    Python wrappers.
    """
    basis = np.asarray(basis)
    y = np.asarray(y)
    m, k = basis.shape[-2:]
    if k == 0:
        return np.zeros(basis.shape[:-2] + (0,), dtype=complex)
    if k > m:
        raise RankDeficientError(f"system with {k} columns and {m} rows is underdetermined")
    a = basis.astype(complex)  # qr_r_raw factors its operand in place
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    r = np.where(_upper(k), a[..., :k, :], 0j)  # np.triu's own where
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    deficient = diag.min(axis=-1) <= RANK_TOL * diag.max(axis=-1)
    any_deficient = deficient.any()
    if any_deficient:
        if basis.ndim == 2:
            raise RankDeficientError("selected columns are numerically rank deficient")
        r[deficient] = np.eye(k)  # solvable stand-ins; their rows are set to NaN below
    qhy = np.matmul(q.conj().swapaxes(-1, -2), y[..., None])
    coef = _umath_linalg.solve(r, qhy, signature="DD->D")[..., 0]
    if any_deficient:
        coef[deficient] = np.nan
    return coef


def correlate(system: SensingSystem, residual: np.ndarray) -> np.ndarray:
    """Normalized correlation magnitudes ``|<residual, psi_j>| / ||psi_j||``.

    ``residual`` is one vector of length m, or a (T, m) stack matched row by
    row with a stacked system (a single system serves every row).
    """
    # psi^T conj(r) is the exact conjugate of psi^H r and needs no conjugated copy of psi.
    products = np.matmul(system.psi.swapaxes(-1, -2), np.asarray(residual).conj()[..., None])
    return np.abs(products[..., 0]) / system.column_norms


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Per row, indices of the ``count`` largest entries, ties resolved to lowest index.

    The same choice as a stable argsort of ``-values``, by repeated argmax,
    which is far cheaper for the few entries the solvers keep.
    """
    values = values.copy()
    rows = np.arange(values.shape[0])
    top = np.empty((values.shape[0], count), dtype=int)
    for j in range(count):
        chosen = values.argmax(axis=1)
        top[:, j] = chosen
        values[rows, chosen] = -np.inf
    return top


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, computed as ``np.linalg.norm`` computes one vector's."""
    return np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))


def _columns(psi: np.ndarray, indices: np.ndarray, trials: np.ndarray | None = None) -> np.ndarray:
    """``psi[trials[i]][:, indices[i]]`` for each row ``i``; every trial by default.

    Each slice is column-major, as ``psi[:, indices]`` is for one system, so
    products with it round exactly as a single trial's do.
    """
    if trials is None:
        trials = np.arange(indices.shape[0])
    rows = np.arange(psi.shape[1])
    return psi[trials[:, None, None], rows[None, None, :], indices[:, :, None]].swapaxes(1, 2)


def _stack_inputs(system: SensingSystem, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y`` as a complex (T, m) stack and psi as a matching (T, m, N_s) view."""
    y = np.asarray(y, dtype=complex)
    if y.ndim != 2 or y.shape[1] != system.num_measurements:
        raise ValueError(f"y must be a (trials, {system.num_measurements}) stack")
    psi = system.psi
    if psi.shape[:-2] != y.shape[:1]:  # a shared system serves every row
        psi = np.broadcast_to(psi, y.shape[:1] + psi.shape[-2:])
    return y, psi


def _stacked(
    coefficients: np.ndarray,
    support: np.ndarray,
    residual_norm: np.ndarray,
    iterations: np.ndarray,
    norm_y: np.ndarray,
    deficient: np.ndarray,
    config: SolverConfig,
) -> StackedEstimate:
    """A stacked solve's result; trials with zero ``y`` or a rank-deficient fit get empty rows."""
    empty = deficient | (norm_y == 0.0)
    if empty.any():
        coefficients[empty] = 0.0
        support[empty] = -1
        iterations[empty] = 0
        residual_norm = np.where(empty, norm_y, residual_norm)
    converged = ~deficient & (residual_norm <= config.residual_tol * norm_y)
    return StackedEstimate(coefficients, support, residual_norm, iterations, converged, deficient)


def _one(stack: StackedEstimate, solver: str) -> SparseEstimate:
    """The single estimate of a stack of one; raises if its fit was rank deficient."""
    if stack.deficient[0]:
        raise RankDeficientError(f"{solver} hit a rank-deficient least-squares fit")
    support = stack.support[0]
    return SparseEstimate(
        coefficients=stack.coefficients[0],
        support=tuple(support[support >= 0].tolist()),
        residual_norm=float(stack.residual_norm[0]),
        iterations=int(stack.iterations[0]),
        converged=bool(stack.converged[0]),
    )


def omp(system: SensingSystem, y: np.ndarray, config: SolverConfig) -> SparseEstimate:
    """Orthogonal matching pursuit.

    Runs exactly ``config.sparsity`` greedy selections unless the relative
    residual drops to ``config.residual_tol`` first. Each iteration picks the
    column with the largest normalized correlation against the residual
    (ties break to the lowest index; already-selected columns are excluded),
    refits all selected columns by least squares, and updates the residual,
    which is therefore orthogonal to every selected column. A batch of one
    over :func:`omp_stack`.
    """
    return _one(omp_stack(system, np.asarray(y)[None], config), "omp")


def omp_stack(system: SensingSystem, y: np.ndarray, config: SolverConfig) -> StackedEstimate:
    """:func:`omp` on T trials at once: ``y`` is (T, m), ``system`` stacked or shared.

    Each greedy step runs once for the whole stack; trials that converge or
    hit a rank-deficient fit stop while the others go on.
    """
    y, psi = _stack_inputs(system, y)
    check_config(OMP, config, system.num_measurements)
    trials = y.shape[0]
    rows = np.arange(trials)[:, None]
    norm_y = _row_norms(y)
    tolerance = config.residual_tol * norm_y
    support = np.zeros((trials, config.sparsity), dtype=int)
    coef = np.zeros((trials, config.sparsity), dtype=complex)
    residual = y
    residual_norm = norm_y.copy()
    iterations = np.zeros(trials, dtype=int)
    deficient = np.zeros(trials, dtype=bool)
    active = norm_y > 0.0
    for step in range(config.sparsity):
        if not active.any():
            break
        proxy = correlate(system, residual)
        proxy[rows, support[:, :step]] = -1.0  # an index is never re-selected
        support[:, step] = np.argmax(proxy, axis=1)
        basis = _columns(psi, support[:, : step + 1])
        fit = least_squares(basis, y)
        deficient |= active & np.isnan(fit[:, 0])
        active &= ~deficient
        fitted = y - np.matmul(basis, fit[..., None])[..., 0]
        fitted_norm = _row_norms(fitted)
        coef[active, : step + 1] = fit[active]
        residual = np.where(active[:, None], fitted, residual)
        residual_norm = np.where(active, fitted_norm, residual_norm)
        iterations[active] = step + 1
        active &= fitted_norm > tolerance

    chosen = np.arange(config.sparsity) < iterations[:, None]
    support[~chosen] = -1
    coefficients = np.zeros((trials, system.num_atoms), dtype=complex)
    t, j = np.nonzero(chosen)
    coefficients[t, support[t, j]] = coef[t, j]
    return _stacked(coefficients, support, residual_norm, iterations, norm_y, deficient, config)


def cosamp(system: SensingSystem, y: np.ndarray, config: SolverConfig) -> SparseEstimate:
    """Compressive sampling matching pursuit.

    Per iteration: correlate the residual with all columns, merge the 2M
    strongest indices into the current support, least-squares fit on the
    merged set, prune back to the M largest coefficients, and recompute the
    residual. Halts on a small relative residual, on stagnation (relative
    improvement below ``STAGNATION_TOL``), or after ``max_iterations``; the
    best-residual iterate seen is returned. A batch of one over
    :func:`cosamp_stack`.
    """
    return _one(cosamp_stack(system, np.asarray(y)[None], config), "cosamp")


def cosamp_stack(system: SensingSystem, y: np.ndarray, config: SolverConfig) -> StackedEstimate:
    """:func:`cosamp` on T trials at once: ``y`` is (T, m), ``system`` stacked or shared.

    Each iteration runs once for the stack. The least-squares fit runs once
    per merged-support size among the active trials, so nothing is padded.
    A trial whose merged support outgrows the m measurements, or whose fit is
    rank deficient, stops and is marked deficient.
    """
    y, psi = _stack_inputs(system, y)
    m = system.num_measurements
    check_config(COSAMP, config, m)
    sparsity = config.sparsity
    trials, num_atoms = y.shape[0], system.num_atoms
    keep_count = min(sparsity, num_atoms)
    norm_y = _row_norms(y)
    tolerance = config.residual_tol * norm_y
    support = np.zeros((trials, 0), dtype=int)
    residual = y
    prev_norm = norm_y
    best_norm = np.full(trials, np.inf)
    best_support = np.zeros((trials, keep_count), dtype=int)
    best_coef = np.zeros((trials, keep_count), dtype=complex)
    iterations = np.zeros(trials, dtype=int)
    deficient = np.zeros(trials, dtype=bool)
    active = norm_y > 0.0
    for _ in range(config.max_iterations):
        if not active.any():
            break
        proxy = correlate(system, residual)
        omega = _top_indices(proxy, min(2 * sparsity, num_atoms))
        candidates = np.sort(np.concatenate([omega, support], axis=1), axis=1)
        fresh = np.ones(candidates.shape, dtype=bool)
        fresh[:, 1:] = candidates[:, 1:] != candidates[:, :-1]
        sizes = fresh.sum(axis=1)
        deficient |= active & (sizes > m)
        active &= ~deficient
        support = np.zeros((trials, keep_count), dtype=int)
        coef = np.zeros((trials, keep_count), dtype=complex)
        for size in sorted(set(sizes[active].tolist())):
            group = np.flatnonzero(active & (sizes == size))
            merged = candidates[group][fresh[group]].reshape(group.size, size)
            fit = least_squares(_columns(psi, merged, group), y[group])
            deficient[group] = np.isnan(fit[:, 0])
            keep = np.sort(_top_indices(np.abs(fit), keep_count), axis=1)
            picked = np.arange(group.size)[:, None]
            support[group] = merged[picked, keep]
            coef[group] = fit[picked, keep]
        active &= ~deficient
        fitted = y - np.matmul(_columns(psi, support), coef[..., None])[..., 0]
        fitted_norm = _row_norms(fitted)
        iterations[active] += 1
        better = active & (fitted_norm < best_norm)
        best_norm[better] = fitted_norm[better]
        best_support[better] = support[better]
        best_coef[better] = coef[better]
        residual = np.where(active[:, None], fitted, residual)
        stalled = prev_norm - fitted_norm < STAGNATION_TOL * prev_norm
        prev_norm = np.where(active, fitted_norm, prev_norm)
        active &= (fitted_norm > tolerance) & ~stalled

    coefficients = np.zeros((trials, num_atoms), dtype=complex)
    coefficients[np.arange(trials)[:, None], best_support] = best_coef
    return _stacked(coefficients, best_support, best_norm, iterations, norm_y, deficient, config)


def l0_oracle(system: SensingSystem, y: np.ndarray, sparsity: int) -> SparseEstimate:
    """Exhaustive minimum-residual search over all column subsets of the given size.

    Test-scale oracle: evaluates a least-squares fit on every subset and keeps
    the one with the smallest residual (ties go to the lexicographically
    smallest support). Guarded to at most 10^6 candidate subsets.
    """
    if sparsity < 1:
        raise ValueError("sparsity must be >= 1")
    num_atoms = system.num_atoms
    n_subsets = math.comb(num_atoms, sparsity)
    if n_subsets > 1_000_000:
        raise InstanceTooLargeError(
            f"{n_subsets} candidate subsets exceed the 10^6 enumeration guard"
        )
    y = np.asarray(y, dtype=complex)
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    evaluated = 0
    for subset in itertools.combinations(range(num_atoms), sparsity):
        basis = system.psi[:, subset]
        try:
            coef = least_squares(basis, y)
        except RankDeficientError:
            continue
        evaluated += 1
        res_norm = float(np.linalg.norm(y - basis @ coef))
        if best is None or res_norm < best[0]:
            best = (res_norm, subset, coef)
    if best is None:
        raise RankDeficientError("every candidate subset was rank deficient")
    res_norm, subset, coef = best
    coefficients = np.zeros(num_atoms, dtype=complex)
    coefficients[list(subset)] = coef
    return SparseEstimate(
        coefficients=coefficients,
        support=subset,
        residual_norm=res_norm,
        iterations=evaluated,
        converged=True,
    )
