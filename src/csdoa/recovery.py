"""Greedy sparse solvers on complex data: OMP, CoSaMP, and a brute-force oracle.

The public solvers take one trial's :class:`~csdoa.sensing.SensingSystem` and
return a :class:`SparseEstimate` whose coefficient vector is zero off the
support. Atom selection uses column-normalized correlations; the least-squares
refits use the raw columns. Scaling ``y``, or for OMP a column of Psi, by a
power of two leaves every choice unchanged. CoSaMP's prune keeps the largest
raw coefficients, so a scaled column can move its support.

OMP and CoSaMP have one implementation each, over a stack of T trials
(:func:`omp_stack`, :func:`cosamp_stack`). These take Psi (T, m, N_s) and its
column norms (T, N_s) as plain arrays, all that a solve reads of a system, and
``omp``/``cosamp`` pass a system's two as a stack of one. Every greedy step
runs once, whole, on the live set: the trials still running, with their
``y``, Psi and column norms gathered so that each rounds exactly as it does
alone. Both solvers end every step in one ``_Live.settle``, where the trials
that stop leave the set and write their rows of the one :class:`StackedEstimate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, InstanceTooLargeError, RankDeficientError, integer
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
        for name in ("sparsity", "max_iterations"):
            object.__setattr__(self, name, integer(getattr(self, name), name))
        if self.sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (math.isfinite(self.residual_tol) and self.residual_tol >= 0):
            raise ValueError(f"residual_tol must be finite and >= 0, got {self.residual_tol}")


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
    basis, y = np.asarray(basis), np.asarray(y)
    m, k = basis.shape[-2:]
    if k == 0:
        return np.zeros(basis.shape[:-2] + (0,), dtype=complex)
    if k > m:
        raise RankDeficientError(f"system with {k} columns and {m} rows is underdetermined")
    a = basis.astype(complex)  # qr_r_raw factors its operand in place
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    r = np.where(_upper(k), a[..., :k, :], 0j)  # np.triu's own where
    diag = np.abs(a.diagonal(0, -2, -1))  # R's diagonal
    deficient = np.minimum.reduce(diag, axis=-1) <= RANK_TOL * np.maximum.reduce(diag, axis=-1)
    any_deficient = np.count_nonzero(deficient)
    if any_deficient:
        if basis.ndim == 2:
            raise RankDeficientError("selected columns are numerically rank deficient")
        r[deficient] = np.eye(k)  # solvable stand-ins; their rows are set to NaN below
    qhy = np.matmul(np.conjugate(q, out=q).swapaxes(-1, -2), y[..., None])
    coef = _umath_linalg.solve(r, qhy, signature="DD->D")[..., 0]
    if any_deficient:
        coef[deficient] = np.nan
    return coef


def correlate(psi: np.ndarray, column_norms: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Normalized correlation magnitudes ``|<residual, psi_j>| / ||psi_j||``.

    ``psi`` is one m x N_s dictionary with its N_s ``column_norms``, or a
    (T, m, N_s) stack with (T, N_s) norms. ``residual`` is one vector of
    length m, or a (T, m) stack matched row by row with a stack of T Psi (a
    single Psi serves every row).
    """
    # psi^T conj(r) is the exact conjugate of psi^H r and needs no conjugated copy of psi.
    products = np.matmul(psi.swapaxes(-1, -2), np.asarray(residual).conj()[..., None])
    return np.abs(products[..., 0]) / column_norms


def _top_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Per row, indices of the ``count`` largest entries, ties resolved to lowest index.

    The same choice as a stable argsort of ``-values``, by repeated argmax,
    which is far cheaper for the few entries the solvers keep. Overwrites
    ``values``: each chosen entry becomes ``-inf``, so callers pass a
    temporary of their own. No caller passes ``-inf`` entries, so a row's
    picks are distinct for every ``count <= N``.
    """
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


def _columns(psi: np.ndarray, indices: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """``psi[trials[i, 0]][:, indices[i]]`` for each row ``i``; ``trials`` is a column.

    Each slice is column-major, as one system's ``psi[:, indices]`` is, so
    products with it round exactly as a single trial's do.
    """
    return psi.swapaxes(1, 2)[trials, indices].swapaxes(1, 2)


class _Live:
    """The trials of a stacked solve that are still running, and the solve's result.

    ``rows`` holds their stack positions, ``index`` their positions here as
    a column, and ``y``, ``residual``, ``tolerance``, ``psi`` and
    ``column_norms`` their rows, gathered into C-contiguous copies as trials
    leave. ``psi`` (T, m, N_s) holds one trial per row of ``y``. Each row of
    ``stack`` starts empty, as a zero ``y`` or a failed fit leaves it; a
    trial that leaves with an iterate writes its row once, in ``settle``.
    """

    def __init__(
        self, algorithm: str, psi: np.ndarray, column_norms: np.ndarray, y, config: SolverConfig,
        width: int,
    ):
        y = np.asarray(y, dtype=complex)
        trials, m, num_atoms = psi.shape
        if y.shape != (trials, m):
            raise ValueError(f"y must be a ({trials}, {m}) stack, a row per trial; got {y.shape}")
        check_config(algorithm, config, m)
        self.psi, self.column_norms, self.y, self.residual = psi, column_norms, y, y
        norm_y = _row_norms(y)
        self.tolerance = config.residual_tol * norm_y
        self.rows, self.index = np.arange(trials), np.arange(trials)[:, None]
        self.stack = StackedEstimate(
            coefficients=np.zeros((trials, num_atoms), dtype=complex),
            support=np.full((trials, width), -1),
            residual_norm=norm_y,
            iterations=np.zeros(trials, dtype=int),
            converged=norm_y == 0.0,  # as 0 <= residual_tol * 0; set as trials leave
            deficient=np.zeros(trials, dtype=bool),
        )
        going = norm_y > 0.0  # a zero y never enters the set: its empty row is its result
        if np.count_nonzero(going) < trials:
            self.keep(going)

    def settle(self, going, last: bool, leaving, *state: np.ndarray) -> tuple | None:
        """End a step: trials leave where ``going`` fails, or all of them if ``last``.

        Each leaving trial writes its row of ``leaving`` (support, coefficients,
        residual norm, iterations), or leaves deficient if its coefficients are
        NaN. Returns the staying trials' rows of ``state``, or None when none stays.
        """
        staying = 0 if last else np.count_nonzero(going)
        if staying == going.size:
            return state
        done = ~going if staying else slice(None)
        support, coef, residual_norm, iterations = leaving
        support, coef, residual_norm = support[done], coef[done], residual_norm[done]
        rows, stack, failed = self.rows[done], self.stack, np.isnan(coef[:, 0])
        stack.converged[rows] = ~failed & (residual_norm <= self.tolerance[done])
        if np.count_nonzero(failed):
            stack.deficient[rows[failed]] = True
            ok = ~failed
            rows, support, coef, residual_norm = rows[ok], support[ok], coef[ok], residual_norm[ok]
        stack.support[rows, : support.shape[1]] = support
        stack.coefficients[rows[:, None], support] = coef
        stack.residual_norm[rows] = residual_norm
        stack.iterations[rows] = iterations
        return self.keep(going, *state) if staying else None

    def keep(self, going: np.ndarray, *state: np.ndarray) -> tuple[np.ndarray, ...]:
        """Keep the live trials where ``going`` holds; returns their rows of ``state``."""
        (self.rows, self.y, self.residual, self.tolerance, self.psi, self.column_norms) = (
            a[going] for a in (
                self.rows, self.y, self.residual, self.tolerance, self.psi, self.column_norms))
        self.index = np.arange(self.rows.size)[:, None]
        return tuple(a[going] for a in state)


def _measured(system: SensingSystem, y) -> np.ndarray:
    """A caller's ``y`` as complex, checked before any use.

    Raises DimensionMismatchError unless ``y`` is a vector of the system's m
    measurements, and ValueError on a non-finite entry.
    """
    y = np.asarray(y, dtype=complex)
    m = system.num_measurements
    if y.shape != (m,):
        raise DimensionMismatchError(f"y must be a vector of length {m}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("y must hold only finite entries")
    return y


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
    over :func:`omp_stack`; a ``y`` that is not a finite vector of length m
    raises ValueError.
    """
    y = _measured(system, y)
    return _one(omp_stack(system.psi[None], system.column_norms[None], y[None], config), "omp")


def omp_stack(
    psi: np.ndarray, column_norms: np.ndarray, y: np.ndarray, config: SolverConfig
) -> StackedEstimate:
    """:func:`omp` on T trials at once: Psi (T, m, N_s), its norms (T, N_s) and ``y`` (T, m).

    A ``y`` of another shape raises ValueError. Each greedy step runs once,
    whole, on the live set: the trials still running. A trial leaves it,
    with its row written, when it converges, hits a rank-deficient fit or
    has made every selection. Neither ``y`` nor Psi is checked for finite
    entries: the engine's are finite by construction, and :func:`omp`
    checks a caller's.
    """
    live = _Live(OMP, psi, column_norms, y, config, config.sparsity)
    support = np.empty((live.rows.size, config.sparsity), dtype=int)
    for step in range(config.sparsity if live.rows.size else 0):
        proxy = correlate(live.psi, live.column_norms, live.residual)
        if step:
            proxy[live.index, support[:, :step]] = -1.0  # an index is never re-selected
        support[:, step] = proxy.argmax(axis=1)
        basis = _columns(live.psi, support[:, : step + 1], live.index)
        fit = least_squares(basis, live.y)
        live.residual = live.y - np.matmul(basis, fit[..., None])[..., 0]
        residual_norm = _row_norms(live.residual)
        going = residual_norm > live.tolerance  # false after a rank-deficient (NaN) fit
        leaving = (support[:, : step + 1], fit, residual_norm, step + 1)
        state = live.settle(going, step + 1 == config.sparsity, leaving, support)
        if state is None:
            break
        (support,) = state
    return live.stack


def cosamp(system: SensingSystem, y: np.ndarray, config: SolverConfig) -> SparseEstimate:
    """Compressive sampling matching pursuit.

    Per iteration: correlate the residual with all columns, merge the 2M
    strongest indices into the current support, least-squares fit on the
    merged set, prune back to the M largest coefficients, and recompute the
    residual. Halts on a small relative residual, on stagnation (relative
    improvement below ``STAGNATION_TOL``), or after ``max_iterations``, and
    returns the last iterate, or the one before it when the last fits no
    better (so the first, if it halts after one iteration). A batch of one
    over :func:`cosamp_stack`; a ``y`` that is not a finite vector of length
    m raises ValueError.
    """
    y = _measured(system, y)
    stack = cosamp_stack(system.psi[None], system.column_norms[None], y[None], config)
    return _one(stack, "cosamp")


def _pruned_fit(psi, y, merged, trials, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The fit of ``y`` on each row's ``merged`` support, pruned to the ``keep`` largest.

    Returns the kept atoms, ascending, and their coefficients. A support
    larger than Psi's m rows gets NaN coefficients, as a rank-deficient fit does.
    """
    if merged.shape[1] > psi.shape[1]:
        return merged[:, :keep], np.full((merged.shape[0], keep), np.nan, dtype=complex)
    fit = least_squares(_columns(psi, merged, trials), y)
    picked = np.arange(merged.shape[0])[:, None]
    kept = _top_indices(np.abs(fit), keep)
    kept.sort(axis=1)
    return merged[picked, kept], fit[picked, kept]


def _merged_fit(psi, y, trials, omega, support, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pruned_fit` of each row on its ``omega`` atoms merged into its ``support``.

    One unpadded fit per merged-support size, in place on views when every row has that size.
    An empty support fits its sorted ``omega`` directly: merging costs ~6% of a ``run_single`` call.
    """
    if not support.shape[1]:  # the first iteration: omega's distinct atoms are the merged set
        omega.sort(axis=1)
        return _pruned_fit(psi, y, omega, trials, keep)
    candidates = np.concatenate([omega, support], axis=1)
    candidates.sort(axis=1)
    fresh = np.ones(candidates.shape, dtype=bool)
    fresh[:, 1:] = candidates[:, 1:] != candidates[:, :-1]
    sizes = np.add.reduce(fresh, axis=1)
    kept, coef = np.empty_like(support), np.empty((support.shape[0], keep), dtype=complex)
    for size in sorted(set(sizes.tolist())):
        rows = sizes == size if np.count_nonzero(sizes != size) else slice(None)
        merged = candidates[rows][fresh[rows]].reshape(-1, size)
        kept[rows], coef[rows] = _pruned_fit(psi, y[rows], merged, trials[rows], keep)
    return kept, coef


def cosamp_stack(
    psi: np.ndarray, column_norms: np.ndarray, y: np.ndarray, config: SolverConfig
) -> StackedEstimate:
    """:func:`cosamp` on T trials at once: Psi (T, m, N_s), its norms (T, N_s) and ``y`` (T, m).

    A ``y`` of another shape raises ValueError. Each iteration runs once,
    whole, on the live set: the trials still running. A trial leaves, with
    the iterate :func:`cosamp` returns, when it converges, stalls or runs out
    of iterations, and leaves deficient when its merged support outgrows the
    m measurements or its fit is rank deficient. Neither ``y`` nor Psi is
    checked for finite entries: the engine's are finite by construction, and
    :func:`cosamp` checks a caller's. That iterate is the best one seen: a
    trial goes on only from an iterate that fits better than the one before,
    unless ``STAGNATION_TOL`` times the residual norm underflows to zero
    (||y|| near the subnormal range) and two residual norms tie exactly.
    """
    sparsity, num_atoms = config.sparsity, psi.shape[-1]
    keep = min(sparsity, num_atoms)
    live = _Live(COSAMP, psi, column_norms, y, config, keep)
    # The last iterate's support, coefficients and residual norm; the stack's norms are still ||y||.
    support, coef = np.zeros((live.rows.size, 0), dtype=int), None
    norm = live.stack.residual_norm[live.rows]
    for iteration in range(1, config.max_iterations + 1 if live.rows.size else 1):
        proxy = correlate(live.psi, live.column_norms, live.residual)
        omega = _top_indices(proxy, min(2 * sparsity, num_atoms))
        prev_support, prev_coef, prev_norm = support, coef, norm
        support, coef = _merged_fit(live.psi, live.y, live.index, omega, support, keep)
        columns = _columns(live.psi, support, live.index)
        live.residual = live.y - np.matmul(columns, coef[..., None])[..., 0]
        norm = _row_norms(live.residual)
        stalled = prev_norm - norm < STAGNATION_TOL * prev_norm
        going = (norm > live.tolerance) & ~stalled  # false after a deficient (NaN) fit
        leaving = (support, coef, norm, iteration)
        if iteration > 1:  # the previous iterate, the best so far, leaves if this one is no better
            back = (norm >= prev_norm)[:, None]  # false on NaN: a deficient trial stays deficient
            leaving = (np.where(back, prev_support, support), np.where(back, prev_coef, coef),
                       np.where(back[:, 0], prev_norm, norm), iteration)
        state = live.settle(going, iteration == config.max_iterations, leaving, support, coef, norm)
        if state is None:
            break
        support, coef, norm = state
    return live.stack


def l0_oracle(system: SensingSystem, y: np.ndarray, sparsity: int) -> SparseEstimate:
    """Exhaustive minimum-residual search over all column subsets of the given size.

    Test-scale oracle: fits every subset by the stacked :func:`least_squares`,
    in stacks of at most 2^15 subsets in lexicographic order, and keeps the
    one with the smallest residual; ties go to the lexicographically smallest
    support, across stacks too. ``iterations`` counts the subsets that are not
    rank deficient. Guarded to at most 10^6 candidate subsets; a
    ``sparsity`` outside [1, number of atoms], or a ``y`` that is not a
    finite vector of length m, raises ValueError.
    """
    sparsity = integer(sparsity, "sparsity")
    num_atoms = system.num_atoms
    if not 1 <= sparsity <= num_atoms:
        raise ValueError(f"sparsity must lie in [1, {num_atoms}] (the atom count), got {sparsity}")
    n_subsets = math.comb(num_atoms, sparsity)
    if n_subsets > 1_000_000:
        raise InstanceTooLargeError(
            f"{n_subsets} candidate subsets exceed the 10^6 enumeration guard"
        )
    y = _measured(system, y)
    subsets = itertools.combinations(range(num_atoms), sparsity)
    best, evaluated = None, 0
    for _ in range(0, n_subsets, 2**15):  # 2^15 subsets hold a 16 MB basis at m = 10, sparsity 3
        block = np.array(list(itertools.islice(subsets, 2**15)))
        basis = _columns(system.psi[None], block, np.zeros((len(block), 1), dtype=int))
        coef = least_squares(basis, np.broadcast_to(y, (len(block), y.size)))
        norms = _row_norms(y - np.matmul(basis, coef[..., None])[..., 0])
        fits = ~np.isnan(coef[:, 0])  # a rank-deficient subset's NaN row never wins
        evaluated += np.count_nonzero(fits)
        i = np.where(fits, norms, np.inf).argmin()  # the first minimum of the stack
        if fits[i] and (best is None or norms[i] < best[0]):  # strict: earlier stacks win ties
            best = (norms[i], block[i], coef[i])
    if best is None:
        raise RankDeficientError("every candidate subset was rank deficient")
    res_norm, subset, coef = best
    coefficients = np.zeros(num_atoms, dtype=complex)
    coefficients[subset] = coef
    return SparseEstimate(
        coefficients=coefficients, support=tuple(subset.tolist()),
        residual_norm=float(res_norm), iterations=evaluated, converged=True,
    )
