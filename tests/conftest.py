"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately take different computational routes than the
library (normal equations instead of QR, scalar loops instead of vectorized
products) so agreement is meaningful.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import math
import platform
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import csdoa
import csdoa.experiments
import csdoa.recovery


def normal_equations(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares solution via the normal equations (B^H B) c = B^H y."""
    gram = basis.conj().T @ basis
    return np.linalg.solve(gram, basis.conj().T @ y)


def openblas() -> str | None:
    """numpy's bundled scipy-openblas library on x86-64, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return None
    if np.__config__.CONFIG["Build Dependencies"]["blas"].get("name") != "scipy-openblas":
        return None
    found = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*"))
    return found[0] if found else None


def openblas_core() -> str | None:
    """The core name of the kernels numpy's bundled OpenBLAS loaded, or None without it.

    OpenBLAS picks them when it loads, from ``OPENBLAS_CORETYPE`` if set, else
    from the CPU. It names the set it loaded, which may differ from the one
    asked for: numpy 2.4.6's OpenBLAS 0.3.31 runs ``Zen`` on its ``Haswell``
    kernels and ``Prescott`` on its ``Katmai`` ones.
    """
    library = openblas()
    if library is None:
        return None
    corename = ctypes.CDLL(library).scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def pinned_for_kernel(values: dict[str, str], what: str) -> str:
    """The value of ``what`` recorded for the OpenBLAS kernels loaded here.

    A lone trial's products round differently on each kernel set, so a pin
    of their bits holds one value per core. An unrecorded core fails, naming
    itself, so that its value gets recorded rather than skipped.
    """
    core = openblas_core()
    if core not in values:
        pytest.fail(f"{what} has no value recorded for the OpenBLAS core {core!r}")
    return values[core]


def psi_spy(monkeypatch) -> list:
    """What each engine chunk hands the OMP solver: ``(psi, column_norms, y)``."""
    seen = []
    solve = csdoa.experiments._STACK_SOLVERS[csdoa.OMP]

    def spy(psi, column_norms, y, config):
        seen.append((psi, column_norms, y))
        return solve(psi, column_norms, y, config)

    monkeypatch.setitem(csdoa.experiments._STACK_SOLVERS, csdoa.OMP, spy)
    return seen


def reference_trial_seeds(seed: int, snr_index: int, trial_index: int) -> tuple[int, int]:
    """A trial's (data_seed, phi_seed) from numpy's own SeedSequence."""
    state = np.random.SeedSequence([seed, snr_index, trial_index]).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def gaussian_system(m: int, n: int, seed: int) -> csdoa.SensingSystem:
    """Sensing system whose effective dictionary is an m-by-n Gaussian matrix.

    An identity manifold makes psi equal to the measurement matrix itself,
    giving an incoherent generic dictionary for solver tests.
    """
    phi = csdoa.draw_measurement_matrix(m, n, csdoa.GAUSSIAN, seed=seed)
    return csdoa.build_sensing_system(phi, np.eye(n, dtype=complex))


def planted_instance(offset: int, inst: int, m: int = 10, n: int = 20, sparsity: int = 2):
    """Noiseless sparse instance with a known planted support.

    Instance ``inst`` of the family anchored at ``offset`` uses seed
    ``offset + 2*inst`` for the measurement matrix and ``offset + 2*inst + 1``
    for the support and coefficients (unit-modulus random phases).

    Returns (system, y, support, x).
    """
    phi = csdoa.draw_measurement_matrix(m, n, csdoa.GAUSSIAN, seed=offset + 2 * inst)
    system = csdoa.build_sensing_system(phi, np.eye(n, dtype=complex))
    rng = np.random.default_rng(offset + 2 * inst + 1)
    support = tuple(sorted(int(i) for i in rng.choice(n, size=sparsity, replace=False)))
    x = np.zeros(n, dtype=complex)
    x[list(support)] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, sparsity))
    y = csdoa.compress(phi, x)
    return system, y, support, x


@lru_cache(maxsize=None)
def oracle_match_counts(offset: int, count: int) -> dict:
    """How often each solver's support matches the exhaustive oracle.

    Cached so the module-level invariant test and the acceptance gate share
    one computation. Also checks coefficient agreement on matches and reports
    the worst relative deviation.
    """
    matches = {"omp": 0, "cosamp": 0}
    worst_coef = {"omp": 0.0, "cosamp": 0.0}
    for inst in range(count):
        system, y, _, _ = planted_instance(offset, inst)
        oracle = csdoa.l0_oracle(system, y, 2)
        config = csdoa.SolverConfig(sparsity=2)
        for name, solver in (("omp", csdoa.omp), ("cosamp", csdoa.cosamp)):
            estimate = solver(system, y, config)
            if tuple(sorted(estimate.support)) == oracle.support:
                matches[name] += 1
                scale = float(np.linalg.norm(oracle.coefficients))
                dev = float(np.linalg.norm(estimate.coefficients - oracle.coefficients))
                worst_coef[name] = max(worst_coef[name], dev / scale)
    return {"matches": matches, "worst_coef_rel": worst_coef}


class ZeroRng:
    """Generator stub whose every draw is zero: phases 0, no noise.

    Like ``np.random.Generator``, each draw fills ``out`` when given one.
    """

    @staticmethod
    def _zeros(size, out):
        if out is None:
            return np.zeros(size if size is not None else ())
        out[...] = 0.0
        return out

    def random(self, size=None, out=None):
        return self._zeros(size, out)

    def standard_normal(self, size=None, out=None):
        return self._zeros(size, out)


# ---------------------------------------------------------------------------
# Per-trial loop references for the stacked solvers. These are the scalar
# OMP and CoSaMP loops, one trial at a time with 1-D vectors and Python
# scalars, and the l0 oracle's loop, one subset at a time; the stacked
# kernels must reproduce them bit for bit.


def _reference_least_squares(basis: np.ndarray, y: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(basis)
    diag = np.abs(np.diag(r))
    if basis.shape[1] > basis.shape[0] or diag.min() <= csdoa.recovery.RANK_TOL * diag.max():
        raise csdoa.RankDeficientError("reference fit is rank deficient")
    return np.linalg.solve(r, q.conj().T @ y)


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def _empty(num_atoms: int) -> csdoa.SparseEstimate:
    return csdoa.SparseEstimate(np.zeros(num_atoms, dtype=complex), (), 0.0, 0, True)


def reference_omp(system, y, config) -> csdoa.SparseEstimate:
    y = np.asarray(y, dtype=complex)
    norm_y = _norm(y)
    if norm_y == 0.0:
        return _empty(system.num_atoms)
    support: list[int] = []
    coef = np.zeros(0, dtype=complex)
    residual_norm = norm_y
    residual = y
    for _ in range(config.sparsity):
        proxy = np.abs(system.psi.conj().T @ residual) / system.column_norms
        if support:
            proxy[support] = -1.0
        support.append(int(np.argmax(proxy)))
        basis = system.psi[:, support]
        coef = _reference_least_squares(basis, y)
        residual = y - basis @ coef
        residual_norm = _norm(residual)
        if residual_norm <= config.residual_tol * norm_y:
            break
    coefficients = np.zeros(system.num_atoms, dtype=complex)
    coefficients[support] = coef
    return csdoa.SparseEstimate(
        coefficients, tuple(support), residual_norm, len(support),
        residual_norm <= config.residual_tol * norm_y,
    )


def reference_cosamp(system, y, config) -> csdoa.SparseEstimate:
    y = np.asarray(y, dtype=complex)
    m, sparsity = system.num_measurements, config.sparsity
    norm_y = _norm(y)
    if norm_y == 0.0:
        return _empty(system.num_atoms)
    support = np.zeros(0, dtype=int)
    residual = y
    prev_norm = norm_y
    best = (float("inf"), support, np.zeros(0, dtype=complex))
    iterations = 0
    for _ in range(config.max_iterations):
        proxy = np.abs(system.psi.conj().T @ residual) / system.column_norms
        omega = np.argsort(-proxy, kind="stable")[: min(2 * sparsity, system.num_atoms)]
        merged = np.union1d(omega, support)
        if merged.size > m:
            raise csdoa.RankDeficientError("merged support exceeds the measurements")
        fit = _reference_least_squares(system.psi[:, merged], y)
        keep = np.sort(np.argsort(-np.abs(fit), kind="stable")[:sparsity])
        support, coef = merged[keep], fit[keep]
        residual = y - system.psi[:, support] @ coef
        residual_norm = _norm(residual)
        iterations += 1
        if residual_norm < best[0]:
            best = (residual_norm, support, coef)
        if residual_norm <= config.residual_tol * norm_y:
            break
        if prev_norm - residual_norm < csdoa.recovery.STAGNATION_TOL * prev_norm:
            break
        prev_norm = residual_norm
    best_norm, best_support, best_coef = best
    coefficients = np.zeros(system.num_atoms, dtype=complex)
    coefficients[best_support] = best_coef
    return csdoa.SparseEstimate(
        coefficients, tuple(int(i) for i in best_support), best_norm, iterations,
        best_norm <= config.residual_tol * norm_y,
    )


REFERENCE_SOLVERS = {"omp": reference_omp, "cosamp": reference_cosamp}


def reference_l0_oracle(system, y, sparsity: int) -> csdoa.SparseEstimate:
    """The exhaustive search one subset at a time, each a 2-D ``least_squares`` fit."""
    sparsity = csdoa.errors.integer(sparsity, "sparsity")
    num_atoms = system.num_atoms
    if not 1 <= sparsity <= num_atoms:
        raise ValueError(f"sparsity must lie in [1, {num_atoms}] (the atom count), got {sparsity}")
    n_subsets = math.comb(num_atoms, sparsity)
    if n_subsets > 1_000_000:
        raise csdoa.InstanceTooLargeError(
            f"{n_subsets} candidate subsets exceed the 10^6 enumeration guard"
        )
    y = csdoa.recovery._measured(system, y)
    best: tuple[float, tuple[int, ...], np.ndarray] | None = None
    evaluated = 0
    for subset in itertools.combinations(range(num_atoms), sparsity):
        basis = system.psi[:, subset]
        try:
            coef = csdoa.least_squares(basis, y)
        except csdoa.RankDeficientError:
            continue
        evaluated += 1
        res_norm = float(np.linalg.norm(y - basis @ coef))
        if best is None or res_norm < best[0]:
            best = (res_norm, subset, coef)
    if best is None:
        raise csdoa.RankDeficientError("every candidate subset was rank deficient")
    res_norm, subset, coef = best
    coefficients = np.zeros(num_atoms, dtype=complex)
    coefficients[list(subset)] = coef
    return csdoa.SparseEstimate(
        coefficients=coefficients,
        support=subset,
        residual_norm=res_norm,
        iterations=evaluated,
        converged=True,
    )


# ---------------------------------------------------------------------------
# Per-trial references for the chunk's draws and scoring: one trial's draws
# with a steering vector per source, and the per-trial angle_spectrum ->
# pick_peaks -> trial_error chain. The stacked versions must reproduce them
# bit for bit.


def reference_steering(theta_deg: float, geometry) -> np.ndarray:
    """One source's ULA steering vector, ``exp(-2j pi (d/lambda) n sin(theta))``."""
    n = np.arange(geometry.num_sensors)
    phase = -2.0 * np.pi * geometry.spacing_over_wavelength * n * np.sin(np.deg2rad(theta_deg))
    return np.exp(1j * phase)


def reference_synthesize(scenario, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, clean, noise) of one trial: group amplitudes, then the noise."""
    sources, geometry, grid = scenario.sources, scenario.geometry, scenario.grid
    n_groups = len(sources.coherent_groups)
    if sources.amplitude_model == csdoa.UNIT_MODULUS:
        group_amps = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n_groups))
    else:
        group_amps = (
            rng.standard_normal(n_groups) + 1j * rng.standard_normal(n_groups)
        ) / np.sqrt(2.0)
    amps = np.zeros(sources.num_sources, dtype=complex)
    for group, amp in zip(sources.coherent_groups, group_amps):
        for i in group:
            amps[i] = amp
    clean = np.zeros(geometry.num_sensors, dtype=complex)
    for doa, amp in zip(sources.doas_deg, amps):
        theta = grid.angles_deg[grid.index_of(doa)]
        clean = clean + reference_steering(theta, geometry) * amp
    if math.isinf(scenario.snr_db):
        noise = np.zeros_like(clean)
    else:
        p_clean = float(np.sum(np.abs(clean) ** 2))
        sigma2 = p_clean / (geometry.num_sensors * 10.0 ** (scenario.snr_db / 10.0))
        noise = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(geometry.num_sensors)
            + 1j * rng.standard_normal(geometry.num_sensors)
        )
    return clean + noise, clean, noise


def reference_phi(m: int, n: int, kind: str, seed: int) -> np.ndarray:
    """One trial's measurement matrix entries."""
    if kind == csdoa.IDENTITY:
        return np.eye(n, dtype=complex)
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return math.sqrt(1.0 / (2.0 * m)) * parts


def reference_pick_peaks(power: np.ndarray, grid, num_peaks: int) -> tuple[tuple, tuple]:
    """(doas_deg, powers) of the num_peaks largest positive entries, by a stable argsort."""
    order = np.argsort(-power, kind="stable")[:num_peaks]
    order = np.sort(order[power[order] > 0.0])
    return (
        tuple(float(grid.angles_deg[j]) for j in order),
        tuple(float(power[j]) for j in order),
    )


def reference_trial_error(doas_deg, truth) -> np.ndarray:
    """Per-source errors of the minimal-total-error order-preserving alignment."""
    est = sorted(doas_deg)
    true = sorted(truth.doas_deg)
    n_true, n_est = len(true), len(est)
    miss_penalty = csdoa.MISS_PENALTY_DEG
    inf = float("inf")
    cost = [[inf] * (n_est + 1) for _ in range(n_true + 1)]
    cost[n_true] = [0.0] * (n_est + 1)
    for i in range(n_true - 1, -1, -1):
        for j in range(n_est, -1, -1):
            miss = miss_penalty + cost[i + 1][j]
            best = miss
            if j < n_est:
                match = abs(est[j] - true[i]) + cost[i + 1][j + 1]
                skip = cost[i][j + 1]
                best = min(match, skip, miss)
            cost[i][j] = best
    errors = np.empty(n_true)
    i = j = 0
    while i < n_true:
        miss = miss_penalty + cost[i + 1][j]
        if j < n_est:
            match = abs(est[j] - true[i]) + cost[i + 1][j + 1]
            if match <= min(cost[i][j + 1], miss):
                errors[i] = abs(est[j] - true[i])
                i += 1
                j += 1
                continue
            if cost[i][j + 1] < miss:
                j += 1
                continue
        errors[i] = miss_penalty
        i += 1
    return errors


def reference_score(coefficients: np.ndarray, grid, truth, num_peaks: int):
    """(power, doas_deg, powers, errors, success) of one coefficient vector."""
    power = np.abs(coefficients) ** 2
    doas, powers = reference_pick_peaks(power, grid, num_peaks)
    errors = reference_trial_error(doas, truth)
    return power, doas, powers, errors, bool(errors.max() < grid.step_deg)


def per_trial_curve(scenario, snr_sweep_db, trials: int) -> dict:
    """RMSE curve composed trial by trial from the references above.

    Each trial's snapshot and Phi come from ``reference_synthesize`` and
    ``reference_phi`` on streams seeded by numpy's own SeedSequence and
    default_rng; its Psi from a ``SensingSystem`` on that Phi, its solves
    from the loop references and its score from ``reference_score``. None of
    it shares a draw, stack or alignment helper with the engine. Returns
    what ``curve_key`` returns for ``run_monte_carlo``'s curve.
    """
    manifold = csdoa.build_manifold(scenario.grid, scenario.geometry)
    spec = scenario.measurement
    per_algorithm = {a: ([], [], []) for a in scenario.algorithms}
    for i, snr in enumerate(snr_sweep_db):
        point = scenario if snr == scenario.snr_db else replace(scenario, snr_db=float(snr))
        errors = {a: [] for a in scenario.algorithms}
        hits = {a: [] for a in scenario.algorithms}
        for t in range(trials):
            data_seed, phi_seed = reference_trial_seeds(scenario.seed, i, t)
            data, _, _ = reference_synthesize(point, np.random.default_rng(data_seed))
            phi = reference_phi(
                spec.num_measurements, scenario.geometry.num_sensors, spec.kind, phi_seed
            )
            system = csdoa.SensingSystem(phi, manifold)
            y = phi @ data
            for a in scenario.algorithms:
                try:
                    estimate = REFERENCE_SOLVERS[a](system, y, scenario.solver)
                except csdoa.RankDeficientError:
                    errors[a].append(np.full(scenario.sources.num_sources, csdoa.MISS_PENALTY_DEG))
                    hits[a].append(False)
                    continue
                *_, err, success = reference_score(
                    estimate.coefficients, scenario.grid, scenario.sources,
                    scenario.solver.sparsity,
                )
                errors[a].append(err)
                hits[a].append(success)
        for a in scenario.algorithms:
            rmse, rmse_hits, rate = per_algorithm[a]
            rmse.append(float(np.sqrt(np.mean(np.concatenate(errors[a]) ** 2))))
            won = [e for e, h in zip(errors[a], hits[a]) if h]
            won_rmse = float(np.sqrt(np.mean(np.concatenate(won) ** 2))) if won else float("nan")
            rmse_hits.append(won_rmse)
            rate.append(sum(hits[a]) / trials)
    return {a: tuple(tuple(map(repr, v)) for v in vals) for a, vals in per_algorithm.items()}


def curve_key(curve) -> dict:
    """An RmseCurve as exactly comparable values (NaN compares equal to NaN)."""
    return {
        a: tuple(
            tuple(map(repr, v))
            for v in (agg.rmse_deg, agg.rmse_success_only_deg, agg.success_rate)
        )
        for a, agg in curve.per_algorithm.items()
    }
