"""Scenario container, single-run driver, and the Monte Carlo RMSE harness.

A :class:`Scenario` bundles everything one experiment needs (array, grid,
sources, SNR, measurement scheme, solver settings, seed). ``run_single``
produces spectra and peak estimates for each requested algorithm;
``run_monte_carlo`` sweeps SNR and aggregates RMSE and success rates over
independently seeded trials, optionally across worker processes. Both run
their trials through one engine, ``_run_trials``, that draws, solves and
scores a chunk of trials as one stacked problem; a single run is a chunk of
one.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .array_model import (
    UNIT_MODULUS,
    AngleGrid,
    ArrayGeometry,
    Snapshot,
    SourceSet,
    build_manifold,
    draw_snapshot,
    make_grid,
    snapshot_stack,
)
from .errors import DimensionMismatchError
from .recovery import SolverConfig, StackedEstimate, cosamp_stack, omp_stack
from .seeding import pcg64_states, stream_seeds
from .sensing import (
    GAUSSIAN,
    IDENTITY,
    MEASUREMENT_KINDS,
    MeasurementMatrix,
    build_sensing_system,
    compress,
    gaussian_entries,
    min_measurements,
)
from .spectrum import AngleSpectrum, DoaEstimate, StackedScores, score_stack

OMP = "omp"
COSAMP = "cosamp"
ALGORITHMS = (OMP, COSAMP)

_STACK_SOLVERS = {OMP: omp_stack, COSAMP: cosamp_stack}

# Most trials one stacked solve holds: a bound on the stacks' memory. At 15
# sensors, m <= 10 and 181 atoms a sweep's traced peak grows by about 45-65 KiB
# a trial of chunk (3.0-4.1 MiB at 64); the time per trial stops falling near
# 32-64, and 128 is no faster than 64.
CHUNK_TRIALS = 64

# Largest sweep or trial position: each is one 32-bit word of a trial's seed entropy.
_MAX_INDEX = 2**32 - 1


@dataclass(frozen=True)
class MeasurementSpec:
    """Compression scheme: matrix family and number of measurement rows."""

    kind: str
    num_measurements: int

    def __post_init__(self) -> None:
        if self.kind not in MEASUREMENT_KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.num_measurements < 1:
            raise ValueError("num_measurements must be >= 1")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Full, self-contained description of one simulation setup.

    Every run is a pure function of a Scenario: all randomness (measurement
    matrices, source amplitudes, noise) derives from ``seed``.
    """

    geometry: ArrayGeometry
    grid: AngleGrid
    sources: SourceSet
    snr_db: float
    measurement: MeasurementSpec
    solver: SolverConfig
    algorithms: tuple[str, ...] = ALGORITHMS
    seed: int = 0
    # Grid index of each source, in source order: its dictionary column.
    source_indices: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithms must not repeat")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must be finite or +inf (noise disabled)")
        # OffGridSourceError for a source that is not a grid point.
        indices = tuple(self.grid.index_of(doa) for doa in self.sources.doas_deg)
        object.__setattr__(self, "source_indices", indices)
        m = self.measurement.num_measurements
        if self.measurement.kind == IDENTITY and m != self.geometry.num_sensors:
            raise DimensionMismatchError(
                f"identity measurement needs m = {self.geometry.num_sensors} sensors, got {m}"
            )
        if OMP in self.algorithms:
            if self.solver.sparsity > m:
                raise ValueError(f"omp needs sparsity <= {m} measurements")
            if self.solver.max_iterations < self.solver.sparsity:
                raise ValueError("omp needs max_iterations >= sparsity")
        if COSAMP in self.algorithms and 2 * self.solver.sparsity > m:
            raise ValueError(f"cosamp needs 2 * sparsity <= {m} measurements")


@dataclass(eq=False)
class TrialRecord:
    """Outcome of one algorithm on one trial, scored against the truth."""

    trial_index: int
    algorithm: str
    estimated: DoaEstimate
    errors_deg: np.ndarray
    residual_norm: float
    iterations: int
    success: bool


@dataclass(eq=False)
class AlgorithmRun:
    """Spectrum, peak estimate, and scored record for one algorithm."""

    algorithm: str
    spectrum: AngleSpectrum
    estimated: DoaEstimate
    record: TrialRecord


@dataclass(eq=False)
class SingleRunResult:
    """Everything produced by one seeded run: the snapshot and per-algorithm runs."""

    scenario: Scenario
    snapshot: Snapshot
    runs: dict[str, AlgorithmRun]


@dataclass(eq=False)
class AlgorithmRmse:
    """Aggregated sweep results for one algorithm, index-aligned with the SNR points."""

    algorithm: str
    rmse_deg: tuple[float, ...]
    rmse_success_only_deg: tuple[float, ...]
    success_rate: tuple[float, ...]


@dataclass(eq=False)
class RmseCurve:
    """RMSE-vs-SNR sweep for every requested algorithm."""

    snr_points_db: tuple[float, ...]
    per_algorithm: dict[str, AlgorithmRmse]
    trials: int


def default_num_measurements(num_sources: int, num_sensors: int) -> int:
    """Default measurement count: one more than the information-theoretic floor."""
    return min_measurements(num_sources, num_sensors) + 1


def trial_seeds(seed: int, snr_index: int, trial_index: int) -> tuple[int, int]:
    """Derive independent (data_seed, phi_seed) for one trial.

    Uses a splittable seed sequence over (scenario seed, sweep position,
    trial position) so trials are reproducible regardless of execution order
    or worker count: ``np.random.SeedSequence([seed, snr_index,
    trial_index]).generate_state(2, np.uint64)``, computed as a chunk of
    one by :func:`~csdoa.seeding.stream_seeds`. The positions lie in
    ``[0, 2**32)``.
    """
    if not (0 <= snr_index <= _MAX_INDEX and 0 <= trial_index <= _MAX_INDEX):
        raise ValueError(f"snr_index and trial_index must lie in [0, {_MAX_INDEX}]")
    data_seed, phi_seed = stream_seeds(seed, [(snr_index, trial_index)])[0].tolist()
    return data_seed, phi_seed


def build_scenario(
    sources_deg: Sequence[float],
    *,
    num_sensors: int = 15,
    spacing_over_wavelength: float = 0.5,
    grid_spec: tuple[float, float, float] = (-90.0, 90.0, 1.0),
    coherent_groups: Sequence[Sequence[int]] = (),
    amplitude_model: str = UNIT_MODULUS,
    snr_db: float = 0.0,
    measurement_kind: str = GAUSSIAN,
    num_measurements: int | None = None,
    algorithms: Sequence[str] = ALGORITHMS,
    sparsity: int | None = None,
    max_iterations: int | None = None,
    residual_tol: float = 1e-6,
    seed: int = 0,
) -> Scenario:
    """Assemble a Scenario from loose parameters, filling documented defaults.

    ``coherent_groups`` uses zero-based source indices and may cover only
    some sources; uncovered ones become independent singletons. ``sparsity``
    defaults to the source count and ``num_measurements`` to
    ``default_num_measurements`` (identity measurements always use one row
    per sensor).
    """
    geometry = ArrayGeometry(num_sensors, spacing_over_wavelength)
    grid = make_grid(*grid_spec)
    groups = tuple(tuple(sorted(int(i) for i in g)) for g in coherent_groups)
    covered = {i for g in groups for i in g}
    groups += tuple((i,) for i in range(len(sources_deg)) if i not in covered)
    # Canonical group order keeps the per-group amplitude draws reproducible.
    groups = tuple(sorted(groups, key=lambda g: g[0]))
    sources = SourceSet(
        doas_deg=tuple(float(s) for s in sources_deg),
        coherent_groups=groups,
        amplitude_model=amplitude_model,
    )
    if sparsity is None:
        sparsity = sources.num_sources
    if num_measurements is None:
        if measurement_kind == IDENTITY:
            num_measurements = num_sensors
        else:
            num_measurements = default_num_measurements(sparsity, num_sensors)
    if max_iterations is None:
        max_iterations = max(50, sparsity)
    solver = SolverConfig(
        sparsity=sparsity,
        max_iterations=max_iterations,
        residual_tol=residual_tol,
    )
    return Scenario(
        geometry=geometry,
        grid=grid,
        sources=sources,
        snr_db=snr_db,
        measurement=MeasurementSpec(measurement_kind, num_measurements),
        solver=solver,
        algorithms=tuple(dict.fromkeys(algorithms)),
        seed=seed,
    )


def _draw_trials(
    points: dict[int, Scenario], manifold: np.ndarray, tasks: Sequence[tuple[int, int]]
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], MeasurementMatrix]:
    """Snapshots ``(data, clean, noise)``, each (T, N), and the Phi stack of trials ``tasks``.

    Every trial's two ``trial_seeds`` streams are derived for the whole chunk
    at once; per trial, one generator is reset to each stream's state and
    makes the raw draws, in ``synthesize``'s and ``draw_measurement_matrix``'s
    order. The rest runs once for the stack and gives each trial's arrays
    bit for bit.
    """
    base = points[tasks[0][0]]
    sources, spec = base.sources, base.measurement
    n = base.geometry.num_sensors
    snr_db = [points[snr_index].snr_db for snr_index, _ in tasks]
    amplitudes = np.empty((len(tasks), 2, len(sources.coherent_groups)))
    noise = np.zeros((len(tasks), 2, n))
    normals = None
    if spec.kind == GAUSSIAN:
        normals = np.empty((len(tasks), 2, spec.num_measurements, n))
    states = pcg64_states(stream_seeds(base.seed, tasks))
    rng = np.random.Generator(np.random.PCG64())
    for k, (data_state, phi_state) in enumerate(zip(states[0::2], states[1::2])):
        rng.bit_generator.state = data_state
        noise_row = None if math.isinf(snr_db[k]) else noise[k]
        draw_snapshot(sources, rng, amplitudes[k], noise_row)
        if normals is not None:
            rng.bit_generator.state = phi_state
            rng.standard_normal(out=normals[k])
    columns = manifold[:, list(base.source_indices)]
    snapshots = snapshot_stack(sources, columns, snr_db, amplitudes, noise)
    if normals is None:
        entries = np.repeat(np.eye(n, dtype=complex)[None], len(tasks), axis=0)
    else:
        entries = gaussian_entries(normals)
    return snapshots, MeasurementMatrix(entries, spec.kind)


def _run_trials(
    points: dict[int, Scenario],
    manifold: np.ndarray,
    tasks: Sequence[tuple[int, int]],
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict[str, StackedEstimate], StackedScores]:
    """Fully seeded trials ``(snr_index, trial_index)``, drawn, solved and scored as one stack.

    ``points[i]`` is the scenario at sweep point ``i``; the points differ only
    in SNR. Every trial draws its snapshot and measurement matrix from its own
    ``trial_seeds`` streams, so its outcome does not depend on which trials
    share the stack. Returns the snapshots ``(data, clean, noise)``, each
    algorithm's stacked estimate (row ``k`` is ``tasks[k]``), and the scores
    of all of them in one stack: row ``a * len(tasks) + k`` belongs to the
    ``a``-th algorithm's estimate of ``tasks[k]``.
    """
    base = points[tasks[0][0]]
    snapshots, phi = _draw_trials(points, manifold, tasks)
    system = build_sensing_system(phi, manifold)
    y = compress(phi, snapshots[0])
    estimates = {
        algorithm: _STACK_SOLVERS[algorithm](system, y, base.solver)
        for algorithm in base.algorithms
    }
    coefficients = np.concatenate([estimate.coefficients for estimate in estimates.values()])
    scores = score_stack(coefficients, base.grid, base.sources, base.solver.sparsity)
    return snapshots, estimates, scores


def run_single(scenario: Scenario) -> SingleRunResult:
    """Run one trial at the scenario's own SNR, deterministic in ``scenario.seed``.

    Equivalent to trial 0 of the first sweep point of ``run_monte_carlo``.
    """
    manifold = build_manifold(scenario.grid, scenario.geometry)
    (data, clean, noise), estimates, scores = _run_trials({0: scenario}, manifold, [(0, 0)])
    runs = {}
    for row, (algorithm, estimate) in enumerate(estimates.items()):
        estimated = scores.estimate(scenario.grid, row)
        record = TrialRecord(
            trial_index=0,
            algorithm=algorithm,
            estimated=estimated,
            errors_deg=scores.errors_deg[row],
            residual_norm=float(estimate.residual_norm[0]),
            iterations=int(estimate.iterations[0]),
            success=bool(scores.success[row]),
        )
        spectrum = AngleSpectrum(grid=scenario.grid, power=scores.power[row])
        runs[algorithm] = AlgorithmRun(algorithm, spectrum, estimated, record)
    snapshot = Snapshot(data[0], clean[0], noise[0], scenario.sources, scenario.snr_db)
    return SingleRunResult(scenario=scenario, snapshot=snapshot, runs=runs)


def _sweep_chunk(
    points: dict[int, Scenario], manifold: np.ndarray, trials: int, flat: range
) -> tuple[np.ndarray, np.ndarray]:
    """Trials ``flat`` of the sweep's flat ``(snr_index, trial)`` order, slimmed for aggregation.

    Returns per-source errors (trials, algorithms, sources) and success flags
    (trials, algorithms), algorithms in scenario order.
    """
    _, estimates, scores = _run_trials(points, manifold, [divmod(k, trials) for k in flat])
    shape = (len(estimates), len(flat))
    errors = scores.errors_deg.reshape(shape + (-1,)).swapaxes(0, 1)
    return errors, scores.success.reshape(shape).T


def run_monte_carlo(
    scenario: Scenario,
    snr_sweep_db: Sequence[float],
    trials: int,
    workers: int = 1,
) -> RmseCurve:
    """Sweep SNR, running ``trials`` independent trials per point.

    Trial (i, t) is seeded by ``trial_seeds(scenario.seed, i, t)`` with a
    fresh measurement matrix, amplitudes, and noise every time, so the curve
    is deterministic for a given scenario regardless of ``workers``.
    Aggregates, per algorithm and SNR point, the RMSE over all per-source
    errors (misses included at the 180 degree penalty), the RMSE over
    successful trials only (NaN when there are none), and the success rate.

    The flat list of (point, trial) pairs runs in chunks of at most
    ``CHUNK_TRIALS`` trials, each solved as one stacked problem; a pool of
    ``workers`` processes takes whole chunks. Each point is aggregated as
    soon as its last chunk is in, so memory holds one chunk's stacks and one
    point's per-source errors. Neither the chunking nor ``workers`` changes
    the result.
    """
    sweep = tuple(float(s) for s in snr_sweep_db)
    if not sweep:
        raise ValueError("snr_sweep_db must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    points = {
        i: scenario if snr == scenario.snr_db else replace(scenario, snr_db=snr)
        for i, snr in enumerate(sweep)
    }
    manifold = build_manifold(scenario.grid, scenario.geometry)
    total = len(sweep) * trials
    size = CHUNK_TRIALS
    if workers > 1:  # several chunks per worker keep the pool evenly loaded
        size = max(1, min(size, -(-total // (4 * workers))))
    chunks = [range(start, min(start + size, total)) for start in range(0, total, size)]
    solve = partial(_sweep_chunk, points, manifold, trials)

    algorithms = scenario.algorithms
    errors = np.empty((trials, len(algorithms), scenario.sources.num_sources))
    success = np.empty((trials, len(algorithms)), dtype=bool)
    rmse: list[list[float]] = [[] for _ in algorithms]
    rmse_success: list[list[float]] = [[] for _ in algorithms]
    rate: list[list[float]] = [[] for _ in algorithms]

    def collect(flat: range, chunk_errors: np.ndarray, chunk_success: np.ndarray) -> None:
        for row, k in enumerate(flat):
            t = k % trials
            errors[t] = chunk_errors[row]
            success[t] = chunk_success[row]
            if t < trials - 1:
                continue
            for a in range(len(algorithms)):  # the point is complete
                point_errors = errors[:, a].ravel()
                rmse[a].append(float(np.sqrt(np.mean(point_errors**2))))
                hits = errors[success[:, a], a].ravel()
                rmse_success[a].append(
                    float(np.sqrt(np.mean(hits**2))) if hits.size else float("nan")
                )
                rate[a].append(int(success[:, a].sum()) / trials)

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for flat, outcome in zip(chunks, pool.map(solve, chunks)):
                collect(flat, *outcome)
    else:
        for flat in chunks:
            collect(flat, *solve(flat))

    per_algorithm = {
        algorithm: AlgorithmRmse(
            algorithm=algorithm,
            rmse_deg=tuple(rmse[a]),
            rmse_success_only_deg=tuple(rmse_success[a]),
            success_rate=tuple(rate[a]),
        )
        for a, algorithm in enumerate(algorithms)
    }
    return RmseCurve(snr_points_db=sweep, per_algorithm=per_algorithm, trials=trials)
