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
import os
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .array_model import (
    MAX_ARRAY_BYTES,
    UNIT_MODULUS,
    AngleGrid,
    ArrayGeometry,
    Snapshot,
    SourceSet,
    build_manifold,
    make_grid,
    snapshot_stack,
)
from .errors import DimensionMismatchError, InstanceTooLargeError, integer
from .recovery import (
    COSAMP,
    OMP,
    SolverConfig,
    StackedEstimate,
    check_config,
    cosamp_stack,
    omp_stack,
)
from .seeding import stream_generators, trial_seeds
from .sensing import (
    GAUSSIAN,
    IDENTITY,
    MEASUREMENT_KINDS,
    _column_norms,
    gaussian_stack,
    min_measurements,
)
from .spectrum import AngleSpectrum, DoaEstimate, StackedScores, score_stack

_STACK_SOLVERS = {OMP: omp_stack, COSAMP: cosamp_stack}

ALGORITHMS = tuple(_STACK_SOLVERS)

# Most trials one stacked solve holds: a bound on the stacks' memory. At 15
# sensors, m <= 10 and 181 atoms a thread's first sweep has a traced peak that
# grows by about 65-80 KiB a trial of chunk (4.0-5.1 MiB at 64, the kept Psi
# buffers included); the time per trial stops falling near 32-64. Whether 128
# or 256 is faster is unresolved: one run took 6% and 8% less time per trial
# than 64, against about 10% run-to-run spread.
CHUNK_TRIALS = 64

# Byte budget of one chunk's Psi stack, (trials, m, grid points) complex, and
# separately of its Phi stack, (trials, m, sensors): CHUNK_TRIALS trials of the
# default 181-atom grid at m <= 15 (2.65 MiB). A chunk takes fewer trials to
# stay within both, so it builds Psi in the pair of buffers each thread keeps
# (_psi_buffers), since glibc returns a freed Psi-sized pair to the OS and the
# next chunk faults it back in. Only a lone trial over the budget gets storage
# of its own, so a fine grid does not pin large buffers in a thread.
KEPT_PSI_BYTES = CHUNK_TRIALS * 15 * 181 * 16

# Largest ring of per-point buffers a sweep allocates up front: 256 MiB. The
# ring holds each algorithm's per-source errors and success flags for every
# trial of the points one chunk touches, so it grows with the trials per
# point; a sweep over the limit is refused before any work starts.
MAX_RING_BYTES = 2**28

# Most SNR points one sweep may have: as many as fit in MAX_RING_BYTES at the
# memory each point holds for the whole run. That is its float in the
# caller's list (a 24-byte float and an 8-byte slot) and its slot in the sweep
# tuple (8 bytes), plus its aggregate row per algorithm: three float64 in the
# result table and three Python floats in the result tuples (3 * (8 + 32)
# bytes). With both algorithms that is 280 bytes and 958,698 points.
# `csdoa montecarlo` refuses a longer --snr-sweep before it builds the list.
MAX_SWEEP_POINTS = MAX_RING_BYTES // (8 + 32 + len(ALGORITHMS) * 3 * (8 + 32))

# Each thread's kept Psi buffers (see _psi_buffers).
_THREAD = threading.local()


def _sweep_layout(
    scenario: Scenario, points: int, trials: int, workers: int
) -> tuple[int, int, int]:
    """``(chunk trials, ring slots, pool workers)`` of a sweep of ``points`` SNR points.

    A chunk holds at most ``CHUNK_TRIALS`` trials, fewer (but one at least)
    when its Psi or its Phi stack would pass ``KEPT_PSI_BYTES`` or when that
    keeps the pool busy. The pool gets ``workers`` processes, but no more than
    the cores (``os.cpu_count()``) or the chunks: it forks all of them at its
    first task. Raises :class:`InstanceTooLargeError` when the ring of point
    buffers would pass ``MAX_RING_BYTES``.
    """
    m, n = scenario.measurement.num_measurements, scenario.geometry.num_sensors
    trial_bytes = 16 * m * max(len(scenario.grid.angles_deg), n)
    size = min(CHUNK_TRIALS, max(1, KEPT_PSI_BYTES // trial_bytes))
    workers = 1 if workers == 1 else min(workers, os.cpu_count() or 1)  # serial: no core count
    if workers > 1:  # several chunks per worker keep the pool evenly loaded
        size = max(1, min(size, -(-points * trials // (4 * workers))))
    # Point i fills slot i % ring; a chunk touches at most `ring` points, and
    # every point before its first one is already aggregated.
    ring = min(points, (size - 1) // trials + 2)
    # Per slot and algorithm: float64 errors per source and a bool success flag per trial.
    ring_bytes = ring * len(scenario.algorithms) * trials * (8 * scenario.sources.num_sources + 1)
    if ring_bytes > MAX_RING_BYTES:
        raise InstanceTooLargeError(
            f"{trials} trials per SNR point need {ring_bytes / 2**20:.4g} MiB of point "
            f"buffers, over the {MAX_RING_BYTES / 2**20:.4g} MiB limit; use fewer trials"
        )
    return size, ring, min(workers, -(-points * trials // size))


def _check_snr(snr_db: float) -> None:
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError("snr_db must be finite or +inf (noise disabled)")


@dataclass(frozen=True)
class MeasurementSpec:
    """Compression scheme: matrix family and number of measurement rows."""

    kind: str
    num_measurements: int

    def __post_init__(self) -> None:
        if self.kind not in MEASUREMENT_KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        m = integer(self.num_measurements, "num_measurements")
        object.__setattr__(self, "num_measurements", m)
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
        if not self.algorithms or not set(self.algorithms) <= _STACK_SOLVERS.keys():
            raise ValueError(
                f"algorithms must be one or more of {', '.join(ALGORITHMS)}, "
                f"got {list(self.algorithms)}"
            )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithms must not repeat")
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_snr(self.snr_db)
        # OffGridSourceError for a source that is not a grid point.
        indices = tuple(self.grid.index_of(doa) for doa in self.sources.doas_deg)
        object.__setattr__(self, "source_indices", indices)
        m = self.measurement.num_measurements
        if self.measurement.kind == IDENTITY and m != self.geometry.num_sensors:
            raise DimensionMismatchError(
                f"identity measurement needs m = {self.geometry.num_sensors} sensors, got {m}"
            )
        for name in self.algorithms:
            check_config(name, self.solver, m)
        n, points = self.geometry.num_sensors, len(self.grid.angles_deg)
        # Psi first, then Phi, then A: the same bound on each.
        for name, rows, columns, remedy in (
            (f"one trial's Psi at m = {m} on {points} grid points", m, points, "a coarser grid"),
            (f"one trial's Phi at m = {m} on {n} sensors", m, n, "fewer sensors or measurements"),
            (f"A(theta) at {n} sensors on {points} grid points", n, points,
             "fewer sensors or a coarser grid"),
        ):
            need = 16 * rows * columns
            if need > MAX_ARRAY_BYTES:
                raise InstanceTooLargeError(
                    f"{name} needs {need / 2**20:.4g} MiB, over the "
                    f"{MAX_ARRAY_BYTES / 2**20:.4g} MiB limit; use {remedy}"
                )


@dataclass(eq=False)
class AlgorithmRun:
    """One algorithm's spectrum, peak estimate and scores on a single run.

    ``errors_deg`` has one entry per source, by ascending angle, and ``success``
    is whether every source's peak is in its exact grid bin: every entry is
    below half the grid step.
    """

    spectrum: AngleSpectrum
    estimated: DoaEstimate
    errors_deg: np.ndarray
    residual_norm: float
    iterations: int
    success: bool


@dataclass(eq=False)
class SingleRunResult:
    """Everything produced by one seeded run: the snapshot and per-algorithm runs."""

    scenario: Scenario
    snapshot: Snapshot
    runs: dict[str, AlgorithmRun]


@dataclass(eq=False)
class AlgorithmRmse:
    """Aggregated sweep results for one algorithm, index-aligned with the SNR points."""

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
    return min_measurements(num_sources, integer(num_sensors, "num_sensors")) + 1


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
    return Scenario(
        geometry=geometry,
        grid=grid,
        sources=sources,
        snr_db=snr_db,
        measurement=MeasurementSpec(measurement_kind, num_measurements),
        solver=SolverConfig(sparsity, max_iterations, residual_tol),
        algorithms=tuple(dict.fromkeys(algorithms)),
        seed=seed,
    )


def _psi_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A Psi buffer and a scratch buffer shaped ``shape``, C-contiguous complex.

    Up to ``KEPT_PSI_BYTES`` they are views of this thread's kept pair, which
    grows to the largest stack asked for; a smaller stack takes a leading
    slice. Past it, as a sweep's chunk is only when it is a lone trial, they
    are fresh arrays that the thread does not keep. Only ``_run_trials`` may
    use the kept pair, and no view of it may leave it.
    """
    size = math.prod(shape)
    if 16 * size > KEPT_PSI_BYTES:
        return np.empty(shape, complex), np.empty(shape, complex)
    kept = getattr(_THREAD, "psi", None)
    if kept is None or kept[0].size < size:
        kept = _THREAD.psi = (np.empty(size, complex), np.empty(size, complex))
    return kept[0][:size].reshape(shape), kept[1][:size].reshape(shape)


def _draw_trials(
    scenario: Scenario,
    snr_db: tuple[float, ...],
    tasks: Sequence[tuple[int, int]],
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Snapshots ``(data, clean, noise)``, each (T, N), and the (T, m, N) Phi entries of ``tasks``.

    Trial ``(i, t)`` runs at SNR ``snr_db[i]``. The generators of every
    trial's two ``trial_seeds`` streams come from
    :func:`~csdoa.seeding.stream_generators`: numpy's own for a lone trial,
    seeded for the whole chunk at once otherwise. The data streams go to
    :func:`~csdoa.array_model.snapshot_stack` and the Phi streams to
    :func:`~csdoa.sensing.gaussian_stack`, the draw functions that
    ``synthesize`` and ``draw_measurement_matrix`` are stacks of one over, so
    each trial's arrays are what those give it bit for bit. An identity Phi
    draws nothing, and its Phi streams get no generators.
    """
    count = 1 if scenario.measurement.kind == IDENTITY else 2
    streams = stream_generators(scenario.seed, tasks, count)
    snapshots = snapshot_stack(scenario, [snr_db[i] for i, _ in tasks], streams[::count])
    m, n = scenario.measurement.num_measurements, scenario.geometry.num_sensors
    if count == 1:
        return snapshots, np.repeat(np.eye(n, dtype=complex)[None], len(tasks), axis=0)
    return snapshots, gaussian_stack(m, n, streams[1::2])


def _run_trials(
    scenario: Scenario,
    snr_db: tuple[float, ...],
    tasks: Sequence[tuple[int, int]],
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], dict[str, StackedEstimate], StackedScores]:
    """Fully seeded trials ``(snr_index, trial_index)``, drawn, solved and scored as one stack.

    Trial ``(i, t)`` runs ``scenario`` at SNR ``snr_db[i]``; the sweep points
    differ only in SNR. Every trial draws its snapshot and measurement matrix
    from its own ``trial_seeds`` streams, so its outcome does not depend on
    which trials share the stack. Returns the snapshots ``(data, clean,
    noise)``, each algorithm's stacked estimate (row ``k`` is ``tasks[k]``),
    and the scores of all of them in one stack: row ``a * len(tasks) + k``
    belongs to the ``a``-th algorithm's estimate of ``tasks[k]``.
    """
    snapshots, entries = _draw_trials(scenario, snr_db, tasks)
    manifold = build_manifold(scenario.grid, scenario.geometry)
    # Psi goes into this thread's kept buffers; nothing returned holds a view of them.
    psi, scratch = _psi_buffers(entries.shape[:-1] + manifold.shape[-1:])
    # One product per trial, shaped as a lone trial's Phi A, so that each
    # rounds as SensingSystem's does on every BLAS kernel. The Scenario fixed
    # the shapes and build_manifold the finite entries, so nothing is re-checked.
    np.matmul(entries, manifold, out=psi)
    column_norms = _column_norms(psi, scratch)
    y = np.matmul(entries, snapshots[0][..., None])[..., 0]
    estimates = {
        algorithm: _STACK_SOLVERS[algorithm](psi, column_norms, y, scenario.solver)
        for algorithm in scenario.algorithms
    }
    coefficients = np.concatenate([estimate.coefficients for estimate in estimates.values()])
    scores = score_stack(coefficients, scenario.grid, scenario.sources, scenario.solver.sparsity)
    return snapshots, estimates, scores


def run_single(scenario: Scenario) -> SingleRunResult:
    """Run one trial at the scenario's own SNR, deterministic in ``scenario.seed``.

    Equivalent to trial 0 of the first sweep point of ``run_monte_carlo``.
    """
    (data, clean, noise), estimates, scores = _run_trials(scenario, (scenario.snr_db,), [(0, 0)])
    runs = {
        algorithm: AlgorithmRun(
            spectrum=AngleSpectrum(grid=scenario.grid, power=scores.power[row]),
            estimated=scores.estimate(scenario.grid, row),
            errors_deg=scores.errors_deg[row],
            residual_norm=float(estimate.residual_norm[0]),
            iterations=int(estimate.iterations[0]),
            success=bool(scores.success[row]),
        )
        for row, (algorithm, estimate) in enumerate(estimates.items())
    }
    snapshot = Snapshot(data[0], clean[0], noise[0])
    return SingleRunResult(scenario=scenario, snapshot=snapshot, runs=runs)


def _sweep_chunk(
    scenario: Scenario,
    snr_db: tuple[float, ...],
    trials: int,
    flat: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Trials ``flat`` of the sweep's flat ``(snr_index, trial)`` order, slimmed for aggregation.

    Returns per-source errors (algorithms, trials, sources) and success flags
    (algorithms, trials), algorithms in scenario order.
    """
    tasks = [divmod(k, trials) for k in flat]
    _, estimates, scores = _run_trials(scenario, snr_db, tasks)
    shape = (len(estimates), len(flat))
    return scores.errors_deg.reshape(shape + (-1,)), scores.success.reshape(shape)


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
    ``CHUNK_TRIALS`` trials, and fewer when their Psi or Phi stack would pass
    ``KEPT_PSI_BYTES``, each solved as one stacked problem; a pool of
    ``workers`` processes, but no more than the cores or the chunks, takes
    whole chunks. A task carries the scenario, the sweep and its range; each
    worker takes A from its own :func:`build_manifold` cache. Only a sweep
    with ``workers > 1`` imports the pool, on one core too. Each chunk's
    rows are copied into a ring of point buffers, and the points it completes
    are aggregated together, so memory holds one chunk's stacks and the
    per-source errors of the points one chunk touches. Point buffers over
    ``MAX_RING_BYTES`` raise :class:`InstanceTooLargeError`, and a
    non-integer ``trials`` or ``workers`` TypeError, before any work. Neither
    the chunking nor ``workers`` changes the result.
    """
    sweep = tuple(float(s) for s in snr_sweep_db)
    if not sweep:
        raise ValueError("snr_sweep_db must be nonempty")
    for snr in sweep:
        _check_snr(snr)
    trials, workers = integer(trials, "trials"), integer(workers, "workers")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    size, ring, pool_size = _sweep_layout(scenario, len(sweep), trials, workers)
    total = len(sweep) * trials

    def chunks():  # built as the loop takes them, not held for the whole sweep
        return (range(start, min(start + size, total)) for start in range(0, total, size))

    solve = partial(_sweep_chunk, scenario, sweep, trials)

    algorithms = scenario.algorithms
    errors = np.empty((ring, len(algorithms), trials, scenario.sources.num_sources))
    success = np.empty((ring, len(algorithms), trials), dtype=bool)
    # One (points, 3, algorithms) block per chunk that completes points: the
    # RMSE, the success-only RMSE and the success rate.
    aggregates: list[np.ndarray] = []

    def collect(flat: range, chunk_errors: np.ndarray, chunk_success: np.ndarray) -> None:
        slot, column = np.divmod(np.arange(flat.start, flat.stop) % (ring * trials), trials)
        errors[slot, :, column] = chunk_errors.swapaxes(0, 1)
        success[slot, :, column] = chunk_success.T
        done = range(flat.start // trials, flat.stop // trials)
        if not done:
            return
        slots = [i % ring for i in done]
        # (points, algorithms, trials * sources): each row's mean is the same
        # pairwise sum as the 1-D mean of that point's errors.
        squares = np.square(errors[slots]).reshape(len(done), len(algorithms), -1)
        point_rmse = np.sqrt(squares.mean(axis=-1))
        wins = success[slots]
        counts = wins.sum(axis=-1)
        hit_rmse = np.where(counts == trials, point_rmse, math.nan)
        for p, a in zip(*np.nonzero((counts > 0) & (counts < trials))):
            hits = squares[p, a].reshape(trials, -1)[wins[p, a]].ravel()
            hit_rmse[p, a] = np.sqrt(hits.mean())
        aggregates.append(np.stack([point_rmse, hit_rmse, counts / trials], axis=1))

    if workers > 1:
        # Imported here, so that only a pooled sweep loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            for flat, outcome in zip(chunks(), pool.map(solve, chunks())):
                collect(flat, *outcome)
    else:
        for flat in chunks():
            collect(flat, *solve(flat))

    table = np.concatenate(aggregates)
    per_algorithm = {
        algorithm: AlgorithmRmse(*(tuple(table[:, k, a].tolist()) for k in range(3)))
        for a, algorithm in enumerate(algorithms)
    }
    return RmseCurve(snr_points_db=sweep, per_algorithm=per_algorithm, trials=trials)
