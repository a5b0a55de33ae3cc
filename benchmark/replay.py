"""Stage-by-stage replay of csdoa trials, with an in-memory span tracer.

The replay calls the library's public stage functions in the order
``csdoa.experiments._run_trial`` uses them, so a replayed sweep reproduces
the ``rmse.csv`` of ``csdoa montecarlo`` and a replayed call reproduces
``csdoa.run_single``. Given a :class:`Tracer` it records one span per stage
call; given :class:`Untraced` it adds nothing but the indirection.

Import this module only after ``csdoa`` is importable (``run.py`` sees to it).
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import csdoa
import csdoa.recovery

FMT = "%.12g"  # the CLI's float format; outputs are compared at this precision

SOLVERS = {csdoa.OMP: csdoa.omp, csdoa.COSAMP: csdoa.cosamp}

# Top-level stages of one trial, in _run_trial's order, plus the manifold
# build (once per sweep, once per run_single call). Their summed spans are
# what the untraced time is compared against.
STAGES = (
    "build_manifold",
    "trial_seeds",
    "default_rng",
    "synthesize",
    "draw_measurement_matrix",
    "build_sensing_system",
    "compress",
    csdoa.OMP,
    csdoa.COSAMP,
    "angle_spectrum",
    "pick_peaks",
    "trial_error",
)

# Library functions called from inside the solvers, timed by wrapping the
# module attributes the solvers look up at call time.
NESTED = ("least_squares", "correlate")


class Tracer:
    """Spans kept in memory as ``(name, start, end, parent, trial)`` tuples.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``trial`` the ``(seed, snr_index, trial_index)`` id current at the call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.trial: tuple | None = None
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.trial)


class Untraced:
    """Stand-in for :class:`Tracer` that records nothing."""

    trial = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Stats:
    """Solver outcome counts gathered by a replay, per algorithm."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.rank_deficient: Counter = Counter()
        self.iterations: Counter = Counter()


@contextmanager
def patched(module, name: str, make_wrapper):
    """Replace ``module.name`` by ``make_wrapper(original)``; always restore it."""
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


@contextmanager
def nested_spans(tracer: Tracer, module=csdoa.recovery):
    """Record a span for every least_squares and correlate call the solvers make.

    ``module`` is where the solvers look the two functions up at call time.
    """

    def span_of(name):
        def make_wrapper(original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)

            return wrapper

        return make_wrapper

    with patched(module, NESTED[0], span_of(NESTED[0])):
        with patched(module, NESTED[1], span_of(NESTED[1])):
            yield


def tracer_cost(calls: int = 20000) -> tuple[float, float]:
    """Seconds a nested span adds inside itself, and to its parent, per call.

    Measured on no-op functions wrapped exactly as :func:`nested_spans` wraps
    the solvers' calls, so stage times can be corrected for the tracer.
    """
    stub = SimpleNamespace(**{name: lambda: None for name in NESTED})
    direct = _loop_seconds(stub.correlate, calls)
    tracer = Tracer()
    with nested_spans(tracer, stub):
        traced = _loop_seconds(stub.correlate, calls)
    inside = float(np.median([end - start for _, start, end, _, _ in tracer.spans]))
    return inside, (traced - direct) / calls


def _loop_seconds(fn, calls: int) -> float:
    start = perf_counter()
    for _ in range(calls):
        fn()
    return perf_counter() - start


def replay_trial(tracer, scenario, trial_scenario, manifold, snr_index, trial_index, stats):
    """One trial; returns ``{algorithm: (doas_deg, errors_deg, success)}``."""
    tracer.trial = (scenario.seed, snr_index, trial_index)
    data_seed, phi_seed = tracer.call(
        "trial_seeds", csdoa.trial_seeds, scenario.seed, snr_index, trial_index
    )
    rng = tracer.call("default_rng", np.random.default_rng, data_seed)
    snapshot = tracer.call("synthesize", csdoa.synthesize, trial_scenario, rng)
    spec = trial_scenario.measurement
    phi = tracer.call(
        "draw_measurement_matrix",
        csdoa.draw_measurement_matrix,
        spec.num_measurements,
        trial_scenario.geometry.num_sensors,
        spec.kind,
        seed=phi_seed,
    )
    system = tracer.call("build_sensing_system", csdoa.build_sensing_system, phi, manifold)
    y = tracer.call("compress", csdoa.compress, phi, snapshot.data)

    grid = trial_scenario.grid
    outcome = {}
    for algorithm in trial_scenario.algorithms:
        stats.calls[algorithm] += 1
        try:
            estimate = tracer.call(
                algorithm, SOLVERS[algorithm], system, y, trial_scenario.solver
            )
        except csdoa.RankDeficientError:
            # _run_trial scores a rank-deficient solve as a miss of every source.
            stats.rank_deficient[algorithm] += 1
            misses = np.full(trial_scenario.sources.num_sources, csdoa.MISS_PENALTY_DEG)
            outcome[algorithm] = ((), misses, False)
            continue
        stats.iterations[algorithm] += estimate.iterations
        spectrum = tracer.call("angle_spectrum", csdoa.angle_spectrum, estimate, grid)
        estimated = tracer.call(
            "pick_peaks", csdoa.pick_peaks, spectrum, trial_scenario.solver.sparsity
        )
        errors = tracer.call("trial_error", csdoa.trial_error, estimated, trial_scenario.sources)
        outcome[algorithm] = (estimated.doas_deg, errors, bool(errors.max() < grid.step_deg))
    return outcome


def replay_single(tracer, scenario, stats):
    """What ``csdoa.run_single(scenario)`` computes: trial 0 of point 0."""
    tracer.trial = (scenario.seed, 0, 0)
    manifold = tracer.call("build_manifold", csdoa.build_manifold, scenario.grid, scenario.geometry)
    return replay_trial(tracer, scenario, scenario, manifold, 0, 0, stats)


def replay_sweep(tracer, scenario, snr_points, trials, stats) -> str:
    """What ``csdoa.run_monte_carlo`` computes, formatted as the CLI's rmse.csv."""
    tracer.trial = (scenario.seed, -1, -1)
    manifold = tracer.call("build_manifold", csdoa.build_manifold, scenario.grid, scenario.geometry)
    points = []
    for i, snr in enumerate(snr_points):
        trial_scenario = scenario if snr == scenario.snr_db else replace(scenario, snr_db=snr)
        points.append(
            [
                replay_trial(tracer, scenario, trial_scenario, manifold, i, t, stats)
                for t in range(trials)
            ]
        )
    return rmse_csv(scenario.algorithms, snr_points, trials, points)


def rmse_csv(algorithms, snr_points, trials, points) -> str:
    """Aggregate per-trial outcomes exactly as run_monte_carlo and format as rmse.csv."""
    names = [a for a in csdoa.ALGORITHMS if a in algorithms]
    header = ["snr_db"]
    header += [f"rmse_{a}_deg" for a in names]
    header += [f"rmse_{a}_success_only_deg" for a in names]
    header += [f"success_rate_{a}" for a in names]
    lines = [",".join(header)]
    for snr, point in zip(snr_points, points):
        rmse, rmse_hits, rate = [], [], []
        for a in names:
            errors = np.concatenate([trial[a][1] for trial in point])
            rmse.append(float(np.sqrt(np.mean(errors**2))))
            hits = [trial[a][1] for trial in point if trial[a][2]]
            if hits:
                rmse_hits.append(float(np.sqrt(np.mean(np.concatenate(hits) ** 2))))
            else:
                rmse_hits.append(float("nan"))
            rate.append(sum(trial[a][2] for trial in point) / trials)
        lines.append(",".join(FMT % v for v in [snr, *rmse, *rmse_hits, *rate]))
    return "".join(line + "\n" for line in lines)


def format_estimates(doas_by_algorithm) -> str:
    """One line per call, e.g. ``omp:-60,0,40 cosamp:-61,0,40``."""
    return " ".join(
        f"{a}:" + ",".join(FMT % d for d in doas_by_algorithm[a])
        for a in csdoa.ALGORITHMS
        if a in doas_by_algorithm
    )
