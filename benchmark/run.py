"""Benchmark runner for csdoa.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed loop with a single caller in this process for about
S seconds, checks every output it produces, and prints one JSON object as
the last line of standard output::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts checked outputs (rmse.csv rows for the sweeps, calls
for single-shot) and ``failed`` those that raised or differ from what they
must equal. ``--trace 0`` reports the end-to-end metrics with no
instrumentation installed; ``--trace 1`` replays the workload's trials stage
by stage with spans and reports the per-layer metrics. NOTES.md gives the
workloads, the metric definitions and the reasons for both.

The library is imported from ``src/`` next to this directory, never from an
installed copy; without it the runner exits non-zero and prints no result.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and the pool workers it starts; must
# be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference"

sys.path.insert(0, str(SRC))
try:
    import csdoa
    import csdoa.cli
except ImportError as exc:
    sys.exit(f"benchmark: cannot import csdoa from {SRC}: {exc}")
if Path(csdoa.__file__).resolve().parent != SRC / "csdoa":
    sys.exit(f"benchmark: csdoa was imported from {csdoa.__file__}, not from {SRC}")

import numpy as np  # noqa: E402  (after the BLAS thread settings)

import replay  # noqa: E402

END_TO_END = {
    "trials_per_s": "1/s",
    "latency_min_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "experiments.trial_us": "us",
    "experiments.trial_seeds_us": "us",
    "experiments.default_rng_us": "us",
    "experiments.glue_us": "us",
    "experiments.pool_speedup": "ratio",
    "array_model.build_manifold_us": "us",
    "array_model.synthesize_us": "us",
    "sensing.draw_measurement_matrix_us": "us",
    "sensing.build_sensing_system_us": "us",
    "sensing.compress_us": "us",
    "recovery.omp_us": "us",
    "recovery.cosamp_us": "us",
    "recovery.least_squares_us": "us",
    "recovery.correlate_us": "us",
    "recovery.least_squares_calls": "count",
    "recovery.omp_iterations": "count",
    "recovery.cosamp_iterations": "count",
    "recovery.rank_deficient_frac": "ratio",
    "spectrum.angle_spectrum_us": "us",
    "spectrum.pick_peaks_us": "us",
    "spectrum.trial_error_us": "us",
    "cli.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Per-layer metric -> replay span name, for times reported per trial.
STAGE_METRICS = {
    "experiments.trial_seeds_us": "trial_seeds",
    "experiments.default_rng_us": "default_rng",
    "array_model.synthesize_us": "synthesize",
    "sensing.draw_measurement_matrix_us": "draw_measurement_matrix",
    "sensing.build_sensing_system_us": "build_sensing_system",
    "sensing.compress_us": "compress",
    "recovery.omp_us": "omp",
    "recovery.cosamp_us": "cosamp",
    "recovery.least_squares_us": "least_squares",
    "recovery.correlate_us": "correlate",
    "spectrum.angle_spectrum_us": "angle_spectrum",
    "spectrum.pick_peaks_us": "pick_peaks",
    "spectrum.trial_error_us": "trial_error",
}

SETUP_LAUNCHES = 21  # fresh interpreters per run; setup_s is their median
SINGLE_SEEDS = 2048  # single-shot reference covers run_single seeds 0..2047
SWEEP_SEEDS = 6  # CLI seeds a sweep run cycles through, the reference seed among them
POOL_SEEDS = 3  # serial and 2-worker sweeps per traced run, for pool_speedup
RATE_BLOCK = 100  # single-shot calls per traced round
TRACED_SHARE = 0.5  # share of --seconds the traced run spends in its timed rounds
CLI_SELF_CALLS = 20  # single-shot `csdoa spectrum` calls timed for cli.self_ms


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload; a serial sweep unless ``single``.

    ``sources`` and ``coherent`` (1-based, as ``--coherent`` takes them)
    define the scenario; the other settings are the CLI defaults. ``trials``
    sizes a timed sweep call; ``pool_trials`` sizes the serial and 2-worker
    sweeps of the traced run that measure the pool speed-up.
    """

    name: str
    sources: tuple[float, ...]
    snr_sweep: str
    snr_points: tuple[float, ...]
    trials: int
    pool_trials: int
    coherent: tuple[tuple[int, ...], ...] = ()
    ref_seed: int = 0
    single: bool = False

    @property
    def trials_per_call(self) -> int:
        return 1 if self.single else self.trials * len(self.snr_points)

    def scenario(self, seed: int):
        """The Scenario the CLI resolves for this workload's flags."""
        return csdoa.build_scenario(
            list(self.sources),
            coherent_groups=[[i - 1 for i in g] for g in self.coherent],
            snr_db=0.0,
            seed=seed,
        )

    def flags(self, seed: int, out: Path) -> list[str]:
        argv = ["--sources", ",".join(replay.FMT % s for s in self.sources)]
        for group in self.coherent:
            argv += ["--coherent", ",".join(str(i) for i in group)]
        return argv + ["--seed", str(seed), "--out", str(out)]

    def montecarlo_argv(self, seed: int, out: Path, workers: int = 1,
                        trials: int | None = None) -> list[str]:
        return ["montecarlo", *self.flags(seed, out), "--snr-sweep", self.snr_sweep,
                "--trials", str(trials or self.trials), "--workers", str(workers)]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("mc-2src", (-60.0, 60.0), "-10:20:5",
                 (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0), trials=3, pool_trials=40,
                 ref_seed=0),
        Workload("mc-3src", (-60.0, 0.0, 40.0), "0:0:1", (0.0,), trials=20, pool_trials=300,
                 coherent=((2, 3),), ref_seed=17),
        Workload("single-shot", (-60.0, 0.0, 40.0), "0:0:1", (0.0,), trials=1,
                 pool_trials=300, single=True),
    )
}


@dataclasses.dataclass
class Tally:
    """Checked outputs and how many of them failed."""

    attempted: int = 0
    failed: int = 0

    def add(self, checked: int, failed: int) -> None:
        self.attempted += checked
        self.failed += failed


def compare_csv(got: str | None, expected: str | None) -> tuple[int, int]:
    """(rows checked, rows differing) of a CSV against the expected text.

    Rows are compared as written, i.e. at the CLI's %.12g precision. A missing
    output, a missing expectation or a different header fails every row.
    """
    rows = len(expected.splitlines()) - 1 if expected else 1
    if got is None or expected is None:
        return rows, rows
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    if len(got_lines) != len(expected_lines) or got_lines[0] != expected_lines[0]:
        return rows, rows
    return rows, sum(g != e for g, e in zip(got_lines[1:], expected_lines[1:]))


def load_single_reference() -> list[str]:
    """Reference estimate line of single-shot seed ``i`` at index ``i``."""
    lines = (REFERENCE / "single-shot.txt").read_text(encoding="utf-8").splitlines()
    return [line.split(" ", 1)[1] for line in lines]


def sweep_seeds(wl: Workload, seed: int) -> list[int]:
    """The reference seed plus seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return [wl.ref_seed] + [rng.randrange(1, 2**31) for _ in range(SWEEP_SEEDS - 1)]


def single_seeds(seed: int) -> list[int]:
    """All reference seeds, in an order drawn from the benchmark seed."""
    order = list(range(SINGLE_SEEDS))
    random.Random(seed).shuffle(order)
    return order


def call_cli(argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one in-process ``csdoa`` invocation."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = csdoa.cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code


def run_sweep(wl: Workload, seed: int, expected: str | None, tally: Tally, cli=call_cli,
              workers: int = 1, trials: int | None = None):
    """One ``csdoa montecarlo`` call, checked; returns (wall, rmse.csv text).

    The call is serial with the workload's trial count unless ``workers`` or
    ``trials`` say otherwise. A call that raises or exits non-zero fails all
    its rows and returns (None, None).
    """
    out = OUT / wl.name / f"seed{seed}-w{workers}"
    try:
        wall, code = cli(wl.montecarlo_argv(seed, out, workers, trials))
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        code = None
    if code != 0:
        tally.add(*compare_csv(None, expected))
        return None, None
    text = (out / "rmse.csv").read_text(encoding="utf-8")
    tally.add(*compare_csv(text, expected))
    return wall, text


def expected_sweeps(wl: Workload, seeds: list[int]) -> dict[int, str | None]:
    """What each seed's rmse.csv must be.

    The reference seed's bytes were recorded from the library; for any other
    seed the expectation comes from a second path, the untraced stage replay.
    """
    expected = {wl.ref_seed: (REFERENCE / f"{wl.name}.csv").read_text(encoding="utf-8")}
    for seed in seeds:
        if seed not in expected:
            expected[seed] = replay.replay_sweep(
                replay.Untraced(), wl.scenario(seed), wl.snr_points, wl.trials, replay.Stats()
            )
    return expected


def timed_singles(wl: Workload, seeds: list[int], seconds: float, tally: Tally,
                  reference: list[str]) -> tuple[list[float], dict[int, str]]:
    """run_single calls cycling through ``seeds`` for ``seconds``; only the call is timed.

    Every call's estimates are checked against the reference. Returns the
    latencies and the estimate line of each seed called.
    """
    base = wl.scenario(0)
    latencies: list[float] = []
    estimates: dict[int, str] = {}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < RATE_BLOCK:
        seed = seeds[k % len(seeds)]
        k += 1
        scenario = dataclasses.replace(base, seed=seed)
        try:
            t0 = time.perf_counter()
            result = csdoa.run_single(scenario)
            latencies.append(time.perf_counter() - t0)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc()
            tally.add(1, 1)
            continue
        line = replay.format_estimates({a: r.estimated.doas_deg for a, r in result.runs.items()})
        estimates[seed] = line
        tally.add(1, int(line != reference[seed]))
    return latencies, estimates


def timed_sweeps(wl: Workload, seeds: list[int], expected: dict, seconds: float,
                 tally: Tally) -> dict[int, list[float]]:
    """Checked ``csdoa montecarlo`` calls cycling through ``seeds`` for ``seconds``.

    Returns the walls of each seed's calls.
    """
    walls: dict[int, list[float]] = {seed: [] for seed in seeds}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < len(seeds):
        seed = seeds[k % len(seeds)]
        k += 1
        wall, _ = run_sweep(wl, seed, expected[seed], tally)
        if wall is not None:
            walls[seed].append(wall)
    return walls


SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import csdoa
scenario = csdoa.build_scenario(json.loads(sys.argv[2]), coherent_groups=json.loads(sys.argv[3]))
csdoa.build_manifold(scenario.grid, scenario.geometry)
print(time.perf_counter() - start)
"""


def setup_seconds(wl: Workload) -> float:
    """Median over fresh interpreters of import + build_scenario + build_manifold."""
    groups = [[i - 1 for i in g] for g in wl.coherent]
    times = []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(list(wl.sources)),
             json.dumps(groups)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def end_to_end(wl: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The untraced run: timed calls, then set-up launches.

    Timings are taken from the fastest calls: contention from other tenants
    of a shared host only adds time, so the fastest call tracks the program's
    own cost while the median and the tail track the host. Those are returned
    as ungated diagnostics. A sweep run repeats each of its seeds hundreds of
    times and takes the mean of the seeds' fastest calls; a single-shot run
    calls each seed a few times only and takes its fastest call.
    """
    if wl.single:
        latencies, _ = timed_singles(wl, single_seeds(seed), seconds, tally,
                                     load_single_reference())
        groups = [latencies]
    else:
        seeds = sweep_seeds(wl, seed)
        groups = list(timed_sweeps(wl, seeds, expected_sweeps(wl, seeds), seconds,
                                   tally).values())
    if min(len(g) for g in groups) < 10:
        raise RuntimeError("fewer than 10 calls completed; too few to report")
    fastest = statistics.fmean(min(g) for g in groups)
    latencies = [wall for g in groups for wall in g]
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "trials_per_s": wl.trials_per_call / fastest,
        "latency_min_ms": fastest * 1e3,
        "setup_s": setup_seconds(wl),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnostics = {
        "calls": len(latencies),
        "latency_p10_ms": deciles[0] * 1e3,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": deciles[8] * 1e3,
        "failed_frac": tally.failed / max(tally.attempted, 1),
    }
    return metrics, diagnostics


def cli_self_spans(tracer: replay.Tracer, inner: str, body) -> list[float]:
    """``cli.main`` minus its ``inner`` experiment call, per call, from spans.

    ``inner`` (run_monte_carlo or run_single) is wrapped on ``csdoa.cli``
    only while ``body`` runs, and no nested wrapper is installed meanwhile.
    ``body`` receives a drop-in for :func:`call_cli` that records a span.
    """

    def make_wrapper(original):
        def wrapper(*args, **kwargs):
            return tracer.call("cli." + inner, original, *args, **kwargs)
        return wrapper

    first = len(tracer.spans)
    tracer.trial = None
    with replay.patched(csdoa.cli, inner, make_wrapper):
        body(lambda argv: tracer.call("cli.main", call_cli, argv))
    spans = tracer.spans[first:]
    self_times = []
    for index, span in enumerate(spans):
        if span[0] == "cli.main":
            children = sum(s[2] - s[1] for s in spans if s[3] == first + index)
            self_times.append(span[2] - span[1] - children)
    return self_times


def pool_speedup(wl: Workload, seeds: list[int], tally: Tally) -> float:
    """Median serial over 2-worker wall of ``pool_trials`` sweeps of the scenario.

    Each 2-worker output must equal the serial one byte for byte. The order
    of the two calls alternates from seed to seed.
    """
    ratios = []
    for k, seed in enumerate(seeds[:POOL_SEEDS]):
        walls, texts = {}, {}
        for workers in (1, 2) if k % 2 == 0 else (2, 1):
            walls[workers], texts[workers] = run_sweep(
                wl, seed, None, Tally(), workers=workers, trials=wl.pool_trials)
        tally.add(*compare_csv(texts[2], texts[1]))
        if walls[1] and walls[2]:
            ratios.append(walls[1] / walls[2])
    return statistics.median(ratios) if ratios else float("nan")


def per_layer(wl: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The traced run: rounds of untraced calls and their traced replay.

    Each round first times the workload's calls untraced, then replays the
    same inputs stage by stage with the nested wrappers installed; the
    wrappers are removed before the next untraced call. The replay must
    reproduce the untraced outputs; each difference is a failed check. The
    pool speed-up is taken next, untraced, and ``cli.self_ms`` last, with
    only the CLI's inner call wrapped.
    """
    tracer = replay.Tracer()
    stats = replay.Stats()
    untraced: list[float] = []  # serial wall per call
    traced_s = 0.0
    trials = 0
    start = time.perf_counter()
    k = 0
    if wl.single:
        reference = load_single_reference()
        seeds = single_seeds(seed)
        base = wl.scenario(0)
        while time.perf_counter() - start < seconds * TRACED_SHARE or k == 0:
            block = [seeds[(k + i) % len(seeds)] for i in range(RATE_BLOCK)]
            k += RATE_BLOCK
            latencies, estimates = timed_singles(wl, block, 0.0, tally, reference)
            untraced += latencies
            t0 = time.perf_counter()
            with replay.nested_spans(tracer):
                for s in block:
                    outcome = replay.replay_single(tracer, dataclasses.replace(base, seed=s), stats)
                    got = replay.format_estimates({a: o[0] for a, o in outcome.items()})
                    tally.add(1, int(got != estimates.get(s)))
            traced_s += time.perf_counter() - t0
            trials += len(block)

        def cli_calls(cli):
            out = OUT / wl.name / "spectrum"
            for s in range(CLI_SELF_CALLS):
                cli(["spectrum", *wl.flags(s, out), "--snr-db", "0"])
                meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
                line = replay.format_estimates(
                    {a: run["doas_deg"] for a, run in meta["summary"].items()})
                tally.add(1, int(line != reference[s]))

        inner = "run_single"
    else:
        seeds = sweep_seeds(wl, seed)
        expected = expected_sweeps(wl, seeds)
        while time.perf_counter() - start < seconds * TRACED_SHARE or k < len(seeds):
            s = seeds[k % len(seeds)]
            k += 1
            wall, untraced_text = run_sweep(wl, s, expected[s], tally)
            if wall is not None:
                untraced.append(wall)
            t0 = time.perf_counter()
            with replay.nested_spans(tracer):
                text = replay.replay_sweep(tracer, wl.scenario(s), wl.snr_points, wl.trials, stats)
            traced_s += time.perf_counter() - t0
            tally.add(*compare_csv(text, untraced_text))
            trials += wl.trials_per_call

        def cli_calls(cli):
            for s in seeds:
                run_sweep(wl, s, expected[s], tally, cli=cli)

        inner = "run_monte_carlo"

    replayed = len(tracer.spans)
    speedup = pool_speedup(wl, seeds, tally)
    self_times = cli_self_spans(tracer, inner, cli_calls)
    untraced_us = sum(untraced) / (len(untraced) * wl.trials_per_call) * 1e6
    # The replay has no CLI around it: a sweep's untraced call also pays the
    # CLI's own time, shared by the trials of the call. run_single has no CLI.
    cli_us = 0.0 if wl.single else statistics.median(self_times) / wl.trials_per_call * 1e6

    # Stage times net of the tracer: every span loses the cost the tracer adds
    # inside it, and each parent the full cost of the nested spans it holds.
    inside, per_nested = replay.tracer_cost()
    nested = collections.Counter(span[3] for span in tracer.spans[:replayed] if span[3] >= 0)
    totals: collections.Counter = collections.Counter()
    counts: collections.Counter = collections.Counter()
    for index, (name, t0, t1, _, _) in enumerate(tracer.spans[:replayed]):
        totals[name] += t1 - t0 - inside - nested[index] * per_nested
        counts[name] += 1
    per_trial = {name: total / trials * 1e6 for name, total in totals.items()}
    stage_sum = sum(per_trial.get(name, 0.0) for name in replay.STAGES)
    metrics = {metric: per_trial.get(name, 0.0) for metric, name in STAGE_METRICS.items()}
    metrics.update({
        "experiments.trial_us": untraced_us,
        "experiments.glue_us": untraced_us - cli_us - stage_sum,
        "experiments.pool_speedup": speedup,
        "array_model.build_manifold_us":
            totals["build_manifold"] / counts["build_manifold"] * 1e6,
        "recovery.least_squares_calls": counts["least_squares"] / trials,
        "recovery.rank_deficient_frac":
            sum(stats.rank_deficient.values()) / sum(stats.calls.values()),
        "cli.self_ms": statistics.median(self_times) * 1e3,
        "trace.overhead_frac": traced_s / trials * 1e6 / (untraced_us - cli_us) - 1.0,
    })
    for algorithm in csdoa.ALGORITHMS:
        returned = stats.calls[algorithm] - stats.rank_deficient[algorithm]
        metrics[f"recovery.{algorithm}_iterations"] = stats.iterations[algorithm] / max(returned, 1)
    accounting = {
        "trials_replayed": trials,
        "untraced_us_per_trial": untraced_us,
        "stage_us_per_trial": {name: per_trial.get(name, 0.0) for name in replay.STAGES},
        "nested_us_per_trial": {name: per_trial.get(name, 0.0) for name in replay.NESTED},
        "cli_self_us_per_trial": cli_us,
        "glue_us_per_trial": untraced_us - cli_us - stage_sum,
        "tracer_cost_us": {"inside_span": inside * 1e6, "per_nested_call": per_nested * 1e6},
        "span_counts": dict(counts),
    }
    return {name: metrics[name] for name in PER_LAYER}, (accounting, tracer.spans)


def environment() -> dict:
    """Machine, interpreter, BLAS and source identity of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.25 has no dict mode
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "csdoa").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_trace(path: Path, accounting: dict, spans: list[tuple]) -> None:
    """Spans as CSV (times in ns from the first span) plus the accounting table."""
    origin = spans[0][1] if spans else 0.0
    with open(path.with_suffix(".spans.csv"), "w", encoding="utf-8") as fh:
        fh.write("index,name,start_ns,end_ns,parent,seed,snr_index,trial\n")
        for index, (name, t0, t1, parent, trial) in enumerate(spans):
            seed, snr_index, trial_index = trial if trial else ("", "", "")
            fh.write(f"{index},{name},{round((t0 - origin) * 1e9)},{round((t1 - origin) * 1e9)},"
                     f"{parent},{seed},{snr_index},{trial_index}\n")
    path.with_suffix(".json").write_text(json.dumps(accounting, indent=2) + "\n",
                                         encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    run_name = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    info = {"environment": environment()}
    if args.trace:
        values, (accounting, spans) = per_layer(wl, args.seed, args.seconds, tally)
        write_trace(OUT / run_name, {**info, **accounting}, spans)
        units = PER_LAYER
    else:
        values, info["diagnostics"] = end_to_end(wl, args.seed, args.seconds, tally)
        units = END_TO_END
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
