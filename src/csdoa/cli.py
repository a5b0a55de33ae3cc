"""Command line front end: parse flags, run experiments, write CSV + JSON.

Three subcommands: ``spectrum`` (one seeded run, angle spectrum per
algorithm), ``montecarlo`` (RMSE vs SNR sweep), and ``synth`` (dump one
synthesized snapshot). Every run writes a ``meta.json`` whose ``scenario``
block is the Scenario that ran, every default resolved; feeding it back
through ``--from-meta`` reproduces the same CSV bytes. Exit codes: 0
success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .array_model import AMPLITUDE_MODELS, UNIT_MODULUS, build_manifold
from .errors import CsdoaError
from .experiments import (
    ALGORITHMS,
    MAX_SWEEP_POINTS,
    RmseCurve,
    Scenario,
    SingleRunResult,
    _draw_trials,
    _sweep_layout,
    build_scenario,
    run_monte_carlo,
    run_single,
)
from .sensing import GAUSSIAN, IDENTITY

# Accepts option values like "-60,0,40" and "-10:20:5" that stock argparse
# would otherwise reject as unknown option strings.
_NEGATIVE_VALUE_RE = re.compile(r"^-\d+[\d.,:eE+-]*$")

_FLOAT_FMT = "%.12g"


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{flag} expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag} expects numeric lo:hi:step, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"{flag} expects finite lo:hi:step, got {text!r}")
    return lo, hi, step


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_groups(entries: Sequence[str]) -> list[list[int]]:
    """--coherent groups use 1-based source positions; convert to 0-based."""
    groups = []
    for entry in entries:
        try:
            positions = [int(p) for p in entry.split(",") if p != ""]
        except ValueError:
            raise ValueError(f"--coherent expects comma-separated integers, got {entry!r}") from None
        if len(positions) < 2:
            raise ValueError(f"--coherent groups need at least two sources, got {entry!r}")
        if min(positions) < 1:
            raise ValueError("--coherent positions are 1-based (first source is 1)")
        groups.append([p - 1 for p in positions])
    return groups


def _parse_algorithms(text: str) -> list[str]:
    names = [p for p in text.split(",") if p != ""]
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(f"--algo expects names from {'/'.join(ALGORITHMS)}, got {name!r}")
    if not names:
        raise ValueError("--algo needs at least one algorithm")
    return names


def _expand_sweep(triple: tuple[float, float, float]) -> list[float]:
    lo, hi, step = triple
    if step <= 0:
        raise ValueError("--snr-sweep step must be > 0")
    if lo > hi:
        raise ValueError("--snr-sweep low end exceeds high end")
    span = (hi - lo) / step + 1e-9
    if math.isinf(span):
        raise ValueError("--snr-sweep has too many points to count")
    count = int(math.floor(span)) + 1
    if count > MAX_SWEEP_POINTS:  # refused before the list is built
        raise ValueError(
            f"--snr-sweep has {count:.4g} points, over the limit of {MAX_SWEEP_POINTS}"
        )
    return [lo + step * k for k in range(count)]


def _scenario_flags() -> argparse.ArgumentParser:
    """The flags every subcommand takes, on a parent parser without ``--help``."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--sensors", type=int, default=15, help="number of ULA sensors")
    parser.add_argument(
        "--spacing", type=float, default=0.5, help="element spacing in wavelengths"
    )
    parser.add_argument("--grid", default="-90:90:1", help="scan grid lo:hi:step in degrees")
    parser.add_argument("--sources", help="true DOAs in degrees, comma separated")
    parser.add_argument(
        "--coherent",
        action="append",
        default=[],
        metavar="I,J[,K...]",
        help="coherent source group as 1-based positions in --sources; repeatable",
    )
    parser.add_argument(
        "--amplitude-model",
        choices=AMPLITUDE_MODELS,
        default=UNIT_MODULUS,
        help="per-group source amplitude distribution",
    )
    parser.add_argument("--snr-db", type=float, default=0.0, help="per-element SNR in dB")
    parser.add_argument(
        "--noise", choices=("on", "off"), default="on", help="disable to run noiseless"
    )
    parser.add_argument(
        "--phi",
        choices=(GAUSSIAN, IDENTITY),
        default=GAUSSIAN,
        help="measurement matrix family",
    )
    parser.add_argument(
        "--measurements",
        type=int,
        help="measurement rows m (default: one above the m > M ln N floor)",
    )
    parser.add_argument(
        "--algo", default=",".join(ALGORITHMS), help="algorithms to run, comma separated"
    )
    parser.add_argument(
        "--sparsity", type=int, help="solver sparsity budget (default: source count)"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed for the run")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--from-meta",
        dest="from_meta",
        metavar="FILE",
        help="load the full configuration from a previous run's meta.json",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdoa",
        description="Compressed-sensing DOA estimation on a uniform linear array.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    scenario = _scenario_flags()

    p_spectrum = subparsers.add_parser(
        "spectrum", parents=[scenario], help="run one seeded trial and write the angle spectrum"
    )
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_mc = subparsers.add_parser(
        "montecarlo", parents=[scenario], help="sweep SNR and write RMSE / success-rate curves"
    )
    p_mc.add_argument("--trials", type=int, default=100, help="Monte Carlo trials per SNR point")
    p_mc.add_argument("--snr-sweep", default="-10:20:5", help="SNR sweep lo:hi:step in dB")
    p_mc.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    p_mc.set_defaults(func=cmd_montecarlo)

    p_synth = subparsers.add_parser(
        "synth", parents=[scenario], help="write one synthesized snapshot as CSV"
    )
    p_synth.set_defaults(func=cmd_synth)

    for subparser in (p_spectrum, p_mc, p_synth):
        subparser._negative_number_matcher = _NEGATIVE_VALUE_RE
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on first use, once per process.

    argparse keeps no state between ``parse_args`` calls, and the
    ``--coherent`` append action copies its default list before appending.
    """
    return build_parser()


def _scenario_from_flags(args: argparse.Namespace) -> Scenario:
    if not args.sources:
        raise ValueError("--sources is required unless --from-meta is given")
    return build_scenario(
        _parse_float_list(args.sources, "--sources"),
        num_sensors=args.sensors,
        spacing_over_wavelength=args.spacing,
        grid_spec=_parse_triple(args.grid, "--grid"),
        coherent_groups=_parse_groups(args.coherent),
        amplitude_model=args.amplitude_model,
        snr_db=math.inf if args.noise == "off" else args.snr_db,
        measurement_kind=args.phi,
        num_measurements=args.measurements,
        algorithms=_parse_algorithms(args.algo),
        sparsity=args.sparsity,
        seed=args.seed,
    )


def _scenario_to_dict(scenario: Scenario) -> dict:
    """meta.json's ``scenario`` block: the run's every setting, defaults resolved.

    Canonical and strict JSON: coherent groups are the partition's
    non-singleton groups, 1-based and ascending, and a noiseless run is
    ``noise: "off"`` with ``snr_db: null``.
    """
    geometry, grid, solver = scenario.geometry, scenario.grid, scenario.solver
    noiseless = math.isinf(scenario.snr_db)
    return {
        "sensors": geometry.num_sensors,
        "spacing": geometry.spacing_over_wavelength,
        "grid": [grid.start_deg, grid.stop_deg, grid.step_deg],
        "sources": list(scenario.sources.doas_deg),
        "coherent": [[i + 1 for i in g] for g in scenario.sources.coherent_groups if len(g) > 1],
        "amplitude_model": scenario.sources.amplitude_model,
        "snr_db": None if noiseless else scenario.snr_db,
        "noise": "off" if noiseless else "on",
        "phi": scenario.measurement.kind,
        "measurements": scenario.measurement.num_measurements,
        "algorithms": list(scenario.algorithms),
        "sparsity": solver.sparsity,
        "max_iterations": solver.max_iterations,
        "residual_tol": solver.residual_tol,
        "seed": scenario.seed,
    }


def _scenario_from_dict(d: dict) -> Scenario:
    """The Scenario a meta.json ``scenario`` block describes; inverse of ``_scenario_to_dict``."""
    return build_scenario(
        d["sources"],
        num_sensors=d["sensors"],
        spacing_over_wavelength=d["spacing"],
        grid_spec=tuple(d["grid"]),
        coherent_groups=[[i - 1 for i in g] for g in d["coherent"]],
        amplitude_model=d["amplitude_model"],
        snr_db=math.inf if d["noise"] == "off" else float(d["snr_db"]),
        measurement_kind=d["phi"],
        num_measurements=d["measurements"],
        algorithms=d["algorithms"],
        sparsity=d["sparsity"],
        max_iterations=d["max_iterations"],
        residual_tol=d["residual_tol"],
        seed=d["seed"],
    )


def _json_safe(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _overwrite(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 into ``path`` in place, creating it if needed.

    No ``O_TRUNC`` and no temporary file: on ext4, closing a file that was
    truncated to zero or renamed over another forces its writeback. Like
    ``O_TRUNC``, this keeps the inode, its mode and owner, follows a symlink
    and leaves a hard link shared; a longer old file is cut to the new length.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_run(
    args: argparse.Namespace,
    csv_name: str,
    lines: list[str],
    scenario: Scenario,
    duration: float,
    summary: dict,
    sweep: dict | None = None,
) -> int:
    """Write the run's CSV and meta.json into ``--out``, print both paths, and return 0."""
    csv_path, meta_path = Path(args.out) / csv_name, Path(args.out) / "meta.json"
    _overwrite(csv_path, "".join(line + "\n" for line in lines))
    meta = {
        "tool": "csdoa",
        "version": __version__,
        "command": args.command,
        "scenario": _scenario_to_dict(scenario),
        "duration_seconds": duration,
        "summary": summary,
    }
    if sweep is not None:
        meta["sweep"] = sweep
    _overwrite(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(csv_path)
    print(meta_path)
    return 0


def _spectrum_lines(result: SingleRunResult) -> list[str]:
    algorithms = [a for a in ALGORITHMS if a in result.runs]
    lines = ["theta_deg," + ",".join(f"power_{a}" for a in algorithms)]
    grid = result.scenario.grid
    for j, theta in enumerate(grid.angles_deg):
        powers = ",".join(_fmt(result.runs[a].spectrum.power[j]) for a in algorithms)
        lines.append(f"{_fmt(theta)},{powers}")
    return lines


def _rmse_lines(curve: RmseCurve) -> list[str]:
    algorithms = [a for a in ALGORITHMS if a in curve.per_algorithm]
    header = ["snr_db"]
    header += [f"rmse_{a}_deg" for a in algorithms]
    header += [f"rmse_{a}_success_only_deg" for a in algorithms]
    header += [f"success_rate_{a}" for a in algorithms]
    lines = [",".join(header)]
    for i, snr in enumerate(curve.snr_points_db):
        row = [_fmt(snr)]
        row += [_fmt(curve.per_algorithm[a].rmse_deg[i]) for a in algorithms]
        row += [_fmt(curve.per_algorithm[a].rmse_success_only_deg[i]) for a in algorithms]
        row += [_fmt(curve.per_algorithm[a].success_rate[i]) for a in algorithms]
        lines.append(",".join(row))
    return lines


def _snapshot_lines(data: np.ndarray, clean: np.ndarray, noise: np.ndarray) -> list[str]:
    lines = ["sensor_index,data_real,data_imag,clean_real,clean_imag,noise_real,noise_imag"]
    for n in range(len(data)):
        values = (data[n].real, data[n].imag, clean[n].real, clean[n].imag,
                  noise[n].real, noise[n].imag)
        lines.append(f"{n}," + ",".join(_fmt(v) for v in values))
    return lines


def cmd_spectrum(args: argparse.Namespace, scenario: Scenario) -> int:
    started = time.perf_counter()
    result = run_single(scenario)
    duration = time.perf_counter() - started

    summary = {
        algorithm: {
            "doas_deg": list(run.estimated.doas_deg),
            "errors_deg": [float(e) for e in run.errors_deg],
            "success": run.success,
            "residual_norm": run.residual_norm,
            "iterations": run.iterations,
        }
        for algorithm, run in result.runs.items()
    }
    return _write_run(args, "spectrum.csv", _spectrum_lines(result), scenario, duration, summary)


def cmd_montecarlo(
    args: argparse.Namespace,
    scenario: Scenario,
    trials: int,
    snr_sweep: str,
    snr_points: list[float],
) -> int:
    started = time.perf_counter()
    curve = run_monte_carlo(scenario, snr_points, trials, workers=args.workers)
    duration = time.perf_counter() - started

    summary = {
        algorithm: {
            "rmse_deg": [_json_safe(v) for v in agg.rmse_deg],
            "rmse_success_only_deg": [_json_safe(v) for v in agg.rmse_success_only_deg],
            "success_rate": list(agg.success_rate),
        }
        for algorithm, agg in curve.per_algorithm.items()
    }
    summary["snr_points_db"] = [_json_safe(v) for v in curve.snr_points_db]
    summary["trials"] = trials
    sweep = {"trials": trials, "snr_sweep": snr_sweep}
    return _write_run(args, "rmse.csv", _rmse_lines(curve), scenario, duration, summary, sweep)


def cmd_synth(args: argparse.Namespace, scenario: Scenario) -> int:
    started = time.perf_counter()
    manifold = build_manifold(scenario.grid, scenario.geometry)
    snapshots, _ = _draw_trials(scenario, (scenario.snr_db,), manifold, [(0, 0)])
    data, clean, noise = (stack[0] for stack in snapshots)  # run_single's snapshot
    duration = time.perf_counter() - started

    summary = {
        "data_norm": float(np.linalg.norm(data)),
        "clean_norm": float(np.linalg.norm(clean)),
        "noise_norm": float(np.linalg.norm(noise)),
    }
    lines = _snapshot_lines(data, clean, noise)
    return _write_run(args, "snapshot.csv", lines, scenario, duration, summary)


def _sweep_run(
    args: argparse.Namespace, meta: dict | None, scenario: Scenario
) -> tuple[int, str, list[float]]:
    """``cmd_montecarlo``'s ``(trials, snr_sweep, snr_points)``, from the meta's sweep or flags."""
    sweep = {"trials": args.trials, "snr_sweep": args.snr_sweep}
    sweep.update(meta.get("sweep", {}) if meta else {})
    trials, snr_sweep = int(sweep["trials"]), str(sweep["snr_sweep"])
    # A noiseless scenario runs at its one SNR point, whatever the sweep says.
    if math.isinf(scenario.snr_db):
        points = [math.inf]
    else:
        points = _expand_sweep(_parse_triple(snr_sweep, "--snr-sweep"))
    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    _sweep_layout(scenario, len(points), trials, args.workers)  # refuses oversized point buffers
    return trials, snr_sweep, points


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:  # resolve and check the whole run before any work happens
        meta = None
        if args.from_meta:
            meta = json.loads(Path(args.from_meta).read_text(encoding="utf-8"))
            scenario = _scenario_from_dict(meta["scenario"])
        else:
            scenario = _scenario_from_flags(args)
        run = _sweep_run(args, meta, scenario) if args.command == "montecarlo" else ()
    except (CsdoaError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"csdoa: error: {exc}", file=sys.stderr)
        return 2
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args, scenario, *run)
    except (CsdoaError, OSError, ValueError) as exc:
        print(f"csdoa: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
