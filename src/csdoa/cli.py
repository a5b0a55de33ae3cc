"""Command line front end: parse flags, run experiments, write CSV + JSON.

Three subcommands: ``spectrum`` (one seeded run, angle spectrum per
algorithm), ``montecarlo`` (RMSE vs SNR sweep), and ``synth`` (dump one
synthesized snapshot). Every run writes a ``meta.json`` capturing the fully
resolved configuration; feeding it back through ``--from-meta`` reproduces
the same CSV bytes. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .array_model import AMPLITUDE_MODELS, UNIT_MODULUS, synthesize
from .errors import CsdoaError
from .experiments import (
    ALGORITHMS,
    RmseCurve,
    Scenario,
    SingleRunResult,
    build_scenario,
    run_monte_carlo,
    run_single,
    trial_seeds,
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
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
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


def _resolve_config(args: argparse.Namespace) -> dict:
    """Turn flags (or a loaded meta.json) into the fully resolved config dict.

    The dict is what meta.json stores: every default made explicit, JSON-safe
    values only (the noiseless case is the pair noise="off" + finite snr_db).
    """
    if args.from_meta:
        with open(args.from_meta, encoding="utf-8") as fh:
            meta = json.load(fh)
        config = dict(meta["scenario"])
        config.update(meta.get("sweep", {}))
        if hasattr(args, "trials"):
            config.setdefault("trials", args.trials)
            config.setdefault("snr_sweep", args.snr_sweep)
        return config

    if not args.sources:
        raise ValueError("--sources is required unless --from-meta is given")
    sources = _parse_float_list(args.sources, "--sources")
    groups = _parse_groups(args.coherent)
    algorithms = _parse_algorithms(args.algo)
    grid = _parse_triple(args.grid, "--grid")
    sparsity = args.sparsity if args.sparsity is not None else len(sources)

    config = {
        "sensors": args.sensors,
        "spacing": args.spacing,
        "grid": list(grid),
        "sources": sources,
        "coherent": [[i + 1 for i in g] for g in groups],
        "amplitude_model": args.amplitude_model,
        "snr_db": args.snr_db,
        "noise": args.noise,
        "phi": args.phi,
        "measurements": args.measurements,
        "algorithms": algorithms,
        "sparsity": sparsity,
        "seed": args.seed,
    }
    if hasattr(args, "trials"):
        config["trials"] = args.trials
        config["snr_sweep"] = args.snr_sweep
    return config


# Keys of the resolved configuration that define the Scenario itself; the
# montecarlo sweep settings are serialized separately.
_SCENARIO_KEYS = (
    "sensors", "spacing", "grid", "sources", "coherent", "amplitude_model",
    "snr_db", "noise", "phi", "measurements", "algorithms", "sparsity",
    "max_iterations", "residual_tol", "seed",
)


def _scenario_from_config(config: dict) -> Scenario:
    snr_db = math.inf if config["noise"] == "off" else float(config["snr_db"])
    scenario = build_scenario(
        config["sources"],
        num_sensors=config["sensors"],
        spacing_over_wavelength=config["spacing"],
        grid_spec=tuple(config["grid"]),
        coherent_groups=[[i - 1 for i in g] for g in config["coherent"]],
        amplitude_model=config["amplitude_model"],
        snr_db=snr_db,
        measurement_kind=config["phi"],
        num_measurements=config["measurements"],
        algorithms=config["algorithms"],
        sparsity=config["sparsity"],
        max_iterations=config.get("max_iterations"),
        residual_tol=config.get("residual_tol", 1e-6),
        seed=config["seed"],
    )
    # Freeze resolved defaults so meta.json reproduces the run even if the
    # default rules ever change.
    config["measurements"] = scenario.measurement.num_measurements
    config["max_iterations"] = scenario.solver.max_iterations
    config["residual_tol"] = scenario.solver.residual_tol
    return scenario


def _mc_sweep(config: dict) -> list[float]:
    if config["noise"] == "off":
        return [math.inf]
    return _expand_sweep(_parse_triple(str(config["snr_sweep"]), "--snr-sweep"))


def _json_safe(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_meta(
    path: Path,
    command: str,
    config: dict,
    duration: float,
    summary: dict,
    sweep: dict | None = None,
) -> None:
    meta = {
        "tool": "csdoa",
        "version": __version__,
        "command": command,
        "scenario": {k: config[k] for k in _SCENARIO_KEYS},
        "duration_seconds": duration,
        "summary": summary,
    }
    if sweep is not None:
        meta["sweep"] = sweep
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def cmd_spectrum(args: argparse.Namespace, config: dict, scenario: Scenario) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = run_single(scenario)
    duration = time.perf_counter() - started

    summary = {
        algorithm: {
            "doas_deg": list(run.estimated.doas_deg),
            "errors_deg": [float(e) for e in run.record.errors_deg],
            "success": run.record.success,
            "residual_norm": run.record.residual_norm,
            "iterations": run.record.iterations,
        }
        for algorithm, run in result.runs.items()
    }
    csv_path = out_dir / "spectrum.csv"
    _write_lines(csv_path, _spectrum_lines(result))
    _write_meta(out_dir / "meta.json", "spectrum", config, duration, summary)
    print(csv_path)
    print(out_dir / "meta.json")
    return 0


def cmd_montecarlo(args: argparse.Namespace, config: dict, scenario: Scenario) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweep = _mc_sweep(config)
    trials = int(config["trials"])
    started = time.perf_counter()
    curve = run_monte_carlo(scenario, sweep, trials, workers=args.workers)
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
    csv_path = out_dir / "rmse.csv"
    _write_lines(csv_path, _rmse_lines(curve))
    sweep_info = {"trials": trials, "snr_sweep": config["snr_sweep"]}
    _write_meta(out_dir / "meta.json", "montecarlo", config, duration, summary, sweep=sweep_info)
    print(csv_path)
    print(out_dir / "meta.json")
    return 0


def cmd_synth(args: argparse.Namespace, config: dict, scenario: Scenario) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    data_seed, _ = trial_seeds(scenario.seed, 0, 0)
    snapshot = synthesize(scenario, np.random.default_rng(data_seed))
    duration = time.perf_counter() - started

    summary = {
        "data_norm": float(np.linalg.norm(snapshot.data)),
        "clean_norm": float(np.linalg.norm(snapshot.clean)),
        "noise_norm": float(np.linalg.norm(snapshot.noise)),
    }
    csv_path = out_dir / "snapshot.csv"
    _write_lines(csv_path, _snapshot_lines(snapshot.data, snapshot.clean, snapshot.noise))
    _write_meta(out_dir / "meta.json", "synth", config, duration, summary)
    print(csv_path)
    print(out_dir / "meta.json")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        scenario = _scenario_from_config(config)
        if args.command == "montecarlo":  # validate the run before any work happens
            _mc_sweep(config)
            if int(config["trials"]) < 1:
                raise ValueError(f"--trials must be >= 1, got {config['trials']}")
            if args.workers < 1:
                raise ValueError(f"--workers must be >= 1, got {args.workers}")
    except (CsdoaError, ValueError, KeyError, OSError) as exc:
        print(f"csdoa: error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, config, scenario)
    except (CsdoaError, OSError, ValueError) as exc:
        print(f"csdoa: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
