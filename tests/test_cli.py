"""End-to-end tests for the command-line interface (run in-process)."""

import hashlib
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdoa
from csdoa import cli, experiments

DATA = Path(__file__).parent / "data"


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"meta.json is not strict JSON: it holds {name}")


def read_meta(directory):
    """A run's meta.json, which must be strict JSON (no NaN or Infinity)."""
    text = (Path(directory) / "meta.json").read_text(encoding="utf-8")
    return json.loads(text, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_sources_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["spectrum", "--out", tmp_path], capsys)
    assert code == 2
    assert err.startswith("csdoa: error:")


def test_infeasible_solver_config_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["spectrum", "--sources", "-60,0,40", "--measurements", "5", "--out", tmp_path],
        capsys,
    )
    assert code == 2
    assert "cosamp" in err


def test_omp_alone_accepts_fewer_measurements(tmp_path, capsys):
    code, _, _ = run_cli(
        ["spectrum", "--sources", "-60,0,40", "--measurements", "4",
         "--algo", "omp", "--out", tmp_path],
        capsys,
    )
    assert code == 0
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "theta_deg,power_omp"


def test_off_grid_source_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["spectrum", "--sources", "0.5", "--out", tmp_path], capsys)
    assert code == 2
    assert "grid" in err


def test_identity_with_wrong_measurement_count_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["spectrum", "--sources", "0", "--phi", "identity", "--measurements", "10",
         "--out", tmp_path],
        capsys,
    )
    assert code == 2
    assert "identity" in err


def test_bad_coherent_group_is_a_usage_error(tmp_path, capsys):
    for value in ("0", "2"):
        code, _, err = run_cli(
            ["synth", "--sources", "-60,0", "--coherent", value, "--out", tmp_path],
            capsys,
        )
        assert code == 2
        assert "--coherent" in err


@pytest.mark.parametrize(
    "flag, value", [("--trials", "0"), ("--trials", "-2"), ("--workers", "0"), ("--workers", "-3")]
)
def test_nonpositive_run_size_is_a_usage_error(tmp_path, capsys, flag, value):
    code, out, err = run_cli(
        ["montecarlo", "--sources", "-60,60", "--snr-sweep", "0:0:1", "--trials", "2",
         flag, value, "--out", tmp_path],
        capsys,
    )
    assert code == 2
    assert flag in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_is_a_runtime_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    code, _, err = run_cli(
        ["synth", "--sources", "0", "--out", blocker / "sub"], capsys
    )
    assert code == 1
    assert err.startswith("csdoa: error:")


def test_descending_snr_sweep_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["montecarlo", "--sources", "0", "--snr-sweep", "20:10:5", "--out", tmp_path],
        capsys,
    )
    assert code == 2
    assert "--snr-sweep" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_nonfinite_spacing_is_a_usage_error(tmp_path, capsys, value):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["spectrum", "--sources", "0", "--spacing", value, "--out", out_dir], capsys
    )
    assert code == 2
    assert "spacing" in err
    assert out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize(
    "command, flag, valid",
    [("spectrum", "--grid", "-90:90:1"), ("montecarlo", "--snr-sweep", "0:10:5")],
)
def test_nonfinite_triple_is_a_usage_error(tmp_path, capsys, command, flag, valid, position, value):
    parts = valid.split(":")
    parts[position] = value
    extra = ["--trials", "1"] if command == "montecarlo" else []
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        [command, "--sources", "0", *extra, f"{flag}={':'.join(parts)}", "--out", out_dir],
        capsys,
    )
    assert code == 2
    assert err.startswith(f"csdoa: error: {flag} expects finite lo:hi:step")
    assert "Traceback" not in err
    assert out == ""
    assert not out_dir.exists()


def _forbidden(*args, **kwargs):
    raise AssertionError("the sweep started work before its size check")


def test_uncountable_snr_sweep_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["montecarlo", "--sources", "0", "--snr-sweep=-1e308:1e308:1", "--out", tmp_path / "out"],
        capsys,
    )
    assert code == 2
    assert "--snr-sweep" in err
    assert not (tmp_path / "out").exists()


def test_snr_sweep_over_the_point_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # A lowered limit stands in for a huge span such as 0:1e300:1: the count
    # is checked before any point list is built.
    monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 5)
    out_dir = tmp_path / "out"
    argv = ["montecarlo", "--sources", "-60,60", "--trials", "1", "--snr-sweep", "0:5:1",
            "--out", out_dir]
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_run_trials", _forbidden)
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err == "csdoa: error: --snr-sweep has 6 points, over the limit of 5\n"
    assert out == ""
    assert not out_dir.exists()
    argv[argv.index("0:5:1")] = "0:4:1"
    assert run_cli(argv, capsys)[0] == 0
    assert read_meta(out_dir)["summary"]["snr_points_db"] == [0, 1, 2, 3, 4]


def test_trial_psi_over_the_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The default grid at a limit below one trial's Psi stands in for a fine
    # --grid, which would need hundreds of megabytes a trial.
    first = tmp_path / "first"
    assert run_cli(["montecarlo", "--sources", "-60,60", "--trials", "1", "--out", first],
                   capsys)[0] == 0
    monkeypatch.setattr(experiments, "MAX_PSI_STACK_BYTES", 2**14)
    for command in (["spectrum"], ["montecarlo", "--trials", "1"], ["synth"]):
        out_dir = tmp_path / command[0]
        for source in (["--sources", "-60,60"], ["--from-meta", first / "meta.json"]):
            code, out, err = run_cli([*command, *source, "--out", out_dir], capsys)
            assert code == 2
            assert err.startswith("csdoa: error: one trial's Psi at m = 7 on 181 grid points")
            assert "MiB limit; use a coarser grid" in err
            assert out == ""
            assert not out_dir.exists()


def test_sweep_over_the_point_buffer_limit_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments, "_run_trials", _forbidden)
    out_dir = tmp_path / "out"
    argv = ["montecarlo", "--sources", "-60,60", "--trials", "1000000000", "--out", out_dir]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("csdoa: error: 1000000000 trials per SNR point need")
    assert "MiB limit; use fewer trials" in err
    assert out == ""
    assert not out_dir.exists()


def test_synth_on_a_fine_grid_within_the_limit_runs(tmp_path, capsys):
    # A 0.001 degree grid's 64-trial Psi stack would pass the limit, one
    # trial's does not; synth builds no Psi at all, and its meta replays.
    first, again = tmp_path / "first", tmp_path / "again"
    argv = ["synth", "--sources", "-60,60", "--grid=-90:90:0.001"]
    assert run_cli([*argv, "--out", first], capsys)[0] == 0
    assert run_cli(["synth", "--from-meta", first / "meta.json", "--out", again], capsys)[0] == 0
    assert (again / "snapshot.csv").read_bytes() == (first / "snapshot.csv").read_bytes()


# ---------------------------------------------------------------------------
# spectrum command


def test_spectrum_writes_csv_and_meta(tmp_path, capsys):
    code, out, _ = run_cli(
        ["spectrum", "--sources", "-60,0,40", "--seed", "0", "--out", tmp_path], capsys
    )
    assert code == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "theta_deg,power_omp,power_cosamp"
    assert len(lines) == 182
    assert lines[1].startswith("-90,")
    assert lines[-1].startswith("90,")
    assert str(tmp_path / "spectrum.csv") in out
    assert str(tmp_path / "meta.json") in out
    meta = read_meta(tmp_path)
    assert meta["tool"] == "csdoa"
    assert meta["version"] == csdoa.__version__
    assert meta["command"] == "spectrum"
    assert meta["scenario"]["measurements"] == 10
    assert meta["scenario"]["sparsity"] == 3
    assert meta["scenario"]["sources"] == [-60.0, 0.0, 40.0]
    assert meta["scenario"]["max_iterations"] == 50
    assert meta["scenario"]["residual_tol"] == 1e-6
    assert "duration_seconds" in meta
    assert set(meta["summary"]) == {"omp", "cosamp"}


def test_spectrum_reruns_are_byte_identical(tmp_path, capsys):
    args = ["spectrum", "--sources", "-60,0,40", "--snr-db", "0", "--seed", "9"]
    run_cli(args + ["--out", tmp_path / "a"], capsys)
    run_cli(args + ["--out", tmp_path / "b"], capsys)
    first = (tmp_path / "a" / "spectrum.csv").read_bytes()
    second = (tmp_path / "b" / "spectrum.csv").read_bytes()
    assert first == second


def test_spectrum_noiseless_uncompressed_single_source(tmp_path, capsys):
    code, _, _ = run_cli(
        ["spectrum", "--sources", "0", "--noise", "off", "--phi", "identity",
         "--out", tmp_path],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
    positive = [row for row in rows if any(float(v) > 0 for v in row[1:])]
    assert len(positive) == 1
    assert positive[0][0] == "0"
    assert positive[0][1] == "1"  # unit-modulus amplitude recovered exactly
    assert positive[0][2] == "1"


# ---------------------------------------------------------------------------
# synth command


def test_synth_writes_snapshot(tmp_path, capsys):
    code, _, _ = run_cli(["synth", "--sources", "-60,0,40", "--seed", "1", "--out", tmp_path], capsys)
    assert code == 0
    lines = (tmp_path / "snapshot.csv").read_text().splitlines()
    assert lines[0] == "sensor_index,data_real,data_imag,clean_real,clean_imag,noise_real,noise_imag"
    assert len(lines) == 16
    for line in lines[1:]:
        values = [float(v) for v in line.split(",")[1:]]
        data, clean, noise = values[0] + 1j * values[1], values[2] + 1j * values[3], values[4] + 1j * values[5]
        assert abs(data - (clean + noise)) < 1e-9
    meta = read_meta(tmp_path)
    assert meta["command"] == "synth"
    assert set(meta["summary"]) == {"data_norm", "clean_norm", "noise_norm"}


def test_synth_noise_off_zeroes_noise_columns(tmp_path, capsys):
    run_cli(["synth", "--sources", "0", "--noise", "off", "--out", tmp_path], capsys)
    for line in (tmp_path / "snapshot.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        assert parts[5] == "0" and parts[6] == "0"
        assert parts[1] == parts[3] and parts[2] == parts[4]


def test_synth_records_one_based_coherent_groups(tmp_path, capsys):
    code, _, _ = run_cli(
        ["synth", "--sources", "-60,0,40", "--coherent", "2,3", "--out", tmp_path], capsys
    )
    assert code == 0
    meta = read_meta(tmp_path)
    assert meta["scenario"]["coherent"] == [[2, 3]]


SINGLE_RUNS = {
    "unit-modulus": ["--sources", "-60,0,40", "--amplitude-model", "unit_modulus"],
    "complex-gaussian": ["--sources", "-60,0,40", "--amplitude-model", "complex_gaussian"],
    "coherent": ["--sources", "-60,0,40", "--coherent", "2,3"],
    "noise-off": ["--sources", "-60,0,40", "--noise", "off"],
    "identity-phi": ["--sources", "-20,30", "--phi", "identity"],
    "half-degree-grid": ["--sources", "-20.5,30", "--grid=-90:90:0.5"],
}


@pytest.mark.parametrize("variant", sorted(SINGLE_RUNS))
def test_synth_and_spectrum_write_what_run_single_returns(tmp_path, capsys, variant):
    flags = SINGLE_RUNS[variant] + ["--seed", "5"]
    assert run_cli(["synth", *flags, "--out", tmp_path / "synth"], capsys)[0] == 0
    assert run_cli(["spectrum", *flags, "--out", tmp_path / "spectrum"], capsys)[0] == 0
    result = csdoa.run_single(cli._scenario_from_dict(read_meta(tmp_path / "synth")["scenario"]))
    snapshot = result.snapshot
    lines = cli._snapshot_lines(snapshot.data, snapshot.clean, snapshot.noise)
    written = (tmp_path / "synth" / "snapshot.csv").read_text(encoding="utf-8")
    assert written == "".join(line + "\n" for line in lines)
    assert read_meta(tmp_path / "spectrum")["summary"] == {
        algorithm: {
            "doas_deg": list(run.estimated.doas_deg),
            "errors_deg": run.errors_deg.tolist(),
            "success": run.success,
            "residual_norm": run.residual_norm,
            "iterations": run.iterations,
        }
        for algorithm, run in result.runs.items()
    }


# SHA-256 of the CSV each run writes, recorded before the raw-uniform phase
# draws, the in-place draws and the certified positional scoring: all three
# must leave every output byte as it was, for both amplitude models.
PINNED_OUTPUTS = [
    ("spectrum", ["--sources", "-60,60", "--seed", "3"],
     "c983cf135537e7167cbdaa804d8e406ba03b56236c8d44f0f6178d25e69f7fc1"),
    ("spectrum", ["--sources", "-20,10,40", "--coherent", "1,2",
                  "--amplitude-model", "complex_gaussian", "--seed", "5"],
     "5ef63ae9c7a72b651c57bedfb2d894245a69ac18194abea1537f26f3922735fd"),
    ("spectrum", ["--sources", "-59.9,29.0", "--grid=-90:90:0.7", "--phi", "identity",
                  "--snr-db", "10", "--seed", "5"],
     "25ec2ff79fd09c5b6a2feadf55cfe2e49b81a86547de8adbd302c042f21ce991"),
    ("spectrum", ["--sources", "-30,45", "--noise", "off", "--amplitude-model", "complex_gaussian",
                  "--seed", "2"],
     "cc5f7adca0b2a349719b3ded825bff1f874b03b0f84a57e87cd819e1e7115277"),
    ("synth", ["--sources", "-60,60", "--seed", "3"],
     "61e04ea8acace2ae340bc41eb2b68cbbcbff56f6269e8db1f6d57e44cc56d275"),
    ("synth", ["--sources", "-20,10,40", "--coherent", "1,2",
               "--amplitude-model", "complex_gaussian", "--seed", "5"],
     "1fc4e8a5bdedb0343d319956581851b03c988430c7beba4e14743912cebca9e2"),
    ("synth", ["--sources", "-59.9,29.0", "--grid=-90:90:0.7", "--noise", "off", "--seed", "1"],
     "ccc4cc62831d239cbf2140e14670fa1cc51d84a883a9a53eb6e4e24a46ca3f44"),
    ("montecarlo", ["--sources", "-60,60", "--trials", "7", "--snr-sweep=-5:10:5", "--seed", "4"],
     "f7072e74953c98dba9deff4c414a792f9235c280284ec3b91d1bcb315997daa1"),
    ("montecarlo", ["--sources", "-20,10,40", "--coherent", "1,2",
                    "--amplitude-model", "complex_gaussian", "--trials", "9",
                    "--snr-sweep=0:10:10", "--seed", "6"],
     "5a6a821ab1ffbab3b2c8b1565b1185bc5ecb35b78e96e461bfc9f4873b910681"),
    ("montecarlo", ["--sources", "-59.9,29.0", "--grid=-90:90:0.7", "--phi", "identity",
                    "--trials", "35", "--snr-sweep=10:10:1", "--seed", "5"],
     "b506705b8082068b51935f0b9c8a544597b2fbb40a7ab2b46a6893eee1702f76"),
    ("montecarlo", ["--sources", "-30,45", "--noise", "off", "--amplitude-model",
                    "complex_gaussian", "--trials", "11", "--seed", "2"],
     "83827815f6883c436be286f3d36b2c50623f149e6785372fc3d34c41c32b41b0"),
]
CSV_OF = {"spectrum": "spectrum.csv", "synth": "snapshot.csv", "montecarlo": "rmse.csv"}


@pytest.mark.parametrize("command, flags, digest", PINNED_OUTPUTS)
def test_outputs_keep_their_pinned_bytes(tmp_path, capsys, command, flags, digest):
    assert run_cli([command, *flags, "--out", tmp_path], capsys)[0] == 0
    written = (tmp_path / CSV_OF[command]).read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest


# ---------------------------------------------------------------------------
# montecarlo command


def test_montecarlo_writes_rmse_curve(tmp_path, capsys):
    code, _, _ = run_cli(
        ["montecarlo", "--sources", "-60,60", "--trials", "5",
         "--snr-sweep", "-10:20:5", "--seed", "0", "--out", tmp_path],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "rmse.csv").read_text().splitlines()
    assert lines[0] == (
        "snr_db,rmse_omp_deg,rmse_cosamp_deg,"
        "rmse_omp_success_only_deg,rmse_cosamp_success_only_deg,"
        "success_rate_omp,success_rate_cosamp"
    )
    assert len(lines) == 8
    assert [line.split(",")[0] for line in lines[1:]] == ["-10", "-5", "0", "5", "10", "15", "20"]
    meta = read_meta(tmp_path)
    assert meta["command"] == "montecarlo"
    assert meta["sweep"] == {"trials": 5, "snr_sweep": "-10:20:5"}
    assert meta["scenario"]["measurements"] == 7


def test_montecarlo_degenerate_sweep_has_one_row(tmp_path, capsys):
    run_cli(
        ["montecarlo", "--sources", "-60,60", "--trials", "2",
         "--snr-sweep", "0:0:5", "--out", tmp_path],
        capsys,
    )
    lines = (tmp_path / "rmse.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "0"


def test_montecarlo_single_trial_matches_library(tmp_path, capsys):
    run_cli(
        ["montecarlo", "--sources", "-60,60", "--trials", "1",
         "--snr-sweep", "0:0:5", "--seed", "6", "--out", tmp_path],
        capsys,
    )
    row = (tmp_path / "rmse.csv").read_text().splitlines()[1].split(",")
    scenario = csdoa.build_scenario([-60.0, 60.0], seed=6)
    curve = csdoa.run_monte_carlo(scenario, [0.0], 1)
    assert row[1] == "%.12g" % curve.per_algorithm["omp"].rmse_deg[0]
    assert row[2] == "%.12g" % curve.per_algorithm["cosamp"].rmse_deg[0]
    assert row[5] == "%.12g" % curve.per_algorithm["omp"].success_rate[0]


def test_montecarlo_nan_and_inf_render_plainly(tmp_path, capsys):
    # no successes at 0 dB in 2 trials -> success-only RMSE prints as nan;
    # noise off runs the sweep at snr inf
    run_cli(
        ["montecarlo", "--sources", "-60,60", "--trials", "2", "--noise", "off",
         "--out", tmp_path],
        capsys,
    )
    line = (tmp_path / "rmse.csv").read_text().splitlines()[1]
    assert line.startswith("inf,")


def test_montecarlo_from_meta_reproduces_run(tmp_path, capsys):
    first = tmp_path / "first"
    again = tmp_path / "again"
    run_cli(
        ["montecarlo", "--sources", "-60,60", "--trials", "4", "--snr-sweep", "0:10:5",
         "--seed", "3", "--coherent", "1,2", "--out", first],
        capsys,
    )
    code, _, _ = run_cli(
        ["montecarlo", "--from-meta", first / "meta.json", "--out", again], capsys
    )
    assert code == 0
    assert (first / "rmse.csv").read_bytes() == (again / "rmse.csv").read_bytes()
    first_meta = read_meta(first)
    again_meta = read_meta(again)
    assert first_meta["scenario"] == again_meta["scenario"]
    assert first_meta["sweep"] == again_meta["sweep"]


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def parser_builds(monkeypatch):
    """Calls of ``build_parser``, counted from an empty parser cache."""
    calls = []
    real = cli.build_parser

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    yield calls
    cli._parser.cache_clear()


def test_main_builds_its_parser_once_per_process(tmp_path, capsys, parser_builds):
    assert cli.build_parser() is not cli.build_parser()  # still a fresh parser per call
    parser_builds.clear()
    for k, command in enumerate(["spectrum", "synth", "montecarlo", "spectrum"]):
        extra = ["--trials", "1", "--snr-sweep", "0:0:1"] if command == "montecarlo" else []
        code, _, _ = run_cli(
            [command, "--sources", "-60,60", *extra, "--out", tmp_path / str(k)], capsys
        )
        assert code == 0
    assert len(parser_builds) == 1


def test_reused_parser_forgets_coherent_groups(tmp_path, capsys, parser_builds):
    args = ["synth", "--sources", "-60,0,40"]
    assert run_cli(args + ["--coherent", "2,3", "--out", tmp_path / "a"], capsys)[0] == 0
    assert run_cli(args + ["--out", tmp_path / "b"], capsys)[0] == 0
    coherent = [read_meta(tmp_path / run)["scenario"]["coherent"] for run in ("a", "b")]
    assert coherent == [[[2, 3]], []]
    assert len(parser_builds) == 1


def test_run_after_a_usage_error_matches_a_first_run(tmp_path, capsys, parser_builds):
    args = ["montecarlo", "--sources", "-60,60", "--trials", "3", "--snr-sweep", "0:10:5",
            "--seed", "4"]
    assert run_cli(args + ["--out", tmp_path / "first"], capsys)[0] == 0
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value itself
        run_cli(args + ["--trials", "x", "--out", tmp_path / "bad"], capsys)
    assert exc.value.code == 2
    assert run_cli(args + ["--trials", "0", "--out", tmp_path / "bad"], capsys)[0] == 2
    assert run_cli(args + ["--out", tmp_path / "again"], capsys)[0] == 0
    assert not (tmp_path / "bad").exists()
    first, again = tmp_path / "first", tmp_path / "again"
    assert (first / "rmse.csv").read_bytes() == (again / "rmse.csv").read_bytes()
    first_meta = read_meta(first)
    again_meta = read_meta(again)
    del first_meta["duration_seconds"], again_meta["duration_seconds"]
    assert first_meta == again_meta
    assert len(parser_builds) == 1


def test_negative_values_parse_on_every_call(tmp_path, capsys, parser_builds):
    # Stock argparse takes "-60,60" for an unknown option; each subparser's
    # `_negative_number_matcher` lets these values through.
    for k in range(3):
        code, _, err = run_cli(
            ["montecarlo", "--sources", "-60,60", "--snr-sweep", "-10:20:5",
             "--grid", "-90:90:1", "--trials", "1", "--out", tmp_path / str(k)],
            capsys,
        )
        assert code == 0, err
        meta = read_meta(tmp_path / str(k))
        assert meta["scenario"]["sources"] == [-60.0, 60.0]
        assert meta["scenario"]["grid"] == [-90.0, 90.0, 1.0]
        assert meta["sweep"]["snr_sweep"] == "-10:20:5"
    assert len(parser_builds) == 1


# ---------------------------------------------------------------------------
# the serialized Scenario: meta.json's scenario block


@st.composite
def scenarios(draw):
    """Valid CLI-reachable Scenarios, every meta.json key varied."""
    degrees = draw(st.lists(st.integers(-90, 90), min_size=1, max_size=3, unique=True))
    half_degree_grid = draw(st.booleans())
    if half_degree_grid:  # off the whole degrees, except +90 endfire
        sources = [d + 0.5 if d < 90 else 90.0 for d in degrees]
    else:
        sources = [float(d) for d in degrees]
    # Any partition: sources with one label share an amplitude.
    labels = draw(st.lists(st.integers(0, 2), min_size=len(sources), max_size=len(sources)))
    groups = [[i for i, label in enumerate(labels) if label == g] for g in set(labels)]
    identity = draw(st.booleans())
    sensors = draw(st.integers(8, 16))
    return csdoa.build_scenario(
        sources,
        num_sensors=sensors,
        spacing_over_wavelength=draw(st.floats(0.05, 1.0)),
        grid_spec=(-90.0, 90.0, 0.5 if half_degree_grid else 1.0),
        coherent_groups=groups,
        amplitude_model=draw(st.sampled_from(csdoa.AMPLITUDE_MODELS)),
        snr_db=draw(st.one_of(st.floats(-20.0, 40.0), st.just(math.inf))),
        measurement_kind="identity" if identity else "gaussian",
        num_measurements=sensors if identity else None,
        algorithms=draw(st.lists(st.sampled_from(csdoa.ALGORITHMS), min_size=1, max_size=3)),
        max_iterations=draw(st.sampled_from([None, 60])),
        residual_tol=draw(st.sampled_from([1e-6, 1e-3])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
@example(scenario=csdoa.build_scenario(
    [-60.0, 0.0, 40.0], coherent_groups=[[2, 1]], snr_db=math.inf,
    algorithms=["cosamp", "omp", "omp"], seed=7,
))
@example(scenario=csdoa.build_scenario(
    [0.0], snr_db=-3.7, measurement_kind="identity", algorithms=["omp"],
))
def test_scenario_round_trips_through_json(scenario):
    written = cli._scenario_to_dict(scenario)
    loaded = cli._scenario_from_dict(json.loads(json.dumps(written, allow_nan=False)))
    assert cli._scenario_to_dict(loaded) == written
    first, again = csdoa.run_single(scenario), csdoa.run_single(loaded)
    assert list(again.runs) == list(first.runs)
    for algorithm, run in first.runs.items():
        assert again.runs[algorithm].spectrum.power.tobytes() == run.spectrum.power.tobytes()


def test_meta_scenario_block_is_canonical(tmp_path, capsys):
    code, _, _ = run_cli(
        ["montecarlo", "--sources", "-60,0,40", "--coherent", "3,2", "--algo", "cosamp,omp,omp",
         "--noise", "off", "--trials", "3", "--out", tmp_path / "mc"],
        capsys,
    )
    assert code == 0
    scenario = read_meta(tmp_path / "mc")["scenario"]
    assert scenario["algorithms"] == ["cosamp", "omp"]
    assert scenario["coherent"] == [[2, 3]]
    assert scenario["noise"] == "off" and scenario["snr_db"] is None
    assert (scenario["measurements"], scenario["max_iterations"], scenario["residual_tol"]) == (
        10, 50, 1e-6
    )

    code, _, _ = run_cli(
        ["spectrum", "--sources", "-60,0,40", "--snr-db", "inf", "--out", tmp_path / "inf"],
        capsys,
    )
    assert code == 0
    scenario = read_meta(tmp_path / "inf")["scenario"]
    assert scenario["noise"] == "off" and scenario["snr_db"] is None


def test_infinite_snr_sweeps_like_noise_off(tmp_path, capsys):
    args = ["montecarlo", "--sources", "-60,60", "--trials", "4", "--snr-sweep", "0:10:5"]
    assert run_cli(args + ["--snr-db", "inf", "--out", tmp_path / "inf"], capsys)[0] == 0
    assert run_cli(args + ["--noise", "off", "--out", tmp_path / "off"], capsys)[0] == 0
    first, again = tmp_path / "inf", tmp_path / "off"
    assert (first / "rmse.csv").read_text().splitlines()[1].startswith("inf,")
    assert (first / "rmse.csv").read_bytes() == (again / "rmse.csv").read_bytes()
    assert read_meta(first)["scenario"] == read_meta(again)["scenario"]


def test_earlier_meta_reproduces_its_csv(tmp_path, capsys):
    # Written by the CLI before meta.json came from the Scenario: it holds the
    # flags as typed (--coherent 3,2 --algo cosamp,omp,omp) and a noiseless
    # run's unused snr_db.
    fixture = DATA / "noiseless_coherent"
    code, _, _ = run_cli(
        ["montecarlo", "--from-meta", fixture / "meta.json", "--out", tmp_path], capsys
    )
    assert code == 0
    assert (tmp_path / "rmse.csv").read_bytes() == (fixture / "rmse.csv").read_bytes()
    written = read_meta(tmp_path)
    assert written["scenario"]["algorithms"] == ["cosamp", "omp"]
    assert written["scenario"]["coherent"] == [[2, 3]]
    assert written["sweep"] == read_meta(fixture)["sweep"]


def _without_seed(meta):
    del meta["scenario"]["seed"]
    return json.dumps(meta)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(lambda meta: "{not json", id="not-json"),
        pytest.param(lambda meta: "[]", id="not-an-object"),
        pytest.param(lambda meta: json.dumps({"sweep": meta["sweep"]}), id="no-scenario"),
        pytest.param(_without_seed, id="no-seed"),
    ],
)
def test_bad_from_meta_is_a_usage_error(tmp_path, capsys, text):
    meta = tmp_path / "meta.json"
    meta.write_text(text(read_meta(DATA / "noiseless_coherent")))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(["montecarlo", "--from-meta", meta, "--out", out_dir], capsys)
    assert code == 2
    assert err.startswith("csdoa: error:")
    assert out == ""
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# rewriting outputs in place

RUNS = {
    "spectrum": ("spectrum.csv", ["spectrum", "--sources", "-60,0,40", "--seed", "2"]),
    "montecarlo": (
        "rmse.csv",
        ["montecarlo", "--sources", "-60,60", "--trials", "3", "--snr-sweep", "0:10:5",
         "--seed", "2"],
    ),
    "synth": ("snapshot.csv", ["synth", "--sources", "-60,0,40", "--coherent", "2,3", "--seed", "2"]),
}


def without_duration(directory):
    meta = read_meta(directory)
    del meta["duration_seconds"]
    return meta


@pytest.mark.parametrize("junk_lines", [1, 20_000])
@pytest.mark.parametrize("command", sorted(RUNS))
def test_rerun_into_a_used_out_matches_a_fresh_run(tmp_path, capsys, command, junk_lines):
    csv_name, argv = RUNS[command]
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    used.mkdir()
    for name in (csv_name, "meta.json"):
        (used / name).write_text("jünk,\n" * junk_lines, encoding="utf-8")
    assert run_cli(argv + ["--out", fresh], capsys)[0] == 0
    assert run_cli(argv + ["--out", used], capsys)[0] == 0
    assert (used / csv_name).read_bytes() == (fresh / csv_name).read_bytes()
    assert without_duration(used) == without_duration(fresh)
    assert sorted(p.name for p in used.iterdir()) == sorted([csv_name, "meta.json"])


def test_rewrite_keeps_the_inode_mode_and_hard_links(tmp_path, capsys):
    # A temporary file renamed over the output would fail this.
    csv_name, argv = RUNS["montecarlo"]
    out_dir = tmp_path / "out"
    assert run_cli(argv + ["--out", out_dir], capsys)[0] == 0
    written = (out_dir / csv_name).read_bytes()
    (out_dir / csv_name).write_text("junk\n" * 1000)
    links = {}
    for name in (csv_name, "meta.json"):
        (out_dir / name).chmod(0o600)
        links[name] = tmp_path / f"link-{name}"
        os.link(out_dir / name, links[name])
    before = {name: (out_dir / name).stat() for name in links}
    assert run_cli(argv + ["--out", out_dir], capsys)[0] == 0
    for name, link in links.items():
        after = (out_dir / name).stat()
        assert after.st_ino == before[name].st_ino
        assert stat.S_IMODE(after.st_mode) == 0o600
        assert link.read_bytes() == (out_dir / name).read_bytes()
    assert (out_dir / csv_name).read_bytes() == written


def test_rewrite_writes_through_a_symlink(tmp_path, capsys):
    csv_name, argv = RUNS["montecarlo"]
    assert run_cli(argv + ["--out", tmp_path / "fresh"], capsys)[0] == 0
    target = tmp_path / "elsewhere.csv"
    target.write_text("junk\n" * 1000)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / csv_name).symlink_to(target)
    assert run_cli(argv + ["--out", out_dir], capsys)[0] == 0
    assert (out_dir / csv_name).is_symlink()
    assert os.readlink(out_dir / csv_name) == str(target)
    assert target.read_bytes() == (tmp_path / "fresh" / csv_name).read_bytes()


def test_rewrite_opens_each_output_once_without_truncating(tmp_path, capsys, monkeypatch):
    csv_name, argv = RUNS["spectrum"]
    assert run_cli(argv + ["--out", tmp_path], capsys)[0] == 0
    opened = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        if Path(path).parent == tmp_path:
            opened.append((Path(path).name, flags & os.O_TRUNC))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert run_cli(argv + ["--out", tmp_path], capsys)[0] == 0
    assert opened == [(csv_name, 0), ("meta.json", 0)]


def test_csv_path_that_is_a_directory_is_a_runtime_error(tmp_path, capsys):
    csv_name, argv = RUNS["montecarlo"]
    (tmp_path / csv_name).mkdir()
    code, out, err = run_cli(argv + ["--out", tmp_path], capsys)
    assert code == 1
    assert err.startswith("csdoa: error:")
    assert "Traceback" not in err
    assert out == ""


@settings(max_examples=40, deadline=None)
@given(old=st.text(), new=st.text())
@example(old="x" * 5000, new="")
@example(old="", new="\u00e9\u2202\U0001f600\n")
@example(old="\u00e9" * 3, new="e" * 3)
def test_overwrite_leaves_exactly_the_new_text(tmp_path_factory, old, new):
    path = tmp_path_factory.mktemp("overwrite") / "out.txt"
    cli._overwrite(path, old)
    cli._overwrite(path, new)
    assert path.read_bytes() == new.encode("utf-8")


def test_overwrite_finishes_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    path = tmp_path / "out.txt"
    text = "theta_deg,power_omp\n" * 50
    cli._overwrite(path, "junk" * 1000)
    cli._overwrite(path, text)
    assert path.read_text(encoding="utf-8") == text
