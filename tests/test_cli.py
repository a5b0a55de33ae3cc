"""End-to-end tests for the command-line interface (run in-process)."""

import json

import numpy as np
import pytest

import csdoa
from csdoa import cli


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    meta = json.loads((tmp_path / "meta.json").read_text())
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
    meta = json.loads((tmp_path / "meta.json").read_text())
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
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["scenario"]["coherent"] == [[2, 3]]


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
    meta = json.loads((tmp_path / "meta.json").read_text())
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
    first_meta = json.loads((first / "meta.json").read_text())
    again_meta = json.loads((again / "meta.json").read_text())
    assert first_meta["scenario"] == again_meta["scenario"]
    assert first_meta["sweep"] == again_meta["sweep"]
