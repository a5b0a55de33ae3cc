"""Acceptance gate: six benchmark criteria, one test per criterion.

Each test runs a pinned, seeded workload, prints a single PASS/FAIL line with
the measured quantities, and asserts the criterion's clauses. Seeds and
tolerances are fixed here and must not be retuned to mask regressions.
"""

import math
import time

import numpy as np

import csdoa
from csdoa import cli
from conftest import normal_equations, oracle_match_counts


def _report(name: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    return line


def _rates(curve: csdoa.RmseCurve) -> dict:
    return {name: agg.success_rate[0] for name, agg in curve.per_algorithm.items()}


def test_criterion_1_three_source_recovery_ranking():
    """At 0 dB with m=10 Gaussian compression, OMP's exact-support rate
    strictly exceeds CoSaMP's over 200 seeded trials, within 30 s."""
    started = time.perf_counter()
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=31)
    curve = csdoa.run_monte_carlo(scenario, [0.0], 200)
    elapsed = time.perf_counter() - started
    rates = _rates(curve)
    ok = rates["omp"] > rates["cosamp"] and elapsed < 30.0
    line = _report(
        "criterion-1 three-source ranking",
        ok,
        f"omp rate {rates['omp']:.3f} vs cosamp rate {rates['cosamp']:.3f} "
        f"(200 trials, 0 dB, m=10, seed 31) in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_2_coherent_sources_ranking():
    """With sources 2 and 3 coherent, OMP's rate stays within 0.15 of its
    non-coherent rate and strictly exceeds CoSaMP's, within 30 s."""
    started = time.perf_counter()
    coherent = csdoa.build_scenario(
        [-60.0, 0.0, 40.0], snr_db=0.0, seed=17, coherent_groups=[(1, 2)]
    )
    plain = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=17)
    coherent_rates = _rates(csdoa.run_monte_carlo(coherent, [0.0], 200))
    plain_rates = _rates(csdoa.run_monte_carlo(plain, [0.0], 200))
    elapsed = time.perf_counter() - started
    ok = (
        coherent_rates["omp"] >= plain_rates["omp"] - 0.15
        and coherent_rates["omp"] > coherent_rates["cosamp"]
        and elapsed < 30.0
    )
    line = _report(
        "criterion-2 coherent-source ranking",
        ok,
        f"omp coherent {coherent_rates['omp']:.3f} vs non-coherent "
        f"{plain_rates['omp']:.3f}, cosamp coherent {coherent_rates['cosamp']:.3f} "
        f"(200 trials each, seed 17) in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_3_rmse_curve_dominance():
    """Over the -10..20 dB sweep at 1000 trials per point, OMP's RMSE never
    exceeds CoSaMP's and improves from -10 dB to 20 dB, within 5 min."""
    started = time.perf_counter()
    scenario = csdoa.build_scenario([-60.0, 60.0], snr_db=0.0, seed=0)
    sweep = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
    curve = csdoa.run_monte_carlo(scenario, sweep, 1000)
    elapsed = time.perf_counter() - started
    omp = curve.per_algorithm["omp"].rmse_deg
    cosamp = curve.per_algorithm["cosamp"].rmse_deg
    dominated = all(o <= c for o, c in zip(omp, cosamp))
    improves = omp[-1] < omp[0]
    ok = dominated and improves and elapsed < 300.0
    line = _report(
        "criterion-3 rmse-vs-snr dominance",
        ok,
        f"omp rmse {omp[0]:.1f}->{omp[-1]:.1f} deg, cosamp {cosamp[0]:.1f}->{cosamp[-1]:.1f} deg, "
        f"omp<=cosamp at all 7 points: {dominated} (1000 trials/point, seed 0) in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_oracle_equivalence():
    """On 100 seeded noiseless 2-sparse instances (20 atoms, 10 measurements),
    each solver matches the exhaustive search on >= 99, with coefficients
    agreeing to 1e-8 relative on matches, within 60 s."""
    started = time.perf_counter()
    report = oracle_match_counts(200, 100)
    elapsed = time.perf_counter() - started
    matches = report["matches"]
    worst = report["worst_coef_rel"]
    ok = (
        matches["omp"] >= 99
        and matches["cosamp"] >= 99
        and worst["omp"] <= 1e-8
        and worst["cosamp"] <= 1e-8
        and elapsed < 60.0
    )
    line = _report(
        "criterion-4 oracle equivalence",
        ok,
        f"omp {matches['omp']}/100, cosamp {matches['cosamp']}/100 support matches; "
        f"worst coefficient deviation omp {worst['omp']:.2e}, cosamp {worst['cosamp']:.2e} "
        f"in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_invariant_suite(tmp_path, capsys):
    """(a) greedy-residual monotonicity and orthogonality, (b) least-squares
    oracle agreement, (c) steering identities on the full grid, (d) realized
    SNR within 5%, (e) byte-identical CSV output on repeated runs."""
    failures = []

    # (a) 1000 random instances: omp residuals shrink as sparsity grows and
    # the final residual is orthogonal to every selected column
    for inst in range(1000):
        phi = csdoa.draw_measurement_matrix(10, 20, csdoa.GAUSSIAN, seed=40000 + 2 * inst)
        system = csdoa.build_sensing_system(phi, np.eye(20, dtype=complex))
        rng = np.random.default_rng(40000 + 2 * inst + 1)
        y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        one = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=1))
        two = csdoa.omp(system, y, csdoa.SolverConfig(sparsity=2))
        if two.residual_norm > one.residual_norm + 1e-12 * (1.0 + np.linalg.norm(y)):
            failures.append(f"(a) residual grew on instance {inst}")
            break
        residual = y - system.psi @ two.coefficients
        for j in two.support:
            bound = 1e-8 * np.linalg.norm(y) * system.column_norms[j]
            if abs(np.vdot(system.psi[:, j], residual)) > bound:
                failures.append(f"(a) residual not orthogonal on instance {inst}")
                break

    # (b) 1000 well-conditioned systems: QR route equals normal equations
    rng = np.random.default_rng(555)
    for inst in range(1000):
        basis = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coef = csdoa.least_squares(basis, y)
        expected = normal_equations(basis, y)
        if np.linalg.norm(coef - expected) > 1e-8 * (1.0 + np.linalg.norm(expected)):
            failures.append(f"(b) least-squares mismatch on instance {inst}")
            break

    # (c) steering identities at every grid angle
    geometry = csdoa.ArrayGeometry(15, 0.5)
    grid = csdoa.make_grid(-90.0, 90.0, 1.0)
    manifold = csdoa.build_manifold(grid, geometry)
    for j, theta in enumerate(grid.angles_deg):
        a = manifold[:, j]
        if np.max(np.abs(np.abs(a) - 1.0)) > 1e-12:
            failures.append(f"(c) modulus off at {theta} deg")
        if abs(np.linalg.norm(a) - math.sqrt(15)) > 1e-12:
            failures.append(f"(c) norm off at {theta} deg")
        if not np.array_equal(manifold[:, grid.index_of(-theta)], np.conj(a)):
            failures.append(f"(c) conjugate symmetry off at {theta} deg")

    # (d) realized SNR: noise-to-clean power ratio averages to the configured
    # 0 dB within 5% across 10000 draws
    scenario = csdoa.build_scenario([-60.0, 0.0, 40.0], snr_db=0.0, seed=0)
    ratios = np.empty(10000)
    for k in range(10000):
        snapshot = csdoa.synthesize(scenario, np.random.default_rng(k))
        ratios[k] = np.sum(np.abs(snapshot.noise) ** 2) / np.sum(np.abs(snapshot.clean) ** 2)
    mean_ratio = float(ratios.mean())
    if abs(mean_ratio - 1.0) > 0.05:
        failures.append(f"(d) realized snr ratio {mean_ratio:.4f} deviates > 5%")

    # (e) identical CLI invocations produce byte-identical CSV files
    argv = ["spectrum", "--sources", "-60,0,40", "--seed", "4"]
    assert cli.main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "b")]) == 0
    mc = ["montecarlo", "--sources", "-60,60", "--trials", "3", "--snr-sweep", "0:10:10"]
    assert cli.main(mc + ["--out", str(tmp_path / "c")]) == 0
    assert cli.main(mc + ["--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    if (tmp_path / "a" / "spectrum.csv").read_bytes() != (tmp_path / "b" / "spectrum.csv").read_bytes():
        failures.append("(e) spectrum.csv differs between identical runs")
    if (tmp_path / "c" / "rmse.csv").read_bytes() != (tmp_path / "d" / "rmse.csv").read_bytes():
        failures.append("(e) rmse.csv differs between identical runs")

    ok = not failures
    line = _report(
        "criterion-5 invariant suite",
        ok,
        "all invariants held (a: greedy residuals, b: least squares, c: steering, "
        f"d: realized snr {mean_ratio:.4f}, e: byte-identical csv)"
        if ok
        else "; ".join(failures),
    )
    assert ok, line


def test_criterion_6_measurement_bound():
    """The sparsity-driven measurement bound evaluates to 9 for three sources
    on fifteen sensors, and the default measurement count exceeds it."""
    minimum = csdoa.min_measurements(3, 15)
    default = csdoa.default_num_measurements(3, 15)
    ok = minimum == 9 and default == 10 and default > minimum
    line = _report(
        "criterion-6 measurement bound",
        ok,
        f"min_measurements(3, 15) = {minimum}, default m = {default}",
    )
    assert ok, line
