"""Tests for the angle spectrum, peak picking, and per-source error scoring."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdoa
from conftest import gaussian_system, reference_score, reference_trial_error
from csdoa.spectrum import score_stack


def _grid():
    return csdoa.make_grid(-90.0, 90.0, 1.0)


def _estimate_on(grid, entries):
    """SparseEstimate with the given {index: coefficient} entries."""
    coefficients = np.zeros(len(grid.angles_deg), dtype=complex)
    support = tuple(sorted(entries))
    for j, value in entries.items():
        coefficients[j] = value
    return csdoa.SparseEstimate(
        coefficients=coefficients,
        support=support,
        residual_norm=0.0,
        iterations=len(support),
        converged=True,
    )


# ---------------------------------------------------------------------------
# angle_spectrum


def test_angle_spectrum_squares_moduli():
    grid = _grid()
    spectrum = csdoa.angle_spectrum(_estimate_on(grid, {30: 2.0 + 0.0j}), grid)
    assert spectrum.power[30] == 4.0
    assert np.count_nonzero(spectrum.power) == 1


def test_angle_spectrum_of_zero_estimate():
    grid = _grid()
    spectrum = csdoa.angle_spectrum(_estimate_on(grid, {}), grid)
    assert np.array_equal(spectrum.power, np.zeros(181))


def test_angle_spectrum_complex_entry():
    grid = _grid()
    spectrum = csdoa.angle_spectrum(_estimate_on(grid, {90: 3.0 - 4.0j}), grid)
    assert abs(spectrum.power[90] - 25.0) < 1e-12


def test_angle_spectrum_is_phase_invariant():
    grid = _grid()
    a = csdoa.angle_spectrum(_estimate_on(grid, {10: 1.0 + 1.0j}), grid)
    b = csdoa.angle_spectrum(_estimate_on(grid, {10: np.sqrt(2.0) + 0.0j}), grid)
    assert abs(a.power[10] - b.power[10]) < 1e-12


def test_angle_spectrum_rejects_length_mismatch():
    grid = _grid()
    small = csdoa.make_grid(-10.0, 10.0, 5.0)
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.angle_spectrum(_estimate_on(small, {0: 1.0 + 0.0j}), grid)


# ---------------------------------------------------------------------------
# DoaEstimate


def test_doa_estimate_validation():
    estimate = csdoa.DoaEstimate((-60.0, 0.0, 40.0), (1.0, 1.0, 1.0))
    assert estimate.num_sources == 3
    with pytest.raises(csdoa.DimensionMismatchError):
        csdoa.DoaEstimate((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        csdoa.DoaEstimate((1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        csdoa.DoaEstimate((0.0, 0.0), (1.0, 1.0))


# ---------------------------------------------------------------------------
# pick_peaks


def test_pick_peaks_returns_sorted_angles():
    grid = _grid()
    estimate = _estimate_on(grid, {130: 1.0 + 0.0j, 30: 0.5 + 0.0j, 90: 2.0 + 0.0j})
    peaks = csdoa.pick_peaks(csdoa.angle_spectrum(estimate, grid), 3)
    assert peaks.doas_deg == (-60.0, 0.0, 40.0)
    assert peaks.powers == (0.25, 4.0, 1.0)


def test_pick_peaks_empty_for_zero_spectrum():
    grid = _grid()
    peaks = csdoa.pick_peaks(csdoa.angle_spectrum(_estimate_on(grid, {}), grid), 2)
    assert peaks.doas_deg == ()
    assert peaks.powers == ()


def test_pick_peaks_takes_largest_powers():
    grid = csdoa.make_grid(-10.0, 10.0, 10.0)
    spectrum = csdoa.AngleSpectrum(grid=grid, power=np.array([1.0, 5.0, 3.0]))
    peaks = csdoa.pick_peaks(spectrum, 2)
    assert peaks.doas_deg == (0.0, 10.0)


def test_pick_peaks_breaks_ties_toward_lower_angles():
    grid = csdoa.make_grid(-10.0, 10.0, 10.0)
    spectrum = csdoa.AngleSpectrum(grid=grid, power=np.array([5.0, 5.0, 1.0]))
    peaks = csdoa.pick_peaks(spectrum, 1)
    assert peaks.doas_deg == (-10.0,)


def test_pick_peaks_never_returns_zero_power():
    grid = csdoa.make_grid(-10.0, 10.0, 10.0)
    spectrum = csdoa.AngleSpectrum(grid=grid, power=np.array([0.0, 2.0, 0.0]))
    peaks = csdoa.pick_peaks(spectrum, 3)
    assert peaks.doas_deg == (0.0,)


@pytest.mark.parametrize("power", [[0, 3, 1], [math.nan, 2.0, -1.0], [-1.0, 2.0, -3.0]])
def test_pick_peaks_takes_only_positive_entries_of_any_real_vector(power):
    # A caller's spectrum need not be |coef|^2: integer, NaN or negative entries
    # neither break the pick nor displace a positive peak.
    spectrum = csdoa.AngleSpectrum(grid=csdoa.make_grid(-10.0, 10.0, 10.0), power=np.array(power))
    assert csdoa.pick_peaks(spectrum, 3).doas_deg == ((0.0, 10.0) if power[2] > 0 else (0.0,))


def test_pick_peaks_requires_positive_count():
    grid = _grid()
    spectrum = csdoa.angle_spectrum(_estimate_on(grid, {}), grid)
    with pytest.raises(ValueError):
        csdoa.pick_peaks(spectrum, 0)


@pytest.mark.parametrize("shape", [(10,), (200,), (181, 1)], ids=["short", "long", "column"])
def test_pick_peaks_refuses_a_power_vector_off_the_grid_length(shape):
    # A short vector used to be read off the grid's first angles, a long one raised IndexError.
    spectrum = csdoa.AngleSpectrum(grid=_grid(), power=np.ones(shape))
    with pytest.raises(csdoa.DimensionMismatchError, match="does not match grid length 181"):
        csdoa.pick_peaks(spectrum, 2)


@pytest.mark.parametrize("num_peaks", [True, 2.0], ids=["bool", "float"])
def test_pick_peaks_takes_an_integer_count(num_peaks):
    grid = _grid()
    spectrum = csdoa.angle_spectrum(_estimate_on(grid, {3: 1.0, 7: 2.0}), grid)
    with pytest.raises(TypeError, match="^num_peaks must be an integer"):
        csdoa.pick_peaks(spectrum, num_peaks)
    assert csdoa.pick_peaks(spectrum, np.int64(2)).doas_deg == (-87.0, -83.0)


def test_pick_peaks_composes_with_solver_output():
    # a 3-sparse coefficient vector round-trips to its three grid angles
    grid = _grid()
    estimate = _estimate_on(
        grid, {30: 1.0 + 0.5j, 90: -0.3 + 0.9j, 130: 0.8 - 0.1j}
    )
    peaks = csdoa.pick_peaks(csdoa.angle_spectrum(estimate, grid), 3)
    assert peaks.doas_deg == (-60.0, 0.0, 40.0)


# ---------------------------------------------------------------------------
# trial_error


def _truth(*doas):
    return csdoa.SourceSet(tuple(doas))


def test_trial_error_exact_match():
    estimated = csdoa.DoaEstimate((-60.0, 0.0, 40.0), (1.0, 1.0, 1.0))
    errors = csdoa.trial_error(estimated, _truth(-60.0, 0.0, 40.0))
    assert np.array_equal(errors, np.zeros(3))


def test_trial_error_one_degree_offsets():
    estimated = csdoa.DoaEstimate((-59.0, 61.0), (1.0, 1.0))
    errors = csdoa.trial_error(estimated, _truth(-60.0, 60.0))
    assert np.array_equal(errors, np.array([1.0, 1.0]))


def test_trial_error_misses_cost_180():
    assert csdoa.MISS_PENALTY_DEG == 180.0
    estimated = csdoa.DoaEstimate((60.0,), (1.0,))
    errors = csdoa.trial_error(estimated, _truth(-60.0, 60.0))
    assert np.array_equal(errors, np.array([180.0, 0.0]))


def test_trial_error_empty_estimate_misses_everything():
    estimated = csdoa.DoaEstimate((), ())
    errors = csdoa.trial_error(estimated, _truth(-60.0, 0.0, 40.0))
    assert np.array_equal(errors, np.full(3, 180.0))


def test_trial_error_extra_estimates_are_free():
    estimated = csdoa.DoaEstimate((-10.0, 0.0, 10.0), (1.0, 1.0, 1.0))
    errors = csdoa.trial_error(estimated, _truth(0.0,))
    assert np.array_equal(errors, np.zeros(1))


def test_trial_error_prefers_matching_over_missing():
    estimated = csdoa.DoaEstimate((0.5,), (1.0,))
    errors = csdoa.trial_error(estimated, _truth(0.0, 1.0))
    assert np.array_equal(errors, np.array([0.5, 180.0]))


def test_trial_error_alignment_is_order_optimal():
    estimated = csdoa.DoaEstimate((-9.0,), (1.0,))
    errors = csdoa.trial_error(estimated, _truth(-10.0, 10.0))
    assert np.array_equal(errors, np.array([1.0, 180.0]))


def test_trial_error_reports_in_truth_order():
    estimated = csdoa.DoaEstimate((-60.0, 40.0), (1.0, 1.0))
    errors = csdoa.trial_error(estimated, _truth(-60.0, 0.0, 40.0))
    assert np.array_equal(errors, np.array([0.0, 180.0, 0.0]))


# ---------------------------------------------------------------------------
# stacked scoring against the per-trial chain


@settings(max_examples=60, deadline=None)
@given(
    step=st.sampled_from([1.0, 0.5, 7.5]),
    rows=st.lists(
        st.sampled_from(["zero", "deficient", "sparse", "dense", "ties"]), min_size=1, max_size=9
    ),
    num_sources=st.integers(1, 3),
    num_peaks=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(step=7.5, rows=["ties", "zero", "deficient", "sparse"], num_sources=2, num_peaks=3,
         seed=0)
def test_stacked_scoring_equals_per_trial_scoring(step, rows, num_sources, num_peaks, seed):
    grid = csdoa.make_grid(-90.0, 90.0, step)
    n = len(grid)
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(n, num_sources, replace=False))
    truth = csdoa.SourceSet(tuple(grid.angles_deg[picked].tolist()))
    coefficients = np.zeros((len(rows), n), dtype=complex)
    for t, kind in enumerate(rows):
        if kind == "sparse":  # at most num_peaks positive entries
            where = rng.choice(n, rng.integers(1, num_peaks + 1), replace=False)
            coefficients[t, where] = rng.standard_normal(where.size) + 1j
        elif kind == "dense":  # more positive entries than peaks
            coefficients[t] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        elif kind == "ties":  # exact power ties at 1 and 4
            where = rng.choice(n, min(n, num_peaks + 2), replace=False)
            coefficients[t, where] = rng.choice([1, -1, 1j, -1j, 2, -2j], where.size)
        # "zero" rows, and "deficient" ones, which a rank-deficient solve leaves zero
    scores = score_stack(coefficients, grid, truth, num_peaks)
    for t, kind in enumerate(rows):
        power, doas, powers, errors, success = reference_score(
            coefficients[t], grid, truth, num_peaks
        )
        assert scores.power[t].tobytes() == power.tobytes()
        estimate = scores.estimate(grid, t)
        assert (estimate.doas_deg, estimate.powers) == (doas, powers)
        assert scores.errors_deg[t].tobytes() == errors.tobytes()
        assert scores.success[t] == success
        if kind in ("zero", "deficient"):  # a full miss, as the per-trial fallback scored it
            assert doas == () and np.all(errors == csdoa.MISS_PENALTY_DEG)
        # the public stage functions are the same path, as stacks of one
        single = csdoa.SparseEstimate(coefficients[t], (), 0.0, 0, True)
        spectrum = csdoa.angle_spectrum(single, grid)
        assert spectrum.power.tobytes() == power.tobytes()
        peaks = csdoa.pick_peaks(spectrum, num_peaks)
        assert (peaks.doas_deg, peaks.powers) == (doas, powers)
        assert csdoa.trial_error(peaks, truth).tobytes() == errors.tobytes()


def _grid_index(pick: int, n: int) -> int:
    """Pick ``k`` in [-12, 12) is the k-th grid point from the near or far end; others any point."""
    return n + pick if pick < 0 else pick % n


def _typed(angle: float) -> float:
    """The shortest decimal of ``angle`` that still names its grid point, as a user types it."""
    for digits in range(13):
        value = float(f"{angle:.{digits}f}")
        if abs(value - angle) < csdoa.array_model.ON_GRID_ATOL:
            return value
    return angle


_PICK = st.one_of(st.integers(-12, 11), st.integers(12, 10**6))


@settings(max_examples=150, deadline=None)
@given(
    step=st.sampled_from([1.0, 0.7, 1 / 3]),
    true=st.lists(_PICK, min_size=1, max_size=4),
    rows=st.lists(st.lists(_PICK, max_size=4), min_size=1, max_size=8),
)
# Positional pairing ties the optimal alignment here (359.4 either way) but
# differs from it, so this row must be aligned, not scored positionally.
@example(step=0.1, true=[0, 2, 5], rows=[[3, -3, -1]])
def test_full_peak_rows_score_as_the_reference_alignment(step, true, rows):
    grid = csdoa.make_grid(-90.0, 90.0, step)
    n = len(grid)
    picked = sorted({_grid_index(k, n) for k in true})
    truth = csdoa.SourceSet(tuple(_typed(a) for a in grid.angles_deg[picked].tolist()))
    # Every row has one peak per source: its picks, then the ends outward.
    fill = [i for pair in zip(range(n), range(n - 1, -1, -1)) for i in pair]
    coefficients = np.zeros((len(rows), n), dtype=complex)
    for t, row in enumerate(rows):
        where = list(dict.fromkeys([_grid_index(k, n) for k in row] + fill))[: len(picked)]
        coefficients[t, where] = 1.0 + 0.5j
    scores = score_stack(coefficients, grid, truth, len(picked))
    assert np.all(scores.counts == len(picked))
    for t in range(len(rows)):
        peaks = scores.peaks[t, : len(picked)]
        errors = reference_trial_error(grid.angles_deg[peaks].tolist(), truth)
        assert scores.errors_deg[t].tobytes() == errors.tobytes()
        assert scores.success[t] == (errors.max() < grid.step_deg)


_ANGLES = [-90.0, -60.0, -59.5, -30.0, -1.0, 0.0, 0.5, 1.0, 30.0, 60.0, 89.0, 90.0]


@settings(max_examples=300, deadline=None)
@given(
    est=st.lists(st.sampled_from(_ANGLES), max_size=5, unique=True),
    true=st.lists(st.sampled_from(_ANGLES), min_size=1, max_size=4, unique=True),
)
def test_trial_error_is_a_minimal_order_preserving_alignment(est, true):
    est, true = sorted(est), sorted(true)
    errors = csdoa.trial_error(csdoa.DoaEstimate(tuple(est), (1.0,) * len(est)),
                               csdoa.SourceSet(tuple(true)))
    alignments = []
    for r in range(min(len(est), len(true)) + 1):
        for matched in itertools.combinations(range(len(true)), r):
            for used in itertools.combinations(range(len(est)), r):
                vector = [csdoa.MISS_PENALTY_DEG] * len(true)
                for i, j in zip(matched, used):
                    vector[i] = abs(est[j] - true[i])
                alignments.append(vector)
    best = min(sum(vector) for vector in alignments)
    assert abs(sum(errors) - best) <= 1e-9
    assert errors.tolist() in [v for v in alignments if sum(v) <= best + 1e-9]
