"""Angle spectrum, peak extraction, and per-trial error scoring.

The sparse coefficient vector lives on the scan grid, so its squared moduli
already form the angle power spectrum. Peaks degenerate to the support of
the estimate, and scoring reduces to aligning two sorted angle lists.
:func:`score_stack` scores a stack of T estimates at once; ``pick_peaks``
and ``trial_error`` share its peak picking and alignment. Rows whose
positional pairing is certified optimal skip the per-row alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .array_model import AngleGrid, SourceSet
from .errors import DimensionMismatchError, integer
from .recovery import SparseEstimate, _top_indices

# Charged once per true source that the estimate failed to recover.
MISS_PENALTY_DEG = 180.0


@dataclass(eq=False)
class AngleSpectrum:
    """Power over the scan grid: ``power[j]`` belongs to ``grid.angles_deg[j]``."""

    grid: AngleGrid
    power: np.ndarray


@dataclass(frozen=True)
class DoaEstimate:
    """Estimated arrival angles, sorted ascending, with their spectrum powers."""

    doas_deg: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.doas_deg) != len(self.powers):
            raise DimensionMismatchError("doas_deg and powers must have equal length")
        if any(b <= a for a, b in zip(self.doas_deg, self.doas_deg[1:])):
            raise ValueError("doas_deg must be strictly increasing")

    @property
    def num_sources(self) -> int:
        return len(self.doas_deg)


@dataclass(eq=False)
class StackedScores:
    """Spectra, peaks and scores of T estimates on one grid; row ``t`` is trial ``t``.

    Row ``t``'s peaks are the grid indices ``peaks[t, :counts[t]]``, ascending.
    """

    power: np.ndarray  # (T, N_s)
    peaks: np.ndarray  # (T, k) int
    counts: np.ndarray  # (T,) int
    errors_deg: np.ndarray  # (T, sources)
    success: np.ndarray  # (T,) bool

    def estimate(self, grid: AngleGrid, t: int) -> DoaEstimate:
        """Row ``t``'s peaks as a :class:`DoaEstimate`."""
        return _doa_estimate(grid, self.power[t], self.peaks[t, : self.counts[t]])


def angle_spectrum(estimate: SparseEstimate, grid: AngleGrid) -> AngleSpectrum:
    """Squared-modulus spectrum of a sparse estimate over its scan grid."""
    coef = np.asarray(estimate.coefficients)
    if coef.shape[0] != len(grid):
        raise DimensionMismatchError(
            f"estimate length {coef.shape[0]} does not match grid length {len(grid)}"
        )
    return AngleSpectrum(grid=grid, power=np.abs(coef) ** 2)


def pick_peaks(spectrum: AngleSpectrum, num_peaks: int) -> DoaEstimate:
    """Angles of the ``num_peaks`` largest positive spectrum entries.

    Ties break toward the lower angle. Zero-power entries are never peaks, so
    the result is shorter than ``num_peaks`` when the spectrum has fewer
    positive entries. ``power`` must be a vector of one entry per grid angle.
    """
    if integer(num_peaks, "num_peaks") < 1:
        raise ValueError("num_peaks must be >= 1")
    power = np.asarray(spectrum.power)
    if power.shape != (len(spectrum.grid),):
        raise DimensionMismatchError(
            f"power shape {power.shape} does not match grid length {len(spectrum.grid)}"
        )
    peaks, counts = _peak_indices(power[None], num_peaks)
    return _doa_estimate(spectrum.grid, power, peaks[0, : counts[0]])


def trial_error(estimated: DoaEstimate, truth: SourceSet) -> np.ndarray:
    """Per-source absolute angle errors of an estimate against the truth.

    Both angle lists are sorted ascending and aligned in order: each true
    source is either paired with one estimated angle or counted as a miss at
    ``MISS_PENALTY_DEG``. Among the order-preserving alignments the one with
    the smallest total error is used, so a lone estimate near one of several
    true sources is credited to that source rather than paired positionally.
    Returns one error per true source, in sorted-truth order.
    """
    return np.array(_align(sorted(estimated.doas_deg), sorted(truth.doas_deg)))


def score_stack(
    coefficients: np.ndarray, grid: AngleGrid, truth: SourceSet, num_peaks: int
) -> StackedScores:
    """Spectrum, peaks and per-source errors of each row of a (T, N_s) coefficient stack.

    Row by row this is ``angle_spectrum`` -> ``pick_peaks`` -> ``trial_error``;
    a trial succeeds when every source's peak is in its exact grid bin,
    checked as a largest error below half the grid step: on a step that is
    not exact in binary, such as 0.7, a one-bin miss can round below the
    step itself. A zero row (as a rank-deficient solve leaves) has no peaks
    and misses every source.

    A row with one peak per source whose positional gaps ``|est_k - true_k|``
    sum, right to left as ``_align`` adds them, to less than
    ``MISS_PENALTY_DEG`` is scored positionally in one step for all such
    rows: every other order-preserving alignment of equal-length lists has a
    miss and costs at least the penalty, so ``_align`` returns exactly those
    gaps. Only the other rows are aligned one by one.
    """
    power = np.abs(coefficients) ** 2
    peaks, counts = _peak_indices(power, num_peaks)
    # Unfilled peak slots hold len(grid), clipped to the last angle; each row is cut to its count.
    angles = grid.angles_deg.take(peaks, mode="clip")
    true = sorted(truth.doas_deg)
    n = len(true)
    if angles.shape[1] >= n:
        errors = np.abs(angles[:, :n] - true)
        total = errors[:, ::-1].cumsum(axis=1)[:, -1]
        aligned = np.flatnonzero((counts != n) | (total >= MISS_PENALTY_DEG))
    else:  # fewer peak slots than sources: no row has a full set of peaks
        errors = np.empty((len(counts), n))
        aligned = range(len(counts))
    for t in aligned:
        errors[t] = _align(angles[t, : counts[t]].tolist(), true)
    return StackedScores(power, peaks, counts, errors, errors.max(axis=1) < grid.step_deg / 2)


def _peak_indices(power: np.ndarray, num_peaks: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a (T, N_s) power stack, the ``num_peaks`` largest positive entries.

    Returns ascending grid indices (T, k), with unfilled slots set to N_s and
    sorted last, and the number of peaks of each row. The set is the one a
    stable argsort of ``-power`` gives, filtered to positive power.
    """
    positive = power > 0.0
    count = min(num_peaks, power.shape[-1])
    top = _top_indices(np.where(positive, power, 0.0), count)  # no -inf: distinct picks
    counts = np.minimum(np.add.reduce(positive, axis=-1), count)
    if np.count_nonzero(counts < count):
        top[np.arange(count) >= counts[:, None]] = power.shape[-1]
    top.sort(axis=-1)
    return top, counts


def _doa_estimate(grid: AngleGrid, power: np.ndarray, peaks: np.ndarray) -> DoaEstimate:
    return DoaEstimate(
        doas_deg=tuple(grid.angles_deg[peaks].tolist()),
        powers=tuple(power[peaks].tolist()),
    )


def _align(est: list[float], true: list[float]) -> list[float]:
    """Minimal-total-error order-preserving alignment of two ascending angle lists.

    Returns one error per entry of ``true``: its distance to the paired
    estimate, or ``MISS_PENALTY_DEG``.
    """
    n_est = len(est)
    # cost[i][j]: minimal total error assigning true[i:] given est[j:] remain;
    # a spurious estimate costs nothing.
    below = [0.0] * (n_est + 1)
    cost = [below]
    for t in reversed(true):
        row = [0.0] * n_est + [MISS_PENALTY_DEG + below[n_est]]
        for j in range(n_est - 1, -1, -1):
            row[j] = min(abs(est[j] - t) + below[j + 1], row[j + 1], MISS_PENALTY_DEG + below[j])
        cost.append(row)
        below = row
    cost.reverse()

    # Walk the table, preferring a match over a skip or a miss on exact ties.
    errors = []
    j = 0
    for i, t in enumerate(true):
        here, below = cost[i], cost[i + 1]
        error = MISS_PENALTY_DEG
        while j < n_est:
            miss = MISS_PENALTY_DEG + below[j]
            gap = abs(est[j] - t)
            if gap + below[j + 1] <= min(here[j + 1], miss):
                error = gap
                j += 1
                break
            if here[j + 1] >= miss:
                break
            j += 1  # spurious estimate
        errors.append(error)
    return errors
