"""ULA steering vectors, the scan-grid dictionary, and synthetic snapshots.

The data model is ``x = A(theta) s + n`` on an N-sensor uniform linear
array: ``s`` holds one complex amplitude per source and ``n`` is circular
complex Gaussian noise scaled to a target SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AngleOutOfRangeError,
    EmptyGridError,
    NonPositiveStepError,
    OffGridSourceError,
)

if TYPE_CHECKING:
    from .experiments import Scenario

UNIT_MODULUS = "unit_modulus"
COMPLEX_GAUSSIAN = "complex_gaussian"
AMPLITUDE_MODELS = (UNIT_MODULUS, COMPLEX_GAUSSIAN)

# A requested source direction counts as on-grid when it sits within this
# absolute tolerance of a grid point (it is then snapped to that point).
ON_GRID_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class AngleGrid:
    """Ordered set of candidate DOA angles (degrees) defining dictionary columns."""

    start_deg: float
    stop_deg: float
    step_deg: float
    angles_deg: np.ndarray

    def __len__(self) -> int:
        return len(self.angles_deg)

    def index_of(self, theta_deg: float) -> int:
        """Index of the grid point matching ``theta_deg`` (within ON_GRID_ATOL)."""
        hits = np.nonzero(np.abs(self.angles_deg - theta_deg) < ON_GRID_ATOL)[0]
        if hits.size == 0:
            raise OffGridSourceError(f"{theta_deg} deg is not a grid point")
        return int(hits[0])


@dataclass(frozen=True)
class ArrayGeometry:
    """ULA description: sensor count and element spacing in wavelengths."""

    num_sensors: int
    spacing_over_wavelength: float = 0.5

    def __post_init__(self) -> None:
        if self.num_sensors < 2:
            raise ValueError(f"num_sensors must be >= 2, got {self.num_sensors}")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("spacing_over_wavelength must be > 0")


@dataclass(frozen=True)
class SourceSet:
    """Ground-truth source directions with an explicit coherency partition.

    ``coherent_groups`` partitions the source indices; all sources in one
    group share a single complex amplitude per trial. An empty value means
    every source is independent (all singleton groups).
    """

    doas_deg: tuple[float, ...]
    coherent_groups: tuple[tuple[int, ...], ...] = ()
    amplitude_model: str = UNIT_MODULUS

    def __post_init__(self) -> None:
        doas = tuple(float(d) for d in self.doas_deg)
        object.__setattr__(self, "doas_deg", doas)
        if not doas:
            raise ValueError("need at least one source")
        if len(set(doas)) != len(doas):
            raise ValueError("source directions must be distinct")
        groups = tuple(tuple(int(i) for i in g) for g in self.coherent_groups)
        if not groups:
            groups = tuple((i,) for i in range(len(doas)))
        object.__setattr__(self, "coherent_groups", groups)
        members = sorted(i for g in groups for i in g)
        if members != list(range(len(doas))):
            raise ValueError("coherent_groups must partition the source indices")
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValueError(f"unknown amplitude_model {self.amplitude_model!r}")

    @property
    def num_sources(self) -> int:
        return len(self.doas_deg)


@dataclass(eq=False)
class Snapshot:
    """One sensor sample vector ``data = clean + noise`` plus its generating truth."""

    data: np.ndarray
    clean: np.ndarray
    noise: np.ndarray
    true_sources: SourceSet
    snr_db: float


def make_grid(start_deg: float, stop_deg: float, step_deg: float) -> AngleGrid:
    """Build the uniform scan grid ``start, start+step, ...`` capped at ``stop``.

    The grid holds ``floor((stop - start) / step) + 1`` points and must lie
    inside [-90, 90] degrees.
    """
    if step_deg <= 0:
        raise NonPositiveStepError(f"step_deg must be > 0, got {step_deg}")
    if start_deg > stop_deg:
        raise EmptyGridError(f"start_deg {start_deg} exceeds stop_deg {stop_deg}")
    # Small forward nudge so ratios that round just below an integer still count.
    count = int(math.floor((stop_deg - start_deg) / step_deg + 1e-9)) + 1
    angles = start_deg + step_deg * np.arange(count)
    if angles[0] < -90.0 or angles[-1] > 90.0 + 1e-12:
        raise AngleOutOfRangeError("grid angles must lie in [-90, 90] degrees")
    return AngleGrid(float(start_deg), float(stop_deg), float(step_deg), angles)


def steering_vector(theta_deg: float, geometry: ArrayGeometry) -> np.ndarray:
    """Narrowband ULA steering vector for a plane wave from ``theta_deg``.

    Element ``n`` equals ``exp(-1j * 2*pi * (d/lambda) * n * sin(theta))`` with
    the first sensor as phase reference, so every entry has unit modulus.

    Parameters
    ----------
    theta_deg : float
        Arrival angle in degrees, in [-90, 90].
    geometry : ArrayGeometry
        Sensor count and spacing.

    Returns
    -------
    np.ndarray
        Complex vector of length ``geometry.num_sensors``.
    """
    if not -90.0 <= theta_deg <= 90.0:
        raise AngleOutOfRangeError(f"theta_deg must lie in [-90, 90], got {theta_deg}")
    n = np.arange(geometry.num_sensors)
    phase = -2.0 * np.pi * geometry.spacing_over_wavelength * n * np.sin(np.deg2rad(theta_deg))
    return np.exp(1j * phase)


def build_manifold(grid: AngleGrid, geometry: ArrayGeometry) -> np.ndarray:
    """Dictionary A(theta): one steering-vector column per grid angle (N x N_s)."""
    # One broadcast in steering_vector's operation order, so every column
    # matches steering_vector bit for bit.
    n = np.arange(geometry.num_sensors)
    scale = -2.0 * np.pi * geometry.spacing_over_wavelength * n
    return np.exp(1j * (scale[:, None] * np.sin(np.deg2rad(grid.angles_deg))[None, :]))


def _draw_amplitudes(sources: SourceSet, rng: np.random.Generator) -> np.ndarray:
    """One complex amplitude per coherent group, replicated to every member."""
    n_groups = len(sources.coherent_groups)
    if sources.amplitude_model == UNIT_MODULUS:
        phases = rng.uniform(0.0, 2.0 * np.pi, n_groups)
        group_amps = np.exp(1j * np.asarray(phases))
    else:
        group_amps = (
            rng.standard_normal(n_groups) + 1j * rng.standard_normal(n_groups)
        ) / np.sqrt(2.0)
    amps = np.zeros(sources.num_sources, dtype=complex)
    for group, amp in zip(sources.coherent_groups, group_amps):
        for i in group:
            amps[i] = amp
    return amps


def synthesize(scenario: "Scenario", rng: np.random.Generator) -> Snapshot:
    """Draw one noisy snapshot of ``scenario``.

    Draw order is fixed for reproducibility: first one complex amplitude per
    coherent group (groups in declaration order), then the noise vector. The
    per-element noise variance is set from the realized clean power,
    ``sigma^2 = ||clean||^2 / (N * 10^(snr_db/10))``, so the configured SNR is
    total clean power over expected total noise power. ``snr_db = inf``
    disables noise entirely (no draws consumed for it).

    Parameters
    ----------
    scenario : Scenario
        Supplies geometry, grid, sources, and snr_db; every source direction
        must be a grid point.
    rng : np.random.Generator
        Caller-owned random stream; equal seeds give bit-identical snapshots.
    """
    sources = scenario.sources
    geometry = scenario.geometry
    grid = scenario.grid
    # OffGridSourceError for any direction not on the grid; snapping to the
    # grid point keeps clean identical to the matching dictionary columns.
    snapped = [grid.angles_deg[grid.index_of(d)] for d in sources.doas_deg]
    amps = _draw_amplitudes(sources, rng)
    clean = np.zeros(geometry.num_sensors, dtype=complex)
    for theta, amp in zip(snapped, amps):
        clean = clean + steering_vector(theta, geometry) * amp
    if math.isinf(scenario.snr_db):
        noise = np.zeros_like(clean)
    else:
        p_clean = float(np.sum(np.abs(clean) ** 2))
        sigma2 = p_clean / (geometry.num_sensors * 10.0 ** (scenario.snr_db / 10.0))
        scale = math.sqrt(sigma2 / 2.0)
        noise = scale * (
            rng.standard_normal(geometry.num_sensors)
            + 1j * rng.standard_normal(geometry.num_sensors)
        )
    return Snapshot(
        data=clean + noise,
        clean=clean,
        noise=noise,
        true_sources=sources,
        snr_db=scenario.snr_db,
    )


def synthesize_multi(scenario: "Scenario", num_snapshots: int, rng: np.random.Generator) -> list[Snapshot]:
    """``num_snapshots`` independent snapshots with fresh amplitudes and noise each."""
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    return [synthesize(scenario, rng) for _ in range(num_snapshots)]
