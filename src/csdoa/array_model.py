"""The scan grid, its ULA steering dictionary, and synthetic snapshots.

The data model is ``x = A(theta) s + n`` on an N-sensor uniform linear
array: ``s`` holds one complex amplitude per source and ``n`` is circular
complex Gaussian noise scaled to a target SNR. The steering vectors are
written once, as the columns of the cached :func:`build_manifold`
dictionary; a snapshot's source columns are read from it. A stack of trials
is drawn by :func:`snapshot_stack`, each from its own generator, and
:func:`synthesize` is its stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    AngleOutOfRangeError,
    EmptyGridError,
    InstanceTooLargeError,
    NonPositiveStepError,
    OffGridSourceError,
    integer,
)

if TYPE_CHECKING:
    from .experiments import Scenario

UNIT_MODULUS = "unit_modulus"
COMPLEX_GAUSSIAN = "complex_gaussian"
AMPLITUDE_MODELS = (UNIT_MODULUS, COMPLEX_GAUSSIAN)

# A requested source direction counts as on-grid when it sits within this
# absolute tolerance of a grid point (it is then snapped to that point).
ON_GRID_ATOL = 1e-9

# Largest complex matrix a trial may need, 128 MiB: a Scenario whose Psi (m, grid
# points), Phi (m, sensors) or manifold A (sensors, grid points) passes it is refused.
MAX_ARRAY_BYTES = 2**27

# Most points a grid may hold (2**23): one trial's Psi within MAX_ARRAY_BYTES at m = 1.
MAX_GRID_POINTS = MAX_ARRAY_BYTES // 16


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
        object.__setattr__(self, "num_sensors", integer(self.num_sensors, "num_sensors"))
        if self.num_sensors < 2:
            raise ValueError(f"num_sensors must be >= 2, got {self.num_sensors}")
        spacing = self.spacing_over_wavelength
        if not (math.isfinite(spacing) and spacing > 0):
            raise ValueError(f"spacing_over_wavelength must be finite and > 0, got {spacing}")


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
    """One sensor sample vector ``data = clean + noise``."""

    data: np.ndarray
    clean: np.ndarray
    noise: np.ndarray


def make_grid(start_deg: float, stop_deg: float, step_deg: float) -> AngleGrid:
    """Build the uniform scan grid ``start, start+step, ...`` capped at ``stop``.

    The grid holds ``floor((stop - start) / step) + 1`` points, at most
    ``MAX_GRID_POINTS``, and must lie inside [-90, 90] degrees.
    """
    if not 0 < step_deg < math.inf:
        raise NonPositiveStepError(f"step_deg must be finite and > 0, got {step_deg}")
    if not (math.isfinite(start_deg) and math.isfinite(stop_deg)):
        raise AngleOutOfRangeError(f"grid bounds must be finite, got {start_deg}, {stop_deg}")
    if start_deg > stop_deg:
        raise EmptyGridError(f"start_deg {start_deg} exceeds stop_deg {stop_deg}")
    # Small forward nudge so ratios that round just below an integer still count.
    span = (stop_deg - start_deg) / step_deg + 1e-9
    if not span < MAX_GRID_POINTS:  # also an uncountable (inf) span; refused before allocating
        raise InstanceTooLargeError(
            f"grid {start_deg}:{stop_deg}:{step_deg} has more than {MAX_GRID_POINTS} points"
        )
    angles = start_deg + step_deg * np.arange(int(math.floor(span)) + 1)
    if angles[0] < -90.0 or angles[-1] > 90.0 + 1e-12:
        raise AngleOutOfRangeError("grid angles must lie in [-90, 90] degrees")
    return AngleGrid(float(start_deg), float(stop_deg), float(step_deg), angles)


def build_manifold(grid: AngleGrid, geometry: ArrayGeometry) -> np.ndarray:
    """Dictionary A(theta): one steering-vector column per grid angle (N x N_s).

    Column ``j``'s element ``n`` is ``exp(-1j * 2*pi * (d/lambda) * n *
    sin(theta_j))``, with the first sensor as phase reference, so every entry
    has unit modulus. A lone direction's steering vector is the column of a
    one-point grid, ``build_manifold(make_grid(theta, theta, 1.0), geometry)``.
    Built once per geometry and grid angles and then shared, so the array is
    read-only.
    """
    return _cached_manifold(geometry, np.asarray(grid.angles_deg, dtype=float).tobytes())


# A few recent dictionaries: enough for a caller that runs one scenario at
# many seeds, while a very fine grid's manifold is not held many times over.
@lru_cache(maxsize=4)
def _cached_manifold(geometry: ArrayGeometry, angles_deg: bytes) -> np.ndarray:
    scale = -2.0 * np.pi * geometry.spacing_over_wavelength * np.arange(geometry.num_sensors)
    sines = np.sin(np.deg2rad(np.frombuffer(angles_deg)))
    manifold = np.exp(1j * (scale[:, None] * sines[None, :]))
    manifold.flags.writeable = False
    return manifold


def synthesize(scenario: "Scenario", rng: np.random.Generator) -> Snapshot:
    """Draw one noisy snapshot of ``scenario``.

    Draw order is fixed for reproducibility: first one complex amplitude per
    coherent group (groups in declaration order), then the noise vector. The
    per-element noise variance is set from the realized clean power,
    ``sigma^2 = ||clean||^2 / (N * 10^(snr_db/10))``, so the configured SNR is
    total clean power over expected total noise power. ``snr_db = inf``
    disables noise entirely (no draws consumed for it). Row 0 of a
    :func:`snapshot_stack` of one, as a sweep's trials draw it.

    Parameters
    ----------
    scenario : Scenario
        Supplies geometry, grid, sources, and snr_db; every source direction
        must be a grid point.
    rng : np.random.Generator
        Caller-owned random stream; equal seeds give bit-identical snapshots.
    """
    data, clean, noise = snapshot_stack(scenario, [scenario.snr_db], [rng])
    return Snapshot(data=data[0], clean=clean[0], noise=noise[0])


def snapshot_stack(
    scenario: "Scenario",
    snr_db: Sequence[float],
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, clean, noise)``, each (T, N): trial k's snapshot at ``snr_db[k]`` from ``rngs[k]``.

    Each trial makes its raw draws from its own generator in
    :func:`synthesize`'s order, straight into the stack's buffers: the
    unit-modulus phases' uniforms in [0, 1) (or the complex Gaussian
    amplitudes' real then imaginary parts), then, unless its SNR is inf, the
    real then imaginary noise parts. The phases are scaled by 2 pi once for
    the stack: ``rng.uniform(0, 2 pi)`` is ``0.0 + 2 pi * u`` for the same
    ``u``, so they are the same doubles. The sources' columns come from
    :func:`build_manifold`'s cached dictionary. Every later step is
    elementwise per trial and in :func:`synthesize`'s order, so each row is
    what that trial alone gives.
    """
    sources = scenario.sources
    columns = build_manifold(scenario.grid, scenario.geometry)[:, list(scenario.source_indices)]
    amplitudes = np.empty((len(rngs), 2, len(sources.coherent_groups)))
    noise = np.zeros((len(rngs), 2, scenario.geometry.num_sensors))
    for k, (rng, snr) in enumerate(zip(rngs, snr_db)):
        if sources.amplitude_model == UNIT_MODULUS:
            rng.random(out=amplitudes[k, 0])
        else:
            rng.standard_normal(out=amplitudes[k])
        if not math.isinf(snr):
            rng.standard_normal(out=noise[k])
    if sources.amplitude_model == UNIT_MODULUS:
        group_amps = np.exp(1j * (amplitudes[:, 0] * (2.0 * np.pi)))
    else:
        group_amps = (amplitudes[:, 0] + 1j * amplitudes[:, 1]) / np.sqrt(2.0)
    group_of = {i: g for g, group in enumerate(sources.coherent_groups) for i in group}
    clean = np.zeros((len(amplitudes), columns.shape[0]), dtype=complex)
    for i in range(sources.num_sources):
        clean = clean + columns[:, i] * group_amps[:, group_of[i], None]
    # The per-trial noise power is Python arithmetic, as for one trial: numpy's
    # power may round differently from the C library's pow.
    levels = np.array([columns.shape[0] * 10.0 ** (snr / 10.0) for snr in snr_db])
    p_clean = np.add.reduce(np.abs(clean) ** 2, axis=-1)
    scale = np.sqrt(p_clean / levels / 2.0)
    noise = scale[:, None] * (noise[:, 0] + 1j * noise[:, 1])
    return clean + noise, clean, noise
