"""Measurement-matrix draw, snapshot compression, and the effective dictionary.

Compression is ``y = Phi x``; the sparse-recovery dictionary is
``Psi = Phi A(theta)``, cached together with its column norms. Each of these
also takes a stack of T trials' matrices, which the Monte Carlo engine builds
from the trials' raw draws with :func:`gaussian_entries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

GAUSSIAN = "gaussian"
IDENTITY = "identity"
MEASUREMENT_KINDS = (GAUSSIAN, IDENTITY)


@dataclass(eq=False)
class MeasurementMatrix:
    """Compression operator Phi (m x N) and its kind.

    ``entries`` may also be a stack (T, m, N) of T trials' operators.
    """

    entries: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.entries.ndim not in (2, 3) or self.entries.shape[-2] < 1:
            raise ValueError("entries must be a matrix or a stack of them, with at least one row")
        if self.kind not in MEASUREMENT_KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.kind == IDENTITY:
            m, n = self.entries.shape[-2:]
            if m != n:
                raise DimensionMismatchError("identity measurement requires m == n")
            if not np.all(self.entries == np.eye(n, dtype=self.entries.dtype)):
                raise ValueError("identity measurement entries must be the identity")

    @property
    def num_measurements(self) -> int:
        return self.entries.shape[-2]

    @property
    def signal_len(self) -> int:
        return self.entries.shape[-1]


@dataclass(eq=False)
class SensingSystem:
    """The pair (Phi, A) together with Psi = Phi A and its column norms.

    ``psi`` and ``column_norms`` are computed here from ``phi`` and
    ``manifold`` and cannot be passed in, so Psi = Phi A holds by
    construction. For a stacked Phi of T trials, ``psi`` is (T, m, N_s) and
    ``column_norms`` (T, N_s).
    """

    phi: MeasurementMatrix
    manifold: np.ndarray
    psi: np.ndarray = field(init=False)
    column_norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self._derive()

    def _derive(
        self, psi_out: np.ndarray | None = None, scratch: np.ndarray | None = None
    ) -> None:
        """Check the shapes, then compute ``psi`` (into ``psi_out`` if given) and its norms."""
        self.manifold = np.asarray(self.manifold)
        if self.phi.signal_len != self.manifold.shape[0]:
            raise DimensionMismatchError(
                f"Phi has {self.phi.signal_len} columns but the dictionary has "
                f"{self.manifold.shape[0]} rows"
            )
        self.psi = _dictionary(self.phi.entries, self.manifold, psi_out)
        self.column_norms = _column_norms(self.psi, scratch)
        if np.any(self.column_norms <= 0.0) or not np.all(np.isfinite(self.column_norms)):
            raise ValueError("every psi column must have a positive finite norm")

    @property
    def num_measurements(self) -> int:
        return self.psi.shape[-2]

    @property
    def num_atoms(self) -> int:
        return self.psi.shape[-1]


def min_measurements(num_sources: int, signal_len: int) -> int:
    """Smallest integer strictly greater than ``num_sources * ln(signal_len)``."""
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    if signal_len < 2:
        raise ValueError(f"signal_len must be >= 2, got {signal_len}")
    return int(math.floor(num_sources * math.log(signal_len))) + 1


def draw_measurement_matrix(m: int, n: int, kind: str, seed: int = 0) -> MeasurementMatrix:
    """Draw an m x n measurement matrix of the given kind.

    ``gaussian`` entries are i.i.d. circular complex Gaussian with real and
    imaginary parts N(0, 1/(2m)), giving unit expected column energy.
    ``identity`` requires m == n and takes no random draws; ``seed`` seeds
    the Gaussian draw.
    """
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if kind == IDENTITY:
        if m != n:
            raise DimensionMismatchError(f"identity measurement requires m == n, got {m} x {n}")
        entries = np.eye(n, dtype=complex)
    elif kind == GAUSSIAN:
        entries = gaussian_entries(np.random.default_rng(seed).standard_normal((2, m, n)))
    else:
        raise ValueError(f"unknown measurement kind {kind!r}")
    return MeasurementMatrix(entries=entries, kind=kind)


def gaussian_entries(normals: np.ndarray) -> np.ndarray:
    """Gaussian Phi entries from standard normal draws ``(..., 2, m, n)``: real, then imaginary.

    One ``standard_normal((2, m, n))`` call draws what two ``(m, n)`` calls
    would, in the same order, so a stack of trials' draws gives each trial's
    matrix bit for bit.
    """
    scale = math.sqrt(1.0 / (2.0 * normals.shape[-2]))
    return scale * (normals[..., 0, :, :] + 1j * normals[..., 1, :, :])


def compress(phi: MeasurementMatrix, x: np.ndarray) -> np.ndarray:
    """Exact matrix-vector product ``y = Phi x``.

    For a stacked Phi, ``x`` is a (T, N) stack of snapshots and ``y`` is (T, m).
    """
    x = np.asarray(x)
    if x.shape[-1] != phi.signal_len:
        raise DimensionMismatchError(
            f"x has length {x.shape[-1]} but Phi has {phi.signal_len} columns"
        )
    return np.matmul(phi.entries, x[..., None])[..., 0]


def build_sensing_system(phi: MeasurementMatrix, manifold: np.ndarray) -> SensingSystem:
    """Form Psi = Phi A and its column norms (one stack of them for a stacked Phi)."""
    return SensingSystem(phi, manifold)


def _system_into(
    phi: MeasurementMatrix, manifold: np.ndarray, psi_out: np.ndarray, scratch: np.ndarray
) -> SensingSystem:
    """``SensingSystem(phi, manifold)`` with Psi written into ``psi_out``, bit for bit.

    ``psi_out`` and ``scratch`` are C-contiguous and shaped as Psi; the norms
    use ``scratch`` for their Psi-sized temporary. The result's ``psi`` is
    ``psi_out``, so it is valid only until the caller reuses that buffer.
    """
    system = object.__new__(SensingSystem)
    system.phi, system.manifold = phi, manifold
    system._derive(psi_out, scratch)
    return system


def _dictionary(
    entries: np.ndarray, manifold: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Phi A for one Phi or a (T, m, N) stack, as one 2-D product over all T*m rows.

    One product is cheaper than T stacked ones. Each row of it is the dot
    products of one row of Phi, and each trial's rows round as that trial's
    own ``phi @ manifold`` does (the tests check this bit for bit). With
    ``out`` (C-contiguous, Psi's shape) the product is written there.
    """
    rows = entries.reshape(-1, entries.shape[-1])
    if out is None:
        return (rows @ manifold).reshape(entries.shape[:-1] + manifold.shape[-1:])
    np.matmul(rows, manifold, out=out.reshape(rows.shape[0], -1))
    return out


def _column_norms(psi: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """``np.linalg.norm(psi, axis=-2)`` bit for bit, with one Psi-sized temporary.

    ``linalg.norm`` computes ``(psi.conj() * psi).real`` and makes two: the
    conjugate and the product. Here the conjugate is multiplied by ``psi`` in
    place, the same operation in the same order, and its real parts are
    summed through a view. The temporary is ``scratch`` when given
    (C-contiguous, Psi's shape), otherwise a new array.
    """
    power = np.conjugate(psi, out=scratch)
    power *= psi
    return np.sqrt(np.add.reduce(power.real, axis=-2))
