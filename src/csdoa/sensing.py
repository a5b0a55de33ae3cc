"""Measurement-matrix draw, snapshot compression, and the effective dictionary.

Phi is a plain (m, N) array. Compression is ``y = Phi x``; the sparse-recovery
dictionary is ``Psi = Phi A(theta)``, held with its column norms in one
trial's :class:`SensingSystem`. The Monte Carlo engine draws a chunk's Gaussian
Phi stack with :func:`gaussian_stack`, each trial from its own generator (a
lone draw is its stack of one), and builds its Psi and column norms as plain
arrays, one product per trial as :class:`SensingSystem` forms one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, integer

GAUSSIAN = "gaussian"
IDENTITY = "identity"
MEASUREMENT_KINDS = (GAUSSIAN, IDENTITY)


@dataclass(eq=False)
class SensingSystem:
    """The pair (Phi, A) together with Psi = Phi A and its column norms.

    ``psi`` (m x N_s) and ``column_norms`` (N_s) are computed here from
    ``phi`` and ``manifold`` and cannot be passed in, so Psi = Phi A holds by
    construction.
    """

    phi: np.ndarray
    manifold: np.ndarray
    psi: np.ndarray = field(init=False)
    column_norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.phi, self.manifold = _checked_phi(self.phi), np.asarray(self.manifold)
        if self.manifold.ndim != 2:
            raise DimensionMismatchError(
                f"the manifold must be an (N, N_s) matrix, got shape {self.manifold.shape}"
            )
        if self.phi.shape[1] != self.manifold.shape[0]:
            raise DimensionMismatchError(
                f"Phi has {self.phi.shape[1]} columns but the dictionary has "
                f"{self.manifold.shape[0]} rows"
            )
        # Checked before the product, which would warn on inf arithmetic.
        if not np.isfinite(self.manifold).all():
            raise ValueError("the manifold must hold only finite entries")
        self.psi = self.phi @ self.manifold
        self.column_norms = norms = _column_norms(self.psi)
        if not (np.isfinite(norms) & (norms > 0.0)).all():
            raise ValueError("every psi column must have a positive finite norm")

    @property
    def num_measurements(self) -> int:
        return self.psi.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.psi.shape[1]


def min_measurements(num_sources: int, signal_len: int) -> int:
    """Smallest integer strictly greater than ``num_sources * ln(signal_len)``."""
    num_sources, signal_len = integer(num_sources, "num_sources"), integer(signal_len, "signal_len")
    if num_sources < 1:
        raise ValueError(f"num_sources must be >= 1, got {num_sources}")
    if signal_len < 2:
        raise ValueError(f"signal_len must be >= 2, got {signal_len}")
    return int(math.floor(num_sources * math.log(signal_len))) + 1


def draw_measurement_matrix(m: int, n: int, kind: str, seed: int = 0) -> np.ndarray:
    """Draw an (m, n) complex measurement matrix of the given kind.

    ``gaussian`` entries are i.i.d. circular complex Gaussian with real and
    imaginary parts N(0, 1/(2m)), giving unit expected column energy.
    ``identity`` requires m == n and takes no random draws; ``seed`` seeds
    the Gaussian draw.
    """
    m, n = integer(m, "m"), integer(n, "n")
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    if kind == IDENTITY:
        if m != n:
            raise DimensionMismatchError(f"identity measurement requires m == n, got {m} x {n}")
        return np.eye(n, dtype=complex)
    if kind == GAUSSIAN:
        return gaussian_stack(m, n, [np.random.default_rng(seed)])[0]
    raise ValueError(f"unknown measurement kind {kind!r}")


def gaussian_stack(m: int, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """(T, m, n) Gaussian Phi entries, trial k's drawn from ``rngs[k]``.

    Each trial draws ``standard_normal`` into its own (2, m, n) block, the
    real parts then the imaginary parts, as two ``(m, n)`` calls would; the
    scaling then runs once for the stack, elementwise, so each matrix is
    what its trial alone gives bit for bit.
    """
    normals = np.empty((len(rngs), 2, m, n))
    for k, rng in enumerate(rngs):
        rng.standard_normal(out=normals[k])
    return math.sqrt(1.0 / (2.0 * m)) * (normals[:, 0] + 1j * normals[:, 1])


def compress(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact matrix-vector product ``y = Phi x`` for one snapshot ``x`` of length N."""
    phi, x = _checked_phi(phi), np.asarray(x)
    if x.shape != (phi.shape[1],):
        raise DimensionMismatchError(f"x must be a vector of length {phi.shape[1]}, got {x.shape}")
    return phi @ x


def build_sensing_system(phi: np.ndarray, manifold: np.ndarray) -> SensingSystem:
    """Form Psi = Phi A and its column norms."""
    return SensingSystem(phi, manifold)


def _checked_phi(phi) -> np.ndarray:
    """``phi`` as an array; ValueError unless it is a finite matrix with at least one row."""
    phi = np.asarray(phi)
    if phi.ndim != 2 or phi.shape[0] < 1:
        raise ValueError(f"Phi must be a matrix with at least one row, got shape {phi.shape}")
    # Checked before any product with Phi, whose inf arithmetic would warn.
    if not np.isfinite(phi).all():
        raise ValueError("Phi must hold only finite entries")
    return phi


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
