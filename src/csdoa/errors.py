"""Exception types shared across the package, and its integer-setting check."""

from numbers import Integral


class CsdoaError(Exception):
    """Base class for all csdoa errors."""


class NonPositiveStepError(CsdoaError, ValueError):
    """Grid step must be finite and strictly positive."""


class EmptyGridError(CsdoaError, ValueError):
    """Grid start lies beyond its stop."""


class AngleOutOfRangeError(CsdoaError, ValueError):
    """Angle outside the supported [-90, 90] degree range."""


class OffGridSourceError(CsdoaError, ValueError):
    """Source direction does not coincide with any grid angle."""


class DimensionMismatchError(CsdoaError, ValueError):
    """Operand shapes are incompatible."""


class RankDeficientError(CsdoaError, ArithmeticError):
    """Selected columns are numerically rank deficient."""


class InstanceTooLargeError(CsdoaError, ValueError):
    """Problem too large to set up: an exhaustive search, an uncountable grid or a huge Psi."""


def integer(value: object, name: str) -> int:
    """``value`` as a Python int; raises TypeError unless it is an integer.

    Python and numpy integers pass; ``bool`` and floats, even integral ones
    such as ``15.0``, do not.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)
