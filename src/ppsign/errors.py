"""Exception types shared across the package, and the two argument checks:
an integer argument is an int, and a rational one an int or a Fraction."""

from fractions import Fraction
from typing import Sequence


class PPSignError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PPSignError, ValueError):
    """Matrix or argument dimensions are unusable (non-square, odd, mismatched)."""


class ShapeError(PPSignError, ValueError):
    """Box shape is incompatible with the requested symmetry class."""


class InvalidInputError(PPSignError, ValueError):
    """Input violates a documented precondition."""


class UnsupportedClassError(PPSignError, ValueError):
    """The operation is not defined for this symmetry class or parity case."""


class ResourceLimitError(PPSignError, RuntimeError):
    """A configured node/subset budget was exceeded; never a silent truncation."""


class SingularParameterError(PPSignError, ZeroDivisionError):
    """A parameter makes a denominator factor vanish."""


class DomainError(PPSignError, ValueError):
    """Arguments leave the domain where a formula is defined (e.g. (-1)!)."""


class NeedsMoreSamplesError(PPSignError, ValueError):
    """Polynomial reconstruction was handed too few sample points."""


class InternalConsistencyError(PPSignError, AssertionError):
    """Two routes that must agree exactly did not; indicates a bug."""


def require_int(values: tuple[object, ...], what: str) -> None:
    """Raise InvalidInputError unless every value is an int; what names one."""
    for x in values:
        if not isinstance(x, int):
            raise InvalidInputError(f"{what} must be an int, got {x!r}")


def require_rational(values: Sequence[object]) -> None:
    """Raise InvalidInputError unless every value is an int or a Fraction."""
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise InvalidInputError(f"expected an int or a Fraction, got {x!r}")
