"""Exception hierarchy and the input checks shared across the package."""

import math


class CanopyError(Exception):
    """Base class for all canopy errors."""


class DomainError(CanopyError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class RangeError(CanopyError, ValueError):
    """A target value is not attained by the curve being inverted."""


class IntegrationError(CanopyError, ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""


class ValidationError(CanopyError, ValueError):
    """A value violates a domain type's invariants."""


class ParseError(CanopyError, ValueError):
    """An input file could not be parsed.

    Carries the 1-based data row number where the problem was found
    (``None`` for file-level problems such as a bad header).
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class UnderdeterminedError(CanopyError, ValueError):
    """A regression segment does not contain enough points to fit a line."""


class UnknownSpeciesError(CanopyError, ValueError):
    """A wood type or size class name is not one of the known values."""


def anywhere(mask) -> bool:
    """Truth of a comparison made on a float or on an ndarray.

    A float comparison gives a ``bool``, taken as it is; an ndarray (or a
    numpy scalar) gives a boolean array, true here if any element is.  One
    domain check thereby serves scalar and vectorized callers alike.
    """
    return mask if mask.__class__ is bool else bool(mask.any())


def require_finite(owner: str, **values: float) -> None:
    """Raise :class:`ValidationError` naming the first of ``values`` that
    is nan or infinite; ``owner`` prefixes the message."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{owner}: {name} must be finite, got {value}")
