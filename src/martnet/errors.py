"""Shared exception types, and the one size check the modules share."""

import numbers


class MartnetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(MartnetError, ValueError):
    """A model or scheme parameter violates its precondition."""


class DomainError(MartnetError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class UnsupportedDimensionError(MartnetError, ValueError):
    """Requested dimension exceeds the generator's direction-number table."""


class UnknownSchemeError(MartnetError, ValueError):
    """Scheme tag not one of the supported kernels."""


class ShapeError(MartnetError, ValueError):
    """Array shapes inconsistent with the requested operation."""


class NumericError(MartnetError, ArithmeticError):
    """A computation produced non-finite values; the message names the site."""


class UsageError(MartnetError, ValueError):
    """Invalid combination of CLI or configuration options."""


class WriteError(MartnetError, OSError):
    """A file could not be written; the message names it."""


def check_count(name, value, least):
    """Refuse by name a ``value`` that is not an integer >= ``least``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")
