"""Shared exception types."""


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
