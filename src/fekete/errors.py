"""Exception types shared across the package."""

__all__ = [
    "FeketeError",
    "InvalidInputError",
    "DegenerateInputError",
    "SingularParameterError",
    "NumericalError",
]


class FeketeError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(FeketeError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class DegenerateInputError(InvalidInputError):
    """A point configuration contains coincident points."""


class SingularParameterError(FeketeError, ValueError):
    """A parameter hits a pole or an excluded line of a closed-form expression."""


class NumericalError(FeketeError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""
