"""Exception types, and the checks on counts and parameters, shared across the package."""

import math

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


def checked_n(n, minimum: int = 2) -> int:
    """n as an int; InvalidInputError unless it is an integer >= minimum."""
    if int(n) != n or n < minimum:
        raise InvalidInputError(f"n must be an integer >= {minimum}, got {n!r}")
    return int(n)


def checked_finite(value, name: str) -> float:
    """value as a float; InvalidInputError naming it unless it is finite."""
    x = float(value)
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x!r}")
    return x
