"""Exception types shared across the package, and the integer check that raises one."""

from numbers import Integral


class EEOptError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(EEOptError, ValueError):
    """An array argument has the wrong shape for the given network."""


class DomainError(EEOptError, ValueError):
    """A numeric argument is outside the domain an operation supports."""


class InfeasibleInitialPointError(EEOptError):
    """The starting allocation violates the original constraint set."""


def check_integer(name: str, value, low: int) -> None:
    """A DomainError naming `name` unless `value` is an integer >= low; numpy integers
    count, a bool or a float (even 2.0) does not."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
