"""Exception types shared across the package."""


class EEOptError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(EEOptError, ValueError):
    """An array argument has the wrong shape for the given network."""


class DomainError(EEOptError, ValueError):
    """A numeric argument is outside the domain an operation supports."""


class InfeasibleInitialPointError(EEOptError):
    """The starting allocation violates the original constraint set."""
