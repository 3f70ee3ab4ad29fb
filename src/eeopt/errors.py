"""Exception types, and the two checks behind every range check in the library: counts must be
integers, and numbers and arrays finite, not boolean and in range, or a DomainError names them."""

import math
import sys
from numbers import Integral

import numpy as np


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


def check_number(name: str, value, low=-math.inf, high=math.inf, strict=False) -> None:
    """A DomainError naming `name` unless the number or array `value` is finite, not a
    boolean, and in [low, high], or (low, high] when `strict`; a Python scalar skips numpy."""
    ok = False
    if isinstance(value, (int, float)):
        # finite, and an int inside the float range, without converting it
        ok = (not isinstance(value, bool) and abs(value) <= sys.float_info.max
              and (low < value if strict else low <= value) and value <= high)
    elif (a := np.asarray(value)).dtype.kind in "iuf":    # not boolean, complex, text or object
        inside = np.isfinite(a) & ((a > low) if strict else (a >= low))
        if high < math.inf:
            inside &= a <= high
        ok = bool(inside.all())
    if not ok:
        rule = (f" and in {'(' if strict else '['}{low:g}, {high:g}]" if high < math.inf
                else f" and {'>' if strict else '>='} {low:g}" if low > -math.inf else "")
        raise DomainError(f"{name} must be finite{rule}, got {value!r}")
