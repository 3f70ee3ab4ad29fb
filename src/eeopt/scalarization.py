"""Objective families combining total and minimum energy efficiency.

Three built-in objectives over x = total EE and y = min per-user EE:

* weighted product   x**w * y**(1-w)
* weighted minimum   min(x/w, y/(1-w))
* product of EEs     prod_i EE_i  (baseline; ignores the weight)

In log2 variables u = log2 x, v = log2 y the first two become the
concave functions w*u + (1-w)*v and min(u - log2 w, v - log2(1-w)),
which is what the convex subproblems maximize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "ScalarizationKind",
    "Scalarization",
    "weighted_product",
    "weighted_minimum",
    "product_ee",
    "log_objective",
]


class ScalarizationKind(Enum):
    WEIGHTED_PRODUCT = "weighted_product"
    WEIGHTED_MINIMUM = "weighted_minimum"
    PRODUCT_EE = "product_ee"


@dataclass(frozen=True)
class Scalarization:
    kind: ScalarizationKind
    weight: float = 0.5

    def __post_init__(self):
        w = float(self.weight)
        if not 0.0 <= w <= 1.0:
            raise DomainError(f"weight must be in [0, 1], got {w}")
        if self.kind is ScalarizationKind.WEIGHTED_MINIMUM and w in (0.0, 1.0):
            # min(x/w, y/(1-w)) divides by zero at the endpoints; pure
            # TEE or MEE maximization is the weighted product at w = 1 or 0.
            raise DomainError("weighted minimum needs weight strictly inside (0, 1)")
        object.__setattr__(self, "weight", w)


def weighted_product(weight: float) -> Scalarization:
    return Scalarization(ScalarizationKind.WEIGHTED_PRODUCT, weight)


def weighted_minimum(weight: float) -> Scalarization:
    return Scalarization(ScalarizationKind.WEIGHTED_MINIMUM, weight)


def product_ee() -> Scalarization:
    return Scalarization(ScalarizationKind.PRODUCT_EE, 0.5)


def log_objective(s: Scalarization, u: float, v: float) -> float:
    """Concave log-domain objective at u = log2 TEE, v = log2 MEE.

    The weighted product at w = 1 (w = 0) is u (v) alone, and only that
    term must be finite: the other has weight 0, as its column has in
    the subproblem.
    """
    w = s.weight
    if s.kind is ScalarizationKind.WEIGHTED_PRODUCT and w in (0.0, 1.0):
        term = u if w == 1.0 else v
        if not math.isfinite(term):
            raise DomainError(f"{'u' if w == 1.0 else 'v'} must be finite")
        return term
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError("u and v must be finite")
    if s.kind is ScalarizationKind.WEIGHTED_PRODUCT:
        return w * u + (1.0 - w) * v
    if s.kind is ScalarizationKind.WEIGHTED_MINIMUM:
        return min(u - math.log2(w), v - math.log2(1.0 - w))
    raise DomainError("product-EE objective is not a function of (u, v)")

