"""Concave minorants of the rate and efficiency functions in log-power space.

With q = log2 p, the true per-user rate

    R'_i(q) = B * sum_k log2(1 + gamma_i^k(2^q))

is neither convex nor concave. Around an expansion SINR gamma' we apply
the bound log2(1 + g) >= a*log2 g + b with a = g'/(1+g') and
b = log2(1+g') - a*log2 g', which is tight (same value and derivative)
at g = g'. Substituting the SINR expression turns the bounded rate into

    rate_i(q) = B * sum_k [ b + a*log2 w_ii + a*q_i^k
                            - a*log2(sum_{j!=i} w_ji * 2^{q_j^k} + noise) ]

which is concave in q (affine minus a scaled log-sum-exp). The derived
functions bounding the efficiency constraints,

    psi_i(q, v) = rate_i(q) - (mu_i * sum_k 2^{q_i^k} + P_st,i) * 2^v
    g(q, u)     = sum_i rate_i(q) - (sum_i mu_i sum_k 2^{q_i^k} + sum_i P_st,i) * 2^u

are concave in (q, v) and (q, u) and strictly decreasing in the threshold
variable. This module expands the bound and sums the interference; the
rates, psi and g exist only as the subproblem's constraint rows, which
`solver.ConvexSubproblem` alone builds from a and b, with every
derivative. At the expansion point the roots of psi and g are the
report's log2 EE_i and log2 TEE.

One evaluation pass, `rate_evaluation`, returns 2^q and the interference
summed in linear power, total_ik = sum_{j!=i} w_ji 2^{q_j^k} + noise_ik,
by calling the instance's one interference kernel,
`network.interference_plus_noise`, at p = 2^q. The solver takes log2 of
the sum once for the rows, and forms the interference shares
s_jik = w_ji 2^{q_j^k} / total_ik from the instance's cross-gain table:

    d rate_i / d q_j^k = B a_i^k (delta_ij - s_jik)
    hess_k rate_i      = -B a_i^k ln2 (diag(s_ik) - s_ik s_ik')

The terms are the received powers `network.evaluate` adds, from the same
table in the same order, so the surrogate is tight at the expansion SINR
the caller's network pass reports, both taking log2(1 + g) by log1p.
The sum needs no max-exponent stabilization: a term that overflows makes
its point's values non-finite, never finite and wrong, so overflow can
only get a trial step rejected by the solver's line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, check_number
from .network import MetricsReport, NetworkInstance, interference_plus_noise

__all__ = [
    "SurrogateModel",
    "bound_coefficients",
    "build",
    "rate_evaluation",
]

LN2 = math.log(2.0)


def bound_coefficients(gamma_prime):
    """Coefficients (a, b) of the logarithmic lower bound at expansion SINR.

    a = g'/(1+g'), b = log2(1+g') - a*log2 g', with log2(1+g') as
    log1p(g') / ln 2; the conventions log2 0 = -inf and 0*log2 0 = 0 give
    (0, 0) for g' = 0. Accepts scalars or arrays.
    """
    check_number("expansion SINR", gamma_prime, 0)
    g = np.asarray(gamma_prime, dtype=float)
    a = g / (1.0 + g)
    b = np.log1p(g) / LN2 - a * np.log2(g, out=np.zeros_like(g), where=g > 0)
    if np.ndim(gamma_prime) == 0:
        return float(a), float(b)
    return a, b


@dataclass(frozen=True)
class SurrogateModel:
    """The bound expanded at one allocation, fixed for one subproblem."""

    instance: NetworkInstance
    a: np.ndarray               # (N, K), in [0, 1)
    b: np.ndarray               # (N, K)
    expansion_q: np.ndarray     # (N, K), log2 of the expansion powers
    log2_ee_total: float        # log2 TEE at the expansion point, the root of g there
    log2_ee: np.ndarray         # (N,) log2 EE_i there, the roots of psi_i


def build(instance: NetworkInstance, alloc: np.ndarray, report: MetricsReport) -> SurrogateModel:
    """Expand the bound at a strictly positive allocation, given its metrics report.

    `report` is `evaluate(instance, alloc)`, as the caller's network pass
    returned it. The bound is tight there, so the report's log2 TEE and
    log2 EE_i are the exact efficiency roots (-inf for an EE of 0).
    """
    p = np.asarray(alloc, dtype=float)
    gamma = report.sinr
    if p.shape != (instance.n_users, instance.n_blocks) or gamma.shape != p.shape:
        raise ShapeError(f"allocation shape {p.shape} or SINR shape {gamma.shape} "
                         "does not match instance")
    if np.any(p <= 0):
        raise DomainError(
            "surrogate expansion needs strictly positive powers (q = log2 p must be "
            "finite); start from a strictly positive allocation"
        )
    a, b = bound_coefficients(gamma)
    with np.errstate(divide="ignore"):
        log2_ee_total, log2_ee = float(np.log2(report.ee_total)), np.log2(report.ee)
    return SurrogateModel(instance=instance, a=a, b=b, expansion_q=np.log2(p),
                          log2_ee_total=log2_ee_total, log2_ee=log2_ee)


def rate_evaluation(model: SurrogateModel, q: np.ndarray):
    """Sum the interference at q in one pass: (2^q (N, K), user i's interference
    plus noise at [k, i])."""
    q = np.asarray(q, dtype=float)
    if q.shape != model.expansion_q.shape:
        raise ShapeError(f"q shape {q.shape} does not match instance {model.expansion_q.shape}")
    power = np.exp2(q)
    return power, interference_plus_noise(model.instance, power)
