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
variable. This module evaluates the rates; psi and g exist only as the
subproblem's constraint rows, assembled from those rates in one place,
`solver.ConvexSubproblem`, which also builds every derivative.

One evaluation pass sums the interference in linear power, total_ik =
sum_{j!=i} w_ji 2^{q_j^k} + noise_ik, by calling the instance's one
interference kernel, `network.interference_plus_noise`, at p = 2^q, and
takes log2 of it once. The solver reads the interference shares
s_jik = w_ji 2^{q_j^k} / total_ik from the instance's cross-gain table:

    d rate_i / d q_j^k = B a_i^k (delta_ij - s_jik)
    hess_k rate_i      = -B a_i^k ln2 (diag(s_ik) - s_ik s_ik')

The terms are the received powers `network.sinr` adds, from the same
table in the same order, so the surrogate is tight at the expansion SINR
the caller's network pass reports. The sum needs no max-exponent
stabilization: a term that overflows makes its point's values
non-finite, never finite and wrong, so overflow can only get a trial
step rejected by the solver's line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .network import NetworkInstance, interference_plus_noise

__all__ = [
    "SurrogateModel",
    "RateEvaluation",
    "bound_coefficients",
    "build",
    "rate_evaluation",
    "efficiency_roots",
]

LN2 = math.log(2.0)


def bound_coefficients(gamma_prime):
    """Coefficients (a, b) of the logarithmic lower bound at expansion SINR.

    a = g'/(1+g'), b = log2(1+g') - a*log2 g'; the conventions
    log2 0 = -inf and 0*log2 0 = 0 give (0, 0) for g' = 0.
    Accepts scalars or arrays.
    """
    g = np.asarray(gamma_prime, dtype=float)
    if np.any(~np.isfinite(g)) or np.any(g < 0):
        raise DomainError("expansion SINR must be finite and nonnegative")
    a = g / (1.0 + g)
    b = np.log2(1.0 + g) - a * np.log2(g, out=np.zeros_like(g), where=g > 0)
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
    rate_offset: np.ndarray     # (N, K): the constant part of each rate term, b + a log2 w_ii
    rate_slope: np.ndarray      # (N, K): its slope, B a


def build(instance: NetworkInstance, alloc: np.ndarray, expansion_sinr: np.ndarray) -> SurrogateModel:
    """Expand the bound at a strictly positive allocation, given its SINRs.

    `expansion_sinr` is `sinr(instance, alloc)`, as the caller's metrics
    report of the allocation already holds it.
    """
    p = np.asarray(alloc, dtype=float)
    gamma = np.asarray(expansion_sinr, dtype=float)
    if p.shape != (instance.n_users, instance.n_blocks) or gamma.shape != p.shape:
        raise ShapeError(f"allocation shape {p.shape} or SINR shape {gamma.shape} "
                         "does not match instance")
    if np.any(p <= 0):
        raise DomainError(
            "surrogate expansion needs strictly positive powers (q = log2 p must be "
            "finite); start from a strictly positive allocation"
        )
    a, b = bound_coefficients(gamma)
    return SurrogateModel(instance=instance, a=a, b=b, expansion_q=np.log2(p),
                          rate_offset=b + a * np.log2(instance.direct_gain()),
                          rate_slope=instance.bandwidth_per_block * a)


@dataclass(slots=True)
class RateEvaluation:
    """The interference at one q; the surrogate rates there on demand."""

    model: SurrogateModel
    q: np.ndarray           # (N, K)
    power: np.ndarray       # (N, K): 2^q
    total: np.ndarray       # (K, N): user i's interference plus noise at [k, i]
    log_total: np.ndarray   # (K, N)

    @property
    def rates(self) -> np.ndarray:
        """(N,) surrogate rates in bit/s."""
        m = self.model
        terms = m.rate_offset + m.a * (self.q - self.log_total.T)
        return m.instance.bandwidth_per_block * terms.sum(axis=1)

    def shares(self, out: np.ndarray) -> np.ndarray:
        """The interference shares s_jik at [k, i, j], written into `out`."""
        np.multiply(self.model.instance.cross_gain(), self.power.T[:, None, :], out=out)
        out /= self.total[:, :, None]
        return out


def rate_evaluation(model: SurrogateModel, q: np.ndarray) -> RateEvaluation:
    """Sum the interference at q in one pass; the rates follow from it on demand."""
    q = np.asarray(q, dtype=float)
    if q.shape != model.expansion_q.shape:
        raise ShapeError(f"q shape {q.shape} does not match instance {model.expansion_q.shape}")
    power = np.exp2(q)
    total = interference_plus_noise(model.instance, power)
    return RateEvaluation(model, q, power, total, np.log2(total))


def efficiency_roots(instance: NetworkInstance, q: np.ndarray, rates: np.ndarray):
    """Thresholds at which the efficiency slacks vanish at q.

    `rates` are the surrogate rates at q, as the caller's last rate pass
    there returned them. Both slack functions are affine in the
    exponentiated threshold, so the roots are exact: 2^u = total surrogate
    rate / total consumed power and 2^{v_i} = rate_i / consumed_i. Returns
    (u_root, v_roots); entries are -inf where the surrogate rate is
    nonpositive.
    """
    consumed = instance.amp_inefficiency * np.exp2(q).sum(axis=1) + instance.static_power
    with np.errstate(divide="ignore", invalid="ignore"):
        v_roots = np.where(rates > 0, np.log2(np.maximum(rates, 1e-300) / consumed), -np.inf)
        total = rates.sum()
        u_root = float(np.log2(total / consumed.sum())) if total > 0 else -np.inf
    return u_root, v_roots
