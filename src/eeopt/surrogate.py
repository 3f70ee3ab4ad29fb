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
sum_{j!=i} w_ji 2^{q_j^k} + noise_ik, as one batched product with a
zero-diagonal cross-gain table, and takes log2 of it once. The solver
reads the interference shares s_jik = w_ji 2^{q_j^k} / total_ik from it:

    d rate_i / d q_j^k = B a_i^k (delta_ij - s_jik)
    hess_k rate_i      = -B a_i^k ln2 (diag(s_ik) - s_ik s_ik')

The sum needs no max-exponent stabilization: a term that overflows makes
its point's values non-finite, never finite and wrong, so overflow can
only get a trial step rejected by the solver's line search. Within the
power budget the terms are the received powers `network.sinr` adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .network import NetworkInstance

__all__ = [
    "BoundCoefficients",
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
class BoundCoefficients:
    a: np.ndarray               # (N, K), in [0, 1)
    b: np.ndarray               # (N, K)
    expansion_sinr: np.ndarray  # (N, K)


@dataclass(frozen=True)
class SurrogateModel:
    """Bound coefficients plus the expansion point, fixed for one subproblem."""

    instance: NetworkInstance
    coefficients: BoundCoefficients
    expansion_q: np.ndarray     # (N, K), log2 of the expansion powers

    # the instance-only tables: cross gains w_ji with a zero diagonal at [k, i, j],
    # log2 direct gains (N, K) and noise at [k, i]; computed here unless `build`
    # takes them from a model of the instance
    instance_tables: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        inst = self.instance
        if self.instance_tables is None:
            cross = inst.gain.transpose(2, 1, 0).copy()
            idx = np.arange(inst.n_users)
            cross[:, idx, idx] = 0.0
            tables = (cross, np.log2(inst.direct_gain()), inst.noise.T.copy())
            object.__setattr__(self, "instance_tables", tables)
        # the constant part of each rate term, b + a log2 w_ii, and its slope B a
        c = self.coefficients
        object.__setattr__(self, "rate_offset", c.b + c.a * self.instance_tables[1])
        object.__setattr__(self, "rate_slope", inst.bandwidth_per_block * c.a)


def build(instance: NetworkInstance, alloc: np.ndarray, expansion_sinr: np.ndarray,
          previous: SurrogateModel | None = None) -> SurrogateModel:
    """Expand the bound at a strictly positive allocation, given its SINRs.

    `expansion_sinr` is `sinr(instance, alloc)`, as the caller's metrics
    report of the allocation already holds it. `previous`, an earlier
    model of the same instance, lends its instance-only tables.
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
    coeffs = BoundCoefficients(a=a, b=b, expansion_sinr=gamma)
    tables = previous.instance_tables if previous is not None and previous.instance is instance else None
    return SurrogateModel(instance=instance, coefficients=coeffs, expansion_q=np.log2(p),
                          instance_tables=tables)


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
        terms = m.rate_offset + m.coefficients.a * (self.q - self.log_total.T)
        return m.instance.bandwidth_per_block * terms.sum(axis=1)

    def shares(self, out: np.ndarray) -> np.ndarray:
        """The interference shares s_jik at [k, i, j], written into `out`."""
        np.multiply(self.model.instance_tables[0], self.power.T[:, None, :], out=out)
        out /= self.total[:, :, None]
        return out


def rate_evaluation(model: SurrogateModel, q: np.ndarray) -> RateEvaluation:
    """Sum the interference at q in one pass; the rates follow from it on demand."""
    q = np.asarray(q, dtype=float)
    if q.shape != model.expansion_q.shape:
        raise ShapeError(f"q shape {q.shape} does not match instance {model.expansion_q.shape}")
    cross, _, noise = model.instance_tables
    power = np.exp2(q)
    total = np.matmul(cross, power.T[:, :, None])[:, :, 0] + noise
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
