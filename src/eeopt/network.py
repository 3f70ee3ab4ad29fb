"""Physical model of an interference-limited multi-carrier network.

Conventions used throughout the package:

* powers are in watts, bandwidth in Hz, rates in bit/s, energy
  efficiencies in bit/J; dB and dBm never appear below the config layer,
* a power allocation is a plain ``(N, K)`` float array ``p[i, k]`` giving
  the transmit power of user ``i`` on resource block ``k``,
* channel gains are a dense ``(N, N, K)`` array ``gain[j, i, k]``: linear
  power gain from transmitter ``j`` to the receiver user ``i`` is
  associated with, on block ``k``.

The instance owns the one interference computation. It lays its gains out
once, block-major: the cross gains w_ji at ``[k, i, j]`` with a zero
diagonal, and the noise at ``[k, i]``. `interference_plus_noise` forms
sum_{j != i} w_ji p_j^k + noise_i^k from them in one batched product;
`evaluate`, the one SINR entry point, and the surrogate's rate pass (at
p = 2^q) both call it.
No term is found as everything received minus the direct power, which
cancels when the direct power dominates.

A `MetricsReport` stores what `evaluate` measures, the SINRs, rates,
consumed powers and EEs, and reads off them the rate and power totals,
the TEE (total rate over total power), the MEE (the smallest EE) and the
EEs' Jain index. A `FeasibilityResult` is `ok` when it lists no violation.

All types are immutable after construction and every operation is pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, check_number

__all__ = [
    "NetworkInstance",
    "MetricsReport",
    "Violation",
    "FeasibilityResult",
    "interference_plus_noise",
    "evaluate",
    "is_feasible",
    "jain_index",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class NetworkInstance:
    """Immutable description of users, blocks, channels and power limits.

    Scalar values for the per-user fields are broadcast to all users.
    """

    bandwidth_per_block: float
    gain: np.ndarray              # (N, N, K) linear, >= 0, direct entries > 0
    noise: np.ndarray             # (N, K) W, > 0
    amp_inefficiency: np.ndarray  # (N,) dimensionless, >= 1
    static_power: np.ndarray      # (N,) W, > 0
    max_power: np.ndarray         # (N,) W, > 0
    min_rate: np.ndarray          # (N,) bit/s, >= 0

    def __post_init__(self):
        for name, low, strict in (("bandwidth_per_block", 0, True), ("noise", 0, True),
                                  ("amp_inefficiency", 1, False), ("static_power", 0, True),
                                  ("max_power", 0, True), ("min_rate", 0, False)):
            check_number(name, getattr(self, name), low, strict=strict)
        gain = np.asarray(self.gain, dtype=float)
        if gain.ndim != 3 or gain.shape[0] != gain.shape[1]:
            raise ShapeError(f"gain must be (N, N, K), got {gain.shape}")
        n, _, k = gain.shape
        if n < 1 or k < 1:
            raise ShapeError("need at least one user and one block")

        def per_user(name, value):
            arr = np.asarray(value, dtype=float)
            if arr.ndim == 0:
                arr = np.full(n, float(arr))
            if arr.shape != (n,):
                raise ShapeError(f"{name} must be scalar or shape ({n},), got {arr.shape}")
            return arr

        noise = np.asarray(self.noise, dtype=float)
        if noise.ndim == 0:
            noise = np.full((n, k), float(noise))
        if noise.shape != (n, k):
            raise ShapeError(f"noise must be scalar or shape ({n}, {k}), got {noise.shape}")

        object.__setattr__(self, "gain", _frozen(gain))
        object.__setattr__(self, "noise", _frozen(noise))
        object.__setattr__(self, "amp_inefficiency", _frozen(per_user("amp_inefficiency", self.amp_inefficiency)))
        object.__setattr__(self, "static_power", _frozen(per_user("static_power", self.static_power)))
        object.__setattr__(self, "max_power", _frozen(per_user("max_power", self.max_power)))
        object.__setattr__(self, "min_rate", _frozen(per_user("min_rate", self.min_rate)))
        object.__setattr__(self, "bandwidth_per_block", float(self.bandwidth_per_block))
        idx = np.arange(n)
        object.__setattr__(self, "_direct_gain", _frozen(gain[idx, idx, :]))
        cross = gain.transpose(2, 1, 0).copy()
        cross[:, idx, idx] = 0.0
        object.__setattr__(self, "_cross_gain", _frozen(cross))
        object.__setattr__(self, "_block_noise", _frozen(noise.T))

        if np.any(gain < 0) or not np.all(np.isfinite(gain)):
            raise DomainError("gains must be finite and nonnegative")
        if np.any(self.direct_gain() <= 0):
            raise DomainError("direct gains gain[i, i, k] must be strictly positive")

    @property
    def n_users(self) -> int:
        return self.gain.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.gain.shape[2]

    def direct_gain(self) -> np.ndarray:
        """The (N, K) array of gains from each user to its own receiver (read-only)."""
        return self._direct_gain

    def cross_gain(self) -> np.ndarray:
        """The (K, N, N) gains w_ji from interferer j to user i at [k, i, j], zero for j = i (read-only)."""
        return self._cross_gain


@dataclass(frozen=True)
class MetricsReport:
    """Everything measurable about one allocation on one instance: the measured
    arrays, and the totals, TEE, MEE and Jain index read off them."""

    sinr: np.ndarray         # (N, K)
    rate: np.ndarray         # (N,) bit/s
    power: np.ndarray        # (N,) W (consumed, incl. static)
    ee: np.ndarray           # (N,) bit/J

    @property
    def rate_total(self) -> float:
        return float(self.rate.sum())

    @property
    def power_total(self) -> float:
        return float(self.power.sum())

    @property
    def ee_total(self) -> float:
        return self.rate_total / self.power_total

    @property
    def ee_min(self) -> float:
        return float(self.ee.min())

    @property
    def jain_index(self) -> float:
        return jain_index(self.ee)


@dataclass(frozen=True)
class Violation:
    """One failed constraint: `slack` is negative by how much it fails."""

    kind: str                # "nonnegativity" | "power_budget" | "min_rate"
    index: tuple
    slack: float


@dataclass(frozen=True)
class FeasibilityResult:
    violations: list[Violation]
    report: MetricsReport    # the metrics the check read, at the allocation clipped to >= 0

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_alloc(instance: NetworkInstance, alloc: np.ndarray, nonneg: bool = True) -> np.ndarray:
    p = np.asarray(alloc, dtype=float)
    expected = (instance.n_users, instance.n_blocks)
    if p.shape != expected:
        raise ShapeError(f"allocation shape {p.shape} does not match instance {expected}")
    if not (p.min() >= 0 and p.max() < np.inf):        # False on nan
        if not np.isfinite(p).all():
            raise DomainError("allocation entries must be finite")
        if nonneg:
            raise DomainError("allocation entries must be nonnegative")
    return p


def interference_plus_noise(instance: NetworkInstance, power: np.ndarray) -> np.ndarray:
    """User i's interference plus noise on block k at [k, i], for (N, K) powers."""
    return np.matmul(instance.cross_gain(), power.T[:, :, None])[:, :, 0] + instance._block_noise


def jain_index(values: np.ndarray) -> float:
    """Jain fairness index (sum v)^2 / (n sum v^2); all-zero input counts as fair.

    The values are divided by their largest magnitude before squaring, so
    tiny values whose squares would underflow keep the index in [1/n, 1].
    """
    v = np.asarray(values, dtype=float)
    peak = np.abs(v).max() if v.size else 0.0
    if peak == 0.0:
        return 1.0
    v = v / peak
    return float(v.sum() ** 2 / (v.size * np.sum(v * v)))


def evaluate(instance: NetworkInstance, alloc: np.ndarray) -> MetricsReport:
    """SINRs (direct power over interference plus noise), rates, consumed powers
    and energy efficiencies for one allocation."""
    p = _check_alloc(instance, alloc)
    gamma = instance.direct_gain() * p / interference_plus_noise(instance, p).T
    rate = instance.bandwidth_per_block * np.log1p(gamma).sum(axis=1) / math.log(2.0)
    power = instance.amp_inefficiency * p.sum(axis=1) + instance.static_power
    ee = rate / power
    for a in (gamma, rate, power, ee):      # fresh arrays, frozen in place
        a.setflags(write=False)
    return MetricsReport(sinr=gamma, rate=rate, power=power, ee=ee)


def is_feasible(instance: NetworkInstance, alloc: np.ndarray, tol: float = 0.0) -> FeasibilityResult:
    """Check an allocation against nonnegativity, power budgets and rate floors.

    `tol` is a finite relative slack >= 0: power sums may exceed the budget by a factor
    (1 + tol) and rates may fall short of the floor by a factor (1 - tol).
    The result carries the one metrics report the check evaluated.
    """
    check_number("tol", tol, 0)
    p = np.asarray(alloc, dtype=float)
    violations: list[Violation] = []
    if p.size and p.min() < 0:
        # rates are evaluated on the clipped allocation, which `evaluate` checks
        p = _check_alloc(instance, p, nonneg=False)
        for i, k in zip(*np.nonzero(p < 0)):
            violations.append(Violation("nonnegativity", (int(i), int(k)), float(p[i, k])))
        p = np.maximum(p, 0.0)
    report = evaluate(instance, p)

    # per user its budget, then its floor: (kind, flagged, slack)
    used = p.sum(axis=1)
    checks = [("power_budget", used > instance.max_power * (1.0 + tol), instance.max_power - used),
              ("min_rate", report.rate < instance.min_rate * (1.0 - tol), report.rate - instance.min_rate)]
    for i in np.flatnonzero(checks[0][1] | checks[1][1]):
        violations += [Violation(kind, (int(i),), float(slack[i])) for kind, bad, slack in checks if bad[i]]

    return FeasibilityResult(violations=violations, report=report)
