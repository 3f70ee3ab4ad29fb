"""Reference evaluation of an allocation, written apart from the package.

It reads only the raw arrays of a network instance and never imports
``eeopt.network`` or ``eeopt.surrogate``, so the benchmark checks the
package's metrics and trajectories against a second computation instead
of against the code that produced them.

Interference is summed over the other transmitters directly rather than
as "everything received minus the direct term", and the Jain index is
scaled by its largest entry before squaring, so it stays inside
[1/n, 1] for values whose squares would underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Reference:
    sinr: np.ndarray        # (N, K)
    rate: np.ndarray        # (N,) bit/s
    consumed: np.ndarray    # (N,) W, amplifier share plus static power
    ee: np.ndarray          # (N,) bit/J
    tee: float              # total rate over total consumed power
    mee: float              # smallest per-user EE
    jain: float


def jain(values) -> float:
    v = np.asarray(values, dtype=float)
    top = float(np.abs(v).max()) if v.size else 0.0
    if top == 0.0:
        return 1.0
    s = v / top
    return float(s.sum() ** 2 / (v.size * float((s * s).sum())))


def evaluate(instance, alloc) -> Reference:
    """SINR, rates, consumed powers and efficiencies of one allocation."""
    gain = np.asarray(instance.gain, dtype=float)          # gain[j, i, k]
    p = np.asarray(alloc, dtype=float)
    n = gain.shape[0]
    direct = np.empty_like(p)
    interference = np.empty_like(p)
    for i in range(n):
        direct[i] = gain[i, i] * p[i]
        others = [j for j in range(n) if j != i]
        interference[i] = (gain[others, i] * p[others]).sum(axis=0)
    sinr = direct / (interference + np.asarray(instance.noise, dtype=float))
    rate = instance.bandwidth_per_block * np.log1p(sinr).sum(axis=1) / math.log(2.0)
    consumed = (np.asarray(instance.amp_inefficiency) * p.sum(axis=1)
                + np.asarray(instance.static_power))
    ee = rate / consumed
    return Reference(
        sinr=sinr,
        rate=rate,
        consumed=consumed,
        ee=ee,
        tee=float(rate.sum() / consumed.sum()),
        mee=float(ee.min()),
        jain=jain(ee),
    )


def log_objective(kind: str, weight: float, ref: Reference) -> float:
    """The log2-domain scalarized objective (log2 bit/J) of one evaluation.

    ``kind`` is the scalarization's kind value: ``weighted_product``,
    ``weighted_minimum`` or ``product_ee``.
    """
    u = math.log2(ref.tee)
    v = math.log2(ref.mee)
    if kind == "weighted_product":
        return weight * u + (1.0 - weight) * v
    if kind == "weighted_minimum":
        return min(u - math.log2(weight), v - math.log2(1.0 - weight))
    if kind == "product_ee":
        return float(np.log2(ref.ee).sum())
    raise ValueError(f"unknown scalarization kind {kind!r}")
