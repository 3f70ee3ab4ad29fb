"""Checks of every returned run against the reference module and the method.

A run fails when ``eeopt.run`` raises, when its status is not
``converged``, or when any output check below breaks. Output checks
that break also mark the benchmark's result incorrect: the program
returned an answer as a success and the answer is wrong.
"""

from __future__ import annotations

import math
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import reference

REL_METRIC = 1e-9       # package metrics against the reference, relative
FEAS_TOL = 1e-6         # power budget and rate floor, relative
STEP_TOL = 1e-9         # smallest allowed trajectory step


@dataclass
class Verdict:
    failed: bool = False        # the run counts as failed
    wrong: bool = False         # an output check broke
    reasons: list = field(default_factory=list)
    objective: float | None = None   # reference log2 objective of the allocation
    start_objective: float | None = None

    def fail(self, reason: str, wrong: bool = True) -> None:
        self.failed = True
        self.wrong = self.wrong or wrong
        self.reasons.append(reason)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_run(instance, op, result) -> Verdict:
    """Verdict on one run; ``result`` is a SolveResult or the exception raised."""
    v = Verdict()
    if isinstance(result, BaseException):
        v.fail("raised " + "".join(traceback.format_exception(result)), wrong=False)
        return v
    kind, weight = op.scalarization.kind.value, op.scalarization.weight
    if result.status.value != "converged":
        v.fail(f"status {result.status.value}", wrong=False)

    p = np.asarray(result.allocation, dtype=float)
    ref = reference.evaluate(instance, p)
    m = result.metrics
    for label, got, want in (("ee_total", m.ee_total, ref.tee), ("ee_min", m.ee_min, ref.mee),
                             ("jain_index", m.jain_index, ref.jain)):
        if not _close(got, want, REL_METRIC):
            v.fail(f"{label} {got!r} != reference {want!r}")

    if np.any(p < 0):
        v.fail("negative power")
    if np.any(p.sum(axis=1) > np.asarray(instance.max_power) * (1 + FEAS_TOL)):
        v.fail("power budget exceeded")
    if np.any(ref.rate < np.asarray(instance.min_rate) * (1 - FEAS_TOL)):
        v.fail("rate floor missed")

    traj = np.asarray(result.trajectory, dtype=float)
    if traj.size > 1 and np.diff(traj).min() < -STEP_TOL:
        v.fail(f"trajectory decreases by {-np.diff(traj).min():.3e}")

    start_ref = reference.evaluate(instance, op.start)
    v.start_objective = reference.log_objective(kind, weight, start_ref)
    if not _close(traj[0], v.start_objective, REL_METRIC):
        v.fail(f"trajectory[0] {traj[0]!r} != reference start objective {v.start_objective!r}")

    v.objective = reference.log_objective(kind, weight, ref)
    if v.objective < traj[-1] - REL_METRIC * max(1.0, abs(traj[-1])):
        v.fail(f"objective {v.objective!r} below trajectory end {traj[-1]!r} (minorization)")

    if ref.tee < ref.mee * (1 - 1e-12):
        v.fail("total EE below minimum EE")
    return v


def check_properties(operations, results, verdicts) -> None:
    """Iteration counts across the tolerances of one (instance, start, weight).

    Counts must not fall as the tolerance tightens, and where the start
    objective f0 is positive each count must stay within
    1 + (lambda - 1)/eps, lambda being the best final trajectory value of
    the group over f0. A run breaking either check is marked failed.
    """
    groups = defaultdict(list)
    for i, op in enumerate(operations):
        if op.group is not None and not isinstance(results[i], BaseException):
            groups[op.group].append(i)
    for members in groups.values():
        members.sort(key=lambda i: -operations[i].config.tolerance)
        for looser, tighter in zip(members, members[1:]):
            if results[tighter].iterations < results[looser].iterations:
                verdicts[tighter].fail(
                    f"{results[tighter].iterations} iterations at tolerance "
                    f"{operations[tighter].config.tolerance} after "
                    f"{results[looser].iterations} at {operations[looser].config.tolerance}")
        f0 = verdicts[members[0]].start_objective
        if f0 is None or not f0 > 0:
            continue
        best = max(float(results[i].trajectory[-1]) for i in members)
        lam = best / f0
        for i in members:
            eps = operations[i].config.tolerance
            bound = 1.0 + max(lam - 1.0, 0.0) / eps
            if results[i].iterations > bound + 1e-9:
                verdicts[i].fail(f"{results[i].iterations} iterations exceed the bound "
                                 f"{bound:.3f} at tolerance {eps}")


def same_run(a, b) -> bool:
    """Two results of one operation are bit-identical (or raised the same error)."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return (a.status == b.status and a.iterations == b.iterations
            and np.array_equal(a.allocation, b.allocation)
            and np.array_equal(a.trajectory, b.trajectory))


def uncertified(op, result) -> int:
    """Subproblems whose KKT residual exceeds the run's tolerance or that were not optimal."""
    if isinstance(result, BaseException):
        return 0
    tol = op.config.kkt_tolerance
    return sum(1 for s in result.iteration_stats
               if not s.kkt_residual <= tol or s.subproblem_status.value != "optimal")


def finite_mean(values) -> float:
    vals = [x for x in values if x is not None and math.isfinite(x)]
    return float(np.mean(vals)) if vals else float("nan")
