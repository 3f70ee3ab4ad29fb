"""The outer optimization loop: build a surrogate, solve, re-expand, repeat.

One iteration expands the bound at the current allocation, solves the
resulting concave subproblem to global optimality, and moves to its
optimizer. Because every surrogate minorizes the true function and is
tight at the expansion point, the objective trajectory is monotonically
nondecreasing and every iterate stays feasible for the original problem.

The relative-change stopping rule |f_l - f_{l-1}| / |f_{l-1}| < tolerance
divides by the previous log-domain objective; a 1e-12 floor guards the
denominator when the objective crosses zero.

Threshold variables returned by the subproblem may sit below their roots,
so after each solve they are tightened to the exact roots of the
efficiency slack functions before the trajectory value is recorded; the
recorded objective then reflects thresholds the allocation actually
achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InfeasibleInitialPointError
from .network import MetricsReport, NetworkInstance, evaluate, is_feasible
from .scalarization import Scalarization, ScalarizationKind, log_objective
from .solver import ConvexSubproblem, SubproblemStatus, solve
from .surrogate import build, efficiency_roots

__all__ = [
    "SolverConfig",
    "RunStatus",
    "IterationStats",
    "SolveResult",
    "default_initial_point",
    "run",
]


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-3               # relative objective change that stops the loop
    max_outer_iterations: int = 200
    initial_allocation: np.ndarray | None = None   # defaults to uniform max_power/K
    kkt_tolerance: float = 1e-8

    def __post_init__(self):
        if not self.tolerance > 0:
            raise DomainError("tolerance must be > 0")
        if self.max_outer_iterations < 1:
            raise DomainError("max_outer_iterations must be >= 1")
        if not self.kkt_tolerance > 0:
            raise DomainError("kkt_tolerance must be > 0")


class RunStatus(Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"
    SUBPROBLEM_FAILURE = "subproblem_failure"


@dataclass(frozen=True)
class IterationStats:
    index: int
    objective: float          # log-domain trajectory value f_l
    u: float                  # tightened log2 total-EE threshold
    v: float                  # tightened log2 min-EE threshold
    kkt_residual: float
    newton_iterations: int
    subproblem_status: SubproblemStatus
    feasible: bool            # original constraint set, relative tol 1e-6
    certified: bool           # OPTIMAL and kkt_residual <= the run's kkt_tolerance


@dataclass(frozen=True)
class SolveResult:
    allocation: np.ndarray
    metrics: MetricsReport
    trajectory: np.ndarray    # f_0 .. f_L, log domain
    iterations: int           # L, outer iterations executed
    iteration_stats: list[IterationStats]
    status: RunStatus
    scalarization: Scalarization

    @property
    def converged(self) -> bool:
        return self.status is RunStatus.CONVERGED

    @property
    def uncertified_subproblems(self) -> int:
        """Subproblems whose solution did not meet its KKT certificate.

        The run status does not account for them: a run can be
        ``converged`` over uncertified subproblems.
        """
        return sum(not s.certified for s in self.iteration_stats)


def default_initial_point(instance: NetworkInstance) -> np.ndarray:
    """Spread each user's power budget uniformly over the blocks."""
    k = instance.n_blocks
    return np.tile(instance.max_power[:, None] / k, (1, k))


def _trajectory_value(s: Scalarization, u_root: float, v_roots: np.ndarray) -> float:
    if s.kind is ScalarizationKind.PRODUCT_EE:
        return float(v_roots.sum())
    return log_objective(s, u_root, float(v_roots.min()))


def run(instance: NetworkInstance, scalarization: Scalarization,
        config: SolverConfig | None = None) -> SolveResult:
    """Iterate surrogate builds and subproblem solves until the objective settles."""
    config = config or SolverConfig()
    if config.initial_allocation is not None:
        p = np.asarray(config.initial_allocation, dtype=float).copy()
    else:
        p = default_initial_point(instance)
    if p.shape != (instance.n_users, instance.n_blocks) or np.any(p <= 0):
        raise InfeasibleInitialPointError(
            "initial allocation must be strictly positive with shape (users, blocks)"
        )
    feas = is_feasible(instance, p, tol=1e-9)
    if not feas.ok:
        raise InfeasibleInitialPointError(
            f"initial allocation violates the constraint set: {feas.violations}"
        )

    report = evaluate(instance, p)
    f_prev = _trajectory_value(scalarization, float(np.log2(report.ee_total)), np.log2(report.ee))
    trajectory = [f_prev]
    stats: list[IterationStats] = []
    status = RunStatus.ITERATION_CAP

    for l in range(1, config.max_outer_iterations + 1):
        model = build(instance, p)
        sol = solve(ConvexSubproblem(model, scalarization), config.kkt_tolerance)
        if sol.status is SubproblemStatus.NUMERICAL_FAILURE:
            status = RunStatus.SUBPROBLEM_FAILURE
            break

        p = np.exp2(sol.q)
        u_root, v_roots = efficiency_roots(instance, sol.q, sol.rates)
        f_l = _trajectory_value(scalarization, u_root, v_roots)
        trajectory.append(f_l)
        stats.append(
            IterationStats(
                index=l,
                objective=f_l,
                u=u_root,
                v=float(v_roots.min()),
                kkt_residual=sol.kkt_residual,
                newton_iterations=sol.newton_iterations,
                subproblem_status=sol.status,
                feasible=is_feasible(instance, p, tol=1e-6).ok,
                certified=(sol.status is SubproblemStatus.OPTIMAL
                           and sol.kkt_residual <= config.kkt_tolerance),
            )
        )
        rel_change = abs(f_l - f_prev) / max(abs(f_prev), 1e-12)
        f_prev = f_l
        if rel_change < config.tolerance:
            status = RunStatus.CONVERGED
            break

    return SolveResult(
        allocation=p,
        metrics=evaluate(instance, p),
        trajectory=np.asarray(trajectory),
        iterations=len(trajectory) - 1,
        iteration_stats=stats,
        status=status,
        scalarization=scalarization,
    )
