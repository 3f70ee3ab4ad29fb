"""The outer optimization loop: build a surrogate, solve, re-expand, repeat.

One iteration expands the bound at the current allocation, solves the
resulting concave subproblem, and moves to its solution. The subproblem's
tables depend only on the instance and the scalarization, so a run lays
them out once and swaps in each iteration's surrogate. Each subproblem
after the first starts its multipliers from the previous one's, when
that one was certified: the layout is the same, and consecutive
surrogates differ little near convergence.

The trajectory is the true objective sequence f_l = f(p_l): the
log-domain scalarization of the efficiencies that the allocation p_l
achieves. Each accepted allocation, the start included, gets exactly one
network pass (`is_feasible`, which evaluates it once). That report gives
the feasibility flag, the run's metrics, and the surrogate built there,
whose log2 TEE and EE_i give f_l, by `log_objective`, and the next
subproblem's thresholds. An EE of 0 makes `log_objective` raise a
DomainError unless the weighted product at w = 1 ignores it.

The subproblem starts at the expansion point p_{l-1} with its thresholds
at those roots, where the surrogate is tight, so its start objective is
f(p_{l-1}), the trajectory value f_{l-1} itself. Every surrogate
minorizes the true function, so any feasible subproblem point that beats
the start raises the true objective: f(p_l) is at least the subproblem's
objective at its solution, which is at least f(p_{l-1}). The trajectory
is therefore monotonically nondecreasing and every iterate stays
feasible for the original problem (Sun, Babu & Palomar, IEEE TSP 2017).

A subproblem therefore need not be solved to its KKT tolerance when its
gain alone makes another outer iteration certain. `run` passes
min_gain = tolerance * max(|f_prev|, 1e-12) to `solve`, which may stop
early as ASCENT at a feasible point whose surrogate objective beats the
start's by at least 2 min_gain. Then f(p_l) >= f(p_{l-1}) + 2 min_gain,
so f moves by at least tolerance * |f_prev| and the stopping rule below
cannot fire; the run does not stop on an ASCENT subproblem even if
rounding says otherwise. So the subproblem that ends a run met the full
test, OPTIMAL within kkt_tolerance, and the run is CONVERGED; or it
stopped short of its certificate, and the run is UNCERTIFIED.

A run returns only what it measured. Iteration l's stats, at
`iteration_stats[l - 1]`, hold p_l's log2 TEE and MEE and the subproblem's
certificate, steps and status; f_l is `trajectory[l]`, `certified` is read
off the status, and the run's `iterations` is L = `len(trajectory) - 1`.

The relative-change stopping rule |f_l - f_{l-1}| / |f_{l-1}| < tolerance
divides by the previous log-domain objective; a 1e-12 floor guards the
denominator when the objective crosses zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InfeasibleInitialPointError, check_integer, check_number
from .network import MetricsReport, NetworkInstance, is_feasible
from .solver import ConvexSubproblem, Scalarization, SubproblemStatus, build, log_objective, solve

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
        for name in ("tolerance", "kkt_tolerance"):
            check_number(name, getattr(self, name), 0, strict=True)
        check_integer("max_outer_iterations", self.max_outer_iterations, 1)


class RunStatus(Enum):
    CONVERGED = "converged"           # the subproblem that stopped the run was certified
    UNCERTIFIED = "uncertified"       # it stopped the run without being certified
    ITERATION_CAP = "iteration_cap"
    SUBPROBLEM_FAILURE = "subproblem_failure"


@dataclass(frozen=True)
class IterationStats:
    u: float                  # log2 total EE at p_l
    v: float                  # log2 min EE at p_l
    kkt_residual: float
    newton_iterations: int
    subproblem_status: SubproblemStatus
    feasible: bool            # original constraint set, relative tol 1e-6

    @property
    def certified(self) -> bool:
        """OPTIMAL within the run's kkt_tolerance, or ASCENT."""
        return self.subproblem_status in (SubproblemStatus.OPTIMAL, SubproblemStatus.ASCENT)


@dataclass(frozen=True)
class SolveResult:
    allocation: np.ndarray
    metrics: MetricsReport
    trajectory: np.ndarray    # f_0 .. f_L, log domain
    start_log2_ee: tuple[float, float]   # (log2 TEE, log2 MEE) at the start, beside f_0
    iteration_stats: list[IterationStats]
    status: RunStatus

    @property
    def iterations(self) -> int:
        """L, the outer iterations executed."""
        return len(self.trajectory) - 1

    @property
    def uncertified_subproblems(self) -> int:
        """Subproblems that met neither their KKT certificate nor the ASCENT test.

        A run whose stopping subproblem is one of them ends ``uncertified``,
        not ``converged``; one earlier in the run only costs the next
        subproblem its warm start.
        """
        return sum(not s.certified for s in self.iteration_stats)


def default_initial_point(instance: NetworkInstance) -> np.ndarray:
    """Spread each user's power budget uniformly over the blocks."""
    k = instance.n_blocks
    return np.tile(instance.max_power[:, None] / k, (1, k))


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

    model = build(instance, p, feas.report)
    f_prev = log_objective(scalarization, model.log2_ee_total, model.log2_ee)
    start_log2_ee = model.log2_ee_total, float(model.log2_ee.min())
    trajectory = [f_prev]
    stats: list[IterationStats] = []
    status = RunStatus.ITERATION_CAP

    warm = None   # the previous subproblem's multipliers, if it was certified
    sub = ConvexSubproblem(model, scalarization)
    for _ in range(config.max_outer_iterations):
        min_gain = config.tolerance * max(abs(f_prev), 1e-12)
        sol = solve(sub, config.kkt_tolerance, warm, min_gain)
        if sol.status is SubproblemStatus.NUMERICAL_FAILURE:
            status = RunStatus.SUBPROBLEM_FAILURE
            break

        p = np.exp2(sub.unpack_q(sol.x))
        feas = is_feasible(instance, p, tol=1e-6)
        model = build(instance, p, feas.report)
        f_l = log_objective(scalarization, model.log2_ee_total, model.log2_ee)
        trajectory.append(f_l)
        stats.append(IterationStats(u=model.log2_ee_total, v=float(model.log2_ee.min()),
                                    kkt_residual=sol.kkt_residual,
                                    newton_iterations=sol.newton_iterations,
                                    subproblem_status=sol.status, feasible=feas.ok))
        warm = sol.multipliers if stats[-1].certified else None
        rel_change = abs(f_l - f_prev) / max(abs(f_prev), 1e-12)
        f_prev = f_l
        if rel_change < config.tolerance and sol.status is not SubproblemStatus.ASCENT:
            status = RunStatus.CONVERGED if stats[-1].certified else RunStatus.UNCERTIFIED
            break
        sub.model = model

    return SolveResult(allocation=p, metrics=feas.report, trajectory=np.asarray(trajectory),
                       start_log2_ee=start_log2_ee, iteration_stats=stats, status=status)
