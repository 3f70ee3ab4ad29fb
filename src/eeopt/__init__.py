"""Energy-efficient power allocation with a fairness/total-performance trade-off.

The package optimizes transmit powers in interference-limited
multi-carrier networks by maximizing a joint scalarization of the total
energy efficiency and the minimum per-user energy efficiency through
sequential concave minorization, and ships the Monte-Carlo studies
(Pareto sweeps, distance trends, convergence traces) plus a batch CLI.
"""

from .engine import (
    RunStatus,
    SolverConfig,
    SolveResult,
    default_initial_point,
    run,
)
from .errors import (
    DomainError,
    EEOptError,
    InfeasibleInitialPointError,
    InfeasibleSubproblemError,
    ShapeError,
)
from .network import (
    MetricsReport,
    NetworkInstance,
    evaluate,
    is_feasible,
    jain_index,
    sinr,
)
from .scalarization import (
    Scalarization,
    ScalarizationKind,
    direct_objective,
    log_objective,
    product_ee,
    weighted_minimum,
    weighted_product,
)
from .scenario import (
    ScenarioConfig,
    SweepResult,
    convergence_study,
    generate,
    pareto_sweep,
    trend_study,
)
from .solver import (
    ConvexSubproblem,
    SubproblemSolution,
    SubproblemStatus,
    kkt_residual,
    solve,
    strictly_feasible_start,
)
from .surrogate import SurrogateModel, bound_coefficients, build

__version__ = "0.1.0"

__all__ = [
    "ConvexSubproblem",
    "DomainError",
    "EEOptError",
    "InfeasibleInitialPointError",
    "InfeasibleSubproblemError",
    "MetricsReport",
    "NetworkInstance",
    "RunStatus",
    "Scalarization",
    "ScalarizationKind",
    "ScenarioConfig",
    "ShapeError",
    "SolveResult",
    "SolverConfig",
    "SubproblemSolution",
    "SubproblemStatus",
    "SurrogateModel",
    "SweepResult",
    "bound_coefficients",
    "build",
    "convergence_study",
    "default_initial_point",
    "direct_objective",
    "evaluate",
    "generate",
    "is_feasible",
    "jain_index",
    "kkt_residual",
    "log_objective",
    "pareto_sweep",
    "product_ee",
    "run",
    "sinr",
    "solve",
    "strictly_feasible_start",
    "trend_study",
    "weighted_minimum",
    "weighted_product",
]
