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
    ShapeError,
)
from .network import (
    MetricsReport,
    NetworkInstance,
    evaluate,
    is_feasible,
    jain_index,
)
from .scalarization import (
    Scalarization,
    ScalarizationKind,
    log_objective,
    product_ee,
    weighted_minimum,
    weighted_product,
)
from .scenario import (
    ScenarioConfig,
    SweepRow,
    convergence_study,
    generate,
    pareto_sweep,
    trend_study,
)
from .solver import (
    ConvexSubproblem,
    SubproblemSolution,
    SubproblemStatus,
    solve,
)
from .surrogate import SurrogateModel, bound_coefficients, build

__version__ = "0.1.0"

__all__ = [
    "ConvexSubproblem",
    "DomainError",
    "EEOptError",
    "InfeasibleInitialPointError",
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
    "SweepRow",
    "bound_coefficients",
    "build",
    "convergence_study",
    "default_initial_point",
    "evaluate",
    "generate",
    "is_feasible",
    "jain_index",
    "log_objective",
    "pareto_sweep",
    "product_ee",
    "run",
    "solve",
    "trend_study",
    "weighted_minimum",
    "weighted_product",
]
