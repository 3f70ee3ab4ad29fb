"""The benchmark's workloads: instances drawn from the seed, and one round of runs.

A round is the fixed list of ``eeopt.run`` calls a workload makes for
one seed. A benchmark run repeats whole rounds, so every round attempts
the same operations and the failed share does not depend on how many
rounds fit in the time given.

Instance ``j`` of seed ``s`` is drawn by ``eeopt.generate`` from
``numpy.random.SeedSequence([s, j])``. The package sees only the drawn
instances and the run settings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import reference

NAMES = ("pareto-5x5", "scale-20x16", "convergence-5x5")

# Instance-to-instance variation dominates the spread between seeds, so
# each instance runs one scalarization (one start and weight on
# convergence-5x5) and every one of them runs on COPIES instances. A
# round of pareto-5x5 or convergence-5x5 then lasts about 35-50 s, and
# one of scale-20x16 about 25-35 s, on a 2-vCPU x86-64 machine with one
# BLAS thread.
PARETO_COPIES = 8
SCALE_COPIES = 5
CONVERGENCE_COPIES = 20

PARETO_GRID = np.linspace(0.0, 1.0, 21)
SCALE_WEIGHTS = (0.0, 0.7, 1.0)
CONVERGENCE_WEIGHTS = (0.0, 0.7, 1.0)
CONVERGENCE_ZETAS = (1.0, 0.01)
CONVERGENCE_TOLERANCES = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class Operation:
    instance: int               # index into Workload.instances
    scalarization: object       # eeopt.Scalarization
    config: object              # eeopt.SolverConfig
    start: np.ndarray           # allocation the run starts from
    group: int | None = None    # runs compared by the convergence property checks


@dataclass(frozen=True)
class Workload:
    name: str
    instances: list
    operations: list


def uniform_start(instance) -> np.ndarray:
    """Each user's budget spread evenly over the blocks (the documented default start)."""
    n, k = instance.n_users, instance.n_blocks
    return np.tile(np.asarray(instance.max_power, dtype=float)[:, None] / k, (1, k))


def _draw(eeopt, config, seed: int, count: int) -> list:
    return [eeopt.generate(config, np.random.SeedSequence([seed, j])) for j in range(count)]


def _pareto(eeopt, seed: int) -> Workload:
    # the paper's Pareto study at paper scale: 4 D2D pairs + 1 cellular
    # user, 5 blocks, 10 m links, no rate floors
    scalarizations = ([eeopt.weighted_product(float(w)) for w in PARETO_GRID]
                      + [eeopt.weighted_minimum(float(w)) for w in PARETO_GRID[1:-1]]
                      + [eeopt.product_ee()])
    instances = _draw(eeopt, eeopt.ScenarioConfig(d2d_distance=10.0), seed,
                      PARETO_COPIES * len(scalarizations))
    config = eeopt.SolverConfig(tolerance=1e-3)
    ops = [Operation(j, scalarizations[j % len(scalarizations)], config, uniform_start(inst))
           for j, inst in enumerate(instances)]
    return Workload("pareto-5x5", instances, ops)


def _scale(eeopt, seed: int) -> Workload:
    cfg = eeopt.ScenarioConfig(n_d2d_pairs=19, n_blocks=16, d2d_distance=20.0)
    instances = _draw(eeopt, cfg, seed, SCALE_COPIES * len(SCALE_WEIGHTS))
    config = eeopt.SolverConfig(tolerance=1e-3)
    ops = [Operation(j, eeopt.weighted_product(SCALE_WEIGHTS[j % len(SCALE_WEIGHTS)]),
                     config, uniform_start(inst))
           for j, inst in enumerate(instances)]
    return Workload("scale-20x16", instances, ops)


def _convergence(eeopt, seed: int) -> Workload:
    groups = [(zeta, w) for zeta in CONVERGENCE_ZETAS for w in CONVERGENCE_WEIGHTS]
    drawn = _draw(eeopt, eeopt.ScenarioConfig(d2d_distance=20.0), seed,
                  CONVERGENCE_COPIES * len(groups))
    instances, ops = [], []
    for j, inst in enumerate(drawn):
        zeta, w = groups[j % len(groups)]
        start = zeta * uniform_start(inst)
        # floors at half of each user's rate at the start; about half of
        # the runs end with a floor active
        floors = 0.5 * reference.evaluate(inst, start).rate
        instances.append(replace(inst, min_rate=floors))
        for eps in CONVERGENCE_TOLERANCES:
            config = eeopt.SolverConfig(tolerance=eps, initial_allocation=start)
            ops.append(Operation(j, eeopt.weighted_product(w), config, start, group=j))
    return Workload("convergence-5x5", instances, ops)


def draw(eeopt, name: str, seed: int) -> Workload:
    """Build one workload's instances and its round of runs from the seed."""
    builders = {"pareto-5x5": _pareto, "scale-20x16": _scale, "convergence-5x5": _convergence}
    return builders[name](eeopt, seed)
