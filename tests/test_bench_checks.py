"""The benchmark's run checks (`perfbench/checks.py`, with the `reference.py`
and `workloads.py` it reads, loaded read-only) over a few small runs: every
check reads the package's `SolveResult`, `IterationStats` and
`SolverConfig` without raising, and no verdict fails. A field the checks
read that is renamed or dropped would make every benchmark run fail."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import eeopt

from helpers import SHAPES

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A benchmark module, registered under its own name while the others load:
    `checks` and `workloads` import `reference` by that name, and a dataclass
    looks its module up while it is built."""
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


with mock.patch.dict(sys.modules):     # restored on exit, so no bare name outlives the loading
    reference, checks, workloads = (_load(name) for name in ("reference", "checks", "workloads"))

TOLERANCES = (1e-2, 1e-3, 1e-4)


def shape_round():
    """One run per subproblem shape on a 3-user, 3-block instance."""
    inst = eeopt.generate(eeopt.ScenarioConfig(n_d2d_pairs=2, n_blocks=3, d2d_distance=10.0),
                          np.random.SeedSequence([1, 0]))
    config = eeopt.SolverConfig(tolerance=1e-3)
    start = workloads.uniform_start(inst)
    return [inst], [workloads.Operation(0, scal, config, start) for scal in SHAPES]


def convergence_group():
    """One `convergence-5x5` group: a paper-scale instance with each rate floor at
    half its rate at a hundredth of the uniform split, run from there at three
    tolerances; at w = 0 three of the floors bind at every tolerance."""
    inst = eeopt.generate(eeopt.ScenarioConfig(d2d_distance=20.0), np.random.SeedSequence([1, 2]))
    start = 0.01 * workloads.uniform_start(inst)
    inst = replace(inst, min_rate=0.5 * reference.evaluate(inst, start).rate)
    ops = [workloads.Operation(0, eeopt.weighted_product(0.0),
                               eeopt.SolverConfig(tolerance=eps, initial_allocation=start),
                               start, group=0)
           for eps in TOLERANCES]
    return [inst], ops


@pytest.mark.parametrize("draw", [shape_round, convergence_group], ids=["shapes", "group"])
def test_every_check_reads_the_runs_and_passes(draw):
    instances, ops = draw()
    results = [eeopt.run(instances[op.instance], op.scalarization, op.config) for op in ops]
    verdicts = [checks.check_run(instances[op.instance], op, r) for op, r in zip(ops, results)]
    checks.check_properties(ops, results, verdicts)
    assert [v.reasons for v in verdicts if v.failed] == []
    for op, r in zip(ops, results):
        again = eeopt.run(instances[op.instance], op.scalarization, op.config)
        assert checks.same_run(r, again)
        assert 0 <= checks.uncertified(op, r) <= r.iterations


def test_the_group_binds_its_floors_and_has_a_bound():
    # the bound check of `check_properties` runs only from a positive start objective
    (inst,), ops = convergence_group()
    results = [eeopt.run(inst, op.scalarization, op.config) for op in ops]
    assert checks.check_run(inst, ops[0], results[0]).start_objective > 0
    for r in results:
        rate = reference.evaluate(inst, r.allocation).rate
        assert np.sum(rate <= inst.min_rate * (1 + 1e-3)) == 3
