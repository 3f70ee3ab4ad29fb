"""The benchmark's tracer (`perfbench/tracer.py`, loaded read-only) over a few
small runs: tracing changes no result, every site it still finds in the
package records spans, and the layers the benchmark reports are among
them. A site wraps a function under the name its caller looks it up by,
so a function that keeps its name but changes how it is called would make
every traced run raise, and one that is renamed or removed would leave its
layer silent."""

import importlib.util
from pathlib import Path

import numpy as np

import eeopt

from helpers import SHAPES

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def small_runs():
    """One run per subproblem shape on a 3-user, 3-block instance, through the
    package's public names as the benchmark calls them."""
    inst = eeopt.generate(eeopt.ScenarioConfig(n_d2d_pairs=2, n_blocks=3, d2d_distance=10.0),
                          np.random.SeedSequence([1, 0]))
    return [eeopt.run(inst, scal, eeopt.SolverConfig(tolerance=1e-3)) for scal in SHAPES]


# the layers each of the small runs passes through
PINNED = ("engine.run", "solver.solve", "surrogate.build", "surrogate.rate_evaluation",
          "network.is_feasible", "network.evaluate", "scenario.generate",
          "solver.evaluate_values", "solver.linalg_solve")


def found_sites():
    """The layer names of each site the tracer finds: one per SITES entry whose
    attribute exists, then the split `evaluate` and the linear-algebra shim."""
    sites = [{name} for path, attr, name in tracer.SITES
             if hasattr(tracer._owner(path), attr)]
    sites.append({tracer.EVALUATE_JACOBIAN, tracer.EVALUATE_VALUES})
    sites.append({tracer.LINALG_SOLVE, tracer.POLISH_LSTSQ})
    return sites


def test_traced_runs_equal_untraced_and_every_site_records():
    untraced = small_runs()
    run_fn = eeopt.run
    with tracer.Tracer() as t:
        traced = small_runs()
    assert eeopt.run is run_fn
    for a, b in zip(untraced, traced, strict=True):
        assert (a.status, a.iterations) == (b.status, b.iterations)
        assert a.trajectory.tobytes() == b.trajectory.tobytes()
        assert a.allocation.tobytes() == b.allocation.tobytes()
    calls = tracer.summarize(t.spans)["calls"]
    assert calls["engine.run"] == len(SHAPES)
    silent = [sorted(names) for names in found_sites()
              if not any(calls.get(name, 0) > 0 for name in names)]
    assert silent == []
    assert [name for name in PINNED if calls.get(name, 0) == 0] == []
