"""Outside-in tracer: spans around the package's public functions.

Each function is wrapped where its caller looks it up (a module global
such as ``eeopt.solver.rate_evaluation``, a method on
``ConvexSubproblem``, or ``numpy.linalg`` as the solver module sees it),
so the package itself is untouched and every call made through that
name records one span: layer name, start, end, parent span and run id.
Spans stay in memory until the tracer is asked to write them.

A site whose attribute no longer exists is skipped, so a later change
that removes a function reads as zero calls instead of a crash.
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
import types
from collections import defaultdict

# (module or "module:Class", attribute, layer name)
SITES = [
    ("eeopt", "generate", "scenario.generate"),
    ("eeopt", "run", "engine.run"),
    ("eeopt.engine", "build", "surrogate.build"),
    ("eeopt.engine", "efficiency_roots", "surrogate.efficiency_roots"),
    ("eeopt.solver", "efficiency_roots", "surrogate.efficiency_roots"),
    ("eeopt.solver", "rate_evaluation", "surrogate.rate_evaluation"),
    ("eeopt.surrogate", "rate_evaluation", "surrogate.rate_evaluation"),
    ("eeopt.solver", "weighted_rate_hessian", "surrogate.weighted_rate_hessian"),
    ("eeopt.solver:ConvexSubproblem", "weighted_constraint_hessian",
     "solver.weighted_constraint_hessian"),
    ("eeopt.engine", "strictly_feasible_start", "solver.strictly_feasible_start"),
    ("eeopt.engine", "solve", "solver.solve"),
    ("eeopt.solver", "kkt_residual", "solver.kkt_residual"),
    ("eeopt.engine", "is_feasible", "network.is_feasible"),
    ("eeopt.engine", "evaluate", "network.evaluate"),
    ("eeopt.network", "evaluate", "network.evaluate"),
]

# ConvexSubproblem.evaluate is split by whether the Jacobian is asked for
EVALUATE_JACOBIAN = "solver.evaluate_jacobian"
EVALUATE_VALUES = "solver.evaluate_values"
# numpy.linalg as the solver module looks it up
LINALG_SOLVE = "solver.linalg_solve"
POLISH_LSTSQ = "solver.polish_lstsq"

LAYERS = sorted({name for _, _, name in SITES}
                | {EVALUATE_JACOBIAN, EVALUATE_VALUES, LINALG_SOLVE, POLISH_LSTSQ})


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = sys.modules.get(module)
    if obj is not None and cls:
        obj = getattr(obj, cls, None)
    return obj


class Tracer:
    """Install with ``with Tracer() as t:``; spans land in ``t.spans``."""

    def __init__(self):
        self.spans: list = []       # (name, start, end, parent index, run id)
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        for path, attr, name in SITES:
            owner = _owner(path)
            if owner is not None and hasattr(owner, attr):
                self._set(owner, attr, self.wrap(name, getattr(owner, attr)))

        sub = _owner("eeopt.solver:ConvexSubproblem")
        if sub is not None and hasattr(sub, "evaluate"):
            with_jac = self.wrap(EVALUATE_JACOBIAN, sub.evaluate)
            values = self.wrap(EVALUATE_VALUES, sub.evaluate)

            def evaluate(problem, x, with_grad=True):
                return (with_jac if with_grad else values)(problem, x, with_grad=with_grad)

            self._set(sub, "evaluate", evaluate)

        solver = sys.modules.get("eeopt.solver")
        np_seen = getattr(solver, "np", None)
        if np_seen is not None and hasattr(np_seen, "linalg"):
            linalg = types.ModuleType(np_seen.linalg.__name__)
            linalg.__dict__.update(np_seen.linalg.__dict__)
            linalg.solve = self.wrap(LINALG_SOLVE, np_seen.linalg.solve)
            linalg.lstsq = self.wrap(POLISH_LSTSQ, np_seen.linalg.lstsq)
            shim = types.ModuleType(np_seen.__name__)
            shim.__dict__.update(np_seen.__dict__)
            shim.linalg = linalg
            self._set(solver, "np", shim)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def write(self, path: str) -> None:
        """Write every span as gzip-compressed CSV, times in seconds."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "run_id"])
            for idx, (name, start, end, parent, run_id) in enumerate(self.spans):
                out.writerow([idx, name, f"{start:.9f}", f"{end:.9f}", parent, run_id])


def summarize(spans) -> dict:
    """Per-layer calls, total ms and self ms, plus calls and ms under a span.

    Self time is a span's duration minus the durations of its direct
    children. ``under[(layer, ancestor)]`` counts calls of ``layer``
    made anywhere below a span of ``ancestor``; ``under_ms`` sums their
    durations.
    """
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    child_time = [0.0] * len(spans)
    ancestors: list = [frozenset()] * len(spans)
    under: dict = defaultdict(int)
    under_time: dict = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        total[name] += dur
        if parent >= 0:
            child_time[parent] += dur
            above, parent_name = ancestors[parent], spans[parent][0]
            ancestors[idx] = above if parent_name in above else above | {parent_name}
        for anc in ancestors[idx]:
            under[(name, anc)] += 1
            under_time[(name, anc)] += dur
    self_time: dict = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans):
        self_time[name] += (end - start) - child_time[idx]
    return {
        "calls": dict(calls),
        "ms": {k: 1e3 * v for k, v in total.items()},
        "self_ms": {k: 1e3 * v for k, v in self_time.items()},
        "under": dict(under),
        "under_ms": {k: 1e3 * v for k, v in under_time.items()},
    }
