"""Golden run digests: every op of the seed-1 round of each gated benchmark
workload (`perfbench/workloads.py`, loaded read-only) against the committed
`golden_runs.npz`. Each op's status, outer iterations and Newton steps must
match exactly, and its trajectory and allocation within 1e-12 relative.
Every op must also pass the benchmark's own checks (`perfbench/checks.py`),
so a change that would fail a benchmark run fails here first.

Bytes can depend on the BLAS and the CPU, so the sha256 over each op's
status, allocation bytes and trajectory bytes is printed as information
only. A change that means to move numbers regenerates the file with
`write_golden_runs.py` and states which ops moved, by how much, and why."""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

import eeopt

from helpers import load_perfbench

_, checks, workloads = load_perfbench("reference", "checks", "workloads")

GOLDEN = Path(__file__).with_name("golden_runs.npz")
WORKLOADS = ("pareto-5x5", "convergence-5x5")
SEED = 1
RTOL = 1e-12


@functools.cache
def run_round(name):
    """The workload's seed-1 round and its runs, one per op."""
    round_ = workloads.draw(eeopt, name, SEED)
    return round_, [eeopt.run(round_.instances[op.instance], op.scalarization, op.config)
                    for op in round_.operations]


def records(name):
    """The round's runs as arrays: per op the status, outer iterations, Newton
    steps and allocation, and the trajectories end to end (op j's holds
    iterations[j] + 1 values)."""
    _, runs = run_round(name)
    return {
        "status": np.array([r.status.value for r in runs]),
        "iterations": np.array([r.iterations for r in runs]),
        "newton": np.array([sum(s.newton_iterations for s in r.iteration_stats) for r in runs]),
        "allocation": np.stack([r.allocation for r in runs]),
        "trajectory": np.concatenate([r.trajectory for r in runs]),
    }


def per_op(rec):
    """(status, iterations, Newton steps, allocation, trajectory) of each op."""
    trajectories = np.split(rec["trajectory"], np.cumsum(rec["iterations"] + 1)[:-1])
    return list(zip(rec["status"].tolist(), rec["iterations"].tolist(),
                    rec["newton"].tolist(), rec["allocation"], trajectories))


def digest(rec) -> str:
    h = hashlib.sha256()
    for status, _, _, allocation, trajectory in per_op(rec):
        h.update(status.encode())
        h.update(allocation.tobytes())
        h.update(trajectory.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_gated_run_matches_its_golden_digest(name):
    got = records(name)
    with np.load(GOLDEN) as data:
        golden = {field: data[f"{name}.{field}"] for field in got}
    print(f"{name}: {len(got['status'])} ops, sha256 {digest(got)[:8]}")
    ops, golden_ops = per_op(got), per_op(golden)
    assert len(ops) == len(golden_ops)
    moved = [j for j, (a, b) in enumerate(zip(ops, golden_ops))
             if a[:3] != b[:3] or not all(np.allclose(x, y, rtol=RTOL, atol=0.0)
                                          for x, y in zip(a[3:], b[3:]))]
    assert not moved, f"{len(moved)} of {len(ops)} ops moved, the first at {moved[:10]}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_gated_run_passes_the_benchmark_checks(name):
    round_, runs = run_round(name)
    ops = round_.operations
    verdicts = [checks.check_run(round_.instances[op.instance], op, r) for op, r in zip(ops, runs)]
    checks.check_properties(ops, runs, verdicts)
    failed = [(j, v.reasons) for j, v in enumerate(verdicts) if v.failed]
    assert not failed, (f"{len(failed)} of {len(ops)} ops fail, the first op {failed[0][0]}: "
                        f"{failed[0][1]}")
