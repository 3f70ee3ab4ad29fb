"""One benchmark process: set up a workload, run whole rounds, check, report.

Started by ``run.py`` from the root of a checkout, with one BLAS thread.
The last line of standard output is one JSON object. Modes:

* ``--setup-only``: import ``eeopt``, draw the workload, report ``setup_s``.
* ``--trace 0``: run rounds until ``--seconds`` would be exceeded (at
  least one) and report the end-to-end metrics.
* ``--trace 1``: run one round with each operation run twice, once with
  the outside-in tracer installed, and report the per-layer metrics of
  the traced runs plus the tracing overhead. Spans are written to
  ``perfbench/out/`` when the run ends.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _import_eeopt(root: Path):
    sys.path.insert(0, str(root / "src"))
    import eeopt

    if Path(eeopt.__file__).resolve().parent != (root / "src" / "eeopt").resolve():
        raise SystemExit(f"eeopt was imported from {eeopt.__file__}, not from this checkout")
    return eeopt


def run_one(eeopt, workload, i):
    """Call eeopt.run for operation i; returns (wall time in s, result or exception)."""
    op = workload.operations[i]
    t = time.perf_counter()
    try:
        res = eeopt.run(workload.instances[op.instance], op.scalarization, op.config)
    except Exception as exc:  # a run that raises is counted as failed, not fatal
        res = exc
    return time.perf_counter() - t, res


def run_round(eeopt, workload):
    """Every operation once, in order; returns (wall times in s, results)."""
    pairs = [run_one(eeopt, workload, i) for i in range(len(workload.operations))]
    return [t for t, _ in pairs], [r for _, r in pairs]


def check_round(checks, workload, results):
    verdicts = [checks.check_run(workload.instances[op.instance], op, res)
                for op, res in zip(workload.operations, results)]
    checks.check_properties(workload.operations, results, verdicts)
    return verdicts


def _mark_changed(checks, verdicts, results, baseline, what):
    for i, (res, base) in enumerate(zip(results, baseline)):
        if not checks.same_run(res, base):
            verdicts[i].fail(f"result differs from the {what}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report_failures(name, verdicts):
    for i, v in enumerate(verdicts):
        if v.failed:
            print(f"{name}: run {i} failed: {'; '.join(v.reasons)}", file=sys.stderr)


def end_to_end(eeopt, checks, workload, seconds, setup_s):
    start = time.perf_counter()
    times, verdicts = [], []
    first = None
    completed = 0
    while True:
        t_round = time.perf_counter()
        t, results = run_round(eeopt, workload)
        v = check_round(checks, workload, results)
        if first is None:
            first, objectives = results, [x.objective for x in v]
        else:
            _mark_changed(checks, v, results, first, "first round")
        times += t
        verdicts += v
        completed += sum(not isinstance(r, BaseException) for r in results)
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    _report_failures(workload.name, verdicts)
    failed = sum(v.failed for v in verdicts)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "runs_per_s": _metric(completed / sum(times), "runs/s"),
        "run_ms_p50": _metric(1e3 * statistics.median(times), "ms"),
        "objective_log2_mean": _metric(checks.finite_mean(objectives), "log2_bit/J"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    return len(times), failed, not any(v.wrong for v in verdicts), metrics


def per_layer(eeopt, checks, workload_mod, tracer_mod, workload, seed, out_dir):
    """Each operation once untraced and once traced, back to back.

    The order alternates between operations, so a drift in machine speed
    or a cache warmed by the first call weighs on both sides alike.
    """
    tracer = tracer_mod.Tracer()
    with tracer:
        traced_workload = workload_mod.draw(eeopt, workload.name, seed)
    times_u, results_u, times_t, results_t = [], [], [], []
    for i in range(len(workload.operations)):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.run_id = i
                with tracer:
                    t, res = run_one(eeopt, traced_workload, i)
                times_t.append(t)
                results_t.append(res)
            else:
                t, res = run_one(eeopt, workload, i)
                times_u.append(t)
                results_u.append(res)
    verdicts = check_round(checks, workload, results_u)
    traced_verdicts = check_round(checks, traced_workload, results_t)
    _mark_changed(checks, traced_verdicts, results_t, results_u, "untraced run")
    verdicts += traced_verdicts
    _report_failures(workload.name, verdicts)

    ops = traced_workload.operations
    s = tracer_mod.summarize(tracer.spans)
    calls, ms, self_ms, under, under_ms = (s["calls"], s["ms"], s["self_ms"],
                                           s["under"], s["under_ms"])
    steps = sum(st.newton_iterations for r in results_t if not isinstance(r, BaseException)
                for st in r.iteration_stats)
    completed = sum(not isinstance(r, BaseException) for r in results_t)
    rps_u = completed / sum(times_u)
    rps_t = completed / sum(times_t)

    metrics = {}
    for layer in tracer_mod.LAYERS:
        metrics[f"{layer}.calls"] = _metric(calls.get(layer, 0), "count")
        metrics[f"{layer}.ms"] = _metric(ms.get(layer, 0.0), "ms")
    for layer in ("engine.run", "solver.solve"):
        metrics[f"{layer}.self_ms"] = _metric(self_ms.get(layer, 0.0), "ms")
    metrics["engine.outer_iterations"] = _metric(
        sum(r.iterations for r in results_t if not isinstance(r, BaseException)), "count")
    metrics["solver.newton_steps"] = _metric(steps, "count")
    metrics["solver.uncertified_subproblems"] = _metric(
        sum(checks.uncertified(op, r) for op, r in zip(ops, results_t)), "count")
    per_step = max(steps, 1)
    metrics["solver.line_search_evals_per_step"] = _metric(
        under.get((tracer_mod.EVALUATE_VALUES, "solver.solve"), 0) / per_step, "per_step")
    metrics["solver.linalg_solves_per_step"] = _metric(
        under.get((tracer_mod.LINALG_SOLVE, "solver.solve"), 0) / per_step, "per_step")
    metrics["solver.linalg_solve.solve_share_pct"] = _metric(
        100.0 * under_ms.get((tracer_mod.LINALG_SOLVE, "solver.solve"), 0.0)
        / max(ms.get("solver.solve", 0.0), 1e-12), "%")
    metrics["solver.strictly_feasible_start.rate_evaluation_calls"] = _metric(
        under.get(("surrogate.rate_evaluation", "solver.strictly_feasible_start"), 0), "count")
    metrics["trace.overhead_pct"] = _metric(100.0 * (rps_u - rps_t) / rps_u, "%")
    metrics["trace.runs_per_s"] = _metric(rps_t, "runs/s")
    metrics["trace.untraced_runs_per_s"] = _metric(rps_u, "runs/s")
    metrics["trace.spans"] = _metric(len(tracer.spans), "count")

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(str(out_dir / f"spans-{workload.name}-seed{seed}.csv.gz"))
    failed = sum(v.failed for v in verdicts)
    return 2 * len(ops), failed, not any(v.wrong for v in verdicts), metrics


def main(argv=None) -> int:
    args = _args(argv)
    root = Path.cwd()
    t0 = time.perf_counter()
    eeopt = _import_eeopt(root)
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    workload = workloads.draw(eeopt, args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks

    if args.trace:
        import tracer

        attempted, failed, correct, metrics = per_layer(
            eeopt, checks, workloads, tracer, workload, args.seed, HERE / "out")
    else:
        attempted, failed, correct, metrics = end_to_end(
            eeopt, checks, workload, args.seconds, setup_s)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
