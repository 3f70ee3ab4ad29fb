"""Benchmark of the eeopt package: one workload, one seed, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pareto-5x5 --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced round and the tracing overhead. The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; each metric carries its value and unit.

The package is imported from ``src/`` of the checkout. Every process
this script starts runs with one BLAS thread and is waited for; the
script fails with exit code 2 when the checkout holds no ``src/eeopt``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pareto-5x5", "scale-20x16", "convergence-5x5")
SETUP_SAMPLES = 5        # setup_s is the median over this many fresh processes
DEADLINE_S = 175.0       # the whole invocation ends within this
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(cmd, env, deadline):
    """Run one worker to completion and return its last stdout line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for the next benchmark process")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} printed no result")
    return json.loads(lines[-1])


def _table(result):
    rows = [f"  {name:<58} {m['value']:>14.6g} {m['unit']}"
            for name, m in result["metrics"].items()]
    head = (f"correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}")
    return "\n".join([head, *rows])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="eeopt benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    if not (root / "src" / "eeopt" / "__init__.py").is_file():
        print(f"no eeopt package under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    base = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            setups = [_child(base + ["--setup-only"], env, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        result = _child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                        env, deadline)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print(_table(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
