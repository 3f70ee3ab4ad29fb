"""Acceptance suite: every criterion runs at its stated scale and tolerance
and prints one [PASS]/[FAIL] line (run with `pytest -s` to see them live).

The heavy Monte-Carlo fixtures are shared across criteria and parallelized
over two workers; everything is seeded, so reruns are bit-reproducible.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
import yaml

from eeopt.cli import EXIT_OK, main as cli_main
from eeopt.engine import SolverConfig, run
from eeopt.network import evaluate, is_feasible
from eeopt.scalarization import ScalarizationKind, weighted_minimum, weighted_product
from eeopt.scenario import (
    ScenarioConfig,
    generate,
    pareto_sweep,
    trend_study,
    trial_seed,
)

from helpers import (
    central_diff,
    expand,
    g_row,
    psi_rows,
    random_alloc,
    random_instance,
    rate_rows,
    rel_err,
    true_g,
    true_psi,
)

TRIALS = 100
WORKERS = 2
SCENARIO = ScenarioConfig(d2d_distance=20.0)
SEED = 20

# fixture grid: (tolerance, weights) pairs shared by criteria 1, 4, 5, 8, 9
RUN_GRID = {
    1e-2: (0.0, 0.7, 1.0),
    1e-3: (0.0, 0.3, 0.7, 1.0),
    1e-4: (0.0, 0.7, 1.0),
}


def criterion(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


@dataclass(frozen=True)
class RunSummary:
    weight: float
    epsilon: float
    trial: int
    iterations: int
    trajectory: np.ndarray
    all_feasible: bool
    final_feasible: bool
    jain: float
    tee: float
    mee: float
    f_initial: float
    f_final: float


def _engine_task(args):
    weight, eps, trial = args
    inst = generate(SCENARIO, trial_seed(SEED, trial))
    result = run(inst, weighted_product(weight), SolverConfig(tolerance=eps))
    m = result.metrics
    return RunSummary(
        weight=weight,
        epsilon=eps,
        trial=trial,
        iterations=result.iterations,
        trajectory=np.asarray(result.trajectory),
        all_feasible=all(s.feasible for s in result.iteration_stats),
        final_feasible=is_feasible(inst, result.allocation, tol=1e-6).ok,
        jain=m.jain_index,
        tee=m.ee_total,
        mee=m.ee_min,
        f_initial=float(result.trajectory[0]),
        f_final=float(result.trajectory[-1]),
    )


@pytest.fixture(scope="module")
def engine_runs():
    tasks = [
        (w, eps, trial)
        for eps, weights in RUN_GRID.items()
        for w in weights
        for trial in range(TRIALS)
    ]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_engine_task, tasks, chunksize=16))
    table = {}
    for summary in results:
        table.setdefault((summary.epsilon, summary.weight), {})[summary.trial] = summary
    return table


def test_criterion_1_monotone_convergence(engine_runs):
    worst = 0.0
    count = 0
    for w in RUN_GRID[1e-3]:
        for summary in engine_runs[(1e-3, w)].values():
            diffs = np.diff(summary.trajectory)
            worst = min(worst, float(diffs.min())) if diffs.size else worst
            count += 1
    ok = worst >= -1e-9
    criterion(
        1,
        f"monotone trajectories on {count} runs "
        f"({TRIALS} instances x {len(RUN_GRID[1e-3])} weights)",
        ok,
        f"worst step {worst:.2e} >= -1e-9",
    )


def test_criterion_2_minorization_tightness_gradients():
    # rates and their gradients are read off the solver's rate-floor rows,
    # psi and g are its assembled rows (`ConvexSubproblem.evaluate`), all
    # compared with the true functions on the rows' 1/B scale
    rng = np.random.default_rng(2024)
    n_instances, points_per_instance = 200, 5
    worst_gap = 0.0          # positive would violate minorization
    worst_tight = 0.0        # relative mismatch at the expansion point
    worst_grad = 0.0         # relative gradient mismatch vs central differences
    samples = 0

    for _ in range(n_instances):
        inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        rs = 1.0 / inst.bandwidth_per_block
        p = random_alloc(rng, inst)
        model = expand(inst, p)
        q0 = np.log2(p)
        rep = evaluate(inst, p)
        v_ref = float(rng.uniform(-2, 2))
        u_ref = float(rng.uniform(-2, 2))

        # tightness at the expansion point
        rates0, jac = rate_rows(model, q0, with_grad=True)
        psi, _ = psi_rows(model, q0, v_ref)
        psi_ref = true_psi(inst, q0, v_ref) * rs
        for i in range(inst.n_users):
            worst_tight = max(worst_tight, rel_err(rates0[i], float(rep.rate[i]), floor=1e-9))
            worst_tight = max(worst_tight, rel_err(psi[i], psi_ref[i], floor=1e-9))
            fd = central_diff(lambda qq: float(evaluate(inst, np.exp2(qq)).rate[i]), q0)
            worst_grad = max(worst_grad, float(np.max(rel_err(jac[i], fd, floor=1e-6))))
        g_val, _ = g_row(model, q0, u_ref)
        worst_tight = max(worst_tight, rel_err(g_val, true_g(inst, q0, u_ref) * rs, floor=1e-9))

        # minorization at perturbed points
        for _ in range(points_per_instance):
            q = q0 + rng.uniform(-2.0, 2.0, size=q0.shape)
            v = float(rng.uniform(-2, 2))
            rates = rate_rows(model, q)[0]
            true_rates = evaluate(inst, np.exp2(q)).rate
            psi, _ = psi_rows(model, q, v)
            psi_ref = true_psi(inst, q, v) * rs
            for i in range(inst.n_users):
                scale = max(abs(true_rates[i]), 1.0)
                worst_gap = max(worst_gap, (rates[i] - float(true_rates[i])) / scale)
                worst_gap = max(worst_gap, (psi[i] - psi_ref[i]) / max(abs(psi_ref[i]), 1.0))
            g_val, _ = g_row(model, q, v)
            g_ref = true_g(inst, q, v) * rs
            worst_gap = max(worst_gap, (g_val - g_ref) / max(abs(g_ref), 1.0))
            samples += 1

    ok = worst_gap <= 1e-9 and worst_tight <= 1e-10 and worst_grad <= 1e-5
    criterion(
        2,
        f"minorization/tightness/gradients on {samples} (instance, point) samples",
        ok,
        f"max bound excess {worst_gap:.1e}, tightness {worst_tight:.1e}, "
        f"gradient mismatch {worst_grad:.1e}",
    )


def _natural_objective(scal, tee, mee):
    """TEE^w MEE^(1-w), or min(TEE/w, MEE/(1-w)) for the weighted minimum."""
    w = scal.weight
    if scal.kind is ScalarizationKind.WEIGHTED_MINIMUM:
        return np.minimum(tee / w, mee / (1.0 - w))
    return tee**w * mee ** (1.0 - w)


def _true_pair_objective_grid(inst, scal):
    pmax1, pmax2 = inst.max_power
    p1 = np.logspace(math.log10(pmax1 * 1e-6), math.log10(pmax1), 400)
    p2 = np.logspace(math.log10(pmax2 * 1e-6), math.log10(pmax2), 400)
    p1, p2 = np.meshgrid(p1, p2, indexing="ij")
    g = inst.gain
    r1 = inst.bandwidth_per_block * np.log2(
        1.0 + g[0, 0, 0] * p1 / (g[1, 0, 0] * p2 + inst.noise[0, 0])
    )
    r2 = inst.bandwidth_per_block * np.log2(
        1.0 + g[1, 1, 0] * p2 / (g[0, 1, 0] * p1 + inst.noise[1, 0])
    )
    c1 = inst.amp_inefficiency[0] * p1 + inst.static_power[0]
    c2 = inst.amp_inefficiency[1] * p2 + inst.static_power[1]
    tee = (r1 + r2) / (c1 + c2)
    mee = np.minimum(r1 / c1, r2 / c2)
    return float(np.max(_natural_objective(scal, tee, mee)))


def test_criterion_3_oracle_equivalence_at_desk_scale():
    rng = np.random.default_rng(303)
    labels = {"product w=0.0": weighted_product(0.0), "product w=0.5": weighted_product(0.5),
              "product w=1.0": weighted_product(1.0), "minimum w=0.3": weighted_minimum(0.3),
              "minimum w=0.7": weighted_minimum(0.7)}
    n_instances = 50
    shortfalls = []
    successes = dict.fromkeys(labels, 0)
    for idx in range(n_instances):
        inst = random_instance(rng, 2, 1)
        for label, scal in labels.items():
            result = run(inst, scal, SolverConfig(tolerance=1e-4))
            scal_value = _natural_objective(scal, result.metrics.ee_total, result.metrics.ee_min)
            oracle = _true_pair_objective_grid(inst, scal)
            if scal_value >= oracle * (1.0 - 0.01):
                successes[label] += 1
            else:
                shortfalls.append((idx, label, scal_value, oracle))
    for idx, label, got, want in shortfalls:
        print(f"    shortfall: instance {idx}, {label}: {got:.6g} vs oracle {want:.6g} "
              f"({(1 - got / want) * 100:.2f}% below)")
    rates = {label: successes[label] / n_instances for label in labels}
    ok = all(rate >= 0.9 for rate in rates.values())
    criterion(
        3,
        "weighted product and weighted minimum within 1% of a 400x400 grid oracle "
        f"on {n_instances} random two-user instances",
        ok,
        "success rates " + ", ".join(f"{label}: {rate:.0%}" for label, rate in rates.items()),
    )


def test_criterion_4_convergence_iteration_counts(engine_runs):
    caps = {1e-3: {0.0: 8, 0.7: 10, 1.0: 18}, 1e-4: {0.0: 10, 0.7: 12, 1.0: 20}}
    details = []
    ok = True
    for eps, per_w in caps.items():
        for w, cap in per_w.items():
            mean_iters = float(np.mean([s.iterations for s in engine_runs[(eps, w)].values()]))
            details.append(f"eps={eps:g} w={w}: {mean_iters:.2f}<={cap}")
            ok = ok and mean_iters <= cap
    criterion(4, f"mean outer iterations over {TRIALS} trials", ok, "; ".join(details))


def test_criterion_5_fairness_endpoint(engine_runs):
    jains = np.array([s.jain for s in engine_runs[(1e-3, 0.0)].values()])
    rate = float((jains >= 0.999).mean())
    criterion(
        5,
        f"w=0 gives Jain index >= 0.999 on at least 95% of {TRIALS} trials",
        rate >= 0.95,
        f"rate {rate:.0%}, min JFI {jains.min():.4f}",
    )


def test_criterion_6_pareto_geometry():
    config = ScenarioConfig(d2d_distance=10.0)
    rows = pareto_sweep(
        config,
        [i / 20 for i in range(21)],
        trials=TRIALS,
        seed=60,
        solver_config=SolverConfig(tolerance=1e-3),
        workers=WORKERS,
    )
    above_diagonal = all(r.tee_mean >= r.mee_mean - 1e-9 for r in rows)
    mee_best = max(r.mee_mean for r in rows)
    tee_best = max(r.tee_mean for r in rows)
    w0, w1 = rows[0], rows[-1]
    endpoint_mee = w0.mee_mean >= mee_best - 2.0 * w0.mee_se
    endpoint_tee = w1.tee_mean >= tee_best - 2.0 * w1.tee_se
    ok = above_diagonal and endpoint_mee and endpoint_tee
    criterion(
        6,
        f"Pareto geometry over a 21-point weight grid, {TRIALS} trials",
        ok,
        f"TEE>=MEE everywhere: {above_diagonal}; w=0 max-MEE within 2SE: {endpoint_mee}; "
        f"w=1 max-TEE within 2SE: {endpoint_tee}",
    )


def test_criterion_7_trend_reproduction():
    config = ScenarioConfig()
    distances = [10.0, 20.0, 40.0, 80.0]
    weights = [0.0, 0.5, 1.0]
    rows = trend_study(
        config, distances, weights, trials=200, seed=70,
        solver_config=SolverConfig(tolerance=1e-3), workers=WORKERS,
    )
    by_key = {(r.params["d_d2d"], r.params["w"]): r for r in rows}

    tee_ok = True
    for w in weights:
        for d_prev, d_next in zip(distances, distances[1:]):
            a, b = by_key[(d_prev, w)], by_key[(d_next, w)]
            margin = 2.0 * math.hypot(a.tee_se, b.tee_se)
            tee_ok = tee_ok and (b.tee_mean <= a.tee_mean + margin)

    jfi_ok = True
    for d in distances:
        for w_prev, w_next in zip(weights, weights[1:]):
            a, b = by_key[(d, w_prev)], by_key[(d, w_next)]
            margin = 2.0 * math.hypot(a.jfi_se, b.jfi_se)
            jfi_ok = jfi_ok and (b.jfi_mean <= a.jfi_mean + margin)

    criterion(
        7,
        "trends over 200 trials: TEE nonincreasing in distance, fairness nonincreasing in weight",
        tee_ok and jfi_ok,
        f"TEE-vs-distance: {tee_ok}; JFI-vs-weight: {jfi_ok}",
    )


def test_criterion_8_iteration_bound(engine_runs):
    bound_ok = True
    worst = ""
    checked = 0
    for (eps, w), by_trial in engine_runs.items():
        for s in by_trial.values():
            if s.f_initial <= 0:
                continue
            checked += 1
            lam = max(s.f_final / s.f_initial, 1.0)
            bound = 1.0 + (lam - 1.0) / eps
            if s.iterations > bound + 1e-9:
                bound_ok = False
                worst = f"eps={eps} w={w} trial={s.trial}: {s.iterations} > {bound:.2f}"

    monotone_ok = True
    for w in (0.0, 0.7, 1.0):
        for trial in range(TRIALS):
            i2 = engine_runs[(1e-2, w)][trial].iterations
            i3 = engine_runs[(1e-3, w)][trial].iterations
            i4 = engine_runs[(1e-4, w)][trial].iterations
            if not (i2 <= i3 <= i4):
                monotone_ok = False
                worst = f"w={w} trial={trial}: counts {i2},{i3},{i4} not monotone"

    criterion(
        8,
        f"iteration bound 1+(lambda-1)/eps on {checked} positive-start runs, "
        "counts monotone across tolerances on identical seeds",
        bound_ok and monotone_ok,
        worst or "all within bound",
    )


def test_criterion_9_feasibility_preservation(engine_runs):
    bad = 0
    total = 0
    for by_trial in engine_runs.values():
        for s in by_trial.values():
            total += 1
            if not (s.all_feasible and s.final_feasible):
                bad += 1
    criterion(
        9,
        f"every intermediate and final allocation of {total} runs feasible at tol 1e-6",
        bad == 0,
        f"{bad} violations",
    )


def test_criterion_10_determinism_replay(tmp_path):
    config = {
        "command": "pareto",
        "seed": 101,
        "scenario": {"d2d_distance": 20.0, "n_d2d_pairs": 3, "n_blocks": 3},
        "scalarization": {"kind": "weighted_product"},
        "solver": {"tolerance": 1e-3},
        "pareto": {"weights": [0.0, 0.5, 1.0], "trials": 3},
    }
    cfg_path = tmp_path / "cfg.yaml"
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(config, fh)
    first = tmp_path / "first"
    second = tmp_path / "second"
    rc1 = cli_main([str(cfg_path), "-o", str(first)])
    rc2 = cli_main([str(first / "record.yaml"), "-o", str(second)])
    tables_match = (first / "pareto.csv").read_bytes() == (second / "pareto.csv").read_bytes()
    criterion(
        10,
        "replaying a command from its emitted record reproduces the tables bit-identically",
        rc1 == EXIT_OK and rc2 == EXIT_OK and tables_match,
        f"exit codes {rc1}/{rc2}, tables identical: {tables_match}",
    )
