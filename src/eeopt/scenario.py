"""Synthetic uplink scenarios and the Monte-Carlo studies built on them.

The default scenario is a single micro-cell where one cellular handset
shares its resource blocks with four device-to-device pairs: every
transmitter sits at a uniformly random distance in [30, 100] m from the
base station (uniform angle), each D2D receiver sits a fixed link
distance from its transmitter at a uniform angle, and the cellular
user's receiver is the base station itself. Channel gains follow a
configurable power-law path loss (free space at the carrier frequency
by default, optional log-normal shadowing), identical across blocks;
there is no fast fading.

Reproducibility: a study is fully determined by its config and master
seed. Trial i draws its instance from a generator seeded with
SeedSequence([master_seed, i]), so trials are independent and the set of
per-trial results does not depend on execution order or worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .engine import RunStatus, SolverConfig, default_initial_point, run
from .errors import DomainError
from .network import NetworkInstance
from .scalarization import (
    Scalarization,
    ScalarizationKind,
    product_ee,
    weighted_minimum,
    weighted_product,
)
from .units import db_to_linear, dbm_to_watts

__all__ = [
    "ScenarioConfig",
    "SweepRow",
    "SweepResult",
    "ConvergenceRecord",
    "generate",
    "trial_seed",
    "pareto_sweep",
    "trend_study",
    "convergence_study",
    "resolve_workers",
]

WORKERS_ENV = "EEOPT_WORKERS"


@dataclass(frozen=True)
class ScenarioConfig:
    n_d2d_pairs: int = 4
    n_blocks: int = 5
    d2d_distance: float = 20.0            # m
    annulus_inner: float = 30.0           # m from the base station
    annulus_outer: float = 100.0
    carrier_frequency: float = 5e9        # Hz
    bandwidth_per_block: float = 5e5      # Hz
    noise_figure_db: float = 3.0
    thermal_noise_dbm_hz: float = -174.0
    amp_inefficiency: float = 1.0
    static_power_dbm: float = 10.0
    max_power_dbm: float = 23.0
    min_rate: float = 0.0                 # bit/s
    path_loss_exponent: float = 2.0
    path_loss_const_db: float | None = None   # default: free-space constant at carrier
    shadowing_sigma_db: float = 0.0
    min_link_distance: float = 1.0        # m, keeps gains finite for overlapping drops
    seed: int = 0                         # master seed for Monte-Carlo studies

    def __post_init__(self):
        if self.n_d2d_pairs < 1 or self.n_blocks < 1:
            raise DomainError("need at least one D2D pair and one block")
        if not 0 < self.annulus_inner < self.annulus_outer:
            raise DomainError("annulus bounds must satisfy 0 < inner < outer")
        if self.d2d_distance <= 0:
            raise DomainError("d2d_distance must be > 0")

    @property
    def n_users(self) -> int:
        return self.n_d2d_pairs + 1

    def path_loss_db(self, distance_m):
        const = self.path_loss_const_db
        if const is None:
            # free-space: 20 log10(d) + 20 log10(f) - 147.55 at exponent 2
            const = 20.0 * math.log10(self.carrier_frequency) - 147.55
        return 10.0 * self.path_loss_exponent * np.log10(distance_m) + const

    def noise_watts(self) -> float:
        n0 = dbm_to_watts(self.thermal_noise_dbm_hz)          # W/Hz
        return db_to_linear(self.noise_figure_db) * n0 * self.bandwidth_per_block


def generate(config: ScenarioConfig, seed) -> NetworkInstance:
    """Draw one network instance; identical seeds give identical instances.

    User 0 is the cellular handset (receiver at the base station);
    users 1..n are the D2D transmitters, each with its own receiver.
    """
    rng = np.random.default_rng(seed)
    n = config.n_users

    radii = rng.uniform(config.annulus_inner, config.annulus_outer, size=n)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    tx = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])

    rx = np.zeros((n, 2))
    d2d_angles = rng.uniform(0.0, 2.0 * math.pi, size=n - 1)
    rx[1:, 0] = tx[1:, 0] + config.d2d_distance * np.cos(d2d_angles)
    rx[1:, 1] = tx[1:, 1] + config.d2d_distance * np.sin(d2d_angles)

    dist = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)
    dist = np.maximum(dist, config.min_link_distance)
    gain_db = -config.path_loss_db(dist)
    if config.shadowing_sigma_db > 0:
        gain_db = gain_db + rng.normal(0.0, config.shadowing_sigma_db, size=dist.shape)
    gain = np.repeat(10.0 ** (gain_db / 10.0)[:, :, None], config.n_blocks, axis=2)

    return NetworkInstance(
        bandwidth_per_block=config.bandwidth_per_block,
        gain=gain,
        noise=np.full((n, config.n_blocks), config.noise_watts()),
        amp_inefficiency=config.amp_inefficiency,
        static_power=dbm_to_watts(config.static_power_dbm),
        max_power=dbm_to_watts(config.max_power_dbm),
        min_rate=config.min_rate,
    )


def trial_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """The documented trial-splitting rule."""
    return np.random.SeedSequence([int(master_seed), int(trial)])


@dataclass(frozen=True)
class SweepRow:
    params: dict
    tee_mean: float
    tee_se: float
    mee_mean: float
    mee_se: float
    jfi_mean: float
    jfi_se: float
    iterations_mean: float
    iterations_se: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    master_seed: int
    trials: int


@dataclass(frozen=True)
class ConvergenceRecord:
    weight: float
    zeta: float
    epsilon: float
    iterations: list[int]
    iterations_mean: float
    trajectory: np.ndarray     # first trial's objective trajectory
    final_objectives: list[float]


def resolve_workers(workers: int | None = None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return 1


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def _scalarization_for(kind: str, w: float) -> Scalarization:
    kind = ScalarizationKind(kind) if not isinstance(kind, ScalarizationKind) else kind
    if kind is ScalarizationKind.WEIGHTED_PRODUCT:
        return weighted_product(w)
    if kind is ScalarizationKind.WEIGHTED_MINIMUM:
        return weighted_minimum(w)
    return product_ee()


def _pareto_trial(args):
    config, w_grid, kind, include_pee, solver_config, trial = args
    inst = generate(config, trial_seed(config.seed, trial))
    out = []
    for w in w_grid:
        result = run(inst, _scalarization_for(kind, w), solver_config)
        m = result.metrics
        out.append((m.ee_total, m.ee_min, m.jain_index, result.iterations))
    if include_pee:
        result = run(inst, product_ee(), solver_config)
        m = result.metrics
        out.append((m.ee_total, m.ee_min, m.jain_index, result.iterations))
    return trial, out


def _dispatch(worker, tasks, workers):
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def pareto_sweep(config: ScenarioConfig, w_grid, kind="weighted_product", trials: int = 1,
                 solver_config: SolverConfig | None = None, include_product_ee: bool = False,
                 workers: int | None = None) -> SweepResult:
    """Trade-off points (min EE, total EE) over a weight grid, trial-averaged.

    Each trial draws one instance and runs every weight on it, so the
    weight axis is directly comparable within a trial.
    """
    w_grid = [float(w) for w in w_grid]
    if any(not 0.0 <= w <= 1.0 for w in w_grid):
        raise DomainError("weights must lie in [0, 1]")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    solver_config = solver_config or SolverConfig()
    workers = resolve_workers(workers)

    tasks = [(config, w_grid, kind, include_product_ee, solver_config, t) for t in range(trials)]
    per_trial = dict(_dispatch(_pareto_trial, tasks, workers))

    labels = [{"w": w} for w in w_grid]
    if include_product_ee:
        labels.append({"w": float("nan"), "baseline": "product_ee"})
    rows = []
    for col, params in enumerate(labels):
        tee, mee, jfi, iters = zip(*(per_trial[t][col] for t in range(trials)))
        tee_mean, tee_se = _mean_se(tee)
        mee_mean, mee_se = _mean_se(mee)
        jfi_mean, jfi_se = _mean_se(jfi)
        iters_mean, iters_se = _mean_se(iters)
        rows.append(
            SweepRow(
                params=params,
                tee_mean=tee_mean, tee_se=tee_se,
                mee_mean=mee_mean, mee_se=mee_se,
                jfi_mean=jfi_mean, jfi_se=jfi_se,
                iterations_mean=iters_mean, iterations_se=iters_se,
                trials=trials,
            )
        )
    return SweepResult(rows=rows, master_seed=config.seed, trials=trials)


def _trend_trial(args):
    config, distances, w_list, solver_config, trial = args
    out = []
    for d in distances:
        inst = generate(replace(config, d2d_distance=d), trial_seed(config.seed, trial))
        for w in w_list:
            result = run(inst, weighted_product(w), solver_config)
            m = result.metrics
            out.append((m.ee_total, m.ee_min, m.jain_index, result.iterations))
    return trial, out


def trend_study(config: ScenarioConfig, d2d_distances, w_list, trials: int = 1,
                solver_config: SolverConfig | None = None,
                workers: int | None = None) -> SweepResult:
    """Averaged total EE and fairness index versus D2D link distance and weight."""
    d2d_distances = [float(d) for d in d2d_distances]
    if any(d <= 0 for d in d2d_distances):
        raise DomainError("distances must be > 0")
    w_list = [float(w) for w in w_list]
    solver_config = solver_config or SolverConfig()
    workers = resolve_workers(workers)

    tasks = [(config, d2d_distances, w_list, solver_config, t) for t in range(trials)]
    per_trial = dict(_dispatch(_trend_trial, tasks, workers))

    rows = []
    col = 0
    for d in d2d_distances:
        for w in w_list:
            tee, mee, jfi, iters = zip(*(per_trial[t][col] for t in range(trials)))
            tee_mean, tee_se = _mean_se(tee)
            mee_mean, mee_se = _mean_se(mee)
            jfi_mean, jfi_se = _mean_se(jfi)
            iters_mean, iters_se = _mean_se(iters)
            rows.append(
                SweepRow(
                    params={"d_d2d": d, "w": w},
                    tee_mean=tee_mean, tee_se=tee_se,
                    mee_mean=mee_mean, mee_se=mee_se,
                    jfi_mean=jfi_mean, jfi_se=jfi_se,
                    iterations_mean=iters_mean, iterations_se=iters_se,
                    trials=trials,
                )
            )
            col += 1
    return SweepResult(rows=rows, master_seed=config.seed, trials=trials)


def _convergence_trial(args):
    config, w_list, zeta_list, epsilons, solver_config, trial = args
    inst = generate(config, trial_seed(config.seed, trial))
    uniform = default_initial_point(inst)
    out = []
    for w in w_list:
        for zeta in zeta_list:
            for eps in epsilons:
                cfg = replace(solver_config, tolerance=eps, initial_allocation=zeta * uniform)
                result = run(inst, weighted_product(w), cfg)
                if result.status is RunStatus.SUBPROBLEM_FAILURE:
                    raise RuntimeError(f"subproblem failure in trial {trial} (w={w}, zeta={zeta})")
                out.append((result.iterations, result.trajectory, float(result.trajectory[-1])))
    return trial, out


def convergence_study(config: ScenarioConfig, w_list, zeta_list, epsilons, trials: int = 1,
                      solver_config: SolverConfig | None = None,
                      workers: int | None = None) -> list[ConvergenceRecord]:
    """Objective trajectories and iteration counts per (weight, start scale, tolerance)."""
    zeta_list = [float(z) for z in zeta_list]
    if any(not 0.0 < z <= 1.0 for z in zeta_list):
        raise DomainError("start scales must lie in (0, 1]")
    solver_config = solver_config or SolverConfig()
    workers = resolve_workers(workers)

    tasks = [(config, list(w_list), zeta_list, list(epsilons), solver_config, t) for t in range(trials)]
    per_trial = dict(_dispatch(_convergence_trial, tasks, workers))

    records = []
    col = 0
    for w in w_list:
        for zeta in zeta_list:
            for eps in epsilons:
                iters = [per_trial[t][col][0] for t in range(trials)]
                finals = [per_trial[t][col][2] for t in range(trials)]
                records.append(
                    ConvergenceRecord(
                        weight=float(w),
                        zeta=zeta,
                        epsilon=float(eps),
                        iterations=iters,
                        iterations_mean=float(np.mean(iters)),
                        trajectory=per_trial[0][col][1],
                        final_objectives=finals,
                    )
                )
                col += 1
    return records
