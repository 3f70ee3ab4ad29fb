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

The three studies share one grid sweep. A study is a list of cells,
each a scalarization plus an optional D2D distance, start scale and
tolerance; every trial draws its instance (one per distance) and runs
every cell on it, serially or on a process pool, and each cell's runs
reduce to one row (trial means and standard errors) or one trajectory
record.

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

from .engine import RunStatus, SolverConfig, SolveResult, default_initial_point, run
from .errors import DomainError
from .network import NetworkInstance
from .scalarization import Scalarization, ScalarizationKind, product_ee, weighted_product
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
        if not 0 < self.annulus_inner < self.annulus_outer < math.inf:
            raise DomainError("annulus bounds must satisfy 0 < inner < outer < inf")
        for name in ("d2d_distance", "min_link_distance"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0")
        if not 0 < self.carrier_frequency < math.inf:
            raise DomainError("carrier_frequency must be finite and > 0")
        # past these the conversions overflow or round to zero watts
        for name, to_linear in (("noise_figure_db", db_to_linear),
                                ("thermal_noise_dbm_hz", dbm_to_watts),
                                ("static_power_dbm", dbm_to_watts),
                                ("max_power_dbm", dbm_to_watts)):
            try:
                linear = to_linear(getattr(self, name))
            except OverflowError:
                linear = math.inf
            if not 0 < linear < math.inf:
                raise DomainError(f"{name} must have a finite, positive linear value")
        if not 0 < self.path_loss_exponent < math.inf:
            raise DomainError("path_loss_exponent must be finite and > 0")
        if not 0 <= self.shadowing_sigma_db < math.inf:
            raise DomainError("shadowing_sigma_db must be finite and >= 0")
        if self.path_loss_const_db is not None and not math.isfinite(self.path_loss_const_db):
            raise DomainError("path_loss_const_db must be finite or null")
        # a user on the longest direct link, unshadowed at full power, must
        # get a nonzero rate, or its log2 EE is -inf and no run can start
        longest = max(self.annulus_outer, self.d2d_distance)
        with np.errstate(over="ignore"):    # an infinite gain is reported by `generate`
            gain = 10.0 ** (-self.path_loss_db(longest) / 10.0)
        snr = dbm_to_watts(self.max_power_dbm) * gain / self.noise_watts()
        if not math.log2(1.0 + snr) > 0:
            raise DomainError(
                f"path_loss_exponent and path_loss_const_db leave a {longest:g} m link "
                "no rate at max_power_dbm"
            )

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
    with np.errstate(over="ignore"):
        gain = np.repeat(10.0 ** (gain_db / 10.0)[:, :, None], config.n_blocks, axis=2)
    if not np.isfinite(gain).all():
        raise DomainError("path_loss_const_db and shadowing_sigma_db give a channel gain "
                          "too large for a float")

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
    bounds: list[float | None]  # per trial 1 + (lambda - 1)/epsilon; None unless f_0 > 0


def resolve_workers(workers: int | None = None) -> int:
    """Sweep worker processes: the argument, else EEOPT_WORKERS, else 1; at least 1."""
    name, value = "workers", workers
    if workers is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV) or 1
    try:
        count = int(value)
    except ValueError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise DomainError(f"{name} must be >= 1, got {value!r}")
    return count


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


@dataclass(frozen=True)
class _Cell:
    """One grid point: a scalarization and what it changes in the trial's run."""

    scalarization: Scalarization
    d2d_distance: float | None = None   # replaces the scenario's link distance
    start_scale: float | None = None    # start at this fraction of the uniform split
    tolerance: float | None = None      # replaces the solver tolerance


def _grid_trial(args) -> list[SolveResult]:
    """Run every cell on one trial's instance, one instance per link distance."""
    config, cells, solver_config, trial = args
    instances = {}
    results = []
    for cell in cells:
        d = cell.d2d_distance
        if d not in instances:
            scenario = config if d is None else replace(config, d2d_distance=d)
            instances[d] = generate(scenario, trial_seed(config.seed, trial))
        inst = instances[d]
        cfg = solver_config
        if cell.tolerance is not None:
            cfg = replace(cfg, tolerance=cell.tolerance)
        if cell.start_scale is not None:
            cfg = replace(cfg, initial_allocation=cell.start_scale * default_initial_point(inst))
        results.append(run(inst, cell.scalarization, cfg))
    return results


def _run_grid(config: ScenarioConfig, cells: list[_Cell], trials: int,
              solver_config: SolverConfig | None, workers: int | None) -> list[list[SolveResult]]:
    """Every cell on every trial's instance; returns results[cell][trial]."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    workers = resolve_workers(workers)
    tasks = [(config, cells, solver_config or SolverConfig(), t) for t in range(trials)]
    if workers <= 1:
        per_trial = [_grid_trial(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_grid_trial, tasks))
    return [list(runs) for runs in zip(*per_trial)]


def _sweep_row(params: dict, runs: list[SolveResult]) -> SweepRow:
    """Trial mean and standard error of one cell's metrics."""
    tee = _mean_se([r.metrics.ee_total for r in runs])
    mee = _mean_se([r.metrics.ee_min for r in runs])
    jfi = _mean_se([r.metrics.jain_index for r in runs])
    iters = _mean_se([r.iterations for r in runs])
    return SweepRow(params, *tee, *mee, *jfi, *iters, trials=len(runs))


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
    kind = ScalarizationKind(kind)
    cells = [_Cell(Scalarization(kind, w)) for w in w_grid]
    labels = [{"w": w} for w in w_grid]
    if include_product_ee:
        cells.append(_Cell(product_ee()))
        labels.append({"w": float("nan"), "baseline": "product_ee"})
    runs = _run_grid(config, cells, trials, solver_config, workers)
    rows = [_sweep_row(params, col) for params, col in zip(labels, runs)]
    return SweepResult(rows=rows, master_seed=config.seed, trials=trials)


def trend_study(config: ScenarioConfig, d2d_distances, w_list, trials: int = 1,
                solver_config: SolverConfig | None = None,
                workers: int | None = None) -> SweepResult:
    """Averaged total EE and fairness index versus D2D link distance and weight."""
    d2d_distances = [float(d) for d in d2d_distances]
    if not all(0 < d < math.inf for d in d2d_distances):
        raise DomainError(f"distances must be finite and > 0, got {d2d_distances}")
    labels = [{"d_d2d": d, "w": float(w)} for d in d2d_distances for w in w_list]
    cells = [_Cell(weighted_product(p["w"]), d2d_distance=p["d_d2d"]) for p in labels]
    runs = _run_grid(config, cells, trials, solver_config, workers)
    rows = [_sweep_row(params, col) for params, col in zip(labels, runs)]
    return SweepResult(rows=rows, master_seed=config.seed, trials=trials)


def convergence_study(config: ScenarioConfig, w_list, zeta_list, epsilons, trials: int = 1,
                      solver_config: SolverConfig | None = None,
                      workers: int | None = None) -> list[ConvergenceRecord]:
    """Objective trajectories and iteration counts per (weight, start scale, tolerance).

    Each record carries the method's iteration bound per trial,
    1 + (lambda - 1)/epsilon, where lambda is the best final objective of
    that trial over the tolerances of its (weight, start scale) pair,
    divided by the common start value f_0. The bound holds for f_0 > 0
    only; elsewhere it is None.
    """
    zeta_list = [float(z) for z in zeta_list]
    if any(not 0.0 < z <= 1.0 for z in zeta_list):
        raise DomainError("start scales must lie in (0, 1]")
    epsilons = [float(e) for e in epsilons]
    if any(not e > 0.0 for e in epsilons):
        raise DomainError("tolerances must be > 0")
    cells = [
        _Cell(weighted_product(w), start_scale=zeta, tolerance=eps)
        for w in w_list for zeta in zeta_list for eps in epsilons
    ]
    runs = _run_grid(config, cells, trials, solver_config, workers)
    for t in range(trials):
        for cell, col in zip(cells, runs):
            if col[t].status is RunStatus.SUBPROBLEM_FAILURE:
                raise RuntimeError(f"subproblem failure in trial {t} "
                                   f"(w={cell.scalarization.weight}, zeta={cell.start_scale})")
    keys = [(cell.scalarization.weight, cell.start_scale) for cell in cells]
    best = {}     # (w, zeta) -> per-trial best final objective over the tolerances
    for key, col in zip(keys, runs):
        best[key] = np.maximum(best.get(key, -np.inf), [r.trajectory[-1] for r in col])

    def bound(f_0, f_best, eps):
        return 1.0 + max(f_best / f_0 - 1.0, 0.0) / eps if f_0 > 0 else None

    return [
        ConvergenceRecord(
            weight=cell.scalarization.weight,
            zeta=cell.start_scale,
            epsilon=cell.tolerance,
            iterations=[r.iterations for r in col],
            iterations_mean=float(np.mean([r.iterations for r in col])),
            trajectory=col[0].trajectory,
            final_objectives=[float(r.trajectory[-1]) for r in col],
            bounds=[bound(float(r.trajectory[0]), float(f_best), cell.tolerance)
                    for r, f_best in zip(col, best[key])],
        )
        for cell, key, col in zip(cells, keys, runs)
    ]
