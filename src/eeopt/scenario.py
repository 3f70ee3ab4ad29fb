"""Synthetic uplink scenarios and the Monte-Carlo studies built on them.

The default scenario is a single micro-cell where one cellular handset
shares its resource blocks with four device-to-device pairs: every
transmitter sits at a uniformly random distance in [30, 100] m from the
base station (uniform angle), each D2D receiver sits a fixed link
distance from its transmitter at a uniform angle, and the cellular
user's receiver is the base station itself. Channel gains follow a
configurable power-law path loss (free space at the carrier frequency
by default, optional log-normal shadowing), identical across blocks;
there is no fast fading. So every iterate from the uniform start is
block-symmetric, and the studies report the best block-symmetric point.

The three studies share one grid sweep. A study is a list of cells,
each a scalarization plus its row's grid parameters, which may set the
D2D distance, the start scale and the tolerance; every trial draws its
instance (one per distance) and runs every cell on it, serially or on a
process pool, and one reducer turns each cell's runs into a row of trial
means and standard errors that keeps the runs. A run fails unless it
ends `converged`; a row counts its failed runs and averages the others.
The convergence study adds each row's per-trial iteration bound.

Reproducibility: a study is fully determined by its config and master
seed. Trial i draws its instance from a generator seeded with
SeedSequence([master_seed, i]), so trials are independent and the set of
per-trial results does not depend on execution order or worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import RunStatus, SolverConfig, SolveResult, default_initial_point, run
from .errors import DomainError, check_integer
from .network import NetworkInstance
from .scalarization import Scalarization, ScalarizationKind, product_ee, weighted_product
from .units import db_to_linear, dbm_to_watts

__all__ = [
    "ScenarioConfig",
    "SweepRow",
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
        for name, low in (("n_d2d_pairs", 1), ("n_blocks", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), low)
        if not 0 < self.annulus_inner < self.annulus_outer < math.inf:
            raise DomainError("annulus bounds must satisfy 0 < inner < outer < inf")
        for name in ("d2d_distance", "min_link_distance", "carrier_frequency", "bandwidth_per_block"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and > 0")
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
        for name, low in (("shadowing_sigma_db", 0), ("min_rate", 0), ("amp_inefficiency", 1)):
            if not low <= getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be finite and >= {low}")
        if self.path_loss_const_db is not None and not math.isfinite(self.path_loss_const_db):
            raise DomainError("path_loss_const_db must be finite or null")
        # a user on the longest direct link, unshadowed at full power, must
        # get a nonzero rate, or its log2 EE is -inf and no run can start; the
        # SNR is summed in dB and capped at 0 dB, where the rate is surely
        # positive, so no power-gain product can overflow here
        longest = max(self.annulus_outer, self.d2d_distance)
        snr_db = float(self.max_power_dbm - self.thermal_noise_dbm_hz - self.noise_figure_db
                       - 10.0 * math.log10(self.bandwidth_per_block) - self.path_loss_db(longest))
        if not math.log2(1.0 + db_to_linear(min(snr_db, 0.0))) > 0:
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
    """One grid cell: its parameters, the runs it reduces, one per trial,
    and each metric's mean and standard error over the runs that ended
    `converged` (NaN if none did); `failed` counts the others."""

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
    runs: tuple[SolveResult, ...] = field(repr=False, compare=False)   # == on arrays is ambiguous
    # convergence only: per trial 1 + (lambda - 1)/epsilon, None unless f_0 > 0
    bounds: tuple[float | None, ...] = ()

    @property
    def failed(self) -> int:
        """The runs of the cell that did not end converged."""
        return sum(r.status is not RunStatus.CONVERGED for r in self.runs)

    @property
    def bound_min(self) -> float | None:
        """The smallest bound over the trials, None if no trial has one."""
        return min((b for b in self.bounds if b is not None), default=None)

    @property
    def bound_slack_min(self) -> float | None:
        """The smallest bound minus iteration count, None if no trial has a bound."""
        return min((b - r.iterations for b, r in zip(self.bounds, self.runs) if b is not None),
                   default=None)


def resolve_workers(workers: int | None = None) -> int:
    """Sweep worker processes: the integer argument, else EEOPT_WORKERS, else 1; at least 1."""
    if workers is not None:
        check_integer("workers", workers, 1)
        return int(workers)
    value = os.environ.get(WORKERS_ENV) or 1
    try:
        count = int(value)
    except ValueError:
        raise DomainError(f"{WORKERS_ENV} must be an integer, got {value!r}") from None
    if count < 1:
        raise DomainError(f"{WORKERS_ENV} must be >= 1, got {value!r}")
    return count


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


@dataclass(frozen=True)
class _Cell:
    """One grid point: a scalarization and its row's parameters.

    Of the parameters, `d_d2d` replaces the scenario's link distance,
    `zeta` starts the run at that fraction of the uniform split and
    `epsilon` replaces the solver tolerance.
    """

    scalarization: Scalarization
    params: dict


def _grid_trial(args) -> list[SolveResult]:
    """Run every cell on one trial's instance, one instance per link distance."""
    config, cells, solver_config, trial = args
    instances = {}
    results = []
    for cell in cells:
        d = cell.params.get("d_d2d")
        if d not in instances:
            scenario = config if d is None else replace(config, d2d_distance=d)
            instances[d] = generate(scenario, trial_seed(config.seed, trial))
        inst = instances[d]
        cfg = solver_config
        if "epsilon" in cell.params:
            cfg = replace(cfg, tolerance=cell.params["epsilon"])
        if "zeta" in cell.params:
            cfg = replace(cfg, initial_allocation=cell.params["zeta"] * default_initial_point(inst))
        results.append(run(inst, cell.scalarization, cfg))
    return results


def _run_grid(config: ScenarioConfig, cells: list[_Cell], trials: int,
              solver_config: SolverConfig | None, workers: int | None) -> list[SweepRow]:
    """Every cell on every trial's instance, one row per cell."""
    check_integer("trials", trials, 1)
    workers = resolve_workers(workers)
    tasks = [(config, cells, solver_config or SolverConfig(), t) for t in range(trials)]
    if workers <= 1:
        per_trial = [_grid_trial(t) for t in tasks]
    else:
        # imported here: concurrent.futures costs about a tenth of `import eeopt`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_grid_trial, tasks))
    return [_sweep_row(cell.params, runs) for cell, runs in zip(cells, zip(*per_trial))]


def _sweep_row(params: dict, runs: tuple[SolveResult, ...]) -> SweepRow:
    """Trial mean and standard error of one cell's metrics over its converged runs."""
    converged = [r for r in runs if r.status is RunStatus.CONVERGED]
    tee = _mean_se([r.metrics.ee_total for r in converged])
    mee = _mean_se([r.metrics.ee_min for r in converged])
    jfi = _mean_se([r.metrics.jain_index for r in converged])
    iters = _mean_se([r.iterations for r in converged])
    return SweepRow(params, *tee, *mee, *jfi, *iters, trials=len(runs), runs=runs)


def _checked(name: str, values, ok, rule: str) -> list[float]:
    """A study's grid entries as floats; a DomainError naming `name` unless every one is ok."""
    values = [float(v) for v in values]
    if not all(ok(v) for v in values):
        raise DomainError(f"{name} must {rule}, got {values}")
    return values


def _weights(values) -> list[float]:
    return _checked("weights", values, lambda w: 0.0 <= w <= 1.0, "lie in [0, 1]")


def pareto_sweep(config: ScenarioConfig, w_grid, kind="weighted_product", trials: int = 1,
                 solver_config: SolverConfig | None = None, include_product_ee: bool = False,
                 workers: int | None = None) -> list[SweepRow]:
    """Trade-off points (min EE, total EE) over a weight grid, trial-averaged.

    Each trial draws one instance and runs every weight on it, so the
    weight axis is directly comparable within a trial.
    """
    w_grid = _weights(w_grid)
    kind = ScalarizationKind(kind)
    cells = [_Cell(Scalarization(kind, w), {"w": w}) for w in w_grid]
    if include_product_ee:
        cells.append(_Cell(product_ee(), {"w": float("nan"), "baseline": "product_ee"}))
    return _run_grid(config, cells, trials, solver_config, workers)


def trend_study(config: ScenarioConfig, d2d_distances, w_list, trials: int = 1,
                solver_config: SolverConfig | None = None,
                workers: int | None = None) -> list[SweepRow]:
    """Averaged total EE and fairness index versus D2D link distance and weight."""
    d2d_distances = _checked("distances", d2d_distances, lambda d: 0 < d < math.inf,
                             "be finite and > 0")
    w_list = _weights(w_list)
    cells = [_Cell(weighted_product(w), {"d_d2d": d, "w": w})
             for d in d2d_distances for w in w_list]
    return _run_grid(config, cells, trials, solver_config, workers)


def convergence_study(config: ScenarioConfig, w_list, zeta_list, epsilons, trials: int = 1,
                      solver_config: SolverConfig | None = None,
                      workers: int | None = None) -> list[SweepRow]:
    """Iteration counts per (weight, start scale, tolerance), with the iteration bound.

    Each row carries the method's iteration bound per trial,
    1 + (lambda - 1)/epsilon, where lambda is the best final objective of
    that trial over the tolerances of its (weight, start scale) pair,
    divided by the common start value f_0. The bound holds for f_0 > 0
    only; elsewhere it is None.
    """
    w_list = _weights(w_list)
    zeta_list = _checked("zetas", zeta_list, lambda z: 0.0 < z <= 1.0, "lie in (0, 1]")
    epsilons = _checked("epsilons", epsilons, lambda e: 0.0 < e < math.inf, "be finite and > 0")
    cells = [
        _Cell(weighted_product(w), {"w": w, "zeta": zeta, "epsilon": eps})
        for w in w_list for zeta in zeta_list for eps in epsilons
    ]
    rows = _run_grid(config, cells, trials, solver_config, workers)
    best = {}     # (w, zeta) -> per-trial best final objective over the tolerances
    for row in rows:
        key = row.params["w"], row.params["zeta"]
        best[key] = np.maximum(best.get(key, -np.inf), [r.trajectory[-1] for r in row.runs])

    def bound(f_0, f_best, eps):
        return 1.0 + max(f_best / f_0 - 1.0, 0.0) / eps if f_0 > 0 else None

    def bounds(row):
        f_best = best[row.params["w"], row.params["zeta"]]
        return tuple(bound(float(r.trajectory[0]), float(f), row.params["epsilon"])
                     for r, f in zip(row.runs, f_best))

    return [replace(row, bounds=bounds(row)) for row in rows]
