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
The config keeps its noise figure and power levels in dB and dBm;
`db_to_linear` and `dbm_to_watts` turn them into the instance's SI values.

The three studies share one grid sweep. A study is a list of cells,
each a scalarization plus its row's grid parameters, which may set the
D2D distance, the start scale and the tolerance; every trial draws its
instance (one per distance) and runs every cell on it, serially or on a
process pool, and each cell's runs become a row that keeps them and reads
its trial means and standard errors off them. A run fails unless it
ends `converged`; a row counts its failed runs and averages the others.
The convergence study adds each row's per-trial iteration bound.

Reproducibility: a study is fully determined by its config, its grid and
its `seed` argument, the master seed. Trial i draws its instance from a
generator seeded with SeedSequence([seed, i]), so trials are independent
and the set of per-trial results does not depend on execution order or
worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import RunStatus, SolverConfig, SolveResult, default_initial_point, run
from .errors import DomainError, check_integer, check_number
from .network import NetworkInstance
from .solver import Scalarization, ScalarizationKind, product_ee, weighted_product

__all__ = [
    "db_to_linear",
    "dbm_to_watts",
    "ScenarioConfig",
    "SweepRow",
    "generate",
    "trial_seed",
    "pareto_sweep",
    "trend_study",
    "convergence_study",
    "resolve_workers",
]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


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

    def __post_init__(self):
        for name in ("n_d2d_pairs", "n_blocks"):
            check_integer(name, getattr(self, name), 1)
        for name in ("annulus_inner", "annulus_outer", "d2d_distance", "min_link_distance",
                     "carrier_frequency", "bandwidth_per_block", "path_loss_exponent"):
            check_number(name, getattr(self, name), 0, strict=True)
        if not self.annulus_inner < self.annulus_outer:
            raise DomainError("annulus bounds must satisfy 0 < inner < outer < inf")
        # past these the conversions overflow or round to zero watts
        for name, to_linear in (("noise_figure_db", db_to_linear),
                                ("thermal_noise_dbm_hz", dbm_to_watts),
                                ("static_power_dbm", dbm_to_watts),
                                ("max_power_dbm", dbm_to_watts)):
            check_number(name, getattr(self, name))
            try:
                linear = to_linear(getattr(self, name))
            except OverflowError:
                linear = math.inf
            if not 0 < linear < math.inf:
                raise DomainError(f"{name} must have a finite, positive linear value")
        for name, low in (("shadowing_sigma_db", 0), ("min_rate", 0), ("amp_inefficiency", 1)):
            check_number(name, getattr(self, name), low)
        if self.path_loss_const_db is not None:
            check_number("path_loss_const_db", self.path_loss_const_db)
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
    """The documented trial-splitting rule, for integers master_seed, trial >= 0."""
    check_integer("master_seed", master_seed, 0)
    check_integer("trial", trial, 0)
    return np.random.SeedSequence([int(master_seed), int(trial)])


def _statistics(metric):
    """The mean and standard-error properties of `metric` over a row's runs that
    ended `converged`: NaN if none did, a standard error of 0 for one."""
    def stats(row) -> tuple[float, float]:
        arr = np.array([metric(r) for r in row.runs if r.status is RunStatus.CONVERGED],
                       dtype=float)
        if arr.size < 2:
            return (float(arr.mean()), 0.0) if arr.size else (math.nan, math.nan)
        return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

    return property(lambda row: stats(row)[0]), property(lambda row: stats(row)[1])


@dataclass(frozen=True, eq=False)     # rows hold runs, and == on their arrays is ambiguous
class SweepRow:
    """One grid cell: its parameters and the runs it reduces, one per trial.

    Each metric's mean and standard error (`tee`, `mee`, `jfi`,
    `iterations`) is read off the runs that ended `converged`; `failed`
    counts the others.
    """

    params: dict
    runs: tuple[SolveResult, ...] = field(repr=False)
    # convergence only: per trial 1 + (lambda - 1)/epsilon, None unless f_0 > 0
    bounds: tuple[float | None, ...] = ()

    tee_mean, tee_se = _statistics(lambda r: r.metrics.ee_total)
    mee_mean, mee_se = _statistics(lambda r: r.metrics.ee_min)
    jfi_mean, jfi_se = _statistics(lambda r: r.metrics.jain_index)
    iterations_mean, iterations_se = _statistics(lambda r: r.iterations)

    @property
    def trials(self) -> int:
        return len(self.runs)

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
    """Sweep worker processes: the integer argument, 1 if None; at least 1."""
    if workers is None:
        return 1
    check_integer("workers", workers, 1)
    return int(workers)


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
    config, cells, solver_config, seed, trial = args
    instances = {}
    results = []
    for cell in cells:
        d = cell.params.get("d_d2d")
        if d not in instances:
            scenario = config if d is None else replace(config, d2d_distance=d)
            instances[d] = generate(scenario, trial_seed(seed, trial))
        inst = instances[d]
        cfg = solver_config
        if "epsilon" in cell.params:
            cfg = replace(cfg, tolerance=cell.params["epsilon"])
        if "zeta" in cell.params:
            cfg = replace(cfg, initial_allocation=cell.params["zeta"] * default_initial_point(inst))
        results.append(run(inst, cell.scalarization, cfg))
    return results


def _run_grid(config: ScenarioConfig, cells: list[_Cell], trials: int, seed: int,
              solver_config: SolverConfig | None, workers: int | None) -> list[SweepRow]:
    """Every cell on every trial's instance, one row per cell."""
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)
    workers = resolve_workers(workers)
    tasks = [(config, cells, solver_config or SolverConfig(), seed, t) for t in range(trials)]
    if workers <= 1:
        per_trial = [_grid_trial(t) for t in tasks]
    else:
        # imported here: concurrent.futures costs about a tenth of `import eeopt`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_trial = list(pool.map(_grid_trial, tasks))
    return [SweepRow(cell.params, runs) for cell, runs in zip(cells, zip(*per_trial))]


def _grid(name: str, values, low, high=math.inf, strict=False) -> list[float]:
    """Grid entries as floats, each passing `check_number`; an empty or repeating grid is refused."""
    values = list(values)
    if not values:
        raise DomainError(f"{name} must not be empty")
    for v in values:
        check_number(name, v, low, high, strict)
    if len(set(map(float, values))) < len(values):
        raise DomainError(f"{name} must not repeat a value, got {values}")
    return [float(v) for v in values]


def pareto_sweep(config: ScenarioConfig, weights, kind="weighted_product", trials: int = 1,
                 seed: int = 0, solver_config: SolverConfig | None = None,
                 include_product_ee: bool = False, workers: int | None = None) -> list[SweepRow]:
    """Trade-off points (min EE, total EE) over a weight grid, trial-averaged.

    Each trial draws one instance and runs every weight on it, so the
    weight axis is directly comparable within a trial.
    """
    weights = _grid("weights", weights, 0, 1)
    kind = ScalarizationKind(kind)
    if kind is ScalarizationKind.PRODUCT_EE:
        raise DomainError("kind product_ee ignores the weight; include_product_ee adds its row")
    cells = [_Cell(Scalarization(kind, w), {"w": w}) for w in weights]
    if include_product_ee:
        cells.append(_Cell(product_ee(), {"w": float("nan"), "baseline": "product_ee"}))
    return _run_grid(config, cells, trials, seed, solver_config, workers)


def trend_study(config: ScenarioConfig, distances, weights, trials: int = 1, seed: int = 0,
                solver_config: SolverConfig | None = None,
                workers: int | None = None) -> list[SweepRow]:
    """Averaged total EE and fairness index versus D2D link distance and weight."""
    distances = _grid("distances", distances, 0, strict=True)
    weights = _grid("weights", weights, 0, 1)
    cells = [_Cell(weighted_product(w), {"d_d2d": d, "w": w}) for d in distances for w in weights]
    return _run_grid(config, cells, trials, seed, solver_config, workers)


def convergence_study(config: ScenarioConfig, weights, zetas, epsilons, trials: int = 1,
                      seed: int = 0, solver_config: SolverConfig | None = None,
                      workers: int | None = None) -> list[SweepRow]:
    """Iteration counts per (weight, start scale, tolerance), with the iteration bound.

    Each row carries the method's iteration bound per trial,
    1 + (lambda - 1)/epsilon, where lambda is the best final objective of
    that trial over the tolerances of its (weight, start scale) pair,
    divided by the common start value f_0. The bound holds for f_0 > 0
    only; elsewhere it is None.
    """
    weights = _grid("weights", weights, 0, 1)
    zetas = _grid("zetas", zetas, 0, 1, strict=True)
    epsilons = _grid("epsilons", epsilons, 0, strict=True)
    cells = [
        _Cell(weighted_product(w), {"w": w, "zeta": zeta, "epsilon": eps})
        for w in weights for zeta in zetas for eps in epsilons
    ]
    rows = _run_grid(config, cells, trials, seed, solver_config, workers)
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
