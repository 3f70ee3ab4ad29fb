"""Batch front-end: parse a YAML config, run a study, write result tables.

Commands (the `command` key of the config):

* solve        one optimization run; emits the trajectory table
* pareto       weight sweep; one row per weight
* trend        distance x weight sweep; one row per pair
* convergence  trajectories per (weight, start scale, tolerance)

Every invocation writes `record.yaml` holding the fully resolved config
(SI units, defaults materialized) plus result summaries; feeding the
record back to the CLI replays the run and reproduces the tables
byte-for-byte. Flat CSV tables sit next to it for plotting.

Exit codes: 0 ok, 2 config error, 3 infeasible problem, 4 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from .engine import RunStatus, SolverConfig, run
from .errors import (
    DomainError,
    EEOptError,
    InfeasibleInitialPointError,
    InfeasibleSubproblemError,
    ShapeError,
)
from .network import NetworkInstance
from .scalarization import Scalarization, ScalarizationKind
from .scenario import (
    ScenarioConfig,
    convergence_study,
    generate,
    pareto_sweep,
    trend_study,
)
from .solver import BarrierSettings
from .units import (
    parse_db,
    parse_dbm,
    parse_dbm_per_hz,
    parse_distance,
    parse_frequency,
    parse_rate,
    parse_scalar,
)

__all__ = ["main", "run_command", "load_config", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

VERBOSE_ENV = "EEOPT_VERBOSE"

log = logging.getLogger("eeopt")


class ConfigError(EEOptError):
    """The run configuration cannot be interpreted."""


def _float_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_float_cell(v) for v in row])


_SCENARIO_PARSERS = {
    "n_d2d_pairs": int,
    "n_blocks": int,
    "d2d_distance": parse_distance,
    "annulus_inner": parse_distance,
    "annulus_outer": parse_distance,
    "carrier_frequency": parse_frequency,
    "bandwidth_per_block": parse_frequency,
    "noise_figure_db": parse_db,
    "thermal_noise_dbm_hz": parse_dbm_per_hz,
    "amp_inefficiency": parse_scalar,
    "static_power_dbm": parse_dbm,
    "max_power_dbm": parse_dbm,
    "min_rate": parse_rate,
    "path_loss_exponent": parse_scalar,
    "path_loss_const_db": lambda v: None if v is None else parse_db(v),
    "shadowing_sigma_db": parse_db,
    "min_link_distance": parse_distance,
    "seed": int,
}

# the keys each study command reads from its own section
_STUDY_KEYS = {
    "pareto": {"weights", "trials", "include_product_ee"},
    "trend": {"distances", "weights", "trials"},
    "convergence": {"weights", "zetas", "epsilons", "trials"},
}


def _integer(value, what) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what}: expected an integer, got {value!r}") from None


def _build_scenario(section: dict, seed: int) -> ScenarioConfig:
    kwargs = {"seed": seed}
    for key, value in section.items():
        if key not in _SCENARIO_PARSERS:
            raise ConfigError(f"unknown scenario key {key!r}")
        try:
            kwargs[key] = _SCENARIO_PARSERS[key](value)
        except (DomainError, TypeError, ValueError) as exc:
            raise ConfigError(f"scenario.{key}: {exc}") from exc
    return ScenarioConfig(**kwargs)


def _build_instance(section: dict) -> NetworkInstance:
    required = {"bandwidth_per_block", "gain", "noise", "amp_inefficiency",
                "static_power", "max_power", "min_rate"}
    missing = required - set(section)
    if missing:
        raise ConfigError(f"instance section is missing {sorted(missing)}")
    unknown = set(section) - required
    if unknown:
        raise ConfigError(f"unknown instance keys {sorted(unknown)}")
    try:
        return NetworkInstance(
            bandwidth_per_block=float(section["bandwidth_per_block"]),
            gain=np.asarray(section["gain"], dtype=float),
            noise=np.asarray(section["noise"], dtype=float),
            amp_inefficiency=np.asarray(section["amp_inefficiency"], dtype=float),
            static_power=np.asarray(section["static_power"], dtype=float),
            max_power=np.asarray(section["max_power"], dtype=float),
            min_rate=np.asarray(section["min_rate"], dtype=float),
        )
    except (DomainError, ShapeError, ValueError) as exc:
        raise ConfigError(f"instance: {exc}") from exc


def _build_scalarization(section: dict) -> Scalarization:
    kind = section.get("kind", "weighted_product")
    try:
        kind = ScalarizationKind(kind)
    except ValueError:
        raise ConfigError(f"unknown scalarization kind {kind!r}") from None
    weight = float(section.get("weight", 0.5))
    try:
        return Scalarization(kind, weight)
    except DomainError as exc:
        raise ConfigError(f"scalarization: {exc}") from exc


def _build_solver_config(section: dict) -> SolverConfig:
    known = {"tolerance", "max_outer_iterations", "kkt_tolerance", "barrier"}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown solver keys {sorted(unknown)}")
    barrier_section = section.get("barrier", {})
    barrier_fields = {f for f in BarrierSettings.__dataclass_fields__}
    bad = set(barrier_section) - barrier_fields
    if bad:
        raise ConfigError(f"unknown barrier keys {sorted(bad)}")
    try:
        barrier = BarrierSettings(**{k: float(v) if k != "max_newton_per_center" else int(v)
                                     for k, v in barrier_section.items()})
        return SolverConfig(
            tolerance=float(section.get("tolerance", 1e-3)),
            max_outer_iterations=int(section.get("max_outer_iterations", 200)),
            kkt_tolerance=float(section.get("kkt_tolerance", 1e-8)),
            barrier=barrier,
        )
    except (DomainError, ValueError) as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _weight_grid(spec) -> list[float]:
    if isinstance(spec, int):
        if spec < 2:
            raise ConfigError("a weight grid needs at least 2 points")
        return [i / (spec - 1) for i in range(spec)]
    return [parse_scalar(w) for w in spec]


def load_config(path) -> dict:
    """Read a config or record file; records replay through their `config` key."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a mapping")
    if "config" in data and isinstance(data["config"], dict):
        data = data["config"]
    return data


def _parse_override_value(raw: str):
    value = yaml.safe_load(raw)
    if isinstance(value, str):
        # YAML 1.1 needs a dot for scientific notation; accept plain 1e-4 too
        try:
            return float(value)
        except ValueError:
            return value
    return value


def apply_overrides(config: dict, overrides) -> dict:
    """Apply `dotted.path=value` strings; values parse as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        value = _parse_override_value(raw)
        node = config
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {dotted!r} descends into a non-mapping")
        node[parts[-1]] = value
    return config


class _Resolved:
    """A fully interpreted run configuration."""

    def __init__(self, raw: dict):
        known = {"command", "seed", "scenario", "instance", "scalarization",
                 "solver", "pareto", "trend", "convergence", "output", "workers"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        self.command = raw.get("command")
        if self.command not in {"solve", "pareto", "trend", "convergence"}:
            raise ConfigError(
                f"command must be one of solve|pareto|trend|convergence, got {self.command!r}"
            )
        self.seed = _integer(raw.get("seed", 0), "seed")
        has_scenario = "scenario" in raw
        has_instance = "instance" in raw
        if has_scenario == has_instance:
            raise ConfigError("exactly one of `scenario` or `instance` must be present")
        self.scenario = _build_scenario(raw["scenario"], self.seed) if has_scenario else None
        self.instance = _build_instance(raw["instance"]) if has_instance else None
        if self.instance is not None and self.command != "solve":
            raise ConfigError(f"command {self.command!r} needs a `scenario` section")
        self.scalarization = _build_scalarization(raw.get("scalarization", {}))
        self.solver = _build_solver_config(raw.get("solver", {}))
        self.workers = None if raw.get("workers") is None else _integer(raw["workers"], "workers")
        self.sections = {}
        for name, known in _STUDY_KEYS.items():
            section = raw.get(name) or {}
            if not isinstance(section, dict):
                raise ConfigError(f"{name} must be a mapping, got {section!r}")
            unknown = set(section) - known
            if unknown:
                raise ConfigError(f"unknown {name} keys {sorted(unknown)}")
            self.sections[name] = section
        self.output_dir = Path(raw.get("output", {}).get("directory", "results"))

    def resolved_dict(self) -> dict:
        out = {
            "command": self.command,
            "seed": self.seed,
            "scalarization": {
                "kind": self.scalarization.kind.value,
                "weight": self.scalarization.weight,
            },
            "solver": {
                "tolerance": self.solver.tolerance,
                "max_outer_iterations": self.solver.max_outer_iterations,
                "kkt_tolerance": self.solver.kkt_tolerance,
                "barrier": {
                    name: getattr(self.solver.barrier, name)
                    for name in BarrierSettings.__dataclass_fields__
                },
            },
            "output": {"directory": str(self.output_dir)},
        }
        if self.scenario is not None:
            out["scenario"] = asdict(self.scenario)
        else:
            inst = self.instance
            out["instance"] = {
                "bandwidth_per_block": inst.bandwidth_per_block,
                "gain": inst.gain.tolist(),
                "noise": inst.noise.tolist(),
                "amp_inefficiency": inst.amp_inefficiency.tolist(),
                "static_power": inst.static_power.tolist(),
                "max_power": inst.max_power.tolist(),
                "min_rate": inst.min_rate.tolist(),
            }
        for name, section in self.sections.items():
            if section:
                out[name] = section
        if self.workers is not None:
            out["workers"] = self.workers
        return out


def _cmd_solve(cfg: _Resolved):
    inst = cfg.instance if cfg.instance is not None else generate(cfg.scenario, cfg.seed)
    result = run(inst, cfg.scalarization, cfg.solver)
    m = result.metrics
    rows = [
        (0, float(result.trajectory[0]), "", "", "", "")
    ] + [
        (s.index, s.objective, s.u, s.v, s.kkt_residual, s.newton_iterations)
        for s in result.iteration_stats
    ]
    tables = {
        "trajectory.csv": (
            ["iteration", "objective_log2", "u_log2_tee", "v_log2_mee",
             "kkt_residual", "newton_iterations"],
            rows,
        )
    }
    summary = {
        "status": result.status.value,
        "iterations": result.iterations,
        "tee": m.ee_total,
        "mee": m.ee_min,
        "jain_index": m.jain_index,
        "rate_total": m.rate_total,
        "power_total": m.power_total,
        "per_user_ee": m.ee.tolist(),
        "allocation": result.allocation.tolist(),
        "trajectory": [float(f) for f in result.trajectory],
    }
    failed = result.status is RunStatus.SUBPROBLEM_FAILURE
    return tables, summary, failed


def _sweep_tables(name, result, columns):
    """One CSV of a sweep: a column per grid parameter or SweepRow field, in the given order."""
    def cell(row, column):
        if column in row.params:
            return row.params[column]
        if column == "seed":
            return result.master_seed
        return getattr(row, "iterations_mean" if column == "iters_mean" else column)

    return {f"{name}.csv": (columns, [[cell(row, c) for c in columns] for row in result.rows])}


def _cmd_pareto(cfg: _Resolved):
    section = cfg.sections["pareto"]
    weights = _weight_grid(section.get("weights", 21))
    trials = _integer(section.get("trials", 50), "pareto.trials")
    include_pee = bool(section.get("include_product_ee", False))
    result = pareto_sweep(
        cfg.scenario, weights,
        kind=cfg.scalarization.kind,
        trials=trials,
        solver_config=cfg.solver,
        include_product_ee=include_pee,
        workers=cfg.workers,
    )
    tables = _sweep_tables("pareto", result, [
        "w", "mee_mean", "mee_se", "tee_mean", "tee_se",
        "jfi_mean", "iters_mean", "trials", "seed",
    ])
    summary = {"rows": len(result.rows), "trials": trials}
    return tables, summary, False


def _cmd_trend(cfg: _Resolved):
    section = cfg.sections["trend"]
    distances = [parse_distance(d) for d in section.get("distances", [10, 20, 40, 80])]
    weights = [parse_scalar(w) for w in section.get("weights", [0.0, 0.5, 1.0])]
    trials = _integer(section.get("trials", 200), "trend.trials")
    result = trend_study(
        cfg.scenario, distances, weights,
        trials=trials, solver_config=cfg.solver, workers=cfg.workers,
    )
    tables = _sweep_tables("trend", result, [
        "d_d2d", "w", "tee_mean", "tee_se", "jfi_mean", "jfi_se",
        "mee_mean", "mee_se", "iters_mean", "trials", "seed",
    ])
    summary = {"rows": len(result.rows), "trials": trials}
    return tables, summary, False


def _cmd_convergence(cfg: _Resolved):
    section = cfg.sections["convergence"]
    weights = [parse_scalar(w) for w in section.get("weights", [0.0, 0.7, 1.0])]
    zetas = [parse_scalar(z) for z in section.get("zetas", [1.0])]
    epsilons = [parse_scalar(e) for e in section.get("epsilons", [1e-3])]
    trials = _integer(section.get("trials", 1), "convergence.trials")
    records = convergence_study(
        cfg.scenario, weights, zetas, epsilons,
        trials=trials, solver_config=cfg.solver, workers=cfg.workers,
    )
    tables = {
        "convergence_summary.csv": (
            ["w", "zeta", "epsilon", "iters_mean", "trials", "seed"],
            [
                (r.weight, r.zeta, r.epsilon, r.iterations_mean, trials, cfg.seed)
                for r in records
            ],
        )
    }
    for r in records:
        name = f"convergence_w{r.weight:g}_zeta{r.zeta:g}_eps{r.epsilon:g}.csv"
        tables[name] = (
            ["iteration", "objective_log2"],
            [(l, float(f)) for l, f in enumerate(r.trajectory)],
        )
    summary = {"records": len(records), "trials": trials}
    return tables, summary, False


_COMMANDS = {
    "solve": _cmd_solve,
    "pareto": _cmd_pareto,
    "trend": _cmd_trend,
    "convergence": _cmd_convergence,
}


def run_command(config: dict, output_dir=None) -> int:
    """Execute one interpreted config; returns the process exit code."""
    try:
        cfg = _Resolved(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if output_dir is not None:
        cfg.output_dir = Path(output_dir)

    try:
        tables, summary, failed = _COMMANDS[cfg.command](cfg)
    except (InfeasibleInitialPointError, InfeasibleSubproblemError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, DomainError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(cfg.output_dir / name, header, rows)
        log.info("wrote %s", cfg.output_dir / name)

    record = {
        "config": cfg.resolved_dict(),
        "results": summary,
        "outputs": sorted(tables),
        "status": "failed" if failed else "ok",
    }
    with open(cfg.output_dir / "record.yaml", "w") as fh:
        yaml.safe_dump(record, fh, sort_keys=True)
    log.info("wrote %s", cfg.output_dir / "record.yaml")

    if failed:
        print("solver failure: see record.yaml for the partial outputs", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eeopt",
        description="Energy-efficient power allocation studies "
                    "(solve | pareto | trend | convergence).",
    )
    parser.add_argument("config", help="YAML config file, or a record.yaml to replay")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key by dotted path, e.g. --set solver.tolerance=1e-4",
    )
    parser.add_argument("-o", "--output-dir", default=None, help="where to write tables")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    level = logging.INFO if args.verbose or os.environ.get(VERBOSE_ENV) else logging.WARNING
    logging.basicConfig(level=level, format="%(message)s")

    try:
        config = load_config(args.config)
        apply_overrides(config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run_command(config, output_dir=args.output_dir)


if __name__ == "__main__":
    sys.exit(main())
