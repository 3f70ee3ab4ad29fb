"""Batch front-end: parse a YAML config, run a study, write result tables.

Commands (the `command` key of the config):

* solve        one optimization run; emits the trajectory table
* pareto       weight sweep; one row per weight
* trend        distance x weight sweep; one row per pair
* convergence  (weight, start scale, tolerance) sweep; one row per
               triple, with the iteration bound 1 + (lambda - 1)/epsilon,
               and the first trial's trajectory per triple

The three sweeps share one body: it runs the study and writes one CSV
line per SweepRow, a column per grid parameter or row field.

Every invocation writes `record.yaml` holding the fully resolved config
(SI units, defaults materialized) plus result summaries; feeding the
record back to the CLI replays the run and reproduces the tables
byte-for-byte. Flat CSV tables sit next to it for plotting.

Every section, the top level included, is read by `_read` through one
table of key -> (parser, default): `_TOP` below the parsers, which names
the table of each section. The table is the whole schema: it lists the
keys, so unknown ones are errors; it parses, so every error names its
`section.key`; and it holds the defaults, so a key appears once.

Exit codes: 0 ok, 2 config error, 3 infeasible problem, 4 solver failure:
a run that did not end `converged`, or a `convergence` count above its
bound. `run_command` decides it from the SweepRows that every command
returns (`solve`: one row of its run), and still writes every output.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import MISSING, asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .engine import SolverConfig, run
from .errors import (
    DomainError,
    EEOptError,
    InfeasibleInitialPointError,
    ShapeError,
)
from .network import NetworkInstance
from .scalarization import Scalarization, ScalarizationKind
from .scenario import (
    ScenarioConfig,
    _sweep_row,
    convergence_study,
    generate,
    pareto_sweep,
    trend_study,
)
from .solver import SubproblemStatus
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
    return "" if x is None else str(x)


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_float_cell(v) for v in row])


_REQUIRED = object()   # the table default of a key that a section must give


def _read(where: str, raw, table: dict) -> dict:
    """Read one config section through its table of key -> (parser, default).

    The section must be a mapping (null reads as empty) with no key outside
    the table. A key left out takes its default, which is written as in a
    config file and goes through the parser like a given value; _REQUIRED
    makes the key mandatory. Null is kept only where the default is null.
    A parser's error becomes a ConfigError naming `where.key`.
    """
    def name(key):
        return f"{where}.{key}" if where else str(key)

    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping, got {raw!r}")
    unknown = sorted(name(key) for key in raw if key not in table)
    if unknown:
        raise ConfigError(f"unknown keys {unknown}")
    values = {}
    for key, (parser, default) in table.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{name(key)} is required")
        try:
            values[key] = None if value is None and default is None else parser(value)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name(key)}: {exc}") from exc
    return values


def _section(where: str, table: dict, build=dict):
    """The parser of a nested section: read it through `table`, then `build(**values)`."""
    return lambda raw: build(**_read(where, raw, table))


def _fields(cls, parsers: dict) -> dict:
    """The table of a section that builds dataclass `cls`, with the fields' own defaults."""
    return {
        f.name: (parsers[f.name], _REQUIRED if f.default is MISSING else f.default)
        for f in fields(cls) if f.name in parsers
    }


def _integer(value) -> int:
    """An integral number or a string holding one; 2.5 and true are errors, not 2 and 1."""
    try:
        number = None if isinstance(value, bool) else int(value)
    except (OverflowError, TypeError, ValueError):
        number = None
    if number is None or (number != value and not isinstance(value, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return number


def _array(value) -> np.ndarray:
    """A number or nested list of numbers as a float array; true is an error, not 1.0."""
    if any(isinstance(v, bool) for v in np.asarray(value, dtype=object).flat):
        raise TypeError(f"expected numbers, got {value!r}")
    return np.asarray(value, dtype=float)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _list(parse):
    def parse_list(values) -> list:
        if not isinstance(values, list):
            raise TypeError(f"expected a list, got {values!r}")
        return [parse(v) for v in values]
    return parse_list


def _weight_grid(spec) -> list[float]:
    """An integer n >= 2 gives n equally spaced weights on [0, 1]; a list is taken as given."""
    if isinstance(spec, list):
        return [parse_scalar(w) for w in spec]
    if not isinstance(spec, int) or spec < 2:
        raise ValueError(f"expected a list of weights or an integer >= 2, got {spec!r}")
    return [i / (spec - 1) for i in range(spec)]


def _command(value) -> str:
    if not (isinstance(value, str) and value in _COMMANDS):
        raise ValueError(f"must be one of solve|pareto|trend|convergence, got {value!r}")
    return value


_SCENARIO = _fields(ScenarioConfig, {
    "n_d2d_pairs": _integer,
    "n_blocks": _integer,
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
    "path_loss_const_db": parse_db,
    "shadowing_sigma_db": parse_db,
    "min_link_distance": parse_distance,
    "seed": _integer,
})
_INSTANCE = _fields(NetworkInstance, {
    "bandwidth_per_block": parse_scalar,
    **dict.fromkeys(["gain", "noise", "amp_inefficiency", "static_power", "max_power",
                     "min_rate"], _array),
})
_SCALARIZATION = {"kind": (ScalarizationKind, "weighted_product"), "weight": (parse_scalar, 0.5)}
_SOLVER = _fields(SolverConfig, {"tolerance": parse_scalar, "max_outer_iterations": _integer,
                                  "kkt_tolerance": parse_scalar})
_STUDIES = {
    "pareto": {
        "weights": (_weight_grid, 21),
        "trials": (_integer, 50),
        "include_product_ee": (_boolean, False),
    },
    "trend": {
        "distances": (_list(parse_distance), [10, 20, 40, 80]),
        "weights": (_list(parse_scalar), [0.0, 0.5, 1.0]),
        "trials": (_integer, 200),
    },
    "convergence": {
        "weights": (_list(parse_scalar), [0.0, 0.7, 1.0]),
        "zetas": (_list(parse_scalar), [1.0]),
        "epsilons": (_list(parse_scalar), [1e-3]),
        "trials": (_integer, 1),
    },
}
_TOP = {
    "command": (_command, _REQUIRED),
    "seed": (_integer, 0),
    "workers": (_integer, None),
    "scenario": (_section("scenario", _SCENARIO, ScenarioConfig), None),
    "instance": (_section("instance", _INSTANCE, NetworkInstance), None),
    "scalarization": (_section("scalarization", _SCALARIZATION, Scalarization), {}),
    "solver": (_section("solver", _SOLVER, SolverConfig), {}),
    **{name: (_section(name, table), {}) for name, table in _STUDIES.items()},
    "output": (_section("output", {"directory": (Path, "results")}), {}),
}


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
        top = _read("", raw, _TOP)
        self.command, self.seed, self.workers = top["command"], top["seed"], top["workers"]
        self.scenario, self.instance = top["scenario"], top["instance"]
        if (self.scenario is None) == (self.instance is None):
            raise ConfigError("exactly one of `scenario` or `instance` must be present")
        if self.instance is not None and self.command != "solve":
            raise ConfigError(f"command {self.command!r} needs a `scenario` section")
        if self.scenario is not None and "seed" not in raw["scenario"]:
            self.scenario = replace(self.scenario, seed=self.seed)  # defaults to the run's seed
        self.scalarization, self.solver = top["scalarization"], top["solver"]
        self.studies = {name: top[name] for name in _STUDIES}
        self.given = {name: raw[name] for name in _STUDIES if raw.get(name)}
        self.output_dir = top["output"]["directory"]

    def resolved_dict(self) -> dict:
        out = {
            "command": self.command,
            "seed": self.seed,
            "scalarization": {
                "kind": self.scalarization.kind.value,
                "weight": self.scalarization.weight,
            },
            "solver": {k: v for k, v in asdict(self.solver).items() if k in _SOLVER},
            "output": {"directory": str(self.output_dir)},
            **self.given,   # study sections are recorded as given
        }
        if self.scenario is not None:
            out["scenario"] = asdict(self.scenario)
        else:
            out["instance"] = {k: np.asarray(v).tolist() for k, v in asdict(self.instance).items()}
        if self.workers is not None:
            out["workers"] = self.workers
        return out


def _cmd_solve(cfg: _Resolved):
    inst = cfg.instance if cfg.instance is not None else generate(cfg.scenario, cfg.scenario.seed)
    result = run(inst, cfg.scalarization, cfg.solver)
    m = result.metrics
    rows = [
        (0, float(result.trajectory[0]), *result.start_log2_ee, "", "", "")
    ] + [
        (s.index, s.objective, s.u, s.v, s.kkt_residual, s.newton_iterations,
         s.subproblem_status.value)
        for s in result.iteration_stats
    ]
    tables = {
        "trajectory.csv": (
            ["iteration", "objective_log2", "u_log2_tee", "v_log2_mee",
             "kkt_residual", "newton_iterations", "subproblem_status"],
            rows,
        )
    }
    summary = {
        "status": result.status.value,
        "iterations": result.iterations,
        "newton_steps": sum(s.newton_iterations for s in result.iteration_stats),
        "uncertified_subproblems": result.uncertified_subproblems,
        "ascent_subproblems": sum(s.subproblem_status is SubproblemStatus.ASCENT
                                  for s in result.iteration_stats),
        "tee": m.ee_total,
        "mee": m.ee_min,
        "jain_index": m.jain_index,
        "rate_total": m.rate_total,
        "power_total": m.power_total,
        "per_user_ee": m.ee.tolist(),
        "allocation": result.allocation.tolist(),
        "trajectory": [float(f) for f in result.trajectory],
    }
    return tables, summary, [_sweep_row({}, (result,))]


def _cmd_sweep(study, table: str, columns: list[str], cfg: _Resolved, trials: int, **grid):
    """Run a study on the config's scenario and solver, and lay out its table.

    `study(cfg, **grid, trials=..., solver_config=..., workers=...)` calls
    the library study. The table has one line per row and a column per
    grid parameter or SweepRow field, in the given order; `iters_mean` is
    `iterations_mean` and `seed` the scenario's master seed.
    """
    rows = study(cfg, **grid, trials=trials, solver_config=cfg.solver, workers=cfg.workers)

    def cell(row, column):
        if column in row.params:
            return row.params[column]
        if column == "seed":
            return cfg.scenario.seed
        return getattr(row, "iterations_mean" if column == "iters_mean" else column)

    tables = {table: (columns, [[cell(row, c) for c in columns] for row in rows])}
    return tables, {"rows": len(rows), "trials": trials}, rows


def _file_number(x: float) -> str:
    """x in a file name: its `:g` form where that reads back as x, else its repr."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _cmd_convergence(study, table, columns, cfg: _Resolved, **section):
    """The sweep's summary table, plus each row's first trajectory."""
    tables, summary, rows = _cmd_sweep(study, table, columns, cfg, **section)
    for row in rows:
        w, zeta, eps = (_file_number(row.params[key]) for key in ("w", "zeta", "epsilon"))
        tables[f"convergence_w{w}_zeta{zeta}_eps{eps}.csv"] = (
            ["iteration", "objective_log2"],
            [(l, float(f)) for l, f in enumerate(row.runs[0].trajectory)],
        )
    return tables, {"records": summary["rows"], "trials": summary["trials"]}, rows


_COMMANDS = {
    "solve": _cmd_solve,
    "pareto": partial(
        _cmd_sweep,
        lambda cfg, weights, include_product_ee, **run: pareto_sweep(
            cfg.scenario, weights, kind=cfg.scalarization.kind,
            include_product_ee=include_product_ee, **run),
        "pareto.csv",
        ["w", "mee_mean", "mee_se", "tee_mean", "tee_se", "jfi_mean", "iters_mean", "trials",
         "failed", "seed"],
    ),
    "trend": partial(
        _cmd_sweep,
        lambda cfg, distances, weights, **run: trend_study(cfg.scenario, distances, weights, **run),
        "trend.csv",
        ["d_d2d", "w", "tee_mean", "tee_se", "jfi_mean", "jfi_se", "mee_mean", "mee_se",
         "iters_mean", "trials", "failed", "seed"],
    ),
    "convergence": partial(
        _cmd_convergence,
        lambda cfg, weights, zetas, epsilons, **run: convergence_study(
            cfg.scenario, weights, zetas, epsilons, **run),
        "convergence_summary.csv",
        ["w", "zeta", "epsilon", "iters_mean", "trials", "failed", "seed", "bound_min",
         "bound_slack_min"],
    ),
}


def run_command(config: dict, output_dir=None) -> int:
    """Execute one interpreted config; returns the process exit code."""
    try:
        cfg = _Resolved(config)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if output_dir is not None:
        cfg.output_dir = Path(output_dir)

    try:
        tables, summary, rows = _COMMANDS[cfg.command](cfg, **cfg.studies.get(cfg.command, {}))
    except InfeasibleInitialPointError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, DomainError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary["failed"] = sum(row.failed for row in rows)
    # a bound_slack_min below -1e-9 is a count above its bound; None: no trial has a bound
    failed = summary["failed"] > 0 or any(
        row.bound_slack_min is not None and row.bound_slack_min < -1e-9 for row in rows)

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, lines) in tables.items():
        _write_csv(cfg.output_dir / name, header, lines)
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
