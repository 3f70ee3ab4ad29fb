import csv
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from eeopt.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SOLVER,
    apply_overrides,
    load_config,
    main,
)
from eeopt.engine import RunStatus


def write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


def single_user_instance_config(min_rate=0.0):
    return {
        "command": "solve",
        "seed": 1,
        "instance": {
            "bandwidth_per_block": 1.0,
            "gain": [[[10.0]]],
            "noise": [[1.0]],
            "amp_inefficiency": [1.0],
            "static_power": [1.0],
            "max_power": [10.0],
            "min_rate": [min_rate],
        },
        "scalarization": {"kind": "weighted_product", "weight": 1.0},
        "solver": {"tolerance": 1e-4},
    }


def tiny_scenario(command, **sections):
    cfg = {
        "command": command,
        "seed": 3,
        "scenario": {"d2d_distance": "10 m", "n_blocks": 2, "n_d2d_pairs": 2},
        "scalarization": {"kind": "weighted_product", "weight": 0.5},
        "solver": {"tolerance": 1e-2},
    }
    cfg.update(sections)
    return cfg


class TestSolveCommand:
    def test_solve_writes_record_and_trajectory(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", single_user_instance_config())
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["status"] == "ok"
        assert record["results"]["status"] == "converged"
        assert record["results"]["tee"] == pytest.approx(1.7649, rel=1e-3)
        assert (out / "trajectory.csv").exists()
        # trajectory is monotone
        traj = record["results"]["trajectory"]
        assert all(b >= a - 1e-9 for a, b in zip(traj, traj[1:]))

    def test_infeasible_rate_floor_exits_3(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", single_user_instance_config(min_rate=100.0))
        assert main([cfg_path, "-o", str(tmp_path / "out")]) == EXIT_INFEASIBLE

    def test_scenario_solve(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("solve"))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["config"]["scenario"]["d2d_distance"] == 10.0
        assert record["config"]["scenario"]["n_blocks"] == 2

    def test_solve_draws_with_the_seed(self, tmp_path):
        # the one seed of a config, which every sweep also draws its trials with
        from eeopt import ScenarioConfig, generate, run, weighted_product

        scenario = {"n_d2d_pairs": 1, "n_blocks": 2}
        tee = {}
        for seed in (0, 5):
            cfg = {"command": "solve", "seed": seed, "scenario": scenario}
            out = tmp_path / str(seed)
            assert main([write_yaml(tmp_path / f"{seed}.yaml", cfg), "-o", str(out)]) == EXIT_OK
            record = yaml.safe_load((out / "record.yaml").read_text())
            assert record["config"]["seed"] == seed and "seed" not in record["config"]["scenario"]
            tee[seed] = record["results"]["tee"]
        direct = run(generate(ScenarioConfig(**scenario), 5), weighted_product(0.5))
        assert tee[5] == direct.metrics.ee_total != tee[0]

    def test_product_ee_with_a_zero_ee_at_the_start_exits_2(self, tmp_path, capsys):
        # user 1's rate, and so its EE, is exactly 0 at the uniform start
        gain = np.full((2, 2, 2), 1e-3)
        gain[0, 0, :], gain[1, 1, :] = 1.0, 1e-320
        cfg = {"command": "solve", "scalarization": {"kind": "product_ee"},
               "instance": {"bandwidth_per_block": 1.0, "gain": gain.tolist(),
                            "noise": [[1e-3, 1e-3], [1e10, 1e10]], "amp_inefficiency": 1.0,
                            "static_power": 1.0, "max_power": 1.0, "min_rate": 0.0}}
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_CONFIG
        assert "log2 EE must be finite" in capsys.readouterr().err
        assert not (out / "record.yaml").exists()

    def test_recorded_allocation_is_feasible(self, tmp_path):
        from eeopt.network import is_feasible
        from eeopt.scenario import ScenarioConfig, generate

        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("solve"))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        scen = {k: v for k, v in record["config"]["scenario"].items()}
        inst = generate(ScenarioConfig(**scen), record["config"]["seed"])
        alloc = np.asarray(record["results"]["allocation"])
        assert is_feasible(inst, alloc, tol=1e-6).ok

    def test_subproblem_statuses_match_the_run(self, tmp_path):
        from eeopt import ScenarioConfig, SolverConfig, generate, run, weighted_product

        cfg_path = write_yaml(tmp_path / "cfg.yaml",
                              tiny_scenario("solve", solver={"tolerance": 1e-3}))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        inst = generate(ScenarioConfig(**record["config"]["scenario"]), record["config"]["seed"])
        r = run(inst, weighted_product(0.5), SolverConfig(tolerance=1e-3))
        statuses = [s.subproblem_status.value for s in r.iteration_stats]
        rows = list(csv.DictReader((out / "trajectory.csv").read_text().splitlines()))
        assert rows[0]["subproblem_status"] == ""
        assert [row["subproblem_status"] for row in rows[1:]] == statuses
        assert record["results"]["ascent_subproblems"] == statuses.count("ascent") > 0
        assert statuses[-1] == "optimal"

    def test_row_zero_holds_the_start_tee_and_mee(self, tmp_path):
        from eeopt import ScenarioConfig, default_initial_point, evaluate, generate

        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("solve"))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        inst = generate(ScenarioConfig(**record["config"]["scenario"]), record["config"]["seed"])
        start = evaluate(inst, default_initial_point(inst))
        row = next(csv.DictReader((out / "trajectory.csv").read_text().splitlines()))
        assert row["iteration"] == "0"
        assert float(row["u_log2_tee"]) == float(np.log2(start.ee_total))
        assert float(row["v_log2_mee"]) == float(np.log2(start.ee_min))

    def test_optimum_at_vanishing_power_converges(self, tmp_path):
        # gains of 1e11 to 1e12: the surrogate optimum drives powers toward
        # zero, so subproblems approach optima they never reach, ending with
        # two powers below 1e-30 W
        from eeopt import ScenarioConfig, generate, run, weighted_product

        scenario = {"n_d2d_pairs": 1, "n_blocks": 2, "path_loss_const_db": -150}
        cfg = {"command": "solve", "seed": 1, "scenario": scenario,
               "scalarization": {"kind": "weighted_product", "weight": 0.5}}
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_OK
        results = yaml.safe_load((out / "record.yaml").read_text())["results"]
        assert results["status"] == "converged"
        assert results["trajectory"][-1] == pytest.approx(31.7593, abs=1e-4)
        assert np.sort(np.ravel(results["allocation"]))[1] < 1e-30
        r = run(generate(ScenarioConfig(**scenario), 1), weighted_product(0.5))
        assert r.iterations == results["iterations"]
        assert r.uncertified_subproblems == 0

    @pytest.mark.parametrize("path_loss_const_db", [-120, -150, -200, -400])
    def test_vanishing_power_certifies_every_subproblem(self, tmp_path, path_loss_const_db):
        # huge gains put the surrogate optimum at powers that vanish; every
        # subproblem must still meet its KKT certificate, read from the record
        scenario = {"n_d2d_pairs": 1, "n_blocks": 2, "path_loss_const_db": path_loss_const_db}
        cfg = {"command": "solve", "seed": 1, "scenario": scenario,
               "scalarization": {"kind": "weighted_product", "weight": 0.5}}
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_OK
        results = yaml.safe_load((out / "record.yaml").read_text())["results"]
        assert results["status"] == "converged"
        assert results["uncertified_subproblems"] == 0
        rows = list(csv.DictReader((out / "trajectory.csv").read_text().splitlines()))
        assert results["newton_steps"] == sum(int(r["newton_iterations"]) for r in rows[1:])


    def test_uncertified_run_exits_4_with_tables(self, tmp_path):
        # rate floors at the start's rates: the one subproblem cannot certify
        from dataclasses import asdict, replace

        from eeopt import ScenarioConfig, default_initial_point, evaluate, generate

        inst = generate(ScenarioConfig(d2d_distance=20.0), np.random.SeedSequence([0, 77]))
        inst = replace(inst, min_rate=evaluate(inst, default_initial_point(inst)).rate)
        cfg = {"command": "solve", "seed": 1,
               "instance": {k: np.asarray(v).tolist() for k, v in asdict(inst).items()},
               "scalarization": {"kind": "weighted_product", "weight": 0.5}}
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_SOLVER
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["status"] == "failed"
        assert record["results"]["status"] == "uncertified"
        assert record["results"]["uncertified_subproblems"] == 1
        rows = list(csv.DictReader((out / "trajectory.csv").read_text().splitlines()))
        assert rows[-1]["subproblem_status"] == "max_iterations"

    def test_iteration_cap_exits_4_with_tables(self, tmp_path):
        cfg = tiny_scenario("solve", solver={"tolerance": 1e-2, "max_outer_iterations": 1})
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_SOLVER
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["status"] == "failed"
        assert record["results"]["status"] == "iteration_cap"
        assert record["results"]["failed"] == 1
        rows = list(csv.DictReader((out / "trajectory.csv").read_text().splitlines()))
        assert len(rows) == 2


class TestConfigErrors:
    def test_unknown_command_exits_2(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", {"command": "fly", "scenario": {}})
        assert main([cfg_path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "solve|pareto|trend|convergence" in err

    def test_scenario_and_instance_together_rejected(self, tmp_path):
        cfg = single_user_instance_config()
        cfg["scenario"] = {}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path]) == EXIT_CONFIG

    def test_malformed_yaml_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("command: [unterminated\n")
        assert main([str(path)]) == EXIT_CONFIG

    def test_missing_file_exits_2(self, tmp_path):
        assert main([str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_top_level_list_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.yaml"
        path.write_text("- command: solve\n")
        assert main([str(path)]) == EXIT_CONFIG
        assert "does not contain a mapping" in capsys.readouterr().err

    def test_missing_command_exits_2(self, tmp_path, capsys):
        cfg = tiny_scenario("solve")
        del cfg["command"]
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        assert "command is required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_scenario_key_named_in_error(self, tmp_path, capsys):
        cfg = tiny_scenario("solve")
        cfg["scenario"]["d2d_dist"] = 10
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path]) == EXIT_CONFIG
        assert "d2d_dist" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("pareto", "weight"), ("trend", "distance"), ("convergence", "zeta"),
    ])
    def test_unknown_study_key_named_in_error(self, tmp_path, capsys, section, key):
        cfg = tiny_scenario(section, **{section: {key: [0.5]}})
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path, "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, change, names", [
        ("solve", {"seed": "abc"}, "seed"),
        ("pareto", {"workers": "abc"}, "workers"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": "abc"}}, "pareto.trials"),
        ("trend", {"trend": {"trials": 0}}, "trials"),
        ("convergence", {"convergence": {"trials": 0}}, "trials"),
        ("pareto", {"pareto": {"weights": 2.5, "trials": 1}}, "pareto.weights"),
        ("trend", {"trend": {"distances": 10, "trials": 1}}, "trend.distances"),
        ("solve", {"scalarization": {"weight": "abc"}}, "scalarization.weight"),
        ("solve", {"output": 5}, "output"),
        ("solve", {"solver": 5}, "solver"),
        ("solve", {"scenario": 5}, "scenario"),
        ("solve", {"scalarization": 5}, "scalarization"),
        ("solve", {"solver": {"barrier": 5}}, "solver.barrier"),
        ("solve", {"scalarization": {"wieght": 0.3}}, "scalarization.wieght"),
        ("solve", {"output": {"dir": "x"}}, "output.dir"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": 2.7}}, "pareto.trials"),
        ("solve", {"scenario": {"n_blocks": 2.5}}, "scenario.n_blocks"),
        ("solve", {"solver": {"barrier": {"tau0": 0}}}, "unknown keys ['solver.barrier']"),
        ("solve", {"solver": {"barrier": {"tau0": 1}}}, "unknown keys ['solver.barrier']"),
        ("solve", {"scenario": {"annulus_inner": 200}}, "scenario: annulus"),
        ("solve", {"scenario": {"carrier_frequency": 0}}, "scenario: carrier_frequency"),
        ("solve", {"scenario": {"carrier_frequency": -5}}, "scenario: carrier_frequency"),
        ("solve", {"scenario": {"noise_figure_db": 1e6}}, "scenario: noise_figure_db"),
        ("solve", {"scenario": {"thermal_noise_dbm_hz": 1e5}},
         "scenario: thermal_noise_dbm_hz"),
        ("solve", {"scenario": {"max_power_dbm": 1e6}}, "scenario: max_power_dbm"),
        ("solve", {"solver": {"kkt_tolerance": 0}}, "solver: kkt_tolerance"),
        ("solve", {"solver": {"kkt_tolerance": -1}}, "solver: kkt_tolerance"),
        ("solve", {"solver": {"tolerance": float("nan")}}, "solver: tolerance"),
        ("solve", {"scenario": {"shadowing_sigma_db": -3}}, "scenario: shadowing_sigma_db"),
        ("solve", {"scenario": {"path_loss_exponent": -2}}, "scenario: path_loss_exponent"),
        ("solve", {"scenario": {"path_loss_exponent": float("inf")}},
         "scenario: path_loss_exponent"),
        ("solve", {"scenario": {"path_loss_const_db": 1000}}, "path_loss_const_db"),
        ("solve", {"scenario": {"path_loss_const_db": float("nan")}},
         "scenario: path_loss_const_db"),
        ("solve", {"scenario": {"path_loss_const_db": -1e6}},
         "path_loss_const_db and shadowing_sigma_db"),
        ("solve", {"scenario": {"shadowing_sigma_db": 1e5}},
         "path_loss_const_db and shadowing_sigma_db"),
        ("solve", {"seed": True}, "seed"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": True}}, "pareto.trials"),
        ("solve", {"scenario": {"n_blocks": True}}, "scenario.n_blocks"),
        ("pareto", {"workers": 0, "pareto": {"weights": [0.5], "trials": 1}}, "workers"),
        ("pareto", {"workers": -4, "pareto": {"weights": [0.5], "trials": 1}}, "workers"),
        ("solve", {"scenario": {"min_link_distance": -5}}, "scenario: min_link_distance"),
        ("solve", {"scenario": {"min_link_distance": float("nan")}},
         "scenario: min_link_distance"),
        ("solve", {"scenario": {"d2d_distance": float("nan")}}, "scenario: d2d_distance"),
        ("solve", {"scenario": {"annulus_outer": float("inf")}}, "scenario: annulus"),
        ("trend", {"trend": {"distances": [10, float("nan")], "trials": 1}}, "distances"),
        ("solve", {"scenario": {"bandwidth_per_block": 0}}, "scenario: bandwidth_per_block"),
        ("pareto", {"pareto": {"weights": [0.5, 1.5], "trials": 1}}, "weights"),
        ("convergence", {"convergence": {"zetas": [0]}}, "zetas"),
        ("convergence", {"convergence": {"zetas": [1.5]}}, "zetas"),
        ("convergence", {"convergence": {"epsilons": [0]}}, "epsilons"),
        ("solve", {"scenario": {"min_rate": float("nan")}}, "scenario: min_rate"),
        ("solve", {"scenario": {"amp_inefficiency": float("nan")}},
         "scenario: amp_inefficiency"),
        ("solve", {"scenario": None, "instance": {**single_user_instance_config()["instance"],
                                                  "noise": [[float("inf")]]}},
         "instance: noise"),
        ("solve", {"scenario": {"d2d_distance": True}}, "scenario.d2d_distance"),
        ("pareto", {"pareto": {"weights": [True, False], "trials": 1}}, "pareto.weights"),
        ("solve", {"solver": {"tolerance": True}}, "solver.tolerance"),
        ("solve", {"scenario": None, "instance": {**single_user_instance_config()["instance"],
                                                  "max_power": [True]}},
         "instance.max_power"),
        ("solve", {"seed": -1}, "seed must be an integer >= 0"),
        ("solve", {"scenario": None, "instance": single_user_instance_config()["instance"],
                   "seed": -1}, "seed must be an integer >= 0"),
        ("solve", {"scenario": None, "instance": {**single_user_instance_config()["instance"],
                                                  "gain": [[[True]]]}}, "instance.gain"),
        ("solve", {"solver": {"tolerance": float("inf")}}, "solver: tolerance"),
        ("solve", {"solver": {"kkt_tolerance": float("inf")}}, "solver: kkt_tolerance"),
        ("convergence", {"convergence": {"epsilons": [1e-2, float("inf")]}}, "epsilons"),
        ("pareto", {"scenario": {"seed": 11}}, "unknown keys ['scenario.seed']"),
        ("solve", {"scenario": None, "instance": {
            k: v for k, v in single_user_instance_config()["instance"].items() if k != "gain"}},
         "instance.gain is required"),
        ("pareto", {"scenario": None, "instance": single_user_instance_config()["instance"]},
         "command 'pareto' needs a `scenario` section"),
    ], ids=["seed", "workers", "pareto-trials", "trend-trials-0", "convergence-trials-0",
            "pareto-weights-float", "trend-distances-int", "weight-abc",
            "output-int", "solver-int", "scenario-int", "scalarization-int", "barrier-int",
            "scalarization-unknown-key", "output-unknown-key", "pareto-trials-fraction",
            "n_blocks-fraction", "barrier-tau0-0", "barrier-tau0-1", "scenario-out-of-range",
            "carrier-0", "carrier-negative", "noise-figure-huge", "thermal-noise-huge",
            "max-power-huge", "kkt-tolerance-0", "kkt-tolerance-negative", "tolerance-nan",
            "shadowing-negative", "path-loss-exponent-negative", "path-loss-exponent-inf",
            "path-loss-const-no-rate", "path-loss-const-nan", "path-loss-const-huge-gain",
            "shadowing-huge-gain", "seed-bool", "pareto-trials-bool", "n_blocks-bool",
            "workers-0", "workers-negative", "min-link-distance-negative",
            "min-link-distance-nan", "d2d-distance-nan", "annulus-outer-inf",
            "trend-distance-nan", "bandwidth-0", "pareto-weight-above-1", "zeta-0", "zeta-above-1",
            "epsilon-0", "min-rate-nan", "amp-inefficiency-nan", "instance-noise-inf",
            "d2d-distance-bool", "pareto-weight-bool", "tolerance-bool", "instance-max-power-bool",
            "seed-negative", "instance-seed-negative", "instance-gain-bool", "tolerance-inf",
            "kkt-tolerance-inf", "epsilon-inf", "scenario-seed", "instance-gain-missing",
            "pareto-instance"])
    def test_bad_values_exit_2(self, tmp_path, capsys, command, change, names):
        cfg = tiny_scenario(command)
        cfg.update(change)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path, "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and names in err
        assert "Traceback" not in err

    def test_quoted_false_is_not_a_boolean(self, tmp_path, capsys):
        pareto = {"weights": [0.5], "trials": 1, "include_product_ee": "false"}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("pareto", pareto=pareto))
        assert main([cfg_path, "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "pareto.include_product_ee" in capsys.readouterr().err
        assert not (tmp_path / "out" / "pareto.csv").exists()

    def test_every_field_is_configurable(self):
        from dataclasses import fields

        import eeopt.cli as cli
        from eeopt import NetworkInstance, ScenarioConfig, SolverConfig

        def names(cls):
            return {f.name for f in fields(cls)}

        assert set(cli._SCENARIO) == names(ScenarioConfig)
        assert set(cli._INSTANCE) == names(NetworkInstance)
        assert set(cli._SOLVER) == names(SolverConfig) - {"initial_allocation"}

    def test_bad_unit_reports_field(self, tmp_path, capsys):
        cfg = tiny_scenario("solve")
        cfg["scenario"]["d2d_distance"] = "10 volts"
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path]) == EXIT_CONFIG
        assert "d2d_distance" in capsys.readouterr().err


class TestOverrides:
    def test_override_changes_nested_key(self):
        cfg = {"solver": {"tolerance": 1e-3}}
        apply_overrides(cfg, ["solver.tolerance=1e-4", "seed=9"])
        assert cfg["solver"]["tolerance"] == 1e-4
        assert cfg["seed"] == 9

    def test_override_requires_equals(self):
        from eeopt.cli import ConfigError

        with pytest.raises(ConfigError):
            apply_overrides({}, ["solver.tolerance"])

    def test_override_into_a_scalar_exits_2(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("solve"))
        assert main([cfg_path, "-o", str(tmp_path / "out"), "--set", "seed.deeper=1"]) \
            == EXIT_CONFIG
        assert "descends into a non-mapping" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_override_with_a_unit(self, tmp_path):
        # "15 m" is not a number to YAML; the scenario table reads its unit
        records = []
        for name, args in (("set", ["--set", "scenario.d2d_distance=15 m"]), ("file", [])):
            cfg = tiny_scenario("solve")
            if not args:
                cfg["scenario"]["d2d_distance"] = 15
            out = tmp_path / "out"
            assert main([write_yaml(tmp_path / f"{name}.yaml", cfg), "-o", str(out), *args]) \
                == EXIT_OK
            records.append((out / "record.yaml").read_bytes())
        assert records[0] == records[1]
        assert yaml.safe_load(records[0])["config"]["scenario"]["d2d_distance"] == 15.0

    def test_override_into_a_null_section(self, tmp_path):
        # `solver:` with no keys reads as an empty section, with or without --set
        cfg = tiny_scenario("solve", solver=None)
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out),
                     "--set", "solver.tolerance=1e-4"]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["config"]["solver"]["tolerance"] == 1e-4

    def test_cli_override_applies(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("pareto"))
        out = tmp_path / "out"
        rc = main([cfg_path, "-o", str(out), "--set", "pareto.weights=[0.0,1.0]",
                   "--set", "pareto.trials=1"])
        assert rc == EXIT_OK
        lines = (out / "pareto.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two weights


class TestParetoCommand:
    def test_pareto_table_columns_and_geometry(self, tmp_path):
        cfg = tiny_scenario("pareto", pareto={"weights": [0.0, 0.5, 1.0], "trials": 2})
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        lines = (out / "pareto.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["w", "mee_mean", "mee_se", "tee_mean", "tee_se",
                          "jfi_mean", "iters_mean", "trials", "failed", "seed"]
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            mee, tee = float(cells[1]), float(cells[3])
            assert tee >= mee - 1e-9
            assert int(cells[7]) == 2
            assert int(cells[8]) == 0
            assert int(cells[9]) == 3

    def test_runs_that_hit_the_iteration_cap_fail_the_sweep(self, tmp_path):
        cfg = tiny_scenario("pareto", pareto={"weights": [0.0, 1.0], "trials": 2},
                            solver={"tolerance": 1e-2, "max_outer_iterations": 1})
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_SOLVER
        with open(out / "pareto.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["failed"] == row["trials"] == "2"
            assert all(math.isnan(float(row[c])) for c in row if c.endswith(("_mean", "_se")))
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["status"] == "failed" and record["results"]["failed"] == 4


class TestTrendCommand:
    def test_trend_rows(self, tmp_path):
        cfg = tiny_scenario(
            "trend",
            trend={"distances": ["10 m", "40 m"], "weights": [0.0, 1.0], "trials": 1},
        )
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        lines = (out / "trend.csv").read_text().strip().splitlines()
        assert len(lines) == 5


class TestConvergenceCommand:
    @pytest.mark.parametrize("grid, names", [
        ({"weights": [0.0, 1.0], "zetas": [0.5, 1.0], "epsilons": [1e-2]},
         ["w0_zeta0.5_eps0.01", "w0_zeta1_eps0.01", "w1_zeta0.5_eps0.01", "w1_zeta1_eps0.01"]),
        # equal in their 6 significant digits: each name keeps the value's repr
        ({"weights": [0.5], "zetas": [0.1234561, 0.1234564], "epsilons": [1e-2]},
         ["w0.5_zeta0.1234561_eps0.01", "w0.5_zeta0.1234564_eps0.01"]),
    ], ids=["short", "seventh-digit"])
    def test_one_trajectory_file_per_combination(self, tmp_path, grid, names):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("convergence", convergence=grid))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        files = sorted(p.name for p in out.glob("convergence_w*.csv"))
        assert files == [f"convergence_{name}.csv" for name in names]
        summary = (out / "convergence_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + len(names)

    def test_default_grid_reports_the_iteration_bound(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("convergence"))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        header, *rows = (out / "convergence_summary.csv").read_text().strip().splitlines()
        assert header.split(",")[-2:] == ["bound_min", "bound_slack_min"]
        assert len(rows) == 3
        for row in rows:
            bound, slack = (float(cell) for cell in row.split(",")[-2:])
            assert bound >= 1.0 and slack >= 0.0

    def test_count_above_its_bound_exits_4_with_tables(self, tmp_path, monkeypatch, capsys):
        import eeopt.cli as cli_module
        from eeopt.scenario import SweepRow

        def row(zeta, iterations, bound):
            run = SimpleNamespace(iterations=iterations, trajectory=np.array([1.0, 1.01]),
                                  status=RunStatus.CONVERGED)
            params = {"w": 0.5, "zeta": zeta, "epsilon": 1e-2}
            return SweepRow(params, (run,), bounds=(bound,))

        _, table, columns = cli_module._SWEEPS["convergence"]
        monkeypatch.setitem(cli_module._SWEEPS, "convergence", (
            lambda *args, **kwargs: [row(0.5, 3, 2.0), row(1.0, 1, None)], table, columns))
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", tiny_scenario("convergence")),
                     "-o", str(out)]) == EXIT_SOLVER
        assert "solver failure" in capsys.readouterr().err
        rows = (out / "convergence_summary.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[-2:] for row in rows] == [["2.0", "-1.0"], ["", ""]]
        assert yaml.safe_load((out / "record.yaml").read_text())["status"] == "failed"

    def test_failed_run_exits_4_with_every_table(self, tmp_path, monkeypatch):
        import eeopt.scenario
        from eeopt import run

        calls = []

        def run_failing_the_first(*args):
            calls.append(args)
            result = run(*args)
            if len(calls) == 1:
                result = replace(result, status=RunStatus.SUBPROBLEM_FAILURE)
            return result

        monkeypatch.setattr(eeopt.scenario, "run", run_failing_the_first)
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", tiny_scenario("convergence")),
                     "-o", str(out)]) == EXIT_SOLVER
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert record["status"] == "failed" and record["results"]["failed"] == 1
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(record["outputs"])
        assert len(record["outputs"]) == 4      # the summary and three trajectories
        with open(out / "convergence_summary.csv", newline="") as fh:
            assert [row["failed"] for row in csv.DictReader(fh)] == ["1", "0", "0"]


class TestProcess:
    """`python -m eeopt.cli` as a user starts it, in a process of its own."""

    @staticmethod
    def start(tmp_path, cfg):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "eeopt.cli", write_yaml(tmp_path / "cfg.yaml", cfg),
             "-o", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=60)

    def test_solve_exits_0_with_a_record(self, tmp_path):
        done = self.start(tmp_path, single_user_instance_config())
        assert done.returncode == EXIT_OK, done.stderr
        assert yaml.safe_load((tmp_path / "out" / "record.yaml").read_text())["status"] == "ok"

    def test_unknown_key_exits_2_without_a_traceback(self, tmp_path):
        done = self.start(tmp_path, {**single_user_instance_config(), "sede": 1})
        assert done.returncode == EXIT_CONFIG
        assert "unknown keys ['sede']" in done.stderr and "Traceback" not in done.stderr


class TestReplay:
    def test_record_reparses_to_equivalent_config(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("solve"))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        replayed = load_config(out / "record.yaml")
        original = load_config(cfg_path)
        # units resolved to SI, but semantics identical
        assert replayed["scenario"]["d2d_distance"] == 10.0
        assert replayed["command"] == original["command"]
        assert replayed["seed"] == original["seed"]

    @pytest.mark.parametrize("command, section, cap, code", [
        ("pareto", {"weights": [0.2, 0.9], "trials": 2, "include_product_ee": True}, 200,
         EXIT_OK),
        ("trend", {"distances": ["10 m", "30 m"], "weights": [0.0, 0.6], "trials": 2}, 200,
         EXIT_OK),
        ("convergence", {"weights": [0.5], "zetas": [0.5, 1.0], "epsilons": [1e-2], "trials": 2},
         200, EXIT_OK),
        ("convergence", {"weights": [0.5], "zetas": [0.5, 1.0], "epsilons": [1e-2], "trials": 2},
         1, EXIT_SOLVER),
    ], ids=["pareto", "trend", "convergence", "convergence-failing"])
    def test_replay_reproduces_tables_bit_identically(self, tmp_path, command, section, cap,
                                                      code):
        cfg = tiny_scenario(command, **{command: section},
                            solver={"tolerance": 1e-2, "max_outer_iterations": cap})
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        first = tmp_path / "first"
        assert main([cfg_path, "-o", str(first)]) == code
        second = tmp_path / "second"
        assert main([str(first / "record.yaml"), "-o", str(second)]) == code
        tables = sorted(p.name for p in first.glob("*.csv"))
        assert tables and tables == sorted(p.name for p in second.glob("*.csv"))
        for name in tables:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # the record too, byte for byte, but for the replay's output directory
        rec2 = (second / "record.yaml").read_text()
        assert rec2.replace(str(second), str(first)) == (first / "record.yaml").read_text()


class TestSweepTables:
    @pytest.mark.parametrize("command, table", [
        ("pareto", "pareto.csv"), ("trend", "trend.csv"),
        ("convergence", "convergence_summary.csv"),
    ])
    def test_seed_column_is_the_seed_that_draws_the_trials(self, tmp_path, command, table):
        cfg = tiny_scenario(command, **{command: {"weights": [0.5], "trials": 1}}, seed=11)
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_OK
        with open(out / table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["seed"] == "11" for row in rows)


class TestRuntimeDomainErrors:
    def test_weighted_minimum_endpoint_weight_is_config_error(self, tmp_path):
        cfg = tiny_scenario("pareto", pareto={"weights": [0.0, 0.5], "trials": 1})
        cfg["scalarization"] = {"kind": "weighted_minimum", "weight": 0.5}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path, "-o", str(tmp_path / "out")]) == EXIT_CONFIG


class TestRecordContents:
    def test_record_carries_the_seed_and_resolved_units(self, tmp_path):
        cfg = tiny_scenario("solve")
        cfg["scenario"]["max_power_dbm"] = "23 dBm"
        cfg["scenario"]["bandwidth_per_block"] = "500 kHz"
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        record = yaml.safe_load((out / "record.yaml").read_text())
        scen = record["config"]["scenario"]
        assert scen["max_power_dbm"] == 23.0
        assert scen["bandwidth_per_block"] == 500000.0
        assert "seed" not in scen and record["config"]["seed"] == 3
        assert not np.isnan(record["results"]["tee"])

    @pytest.mark.parametrize("field", ["max_power_dbm", "static_power_dbm"])
    def test_quoted_and_bare_dbm_resolve_alike(self, tmp_path, field):
        resolved = []
        for value in ("23", 23):
            cfg = tiny_scenario("solve")
            cfg["scenario"][field] = value
            out = tmp_path / type(value).__name__
            assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_OK
            record = yaml.safe_load((out / "record.yaml").read_text())
            resolved.append(record["config"]["scenario"][field])
        assert resolved == [23.0, 23.0]

    @pytest.mark.parametrize("command, sections, recorded", [
        ("trend", {"trend": {"distances": ["2 km", 15]}, "pareto": {"trials": 3}},
         {"distances": [2000.0, 15.0], "weights": [0.0, 0.5, 1.0], "trials": 200}),
        ("pareto", {}, {"weights": [i / 20 for i in range(21)], "trials": 50,
                        "include_product_ee": False}),
        ("convergence", {"convergence": None},
         {"weights": [0.0, 0.7, 1.0], "zetas": [1.0], "epsilons": [1e-3], "trials": 1}),
        ("solve", {"trend": {"trials": 3}}, None),
    ], ids=["trend-units", "pareto-left-out", "convergence-null", "solve"])
    def test_record_holds_the_command_study_resolved(self, command, sections, recorded):
        # in SI units with every default, and no other command's study section
        import eeopt.cli as cli

        config = cli._record(cli._resolve(tiny_scenario(command, **sections)))
        studies = {name: config[name] for name in ("pareto", "trend", "convergence")
                   if name in config}
        assert studies == ({} if recorded is None else {command: recorded})
