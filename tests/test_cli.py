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
        ("pareto", {"pareto": {"weights": [], "trials": 1}}, "weights must not be empty"),
        ("pareto", {"pareto": {"weights": [], "trials": 1, "include_product_ee": True}},
         "weights must not be empty"),
        ("trend", {"trend": {"distances": [], "trials": 1}}, "distances must not be empty"),
        ("convergence", {"convergence": {"epsilons": []}}, "epsilons must not be empty"),
        ("pareto", {"pareto": {"weights": [0.5, 0.2, 0.5], "trials": 1}},
         "weights must not repeat a value"),
        ("trend", {"trend": {"distances": ["10 m", 10], "trials": 1}},
         "distances must not repeat a value"),
        ("convergence", {"convergence": {"zetas": [0.5, 0.5]}}, "zetas must not repeat a value"),
        ("convergence", {"convergence": {"epsilons": [1e-2, 0.01]}},
         "epsilons must not repeat a value"),
        ("pareto", {"scalarization": {"kind": "product_ee"},
                    "pareto": {"weights": 3, "trials": 1}}, "kind product_ee ignores the weight"),
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
            "pareto-instance", "pareto-weights-empty", "pareto-weights-empty-baseline",
            "trend-distances-empty", "convergence-epsilons-empty", "pareto-weights-repeated",
            "trend-distances-repeated", "convergence-zetas-repeated",
            "convergence-epsilons-repeated", "pareto-kind-product-ee"])
    def test_bad_values_exit_2(self, tmp_path, capsys, command, change, names):
        cfg = tiny_scenario(command)
        cfg.update(change)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([cfg_path, "-o", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and names in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
        assert cfg["solver"]["tolerance"] == "1e-4"     # YAML 1.1 reads no float without a dot
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

    @pytest.mark.parametrize("key, value, code", [
        ("output.directory", "1e5", EXIT_OK),     # a directory named 1e5, not the float 1e5
        ("seed", "1e2", EXIT_CONFIG),             # the string "1e2", which is no integer
        ("solver.tolerance", "[1", EXIT_CONFIG),  # no YAML
    ])
    def test_override_reads_as_the_file_does(self, tmp_path, monkeypatch, key, value, code):
        # a value given by --set and in the file: the same exit code and record
        monkeypatch.chdir(tmp_path)
        cfg = tiny_scenario("solve")
        del cfg["seed"]
        section, _, name = key.rpartition(".")
        line = f"{section}: {{{name}: {value}}}" if section else f"{name}: {value}"
        write_yaml("set.yaml", cfg)
        Path("file.yaml").write_text(f"{yaml.safe_dump(cfg)}{line}\n")
        outcomes, record = [], Path(value, "record.yaml")
        for args in (["set.yaml", "--set", f"{key}={value}"], ["file.yaml"]):
            outcomes.append((main(args), record.exists() and record.read_bytes()))
            record.unlink(missing_ok=True)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == code and bool(outcomes[0][1]) == (code == EXIT_OK)

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
    @pytest.mark.parametrize("grid, keys", [
        ({"weights": [0.0, 1.0], "zetas": [0.5, 1.0], "epsilons": [1e-2]},
         [("0.0", "0.5", "0.01"), ("0.0", "1.0", "0.01"), ("1.0", "0.5", "0.01"),
          ("1.0", "1.0", "0.01")]),
        # equal in their 6 significant digits: each key keeps the value's repr
        ({"weights": [0.5], "zetas": [0.1234561, 0.1234564], "epsilons": [1e-2]},
         [("0.5", "0.1234561", "0.01"), ("0.5", "0.1234564", "0.01")]),
    ], ids=["short", "seventh-digit"])
    def test_trajectory_keys_every_combination(self, tmp_path, grid, keys):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", tiny_scenario("convergence", convergence=grid))
        out = tmp_path / "out"
        assert main([cfg_path, "-o", str(out)]) == EXIT_OK
        assert not list(out.glob("convergence_w*.csv"))
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:4] == ["w", "zeta", "epsilon", "trial"]
        assert list(dict.fromkeys((r["w"], r["zeta"], r["epsilon"]) for r in rows)) == keys
        assert {r["trial"] for r in rows} == {"0"}
        summary = (out / "convergence_summary.csv").read_text().strip().splitlines()
        assert len(summary) == 1 + len(keys)

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
                                  status=RunStatus.CONVERGED, start_log2_ee=(0.0, 0.0),
                                  iteration_stats=[])
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
        assert record["outputs"] == ["convergence_summary.csv", "trajectory.csv"]
        with open(out / "convergence_summary.csv", newline="") as fh:
            assert [row["failed"] for row in csv.DictReader(fh)] == ["1", "0", "0"]


class TestTrajectoryTable:
    """Every command's trajectory.csv holds the iterates of direct `eeopt.run` calls.

    Trial t of a cell runs on generate(scenario with the cell's link
    distance, trial_seed(seed, t)) (`solve`: on generate(scenario, seed)),
    under the config's solver with the cell's tolerance, from zeta times the
    uniform split.
    """

    SOLVER = {"tolerance": 1e-2}
    HEADER = ["trial", "iteration", "objective_log2", "u_log2_tee", "v_log2_mee",
              "kkt_residual", "newton_iterations", "subproblem_status"]

    @staticmethod
    def direct_run(command, trial, w=0.5, d_d2d=10.0, zeta=None, epsilon=1e-2, baseline=None):
        from eeopt import (ScenarioConfig, SolverConfig, default_initial_point, generate,
                           product_ee, run, weighted_product)
        from eeopt.scenario import trial_seed

        scenario = ScenarioConfig(n_d2d_pairs=2, n_blocks=2, d2d_distance=d_d2d)
        inst = generate(scenario, 3 if command == "solve" else trial_seed(3, trial))
        solver = SolverConfig(tolerance=epsilon)
        if zeta is not None:
            solver = replace(solver, initial_allocation=zeta * default_initial_point(inst))
        return run(inst, product_ee() if baseline else weighted_product(w), solver)

    @staticmethod
    def lines(key, trial, r):
        """A run's lines as the CSV module writes them, floats by repr."""
        cells = [[0, float(r.trajectory[0]), *r.start_log2_ee, None, None, None]] + [
            [l, float(r.trajectory[l]), s.u, s.v, s.kkt_residual, s.newton_iterations,
             s.subproblem_status.value] for l, s in enumerate(r.iteration_stats, 1)]
        return [[repr(c) if isinstance(c, float) else "" if c is None else str(c)
                 for c in [*key, trial, *line]] for line in cells]

    @pytest.mark.parametrize("command, section, grid, cells", [
        ("solve", None, [], [{}]),
        ("pareto", {"weights": [0.2, 0.9], "trials": 2, "include_product_ee": True}, ["w"],
         [{"w": 0.2}, {"w": 0.9}, {"w": math.nan, "baseline": "product_ee"}]),
        ("trend", {"distances": [10, 30], "weights": [0.0, 0.6], "trials": 2}, ["d_d2d", "w"],
         [{"d_d2d": d, "w": w} for d in (10.0, 30.0) for w in (0.0, 0.6)]),
        ("convergence", {"weights": [0.5], "zetas": [0.5, 1.0], "epsilons": [1e-1, 1e-2],
                         "trials": 2}, ["w", "zeta", "epsilon"],
         [{"w": 0.5, "zeta": z, "epsilon": e} for z in (0.5, 1.0) for e in (1e-1, 1e-2)]),
    ], ids=["solve", "pareto", "trend", "convergence"])
    def test_rows_are_the_direct_runs(self, tmp_path, command, section, grid, cells):
        cfg = tiny_scenario(command, solver=self.SOLVER,
                            **({} if section is None else {command: section}))
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_OK
        with open(out / "trajectory.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == grid + self.HEADER
        runs = [(cell, t, self.direct_run(command, t, **cell))
                for cell in cells for t in range(section["trials"] if section else 1)]
        assert rows == [line for cell, t, r in runs
                        for line in self.lines([cell[name] for name in grid], t, r)]
        # the record's counts are the table's and the runs'
        record = yaml.safe_load((out / "record.yaml").read_text())
        assert "trajectory.csv" in record["outputs"]
        results = record["results"]
        statuses = [row[-1] for row in rows]
        assert results["newton_steps"] == sum(int(row[-2]) for row in rows if row[-2])
        assert results["ascent_subproblems"] == statuses.count("ascent")
        assert results["uncertified_subproblems"] == sum(r.uncertified_subproblems
                                                         for _, _, r in runs)
        assert results["failed"] == 0


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

    @pytest.mark.parametrize("command, sections, cap, code", [
        ("pareto", {"pareto": {"weights": [0.2, 0.9], "trials": 2, "include_product_ee": True}},
         200, EXIT_OK),
        ("trend", {"trend": {"distances": ["10 m", "30 m"], "weights": [0.0, 0.6], "trials": 2}},
         200, EXIT_OK),
        ("convergence", {"convergence": {"weights": [0.5], "zetas": [0.5, 1.0],
                                         "epsilons": [1e-2], "trials": 2}}, 200, EXIT_OK),
        ("convergence", {"convergence": {"weights": [0.5], "zetas": [0.5, 1.0],
                                         "epsilons": [1e-2], "trials": 2}}, 1, EXIT_SOLVER),
        ("solve", {}, 200, EXIT_OK),
        ("solve", {"scenario": None, "instance": single_user_instance_config()["instance"],
                   "scalarization": {"kind": "weighted_minimum", "weight": 0.3}}, 200, EXIT_OK),
    ], ids=["pareto", "trend", "convergence", "convergence-failing", "solve-scenario",
            "solve-instance"])
    def test_replay_reproduces_tables_bit_identically(self, tmp_path, command, sections, cap,
                                                      code):
        cfg = tiny_scenario(command, **sections,
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

    @pytest.mark.parametrize("command, left_out", [
        ("solve", {"workers", "pareto", "trend", "convergence"}),
        ("pareto", {"trend", "convergence"}),
        ("trend", {"scalarization", "pareto", "convergence"}),
        ("convergence", {"scalarization", "pareto", "trend"}),
    ])
    def test_record_holds_only_the_keys_its_command_reads(self, tmp_path, command, left_out):
        # every top-level key given; a trend run once recorded the weighted minimum
        # it never ran, and a solve the workers it never started
        import eeopt.cli as cli

        assert set(cli._READERS) == set(cli._TOP)
        cfg = tiny_scenario(command, workers=1, pareto={"weights": [0.5], "trials": 1},
                            trend={"distances": [10], "weights": [0.5], "trials": 1},
                            convergence={"weights": [0.5], "epsilons": [1e-2], "trials": 1},
                            scalarization={"kind": "weighted_minimum", "weight": 0.3})
        out = tmp_path / "out"
        assert main([write_yaml(tmp_path / "cfg.yaml", cfg), "-o", str(out)]) == EXIT_OK
        recorded = yaml.safe_load((out / "record.yaml").read_text())["config"]
        assert set(recorded) == set(cfg) - left_out | {"output"}
