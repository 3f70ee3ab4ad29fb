import csv
import math
from dataclasses import replace
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

    def test_solve_draws_with_the_scenario_seed(self, tmp_path):
        # the seed the record's scenario section shows, as every sweep draws with
        scenario = {"n_d2d_pairs": 1, "n_blocks": 2}
        tee = {}
        for name, seed, scenario_seed in (("split", 0, 5), ("top", 5, None), ("other", 0, None)):
            given = scenario if scenario_seed is None else {**scenario, "seed": scenario_seed}
            cfg = {"command": "solve", "seed": seed, "scenario": given}
            out = tmp_path / name
            assert main([write_yaml(tmp_path / f"{name}.yaml", cfg), "-o", str(out)]) == EXIT_OK
            record = yaml.safe_load((out / "record.yaml").read_text())
            assert record["config"]["scenario"]["seed"] == (scenario_seed or seed)
            tee[name] = record["results"]["tee"]
        assert tee["split"] == tee["top"] != tee["other"]

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
        r = run(generate(ScenarioConfig(**scenario, seed=1), 1), weighted_product(0.5))
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

    @pytest.mark.parametrize("command, change, env, names", [
        ("solve", {"seed": "abc"}, None, "seed"),
        ("pareto", {"workers": "abc"}, None, "workers"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": "abc"}}, None, "pareto.trials"),
        ("trend", {"trend": {"trials": 0}}, None, "trials"),
        ("convergence", {"convergence": {"trials": 0}}, None, "trials"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": 1}}, "abc", "EEOPT_WORKERS"),
        ("pareto", {"pareto": {"weights": 2.5, "trials": 1}}, None, "pareto.weights"),
        ("trend", {"trend": {"distances": 10, "trials": 1}}, None, "trend.distances"),
        ("solve", {"scalarization": {"weight": "abc"}}, None, "scalarization.weight"),
        ("solve", {"output": 5}, None, "output"),
        ("solve", {"solver": 5}, None, "solver"),
        ("solve", {"scenario": 5}, None, "scenario"),
        ("solve", {"scalarization": 5}, None, "scalarization"),
        ("solve", {"solver": {"barrier": 5}}, None, "solver.barrier"),
        ("solve", {"scalarization": {"wieght": 0.3}}, None, "scalarization.wieght"),
        ("solve", {"output": {"dir": "x"}}, None, "output.dir"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": 2.7}}, None, "pareto.trials"),
        ("solve", {"scenario": {"n_blocks": 2.5}}, None, "scenario.n_blocks"),
        ("solve", {"solver": {"barrier": {"tau0": 0}}}, None, "unknown keys ['solver.barrier']"),
        ("solve", {"solver": {"barrier": {"tau0": 1}}}, None, "unknown keys ['solver.barrier']"),
        ("solve", {"scenario": {"annulus_inner": 200}}, None, "scenario: annulus"),
        ("solve", {"scenario": {"carrier_frequency": 0}}, None, "scenario: carrier_frequency"),
        ("solve", {"scenario": {"carrier_frequency": -5}}, None, "scenario: carrier_frequency"),
        ("solve", {"scenario": {"noise_figure_db": 1e6}}, None, "scenario: noise_figure_db"),
        ("solve", {"scenario": {"thermal_noise_dbm_hz": 1e5}}, None,
         "scenario: thermal_noise_dbm_hz"),
        ("solve", {"scenario": {"max_power_dbm": 1e6}}, None, "scenario: max_power_dbm"),
        ("solve", {"solver": {"kkt_tolerance": 0}}, None, "solver: kkt_tolerance"),
        ("solve", {"solver": {"kkt_tolerance": -1}}, None, "solver: kkt_tolerance"),
        ("solve", {"solver": {"tolerance": float("nan")}}, None, "solver: tolerance"),
        ("solve", {"scenario": {"shadowing_sigma_db": -3}}, None, "scenario: shadowing_sigma_db"),
        ("solve", {"scenario": {"path_loss_exponent": -2}}, None, "scenario: path_loss_exponent"),
        ("solve", {"scenario": {"path_loss_exponent": float("inf")}}, None,
         "scenario: path_loss_exponent"),
        ("solve", {"scenario": {"path_loss_const_db": 1000}}, None, "path_loss_const_db"),
        ("solve", {"scenario": {"path_loss_const_db": float("nan")}}, None,
         "scenario: path_loss_const_db"),
        ("solve", {"scenario": {"path_loss_const_db": -1e6}}, None,
         "path_loss_const_db and shadowing_sigma_db"),
        ("solve", {"scenario": {"shadowing_sigma_db": 1e5}}, None,
         "path_loss_const_db and shadowing_sigma_db"),
        ("solve", {"seed": True}, None, "seed"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": True}}, None, "pareto.trials"),
        ("solve", {"scenario": {"n_blocks": True}}, None, "scenario.n_blocks"),
        ("pareto", {"workers": 0, "pareto": {"weights": [0.5], "trials": 1}}, None, "workers"),
        ("pareto", {"workers": -4, "pareto": {"weights": [0.5], "trials": 1}}, None, "workers"),
        ("pareto", {"pareto": {"weights": [0.5], "trials": 1}}, "0", "EEOPT_WORKERS"),
        ("solve", {"scenario": {"min_link_distance": -5}}, None, "scenario: min_link_distance"),
        ("solve", {"scenario": {"min_link_distance": float("nan")}}, None,
         "scenario: min_link_distance"),
        ("solve", {"scenario": {"d2d_distance": float("nan")}}, None, "scenario: d2d_distance"),
        ("solve", {"scenario": {"annulus_outer": float("inf")}}, None, "scenario: annulus"),
        ("trend", {"trend": {"distances": [10, float("nan")], "trials": 1}}, None, "distances"),
        ("solve", {"scenario": {"bandwidth_per_block": 0}}, None, "scenario: bandwidth_per_block"),
        ("pareto", {"pareto": {"weights": [0.5, 1.5], "trials": 1}}, None, "weights"),
        ("convergence", {"convergence": {"zetas": [0]}}, None, "zetas"),
        ("convergence", {"convergence": {"zetas": [1.5]}}, None, "zetas"),
        ("convergence", {"convergence": {"epsilons": [0]}}, None, "epsilons"),
        ("solve", {"scenario": {"min_rate": float("nan")}}, None, "scenario: min_rate"),
        ("solve", {"scenario": {"amp_inefficiency": float("nan")}}, None,
         "scenario: amp_inefficiency"),
        ("solve", {"scenario": None, "instance": {**single_user_instance_config()["instance"],
                                                  "noise": [[float("inf")]]}}, None,
         "instance: noise"),
        ("solve", {"scenario": {"d2d_distance": True}}, None, "scenario.d2d_distance"),
        ("pareto", {"pareto": {"weights": [True, False], "trials": 1}}, None, "pareto.weights"),
        ("solve", {"solver": {"tolerance": True}}, None, "solver.tolerance"),
        ("solve", {"scenario": None, "instance": {**single_user_instance_config()["instance"],
                                                  "max_power": [True]}}, None,
         "instance.max_power"),
        ("solve", {"seed": -1}, None, "seed must be an integer >= 0"),
        ("solve", {"scenario": None, "instance": {**single_user_instance_config()["instance"],
                                                  "gain": [[[True]]]}}, None, "instance.gain"),
        ("solve", {"solver": {"tolerance": float("inf")}}, None, "solver: tolerance"),
        ("solve", {"solver": {"kkt_tolerance": float("inf")}}, None, "solver: kkt_tolerance"),
        ("convergence", {"convergence": {"epsilons": [1e-2, float("inf")]}}, None, "epsilons"),
    ], ids=["seed", "workers", "pareto-trials", "trend-trials-0", "convergence-trials-0",
            "env-workers", "pareto-weights-float", "trend-distances-int", "weight-abc",
            "output-int", "solver-int", "scenario-int", "scalarization-int", "barrier-int",
            "scalarization-unknown-key", "output-unknown-key", "pareto-trials-fraction",
            "n_blocks-fraction", "barrier-tau0-0", "barrier-tau0-1", "scenario-out-of-range",
            "carrier-0", "carrier-negative", "noise-figure-huge", "thermal-noise-huge",
            "max-power-huge", "kkt-tolerance-0", "kkt-tolerance-negative", "tolerance-nan",
            "shadowing-negative", "path-loss-exponent-negative", "path-loss-exponent-inf",
            "path-loss-const-no-rate", "path-loss-const-nan", "path-loss-const-huge-gain",
            "shadowing-huge-gain", "seed-bool", "pareto-trials-bool", "n_blocks-bool",
            "workers-0", "workers-negative", "env-workers-0", "min-link-distance-negative",
            "min-link-distance-nan", "d2d-distance-nan", "annulus-outer-inf",
            "trend-distance-nan", "bandwidth-0", "pareto-weight-above-1", "zeta-0", "zeta-above-1",
            "epsilon-0", "min-rate-nan", "amp-inefficiency-nan", "instance-noise-inf",
            "d2d-distance-bool", "pareto-weight-bool", "tolerance-bool", "instance-max-power-bool",
            "seed-negative", "instance-gain-bool", "tolerance-inf", "kkt-tolerance-inf",
            "epsilon-inf"])
    def test_bad_values_exit_2(self, tmp_path, monkeypatch, capsys, command, change, env, names):
        if env is None:
            monkeypatch.delenv("EEOPT_WORKERS", raising=False)
        else:
            monkeypatch.setenv("EEOPT_WORKERS", env)
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
            return SweepRow(params, *[0.0] * 6, float(iterations), 0.0, trials=1, runs=(run,),
                            bounds=(bound,))

        monkeypatch.setattr(cli_module, "convergence_study",
                            lambda *args, **kwargs: [row(0.5, 3, 2.0), row(1.0, 1, None)])
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
        rec1 = yaml.safe_load((first / "record.yaml").read_text())
        rec2 = yaml.safe_load((second / "record.yaml").read_text())
        rec1["config"].pop("output")
        rec2["config"].pop("output")  # the replay target directory legitimately differs
        assert rec1["config"] == rec2["config"]
        assert rec1["results"] == rec2["results"]


class TestSweepTables:
    @pytest.mark.parametrize("command, table", [
        ("pareto", "pareto.csv"), ("trend", "trend.csv"),
        ("convergence", "convergence_summary.csv"),
    ])
    def test_seed_column_is_the_seed_that_draws_the_trials(self, tmp_path, command, table):
        cfg = tiny_scenario(command, **{command: {"weights": [0.5], "trials": 1}})
        cfg["scenario"]["seed"] = 11    # the trials' master seed; the run's seed stays 3
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
    def test_record_carries_seeds_and_resolved_units(self, tmp_path):
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
        assert scen["seed"] == 3
        assert record["config"]["seed"] == 3
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
