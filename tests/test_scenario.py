import math
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from eeopt.engine import RunStatus, SolverConfig, default_initial_point, run
from eeopt.errors import DomainError
from eeopt.scalarization import product_ee, weighted_minimum, weighted_product
from eeopt.scenario import (
    ScenarioConfig,
    SweepRow,
    convergence_study,
    generate,
    pareto_sweep,
    resolve_workers,
    trend_study,
    trial_seed,
)

from helpers import expand

FAST = SolverConfig(tolerance=1e-2)


class TestGenerate:
    def test_default_shape_and_noise(self):
        cfg = ScenarioConfig()
        inst = generate(cfg, 0)
        assert inst.n_users == 5 and inst.n_blocks == 5
        # F * N0 * B = 2 (3 dB) * 10^-20.4 W/Hz * 500 kHz
        expected = 10 ** (3.0 / 10.0) * 10 ** ((-174.0 - 30.0) / 10.0) * 5e5
        assert expected == pytest.approx(3.971641173621418e-15, rel=1e-12)
        np.testing.assert_allclose(inst.noise, expected, rtol=1e-12)
        assert inst.max_power[0] == pytest.approx(0.19952623149688797)
        assert inst.static_power[0] == pytest.approx(0.01)

    def test_same_seed_reproduces_instance(self):
        cfg = ScenarioConfig(seed=5)
        a = generate(cfg, 42)
        b = generate(cfg, 42)
        assert np.array_equal(a.gain, b.gain)
        assert np.array_equal(a.noise, b.noise)

    def test_different_seeds_differ(self):
        cfg = ScenarioConfig()
        assert not np.array_equal(generate(cfg, 1).gain, generate(cfg, 2).gain)

    def test_closer_d2d_links_have_larger_direct_gains(self):
        near = generate(ScenarioConfig(d2d_distance=10.0), 9)
        far = generate(ScenarioConfig(d2d_distance=40.0), 9)
        # user 0 is cellular; D2D direct gains strictly improve at short range
        assert np.all(near.direct_gain()[1:] > far.direct_gain()[1:])
        np.testing.assert_allclose(near.direct_gain()[0], far.direct_gain()[0])

    def test_free_space_gain_value(self):
        cfg = ScenarioConfig(d2d_distance=10.0)
        # 20 log10(10) + 20 log10(5e9) - 147.55 = 66.43 dB path loss
        pl = cfg.path_loss_db(10.0)
        assert pl == pytest.approx(20.0 + 20.0 * np.log10(5e9) - 147.55)
        inst = generate(cfg, 11)
        assert np.all(inst.direct_gain()[1:] == pytest.approx(10 ** (-pl / 10.0)))

    def test_shadowing_changes_gains(self):
        base = generate(ScenarioConfig(), 4)
        shadowed = generate(ScenarioConfig(shadowing_sigma_db=8.0), 4)
        assert not np.allclose(base.gain, shadowed.gain)

    def test_gain_constant_across_blocks(self):
        inst = generate(ScenarioConfig(), 13)
        for k in range(1, inst.n_blocks):
            np.testing.assert_array_equal(inst.gain[:, :, 0], inst.gain[:, :, k])

    @pytest.mark.parametrize("name, bad", [
        ("n_d2d_pairs", 2.5), ("n_d2d_pairs", True), ("n_d2d_pairs", 0), ("n_blocks", 2.5),
        ("n_blocks", 2.0), ("n_blocks", True), ("seed", 1.5), ("seed", True), ("seed", -1)])
    def test_counts_and_seed_must_be_integers(self, name, bad):
        with pytest.raises(DomainError, match=name):
            ScenarioConfig(**{name: bad})
        cfg = ScenarioConfig(**{name: np.int64(2)})
        assert getattr(cfg, name) == 2

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(annulus_inner=100.0, annulus_outer=30.0)
        with pytest.raises(DomainError):
            ScenarioConfig(d2d_distance=0.0)
        with pytest.raises(DomainError, match="bandwidth_per_block"):
            ScenarioConfig(bandwidth_per_block=0.0)

    @pytest.mark.parametrize("const_db", [-3050.0, -3104.0])
    def test_rate_check_cannot_overflow_at_the_largest_gains(self, const_db):
        # max power times a gain near the largest float, over the noise, overflows
        # in watts; the check works in dB, and generate still draws finite gains
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = ScenarioConfig(path_loss_const_db=const_db)
            assert np.isfinite(generate(config, 0).gain).all()

    def test_flat_channels_keep_the_uniform_start_block_symmetric(self):
        # every block is alike, so the run from the uniform start never leaves
        # the block-symmetric allocations; starts that give each user its own
        # block (half its budget there, 1e-6 of it elsewhere) reach 3.7x more
        inst = generate(ScenarioConfig(d2d_distance=20.0), np.random.SeedSequence([1, 0]))
        solver = SolverConfig(tolerance=1e-3)
        uniform = run(inst, weighted_product(0.0), solver)
        assert uniform.status is RunStatus.CONVERGED
        np.testing.assert_allclose(uniform.allocation,
                                   np.repeat(uniform.allocation[:, :1], inst.n_blocks, axis=1),
                                   rtol=1e-6)
        assert uniform.trajectory[-1] == pytest.approx(26.93, abs=5e-3)
        n, k = inst.n_users, inst.n_blocks
        finals = []
        for shift in range(k):
            start = np.full((n, k), 1e-6) * inst.max_power[:, None]
            start[np.arange(n), (np.arange(n) + shift) % k] = 0.5 * inst.max_power
            orthogonal = run(inst, weighted_product(0.0), replace(solver, initial_allocation=start))
            finals.append(orthogonal.trajectory[-1])
        assert max(finals) == pytest.approx(28.83, abs=5e-3)
        assert max(finals) - uniform.trajectory[-1] >= 1.0

    def test_bound_coefficients_in_range_at_uniform_start(self):
        inst = generate(ScenarioConfig(), 17)
        model = expand(inst, default_initial_point(inst))
        a = model.a
        assert np.all(a >= 0.0) and np.all(a < 1.0)


class TestTrialSeeds:
    def test_trial_seed_is_order_independent(self):
        cfg = ScenarioConfig(seed=123)
        direct = generate(cfg, trial_seed(123, 7))
        # drawing other trials first must not affect trial 7
        for t in (0, 3, 5):
            generate(cfg, trial_seed(123, t))
        again = generate(cfg, trial_seed(123, 7))
        assert np.array_equal(direct.gain, again.gain)

    def test_distinct_trials_get_distinct_instances(self):
        cfg = ScenarioConfig(seed=123)
        a = generate(cfg, trial_seed(123, 0))
        b = generate(cfg, trial_seed(123, 1))
        assert not np.array_equal(a.gain, b.gain)


class TestParetoSweep:
    def test_rows_and_geometry(self):
        cfg = ScenarioConfig(seed=21, d2d_distance=10.0)
        rows = pareto_sweep(cfg, [0.0, 0.5, 1.0], trials=2, solver_config=FAST)
        assert len(rows) == 3
        for row in rows:
            assert row.tee_mean >= row.mee_mean - 1e-9
            assert row.trials == 2

    def test_deterministic_runs(self):
        cfg = ScenarioConfig(seed=22)
        a = pareto_sweep(cfg, [0.3, 0.8], trials=2, solver_config=FAST)
        b = pareto_sweep(cfg, [0.3, 0.8], trials=2, solver_config=FAST)
        for ra, rb in zip(a, b):
            assert ra.tee_mean == rb.tee_mean
            assert ra.mee_mean == rb.mee_mean

    def test_product_ee_baseline_row(self):
        cfg = ScenarioConfig(seed=23)
        rows = pareto_sweep(cfg, [0.5], trials=1, solver_config=FAST, include_product_ee=True)
        assert len(rows) == 2
        assert rows[-1].params.get("baseline") == "product_ee"
        assert rows[-1].tee_mean >= rows[-1].mee_mean

    def test_invalid_weights_rejected(self):
        with pytest.raises(DomainError, match="weights"):
            pareto_sweep(ScenarioConfig(), [0.5, 1.5], trials=1)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, 0])
    def test_trials_must_be_a_positive_integer(self, bad):
        with pytest.raises(DomainError, match="trials"):
            pareto_sweep(ScenarioConfig(), [0.5], trials=bad)


class TestTrendStudy:
    def test_rows_cover_the_grid(self):
        cfg = ScenarioConfig(seed=31)
        rows = trend_study(cfg, [10.0, 40.0], [0.0, 1.0], trials=2, solver_config=FAST)
        assert len(rows) == 4
        keys = [(row.params["d_d2d"], row.params["w"]) for row in rows]
        assert keys == [(10.0, 0.0), (10.0, 1.0), (40.0, 0.0), (40.0, 1.0)]

    def test_fairness_weight_yields_unit_jain_index(self):
        cfg = ScenarioConfig(seed=32)
        rows = trend_study(cfg, [20.0], [0.0], trials=3, solver_config=SolverConfig(tolerance=1e-4))
        assert rows[0].jfi_mean == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("distance", [0.0, -10.0, float("nan"), float("inf")])
    def test_rejects_bad_distances(self, monkeypatch, distance):
        # rejected up front, before any run
        monkeypatch.setattr("eeopt.scenario._run_grid", lambda *args: pytest.fail("ran"))
        with pytest.raises(DomainError, match="distances"):
            trend_study(ScenarioConfig(), [10.0, distance], [0.5])


class TestConvergenceStudy:
    def test_rows_and_monotone_trajectories(self):
        cfg = ScenarioConfig(seed=41)
        rows = convergence_study(cfg, [0.7], [0.5, 1.0], [1e-2], trials=2, solver_config=FAST)
        assert len(rows) == 2
        for row in rows:
            assert isinstance(row, SweepRow)
            assert len(row.runs) == 2 and len(row.bounds) == 2
            for r in row.runs:
                assert np.all(np.diff(r.trajectory) >= -1e-9)

    def test_a_failed_run_is_counted_not_raised(self, monkeypatch):
        # the first run reports a subproblem failure; the row keeps it and
        # averages the other two
        results = []

        def run_failing_the_first(*args):
            result = run(*args)
            results.append(result)
            if len(results) == 1:
                result = replace(result, status=RunStatus.SUBPROBLEM_FAILURE)
            return result

        monkeypatch.setattr("eeopt.scenario.run", run_failing_the_first)
        (row,) = convergence_study(ScenarioConfig(seed=41), [0.7], [1.0], [1e-2], trials=3,
                                   solver_config=FAST)
        assert row.trials == 3 and row.failed == 1
        assert row.runs[0].status is RunStatus.SUBPROBLEM_FAILURE
        others = results[1:]
        assert (row.tee_mean, row.mee_mean, row.jfi_mean, row.iterations_mean) == (
            np.mean([r.metrics.ee_total for r in others]),
            np.mean([r.metrics.ee_min for r in others]),
            np.mean([r.metrics.jain_index for r in others]),
            np.mean([r.iterations for r in others]))
        assert len(row.bounds) == 3

    def test_invalid_zeta_rejected(self):
        with pytest.raises(DomainError, match="zetas"):
            convergence_study(ScenarioConfig(), [0.5], [0.0], [1e-3], trials=1)

    def test_counts_monotone_and_bounded(self):
        cfg = ScenarioConfig(seed=71, n_d2d_pairs=2, n_blocks=2)   # log2 EE > 0 at the start
        rows = convergence_study(cfg, [0.7], [0.5], [1e-2, 1e-3, 1e-4], trials=2)
        counts = np.array([[r.iterations for r in row.runs] for row in rows])  # (epsilon, trial)
        assert np.all(np.diff(counts, axis=0) >= 0)
        for row in rows:
            for r, bound in zip(row.runs, row.bounds):
                assert bound is not None
                assert r.iterations <= bound
            slacks = [b - r.iterations for b, r in zip(row.bounds, row.runs)]
            assert row.bound_slack_min == min(slacks)
        # lambda takes the trial's best final objective over all tolerances
        f_0 = rows[0].runs[0].trajectory[0]
        f_best = max(row.runs[0].trajectory[-1] for row in rows)
        for row in rows:
            assert row.bounds[0] == pytest.approx(
                1.0 + max(f_best / f_0 - 1.0, 0.0) / row.params["epsilon"])

    def test_large_epsilon_gives_one_iteration(self):
        cfg = ScenarioConfig(seed=72, n_d2d_pairs=1, n_blocks=2)
        (row,) = convergence_study(cfg, [0.5], [1.0], [10.0])
        assert [r.iterations for r in row.runs] == [1]

    def test_rejects_nonpositive_epsilon(self, monkeypatch):
        # rejected up front, before any run
        monkeypatch.setattr("eeopt.scenario._run_grid", lambda *args: pytest.fail("ran"))
        for epsilons in ([1e-3, 0.0], [-1e-3], [float("nan")]):
            with pytest.raises(DomainError, match="epsilons"):
                convergence_study(ScenarioConfig(), [0.5], [1.0], epsilons)

    def test_final_objective_insensitive_to_start_scale(self):
        cfg = ScenarioConfig(seed=42)
        rows = convergence_study(cfg, [0.7], [0.1, 0.5, 1.0], [1e-4], trials=3,
                                 solver_config=SolverConfig(tolerance=1e-4))
        finals = np.array([[r.trajectory[-1] for r in row.runs] for row in rows])  # (zeta, trial)
        for t in range(finals.shape[1]):
            spread = finals[:, t].max() - finals[:, t].min()
            assert spread <= 0.01 * abs(finals[:, t].mean())


class TestRowsFromDirectRuns:
    """Every study row is the trial statistics of direct `run` calls.

    Trial t of a cell runs on generate(config with the cell's link
    distance, trial_seed(config.seed, t)), under the study's SolverConfig
    with the cell's tolerance, from zeta times the uniform split.
    """

    CONFIG = ScenarioConfig(seed=61, n_d2d_pairs=2, n_blocks=3)
    SOLVER = SolverConfig(tolerance=1e-2, kkt_tolerance=1e-7)
    TRIALS = 2

    def direct_runs(self, scalarization, d2d_distance=None, zeta=None, epsilon=None,
                    solver=SOLVER, trials=TRIALS):
        scenario = self.CONFIG if d2d_distance is None else replace(self.CONFIG,
                                                                     d2d_distance=d2d_distance)
        runs = []
        for t in range(trials):
            inst = generate(scenario, trial_seed(self.CONFIG.seed, t))
            cfg = solver if epsilon is None else replace(solver, tolerance=epsilon)
            if zeta is not None:
                cfg = replace(cfg, initial_allocation=zeta * default_initial_point(inst))
            runs.append(run(inst, scalarization, cfg))
        return runs

    def assert_row_is(self, row, params, runs):
        def mean_se(values):
            arr = np.array(values, dtype=float)
            return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

        assert repr(row.params) == repr(params)     # repr, so a NaN weight matches
        assert row.trials == len(runs) == len(row.runs)
        for kept, r in zip(row.runs, runs):
            assert np.array_equal(kept.allocation, r.allocation)
            assert np.array_equal(kept.trajectory, r.trajectory)
            assert kept.status is r.status
        converged = [r for r in runs if r.status is RunStatus.CONVERGED]
        assert row.failed == len(runs) - len(converged)
        expected = (*mean_se([r.metrics.ee_total for r in converged]),
                    *mean_se([r.metrics.ee_min for r in converged]),
                    *mean_se([r.metrics.jain_index for r in converged]),
                    *mean_se([r.iterations for r in converged]))
        assert (row.tee_mean, row.tee_se, row.mee_mean, row.mee_se, row.jfi_mean, row.jfi_se,
                row.iterations_mean, row.iterations_se) == expected

    def test_pareto_with_the_product_ee_baseline(self):
        rows = pareto_sweep(self.CONFIG, [0.3, 0.8], kind="weighted_minimum", trials=self.TRIALS,
                            solver_config=self.SOLVER, include_product_ee=True)
        assert len(rows) == 3
        for row, w in zip(rows, [0.3, 0.8]):
            self.assert_row_is(row, {"w": w}, self.direct_runs(weighted_minimum(w)))
        self.assert_row_is(rows[2], {"w": float("nan"), "baseline": "product_ee"},
                           self.direct_runs(product_ee()))

    def test_pareto_cells_with_failed_runs(self):
        # capped at two outer iterations, some trials end `iteration_cap`
        solver = replace(self.SOLVER, max_outer_iterations=2)
        rows = pareto_sweep(self.CONFIG, [0.0, 0.3], trials=4, solver_config=solver)
        for row, w in zip(rows, [0.0, 0.3]):
            self.assert_row_is(row, {"w": w},
                               self.direct_runs(weighted_product(w), solver=solver, trials=4))
        assert [row.failed for row in rows] == [2, 1]

    def test_trend_over_two_distances(self):
        rows = trend_study(self.CONFIG, [10.0, 40.0], [0.0, 0.6], trials=self.TRIALS,
                           solver_config=self.SOLVER)
        cells = [(d, w) for d in (10.0, 40.0) for w in (0.0, 0.6)]
        assert len(rows) == len(cells)
        for row, (d, w) in zip(rows, cells):
            self.assert_row_is(row, {"d_d2d": d, "w": w},
                               self.direct_runs(weighted_product(w), d2d_distance=d))

    def test_convergence_over_start_scales_and_tolerances(self):
        rows = convergence_study(self.CONFIG, [0.7], [0.2, 1.0], [1e-2, 1e-4], trials=self.TRIALS,
                                 solver_config=self.SOLVER)
        cells = [(zeta, eps) for zeta in (0.2, 1.0) for eps in (1e-2, 1e-4)]
        assert len(rows) == len(cells)
        direct = {cell: self.direct_runs(weighted_product(0.7), zeta=cell[0], epsilon=cell[1])
                  for cell in cells}
        for row, (zeta, eps) in zip(rows, cells):
            self.assert_row_is(row, {"w": 0.7, "zeta": zeta, "epsilon": eps}, direct[zeta, eps])
            # lambda: trial t's best final objective over the tolerances of (w, zeta)
            bounds = []
            for t, r in enumerate(direct[zeta, eps]):
                f_0 = float(r.trajectory[0])
                f_best = max(float(direct[zeta, e][t].trajectory[-1]) for e in (1e-2, 1e-4))
                bounds.append(1.0 + max(f_best / f_0 - 1.0, 0.0) / eps if f_0 > 0 else None)
            assert row.bounds == tuple(bounds)
        assert all(b is not None for row in rows for b in row.bounds)


class TestWorkers:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("EEOPT_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(np.int64(2)) == 2
        monkeypatch.setenv("EEOPT_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_fewer_than_one_worker_is_an_error(self, monkeypatch):
        monkeypatch.delenv("EEOPT_WORKERS", raising=False)
        for workers in (0, -4):
            with pytest.raises(DomainError, match="workers"):
                resolve_workers(workers)
        monkeypatch.setenv("EEOPT_WORKERS", "0")
        with pytest.raises(DomainError, match="EEOPT_WORKERS"):
            resolve_workers(None)

    @pytest.mark.parametrize("workers", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
    def test_non_integer_workers_is_an_error(self, workers):
        # int() once turned these into 1, 2 and 1 worker
        with pytest.raises(DomainError, match="workers"):
            resolve_workers(workers)

    @pytest.mark.parametrize("study", ["pareto", "trend", "convergence"])
    def test_parallel_matches_serial(self, study):
        cfg = ScenarioConfig(seed=51, n_d2d_pairs=2, n_blocks=3)
        sweep = {
            "pareto": lambda workers: pareto_sweep(cfg, [0.4], trials=3, solver_config=FAST,
                                                   include_product_ee=True, workers=workers),
            "trend": lambda workers: trend_study(cfg, [10.0, 40.0], [0.4], trials=3,
                                                 solver_config=FAST, workers=workers),
            "convergence": lambda workers: convergence_study(cfg, [0.4], [0.5], [1e-2], trials=3,
                                                             workers=workers),
        }[study]

        # every field bit-identical, the runs' fields included: arrays as bytes,
        # the rest by repr so NaN matches NaN
        def bits(value):
            if isinstance(value, np.ndarray):
                return value.tobytes()
            if is_dataclass(value):
                return {f.name: bits(getattr(value, f.name)) for f in fields(value)}
            if isinstance(value, (list, tuple)):
                return [bits(v) for v in value]
            return repr(value)

        serial, parallel = sweep(1), sweep(2)
        assert all(len(row.runs) == 3 for row in serial)
        assert bits(serial) == bits(parallel)
