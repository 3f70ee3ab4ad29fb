import numpy as np
import pytest

from eeopt.engine import SolverConfig, default_initial_point
from eeopt.errors import DomainError
from eeopt.scenario import (
    ConvergenceRecord,
    ScenarioConfig,
    convergence_study,
    generate,
    pareto_sweep,
    resolve_workers,
    trend_study,
    trial_seed,
)
from eeopt.surrogate import build

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

    def test_config_validation(self):
        with pytest.raises(DomainError):
            ScenarioConfig(n_d2d_pairs=0)
        with pytest.raises(DomainError):
            ScenarioConfig(annulus_inner=100.0, annulus_outer=30.0)
        with pytest.raises(DomainError):
            ScenarioConfig(d2d_distance=0.0)

    def test_bound_coefficients_in_range_at_uniform_start(self):
        inst = generate(ScenarioConfig(), 17)
        model = build(inst, default_initial_point(inst))
        a = model.coefficients.a
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
        result = pareto_sweep(cfg, [0.0, 0.5, 1.0], trials=2, solver_config=FAST)
        assert len(result.rows) == 3
        assert result.trials == 2
        for row in result.rows:
            assert row.tee_mean >= row.mee_mean - 1e-9
            assert row.trials == 2

    def test_deterministic_runs(self):
        cfg = ScenarioConfig(seed=22)
        a = pareto_sweep(cfg, [0.3, 0.8], trials=2, solver_config=FAST)
        b = pareto_sweep(cfg, [0.3, 0.8], trials=2, solver_config=FAST)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.tee_mean == rb.tee_mean
            assert ra.mee_mean == rb.mee_mean

    def test_product_ee_baseline_row(self):
        cfg = ScenarioConfig(seed=23)
        result = pareto_sweep(cfg, [0.5], trials=1, solver_config=FAST, include_product_ee=True)
        assert len(result.rows) == 2
        assert result.rows[-1].params.get("baseline") == "product_ee"
        assert result.rows[-1].tee_mean >= result.rows[-1].mee_mean

    def test_invalid_weights_rejected(self):
        with pytest.raises(DomainError):
            pareto_sweep(ScenarioConfig(), [0.5, 1.5], trials=1)


class TestTrendStudy:
    def test_rows_cover_the_grid(self):
        cfg = ScenarioConfig(seed=31)
        result = trend_study(cfg, [10.0, 40.0], [0.0, 1.0], trials=2, solver_config=FAST)
        assert len(result.rows) == 4
        keys = [(row.params["d_d2d"], row.params["w"]) for row in result.rows]
        assert keys == [(10.0, 0.0), (10.0, 1.0), (40.0, 0.0), (40.0, 1.0)]

    def test_fairness_weight_yields_unit_jain_index(self):
        cfg = ScenarioConfig(seed=32)
        result = trend_study(cfg, [20.0], [0.0], trials=3, solver_config=SolverConfig(tolerance=1e-4))
        assert result.rows[0].jfi_mean == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("distance", [0.0, -10.0, float("nan"), float("inf")])
    def test_rejects_bad_distances(self, monkeypatch, distance):
        # rejected up front, before any run
        monkeypatch.setattr("eeopt.scenario._run_grid", lambda *args: pytest.fail("ran"))
        with pytest.raises(DomainError, match="distances"):
            trend_study(ScenarioConfig(), [10.0, distance], [0.5])


class TestConvergenceStudy:
    def test_records_and_monotone_trajectories(self):
        cfg = ScenarioConfig(seed=41)
        records = convergence_study(cfg, [0.7], [0.5, 1.0], [1e-2], trials=2,
                                    solver_config=FAST)
        assert len(records) == 2
        for rec in records:
            assert isinstance(rec, ConvergenceRecord)
            assert np.all(np.diff(rec.trajectory) >= -1e-9)
            assert len(rec.iterations) == 2

    def test_invalid_zeta_rejected(self):
        with pytest.raises(DomainError):
            convergence_study(ScenarioConfig(), [0.5], [0.0], [1e-3], trials=1)

    def test_counts_monotone_and_bounded(self):
        cfg = ScenarioConfig(seed=71, n_d2d_pairs=2, n_blocks=2)   # log2 EE > 0 at the start
        records = convergence_study(cfg, [0.7], [0.5], [1e-2, 1e-3, 1e-4], trials=2)
        counts = np.array([rec.iterations for rec in records])     # (epsilon, trial)
        assert np.all(np.diff(counts, axis=0) >= 0)
        for rec in records:
            for iterations, bound in zip(rec.iterations, rec.bounds):
                assert bound is not None
                assert iterations <= bound
        # lambda takes the trial's best final objective over all tolerances
        f_0 = records[0].trajectory[0]
        f_best = max(rec.final_objectives[0] for rec in records)
        for rec in records:
            assert rec.bounds[0] == pytest.approx(1.0 + max(f_best / f_0 - 1.0, 0.0) / rec.epsilon)

    def test_large_epsilon_gives_one_iteration(self):
        cfg = ScenarioConfig(seed=72, n_d2d_pairs=1, n_blocks=2)
        (record,) = convergence_study(cfg, [0.5], [1.0], [10.0])
        assert record.iterations == [1]

    def test_rejects_nonpositive_epsilon(self, monkeypatch):
        # rejected up front, before any run
        monkeypatch.setattr("eeopt.scenario._run_grid", lambda *args: pytest.fail("ran"))
        for epsilons in ([1e-3, 0.0], [-1e-3], [float("nan")]):
            with pytest.raises(DomainError):
                convergence_study(ScenarioConfig(), [0.5], [1.0], epsilons)

    def test_final_objective_insensitive_to_start_scale(self):
        cfg = ScenarioConfig(seed=42)
        records = convergence_study(cfg, [0.7], [0.1, 0.5, 1.0], [1e-4], trials=3,
                                    solver_config=SolverConfig(tolerance=1e-4))
        finals = np.array([rec.final_objectives for rec in records])  # (zeta, trial)
        for t in range(finals.shape[1]):
            spread = finals[:, t].max() - finals[:, t].min()
            assert spread <= 0.01 * abs(finals[:, t].mean())


class TestWorkers:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("EEOPT_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 4
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

    @pytest.mark.parametrize("study", ["pareto", "trend", "convergence"])
    def test_parallel_matches_serial(self, study):
        cfg = ScenarioConfig(seed=51, n_d2d_pairs=2, n_blocks=3)
        sweep = {
            "pareto": lambda workers: pareto_sweep(cfg, [0.4], trials=3, solver_config=FAST,
                                                   include_product_ee=True, workers=workers).rows,
            "trend": lambda workers: trend_study(cfg, [10.0, 40.0], [0.4], trials=3,
                                                 solver_config=FAST, workers=workers).rows,
            "convergence": lambda workers: convergence_study(cfg, [0.4], [0.5], [1e-2], trials=3,
                                                             workers=workers),
        }[study]
        # every field bit-identical: arrays as bytes, the rest by repr so NaN matches NaN
        def fields(row):
            return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
                    for k, v in vars(row).items()}

        assert [fields(r) for r in sweep(1)] == [fields(r) for r in sweep(2)]
