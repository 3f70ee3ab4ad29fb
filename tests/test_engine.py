from dataclasses import replace

import numpy as np
import pytest

from eeopt import engine
from eeopt.engine import (
    RunStatus,
    SolverConfig,
    default_initial_point,
    run,
)
from eeopt.errors import DomainError, InfeasibleInitialPointError
from eeopt.network import NetworkInstance, evaluate, is_feasible
from eeopt.scalarization import product_ee, weighted_minimum, weighted_product
from eeopt.scenario import ScenarioConfig, generate
from eeopt.solver import ConvexSubproblem, SubproblemStatus, solve

from helpers import (
    SHAPES,
    expand,
    g_row,
    log_true_objective,
    metrics_off_reference,
    paper_scale_instance,
    psi_rows,
    random_instance,
)

# frozen from the 1-D oracle over p in (0, 10], step 1e-4, for the single-user
# instance below: max of log2(1 + 10 p) / (p + 1)
I1_TRUE_OPTIMUM_EE = 1.7649017371367017


def instance_i1():
    return NetworkInstance(
        bandwidth_per_block=1.0,
        gain=np.array([[[10.0]]]),
        noise=np.array([[1.0]]),
        amp_inefficiency=1.0,
        static_power=1.0,
        max_power=10.0,
        min_rate=0.0,
    )


class TestDefaultInitialPoint:
    def test_uniform_split_at_23_dbm(self):
        p_max = 10 ** ((23.0 - 30.0) / 10.0)  # 23 dBm in watts
        inst = NetworkInstance(
            bandwidth_per_block=5e5,
            gain=np.ones((1, 1, 5)),
            noise=np.full((1, 5), 1e-12),
            amp_inefficiency=1.0,
            static_power=0.01,
            max_power=p_max,
            min_rate=0.0,
        )
        p0 = default_initial_point(inst)
        assert p_max == pytest.approx(0.1995262315, rel=1e-9)
        np.testing.assert_allclose(p0, 0.039905246299377594, rtol=1e-12)
        assert p0.sum() == pytest.approx(p_max)

    def test_single_block_gets_full_budget(self):
        rng = np.random.default_rng(60)
        inst = random_instance(rng, 3, 1)
        np.testing.assert_allclose(default_initial_point(inst)[:, 0], inst.max_power)

    def test_heterogeneous_budgets(self):
        gain = np.ones((2, 2, 2)) * 0.1
        gain[0, 0] = gain[1, 1] = 1.0
        inst = NetworkInstance(1.0, gain, np.full((2, 2), 0.2), 1.0, 1.0,
                               np.array([0.4, 2.0]), 0.0)
        p0 = default_initial_point(inst)
        np.testing.assert_allclose(p0[0], 0.2)
        np.testing.assert_allclose(p0[1], 1.0)


class TestRunSingleUser:
    def test_matches_true_problem_oracle(self):
        inst = instance_i1()
        result = run(inst, weighted_product(1.0), SolverConfig(tolerance=1e-5))
        assert result.status is RunStatus.CONVERGED

        p = np.arange(1e-4, 10.0 + 1e-12, 1e-4)
        oracle = float((np.log2(1 + 10 * p) / (p + 1)).max())
        assert oracle == pytest.approx(I1_TRUE_OPTIMUM_EE, abs=1e-12)
        assert result.metrics.ee_total == pytest.approx(oracle, rel=1e-3)

    def test_trajectory_is_monotone(self):
        result = run(instance_i1(), weighted_product(1.0), SolverConfig(tolerance=1e-6))
        diffs = np.diff(result.trajectory)
        assert np.all(diffs >= -1e-9)


class TestRunGeneral:
    @pytest.mark.parametrize("w", [0.0, 0.3, 0.7, 1.0])
    def test_monotone_trajectories_on_random_instances(self, w):
        rng = np.random.default_rng(61)
        for _ in range(8):
            inst = random_instance(rng, int(rng.integers(2, 4)), int(rng.integers(1, 3)))
            result = run(inst, weighted_product(w), SolverConfig(tolerance=1e-4))
            assert np.all(np.diff(result.trajectory) >= -1e-9)
            assert result.status is RunStatus.CONVERGED

    def test_all_iterates_feasible(self):
        rng = np.random.default_rng(62)
        for _ in range(6):
            inst = random_instance(rng, 3, 2)
            result = run(inst, weighted_product(0.6), SolverConfig(tolerance=1e-4))
            assert all(s.feasible for s in result.iteration_stats)
            assert is_feasible(inst, result.allocation, tol=1e-6).ok

    def test_pure_fairness_equalizes_efficiencies(self):
        rng = np.random.default_rng(63)
        for _ in range(6):
            inst = random_instance(rng, 3, 2)
            result = run(inst, weighted_product(0.0), SolverConfig(tolerance=1e-6))
            ee = result.metrics.ee
            assert ee.max() - ee.min() <= 1e-3 * ee.mean()

    def test_thresholds_are_achieved_by_the_allocation(self):
        rng = np.random.default_rng(64)
        inst = random_instance(rng, 3, 2)
        result = run(inst, weighted_product(0.5), SolverConfig(tolerance=1e-4))
        assert result.status is RunStatus.CONVERGED
        final = result.metrics
        last = result.iteration_stats[-1]
        # recorded thresholds never exceed what the allocation realizes, and
        # at convergence the slack between them is below 0.1%
        assert final.ee_total >= 2.0**last.u * (1 - 1e-6)
        assert final.ee_min >= 2.0**last.v * (1 - 1e-6)
        assert final.ee_total <= 2.0**last.u * 1.001
        assert final.ee_min <= 2.0**last.v * 1.001

    def test_threshold_inequalities_hold_at_every_iterate(self):
        # step the loop by hand: at every iterate the psi and g rows that run,
        # set at the log2 of the realized EEs, are <= 0 (each surrogate rate
        # is at most the true rate), and the solver's thresholds do not exceed
        # what the allocation realizes
        rng = np.random.default_rng(76)
        inst = random_instance(rng, 3, 2)
        scal = weighted_product(0.6)
        p = default_initial_point(inst)
        for _ in range(4):
            model = expand(inst, p)
            sub = ConvexSubproblem(model, scal)
            sol = solve(sub)
            rep = evaluate(inst, np.exp2(sol.q))
            scale = rep.rate / inst.bandwidth_per_block
            assert np.all(psi_rows(model, sol.q, np.log2(rep.ee))[0] <= 1e-12 * scale)
            assert g_row(model, sol.q, float(np.log2(rep.ee_total)))[0] <= 1e-12 * scale.sum()
            assert sol.x[sub.u_index] <= np.log2(rep.ee_total) + 1e-9
            assert np.all(sol.x[sub._v_cols] <= np.log2(rep.ee_min) + 1e-9)
            p = np.exp2(sol.q)

    def test_weighted_minimum_runs(self):
        rng = np.random.default_rng(65)
        inst = random_instance(rng, 3, 2)
        result = run(inst, weighted_minimum(0.5), SolverConfig(tolerance=1e-4))
        assert result.status is RunStatus.CONVERGED
        assert np.all(np.diff(result.trajectory) >= -1e-9)

    def test_product_ee_runs(self):
        rng = np.random.default_rng(66)
        inst = random_instance(rng, 3, 2)
        result = run(inst, product_ee(), SolverConfig(tolerance=1e-4))
        assert result.status is RunStatus.CONVERGED
        assert np.all(np.diff(result.trajectory) >= -1e-9)
        # the recorded trajectory is the log2 of the product of EEs
        assert result.trajectory[-1] == np.log2(result.metrics.ee).sum()

    def test_true_trajectory_does_not_stop_a_run_early(self):
        # a trajectory of surrogate values, lower bounds on f(p_l), once ended
        # this run converged after 4 iterations at 24.455, 1.07% below the true
        # objective of its own allocation; f_l = f(p_l) carries it on past 29
        inst = generate(ScenarioConfig(d2d_distance=10.0), np.random.SeedSequence([1, 231]))
        scal = weighted_minimum(0.3)
        result = run(inst, scal, SolverConfig(tolerance=1e-3))
        assert result.status is RunStatus.CONVERGED
        assert result.trajectory[-1] == log_true_objective(scal, result.metrics)
        assert result.trajectory[-1] >= 29.0

    def test_insensitive_to_scaled_starts(self):
        rng = np.random.default_rng(67)
        inst = random_instance(rng, 3, 2)
        finals = []
        for zeta in (0.1, 0.5, 1.0):
            cfg = SolverConfig(tolerance=1e-5, initial_allocation=zeta * default_initial_point(inst))
            finals.append(run(inst, weighted_product(0.7), cfg).trajectory[-1])
        spread = max(finals) - min(finals)
        assert spread <= 0.01 * abs(np.mean(finals))

    def test_huge_tolerance_stops_after_one_iteration(self):
        rng = np.random.default_rng(68)
        inst = random_instance(rng, 2, 2)
        result = run(inst, weighted_product(0.5), SolverConfig(tolerance=1e6))
        assert result.iterations == 1
        assert result.status is RunStatus.CONVERGED


class TestCertification:
    def test_certified_run_counts_none(self):
        r = run(instance_i1(), weighted_product(1.0), SolverConfig(tolerance=1e-6))
        assert all(s.certified for s in r.iteration_stats)
        assert r.uncertified_subproblems == 0

    def test_paper_scale_weighted_minimum_certifies(self):
        # the earlier barrier solver left all three subproblems of this paper-scale
        # run at KKT residuals of 0.11-0.28. Early subproblems may now stop on
        # their ascent, and the last one is solved to the full certificate; the
        # trajectory of true objectives f(p_l) is frozen from the one-column
        # layout (the epigraph-row layout went 27.7009, 27.7566, 27.7630)
        inst = paper_scale_instance()
        r = run(inst, weighted_minimum(0.5), SolverConfig(tolerance=1e-3))
        assert r.status is RunStatus.CONVERGED
        assert r.uncertified_subproblems == 0
        *early, last = r.iteration_stats
        assert last.subproblem_status is SubproblemStatus.OPTIMAL
        assert last.kkt_residual <= 1e-10
        assert early and all(s.certified for s in early)
        assert all(s.index < r.iterations for s in r.iteration_stats
                   if s.subproblem_status is SubproblemStatus.ASCENT)
        np.testing.assert_allclose(
            r.trajectory,
            [21.102121390655125, 27.56993690559354, 27.74872529495747, 27.7625738244427],
            rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("tolerance", [1e-2, 1e-4, 1e-6])
    def test_paper_scale_ascents_raise_f_and_never_end_a_run(self, tolerance):
        inst = paper_scale_instance()
        ascents = 0
        for scal in SHAPES:
            r = run(inst, scal, SolverConfig(tolerance=tolerance))
            assert r.status is RunStatus.CONVERGED
            last = r.iteration_stats[-1]
            assert last.subproblem_status is SubproblemStatus.OPTIMAL
            assert last.kkt_residual <= SolverConfig().kkt_tolerance
            assert r.trajectory[-1] == log_true_objective(scal, r.metrics)
            for s in r.iteration_stats:
                if s.subproblem_status is SubproblemStatus.ASCENT:
                    ascents += 1
                    f_prev, f = r.trajectory[s.index - 1], r.trajectory[s.index]
                    assert f - f_prev >= tolerance * abs(f_prev)
                    assert s.index < r.iterations
        assert ascents >= len(SHAPES)

    def test_ascent_status_blocks_the_stopping_rule(self, monkeypatch):
        # even where rounding would let the stopping rule fire, a subproblem that
        # stopped early on its ascent earns another outer iteration
        monkeypatch.setattr(engine, "solve", lambda sub, tol, multipliers, min_gain: replace(
            solve(sub, tol, multipliers, min_gain), status=SubproblemStatus.ASCENT))
        r = run(instance_i1(), weighted_product(1.0),
                SolverConfig(tolerance=1e-6, max_outer_iterations=6))
        assert r.status is RunStatus.ITERATION_CAP
        assert r.iterations == 6
        assert r.uncertified_subproblems == 0

    def test_uncertified_subproblems_are_counted_not_failed(self, monkeypatch):
        # every subproblem reports stopping short of its certificate
        monkeypatch.setattr(engine, "solve", lambda sub, tol, multipliers, min_gain: replace(
            solve(sub, tol, multipliers, min_gain), status=SubproblemStatus.MAX_ITERATIONS))
        r = run(instance_i1(), weighted_product(1.0), SolverConfig(tolerance=1e-6))
        assert r.iterations > 1
        assert [s.certified for s in r.iteration_stats] == [False] * r.iterations
        assert r.uncertified_subproblems == r.iterations
        # the stopping rule fires, but on a subproblem that was not certified
        assert r.status is RunStatus.UNCERTIFIED

    def test_floors_at_the_start_never_claim_converged(self):
        # each user's rate floor at its rate at the uniform start leaves no
        # strictly feasible point, so no subproblem can certify a move away
        # from the start; such runs end uncertified or failed, never converged
        statuses = []
        for s in range(6):
            inst = generate(ScenarioConfig(d2d_distance=20.0), np.random.SeedSequence([s, 77]))
            inst = replace(inst, min_rate=evaluate(inst, default_initial_point(inst)).rate)
            for scal in (weighted_product(0.0), weighted_product(0.5), weighted_product(1.0),
                         weighted_minimum(0.5), product_ee()):
                r = run(inst, scal)
                statuses.append(r.status)
                if r.status is RunStatus.UNCERTIFIED:
                    assert not r.iteration_stats[-1].certified
        assert len(statuses) == 30
        assert statuses.count(RunStatus.CONVERGED) == 0


class TestWorkCounts:
    # the 41 scalarizations of the paper-scale Pareto study on one instance take
    # 816 Newton steps (weighted product 435, weighted minimum 367, product-EE
    # 14) and 117 outer iterations; the weighted minimum took 503 steps under
    # two epigraph rows and its own u, v and t columns, and a later change must
    # not win that back, nor hide more steps behind a cheaper one
    NEWTON_STEPS, OUTER_ITERATIONS = 816, 117

    def test_pareto_grid_work_stays_within_2_percent(self):
        inst = generate(ScenarioConfig(d2d_distance=10.0), np.random.SeedSequence([1, 0]))
        grid = np.linspace(0.0, 1.0, 21)
        scals = ([weighted_product(float(w)) for w in grid]
                 + [weighted_minimum(float(w)) for w in grid[1:-1]] + [product_ee()])
        runs = [run(inst, s, SolverConfig(tolerance=1e-3)) for s in scals]
        assert all(r.status is RunStatus.CONVERGED for r in runs)
        steps = sum(st.newton_iterations for r in runs for st in r.iteration_stats)
        assert steps <= 1.02 * self.NEWTON_STEPS
        assert sum(r.iterations for r in runs) <= 1.02 * self.OUTER_ITERATIONS


class TestVanishingPowerGrid:
    # the grid on which optimal powers vanish (q -> -inf) at strong gains, where
    # outcomes move at rounding level: one or two pairs over two or three
    # blocks, path-loss constants from -100 to -400 dB, six instances each;
    # there the direct power dwarfs interference plus noise, so each run's
    # metrics are also checked against the per-pair loop
    def test_every_run_certifies(self):
        scals = (weighted_product(0.5), weighted_product(0.0), weighted_product(1.0),
                 weighted_minimum(0.5))
        uncertified = failed = runs = off_reference = 0
        for pairs, blocks in ((1, 2), (2, 3)):
            for const_db in np.arange(-100.0, -401.0, -50.0):
                config = ScenarioConfig(n_d2d_pairs=pairs, n_blocks=blocks,
                                        path_loss_const_db=float(const_db))
                for s in range(1, 7):
                    inst = generate(config, np.random.SeedSequence([s, 0]))
                    for scal in scals:
                        r = run(inst, scal, SolverConfig(tolerance=1e-3))
                        runs += 1
                        uncertified += r.uncertified_subproblems
                        failed += r.status is RunStatus.SUBPROBLEM_FAILURE
                        off_reference += metrics_off_reference(r.metrics, inst, r.allocation) > 1e-9
        assert (runs, uncertified, failed, off_reference) == (336, 0, 0, 0)


class TestEndpointWeights:
    @pytest.mark.parametrize("d2d_distance, trial", [(20.0, 506), (40.0, 433)])
    def test_tee_run_survives_a_minus_inf_v_root(self, d2d_distance, trial):
        # at w = 1 a certified subproblem can end with one user's surrogate rate
        # a hair below 0, within tolerance of its floor of 0; that user's v root
        # is -inf, which used to raise DomainError although v has weight 0
        inst = generate(ScenarioConfig(d2d_distance=d2d_distance, seed=20),
                        np.random.SeedSequence([20, trial]))
        r = run(inst, weighted_product(1.0), SolverConfig(tolerance=1e-3))
        assert r.status is RunStatus.CONVERGED
        assert np.isfinite(r.trajectory).all()


class TestZeroEfficiencyStart:
    # user 1's direct gain is so small that its rate, and so its EE, is exactly
    # 0 at the uniform start: its log2 EE is -inf
    INSTANCE = dict(bandwidth_per_block=1.0, amp_inefficiency=1.0, static_power=1.0,
                    max_power=1.0, min_rate=0.0, noise=np.array([[1e-3, 1e-3], [1e10, 1e10]]))

    @pytest.mark.parametrize("scalarization, message", [
        (product_ee(), "log2 EE"),
        (weighted_product(0.5), "u and v"),
        (weighted_minimum(0.5), "u and v"),
    ], ids=["product_ee", "weighted_product", "weighted_minimum"])
    def test_an_objective_using_a_zero_ee_raises(self, scalarization, message):
        gain = np.full((2, 2, 2), 1e-3)
        gain[0, 0, :], gain[1, 1, :] = 1.0, 1e-320
        inst = NetworkInstance(gain=gain, **self.INSTANCE)
        assert evaluate(inst, default_initial_point(inst)).ee[1] == 0.0
        with pytest.raises(DomainError, match=message):
            run(inst, scalarization)


class TestInitialPointValidation:
    def test_nonpositive_initial_rejected(self):
        rng = np.random.default_rng(69)
        inst = random_instance(rng, 2, 2)
        bad = default_initial_point(inst)
        bad[0, 0] = 0.0
        with pytest.raises(InfeasibleInitialPointError):
            run(inst, weighted_product(0.5), SolverConfig(initial_allocation=bad))

    def test_power_budget_violation_rejected(self):
        rng = np.random.default_rng(70)
        inst = random_instance(rng, 2, 2)
        bad = default_initial_point(inst) * 1.5
        with pytest.raises(InfeasibleInitialPointError):
            run(inst, weighted_product(0.5), SolverConfig(initial_allocation=bad))

    def test_rate_floor_violation_rejected_before_iterating(self):
        inst = NetworkInstance(
            bandwidth_per_block=1.0,
            gain=np.array([[[10.0]]]),
            noise=np.array([[1.0]]),
            amp_inefficiency=1.0,
            static_power=1.0,
            max_power=10.0,
            min_rate=100.0,  # far above capacity
        )
        with pytest.raises(InfeasibleInitialPointError):
            run(inst, weighted_product(1.0))

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(max_outer_iterations=0)

    @pytest.mark.parametrize("name", ["tolerance", "kkt_tolerance"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_tolerances_must_be_finite_and_positive(self, name, bad):
        with pytest.raises(DomainError, match=f"{name} must be finite and > 0"):
            SolverConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, np.float64(3.0)])
    def test_max_outer_iterations_must_be_an_integer(self, bad):
        with pytest.raises(DomainError, match="max_outer_iterations"):
            SolverConfig(max_outer_iterations=bad)
        assert SolverConfig(max_outer_iterations=np.int64(2)).max_outer_iterations == 2
