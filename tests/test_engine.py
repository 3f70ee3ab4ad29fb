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

from helpers import random_instance

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
        # step the loop by hand: realized EEs dominate both the raw solver
        # thresholds and their tightened roots at every iterate
        from eeopt.surrogate import build, efficiency_roots

        rng = np.random.default_rng(76)
        inst = random_instance(rng, 3, 2)
        scal = weighted_product(0.6)
        p = default_initial_point(inst)
        for _ in range(4):
            model = build(inst, p)
            sub = ConvexSubproblem(model, scal)
            sol = solve(sub)
            u_root, v_roots = efficiency_roots(inst, sol.q, sol.rates)
            assert sol.u <= u_root + 1e-9
            assert sol.v <= float(v_roots.min()) + 1e-9
            p = np.exp2(sol.q)
            rep = evaluate(inst, p)
            assert rep.ee_total >= 2.0**u_root * (1 - 1e-6)
            assert rep.ee_min >= 2.0 ** float(v_roots.min()) * (1 - 1e-6)

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
        assert result.trajectory[-1] <= np.log2(result.metrics.ee).sum() + 1e-6

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
        # run at KKT residuals of 0.11-0.28; the trajectory is frozen from it
        inst = generate(ScenarioConfig(d2d_distance=10.0), np.random.SeedSequence([1, 30]))
        r = run(inst, weighted_minimum(0.5), SolverConfig(tolerance=1e-3))
        assert r.status is RunStatus.CONVERGED
        assert r.uncertified_subproblems == 0
        assert all(s.kkt_residual <= 1e-10 for s in r.iteration_stats)
        np.testing.assert_allclose(
            r.trajectory,
            [21.102121390655125, 27.27443814567582, 27.75595376269137, 27.76297997643861],
            rtol=0.0, atol=1e-8)

    def test_uncertified_subproblems_are_counted_not_failed(self, monkeypatch):
        # every subproblem reports stopping short of its certificate
        monkeypatch.setattr(engine, "solve", lambda sub, tol: replace(
            solve(sub, tol), status=SubproblemStatus.MAX_ITERATIONS))
        r = run(instance_i1(), weighted_product(1.0), SolverConfig(tolerance=1e-6))
        assert r.iterations > 1
        assert [s.certified for s in r.iteration_stats] == [False] * r.iterations
        assert r.uncertified_subproblems == r.iterations
        # the run status does not yet account for certification
        assert r.status is RunStatus.CONVERGED


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
            SolverConfig(tolerance=0.0)
        with pytest.raises(DomainError, match="tolerance"):
            SolverConfig(tolerance=float("nan"))
        with pytest.raises(DomainError):
            SolverConfig(max_outer_iterations=0)
