import warnings
from dataclasses import replace

import numpy as np
import pytest

from eeopt import solver
from eeopt.engine import default_initial_point
from eeopt.errors import DomainError, ShapeError
from eeopt.network import NetworkInstance, evaluate
from eeopt.scalarization import product_ee, weighted_minimum, weighted_product
from eeopt.scenario import ScenarioConfig, generate
from eeopt.solver import (
    ConvexSubproblem,
    SubproblemStatus,
    _interior_point,
    kkt_residual,
    solve,
)
from eeopt.surrogate import LN2, build, rate_evaluation

from helpers import random_alloc, random_instance

# frozen from the 1-D grid oracle over q in [log2 1e-6, log2 10], step 1e-5:
# maximize log2(rate~(q)) - log2(2^q + 1) for the surrogate expanded at p = 1
I1_SURROGATE_OPTIMUM_U = 0.8165859978771477


def single_user(min_rate=0.0, max_power=10.0, direct=10.0):
    """One user on one block; the defaults are the instance of the grid oracle below."""
    return NetworkInstance(
        bandwidth_per_block=1.0,
        gain=np.array([[[direct]]]),
        noise=np.array([[1.0]]),
        amp_inefficiency=1.0,
        static_power=1.0,
        max_power=max_power,
        min_rate=min_rate,
    )


def symmetric_pair(direct=1.0, cross=0.2, noise=0.5, p_max=4.0):
    gain = np.array([[[direct], [cross]], [[cross], [direct]]])
    return NetworkInstance(
        bandwidth_per_block=1.0,
        gain=gain,
        noise=np.full((2, 1), noise),
        amp_inefficiency=1.0,
        static_power=1.0,
        max_power=p_max,
        min_rate=0.0,
    )


class _MonotoneRootToy:
    """max u subject to 1 - 2^(u - root) >= 0: optimum exactly at the root; starts at u = 0."""

    def __init__(self, root, objective=1.0):
        self.root = root
        self.n_vars = 1
        self.n_constraints = 1
        self.objective_vector = np.array([objective])

    def evaluate(self, x, with_grad=True):
        z = 2.0 ** (x[0] - self.root)
        c = np.array([1.0 - z])
        ctx = {"z": z}
        return c, (self.jacobian(ctx) if with_grad else None), ctx

    def start(self):
        x = np.zeros(1)
        c, _, ctx = self.evaluate(x, with_grad=False)
        return x, c, ctx

    def jacobian(self, ctx):
        return np.array([[-LN2 * ctx["z"]]])

    def weighted_constraint_hessian(self, ctx, beta):
        return np.array([[-beta[0] * LN2 * LN2 * ctx["z"]]])


class TestBarrierEngine:
    def test_one_variable_root_is_found(self):
        toy = _MonotoneRootToy(root=1.75)
        x, _, lam, residual, _, status = _interior_point(toy, 1e-8)
        assert status is SubproblemStatus.OPTIMAL
        assert residual <= 1e-8
        assert x[0] == pytest.approx(1.75, abs=1e-7)
        assert lam[0] > 0

    def test_residual_zero_when_objective_and_multipliers_vanish(self):
        toy = _MonotoneRootToy(root=0.0, objective=0.0)
        assert kkt_residual(toy, np.array([-3.0]), np.zeros(1)) == 0.0

    def test_residual_is_objective_norm_with_zero_multipliers(self):
        toy = _MonotoneRootToy(root=0.0)
        assert kkt_residual(toy, np.array([-3.0]), np.zeros(1)) == pytest.approx(1.0)


class TestSubproblemStructure:
    @pytest.mark.parametrize(
        "scal,expect_m,expect_extra_vars",
        [
            (weighted_product(0.4), 3 * 3 + 1, 2),   # q + u + v
            (weighted_minimum(0.5), 3 * 3 + 3, 3),   # q + u + v + t
            (product_ee(), 3 * 3, 3),                # q + v_i
            (weighted_product(1.0), 2 * 3 + 1, 1),   # q + u
            (weighted_product(0.0), 3 * 3, 1),       # q + v
        ],
    )
    def test_constraint_and_variable_counts(self, scal, expect_m, expect_extra_vars):
        rng = np.random.default_rng(40)
        inst = random_instance(rng, 3, 2)
        sub = ConvexSubproblem(build(inst, random_alloc(rng, inst)), scal)
        assert sub.n_constraints == expect_m
        assert sub.n_vars == 3 * 2 + expect_extra_vars

    # 3 users x 2 blocks: q fills columns 0..5; rows are 3 power, 3 rate,
    # [3 psi], [g], [2 epigraph].
    @pytest.mark.parametrize(
        "scal, n_rows, objective_tail, u_col, v_cols, t_col",
        [
            (weighted_product(0.7), 10, [0.7, 1.0 - 0.7], 6, [7, 7, 7], None),
            (weighted_product(0.0), 9, [1.0], None, [6, 6, 6], None),
            (weighted_product(1.0), 7, [1.0], 6, None, None),
            (weighted_minimum(0.5), 12, [0.0, 0.0, 1.0], 6, [7, 7, 7], 8),
            (weighted_minimum(0.2), 12, [0.0, 0.0, 1.0], 6, [7, 7, 7], 8),
            (product_ee(), 9, [1.0, 1.0, 1.0], None, [6, 7, 8], None),
        ],
        ids=["wp-0.7", "wp-0", "wp-1", "wm-0.5", "wm-0.2", "product-ee"],
    )
    def test_layout(self, scal, n_rows, objective_tail, u_col, v_cols, t_col):
        rng = np.random.default_rng(40)
        inst = random_instance(rng, 3, 2)
        model = build(inst, random_alloc(rng, inst))
        sub = ConvexSubproblem(model, scal)
        assert (sub.n_vars, sub.n_constraints) == (6 + len(objective_tail), n_rows)
        np.testing.assert_array_equal(sub.objective_vector, [0.0] * 6 + objective_tail)
        assert (sub.u_index, sub.t_index) == (u_col, t_col)
        if v_cols is None:
            assert sub._v_cols is None
        else:
            np.testing.assert_array_equal(sub._v_cols, v_cols)

        # constant Jacobian entries: the epigraph rows
        expected = np.zeros((n_rows, sub.n_vars))
        if t_col is not None:
            expected[n_rows - 2, [u_col, t_col]] = 1.0, -1.0
            expected[n_rows - 1, [v_cols[0], t_col]] = 1.0, -1.0
        np.testing.assert_array_equal(sub._jacobian_template, expected)

        if v_cols is not None:
            # users sharing a column get the smallest of their thresholds
            x = sub.pack(model.expansion_q, u=0.0, v=[0.3, -0.1, 0.2], t=0.0)
            shared = len(set(v_cols)) == 1
            np.testing.assert_array_equal(x[v_cols], [-0.1] * 3 if shared else [0.3, -0.1, 0.2])

        if t_col is not None:
            # epigraph rows u - log2 w - t and v - log2(1 - w) - t
            c, _, _ = sub.evaluate(sub.pack(model.expansion_q, u=0.25, v=0.5, t=0.125),
                                   with_grad=False)
            w = scal.weight
            np.testing.assert_allclose(
                c[-2:], [0.25 - np.log2(w) - 0.125, 0.5 - np.log2(1.0 - w) - 0.125], rtol=1e-15)

    @pytest.mark.parametrize(
        "scal",
        [weighted_product(0.7), weighted_product(0.0), weighted_product(1.0),
         weighted_minimum(0.5), weighted_minimum(0.2), product_ee()],
        ids=["wp-0.7", "wp-0", "wp-1", "wm-0.5", "wm-0.2", "product-ee"],
    )
    def test_rows_match_their_formulas_away_from_the_expansion_point(self, scal):
        # every row written out from the rates and the instance fields, in the
        # documented order: power, floor, [psi], [g], [epigraph]
        rng = np.random.default_rng(52)
        inst = random_instance(rng, 3, 2, min_rate=0.4, bandwidth=2.5)
        model = build(inst, random_alloc(rng, inst))
        sub = ConvexSubproblem(model, scal)
        b = inst.bandwidth_per_block
        for _ in range(5):
            x = sub.start()[0] + rng.uniform(-1.0, 1.0, size=sub.n_vars)
            c, _, _ = sub.evaluate(x, with_grad=False)
            q = x[:6].reshape(3, 2)
            rates = rate_evaluation(model, q).rates
            power = np.exp2(q).sum(axis=1)
            consumed = inst.amp_inefficiency * power + inst.static_power
            expected = [1.0 - power / inst.max_power, (rates - inst.min_rate) / b]
            if sub._v_cols is not None:
                expected.append((rates - consumed * np.exp2(x[sub._v_cols])) / b)
            if sub.u_index is not None:
                expected.append([(rates.sum() - consumed.sum() * np.exp2(x[sub.u_index])) / b])
            if sub.t_index is not None:
                u, v, t, w = x[sub.u_index], x[sub._v_cols[0]], x[sub.t_index], scal.weight
                expected.append([u - np.log2(w) - t, v - np.log2(1.0 - w) - t])
            np.testing.assert_allclose(c, np.concatenate(expected), rtol=1e-12, atol=1e-12)

    def test_increasing_u_decreases_total_ee_slack(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng, 2, 2)
        sub = ConvexSubproblem(build(inst, random_alloc(rng, inst)), weighted_product(0.5))
        x, c0, _ = sub.start()
        bumped = x.copy()
        bumped[sub.u_index] += 0.1
        c1, _, _ = sub.evaluate(bumped, with_grad=False)
        g_row = 3 * inst.n_users  # power, rate, psi, then g
        assert c1[g_row] < c0[g_row]
        np.testing.assert_allclose(c1[: inst.n_users], c0[: inst.n_users])

    @staticmethod
    def assembled_problems(rng):
        """Every row shape the solver assembles, at points near the start.

        Three users under one shared v exercise the repeated threshold
        index in the Hessian.
        """
        for n_users, scal in ((2, weighted_product(0.3)), (2, weighted_minimum(0.4)),
                              (2, product_ee()), (3, weighted_product(0.0)),
                              (3, weighted_minimum(0.6))):
            inst = random_instance(rng, n_users, 2)
            sub = ConvexSubproblem(build(inst, random_alloc(rng, inst)), scal)
            x, _, _ = sub.start()
            yield sub, x + rng.uniform(-0.05, 0.05, size=x.size)

    def test_constraint_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for sub, x in self.assembled_problems(rng):
            c, _, ctx = sub.evaluate(x, with_grad=False)
            G = sub.jacobian(ctx)
            np.testing.assert_array_equal(sub.evaluate(x)[1], G)
            step = 1e-6
            for col in range(sub.n_vars):
                hi, lo = x.copy(), x.copy()
                hi[col] += step
                lo[col] -= step
                chi, _, _ = sub.evaluate(hi, with_grad=False)
                clo, _, _ = sub.evaluate(lo, with_grad=False)
                fd = (chi - clo) / (2 * step)
                np.testing.assert_allclose(G[:, col], fd, atol=1e-5 * max(1.0, np.abs(fd).max()))

    def test_weighted_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(43)
        for sub, x in self.assembled_problems(rng):
            beta = rng.uniform(0.2, 1.5, size=sub.n_constraints)
            _, _, ctx = sub.evaluate(x, with_grad=False)
            H = sub.weighted_constraint_hessian(ctx, beta)
            step = 1e-6
            fd = np.zeros_like(H)
            for col in range(sub.n_vars):
                hi, lo = x.copy(), x.copy()
                hi[col] += step
                lo[col] -= step
                Ghi = sub.jacobian(sub.evaluate(hi, with_grad=False)[2])
                Glo = sub.jacobian(sub.evaluate(lo, with_grad=False)[2])
                fd[:, col] = beta @ (Ghi - Glo) / (2 * step)
            np.testing.assert_allclose(H, fd, atol=2e-5 * max(1.0, np.abs(fd).max()))


class TestStart:
    @staticmethod
    def check_start(monkeypatch, inst, p):
        """Every row >= 0 at sub.start(), each threshold at the root of the rows it bounds."""
        passes = []
        monkeypatch.setattr(solver, "rate_evaluation",
                            lambda *a: passes.append(a) or rate_evaluation(*a))
        n = inst.n_users
        for scal in (weighted_product(0.6), weighted_product(1.0), weighted_minimum(0.5),
                     product_ee()):
            sub = ConvexSubproblem(build(inst, p), scal)
            passes.clear()
            x, c, _ = sub.start()
            assert len(passes) == 1
            np.testing.assert_array_equal(sub.unpack_q(x), np.log2(p))
            np.testing.assert_array_equal(c, sub.evaluate(x, with_grad=False)[0])
            assert c.min() >= -1e-12
            if sub._v_cols is not None:
                psi = c[2 * n : 3 * n]
                assert np.abs(psi if not sub._v_shared else psi.min()).max() <= 1e-12
            if sub.u_index is not None:
                assert abs(c[sub._g_row]) <= 1e-12
            if sub.t_index is not None:
                assert abs(c[-2:].min()) <= 1e-12

    def test_expansion_point_rows_are_nonnegative_and_thresholds_at_their_roots(
            self, monkeypatch):
        rng = np.random.default_rng(44)
        inst = random_instance(rng, 3, 2)
        # power rows start exactly tight, like the uniform initial allocation
        p = np.tile(inst.max_power[:, None] / inst.n_blocks, (1, inst.n_blocks))
        self.check_start(monkeypatch, inst, p)

    def test_single_user_huge_budget_start_rows_are_nonnegative(self, monkeypatch):
        self.check_start(monkeypatch, single_user(max_power=1e6, direct=5.0), np.ones((1, 1)))

    def test_tight_rate_floor_solves_optimal(self):
        p0 = np.array([[2.5]])
        r0 = float(evaluate(single_user(), p0).rate[0])
        sub = ConvexSubproblem(build(single_user(min_rate=r0), p0), weighted_product(1.0))
        _, c, _ = sub.start()
        assert abs(c[1]) <= 1e-12              # the floor is tight at the expansion point
        sol = solve(sub, tol=1e-8)
        assert sol.status is SubproblemStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-8
        assert (sol.rates[0] - r0) >= -1e-8

    def test_unattainable_rate_floor_ends_uncertified(self):
        capacity = 1.0 * np.log2(1.0 + 10.0 * 10.0 / 1.0)
        sub = ConvexSubproblem(build(single_user(min_rate=1.1 * capacity), np.ones((1, 1))),
                               weighted_product(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(sub, tol=1e-8)
        assert sol.status is not SubproblemStatus.OPTIMAL
        assert not sol.kkt_residual <= 1e-8

    def test_uncertified_end_keeps_its_rows_within_tol(self):
        # floors at the rates of the uniform full-budget start leave this
        # paper-scale instance no strictly feasible point, and its subproblems
        # end uncertified; what they return must still meet every row within
        # tol and not fall below the start
        inst = generate(ScenarioConfig(d2d_distance=20.0), np.random.SeedSequence([0, 77]))
        p = default_initial_point(inst)
        inst = replace(inst, min_rate=evaluate(inst, p).rate)
        for scal in (weighted_product(0.5), product_ee()):
            sub = ConvexSubproblem(build(inst, p), scal)
            sol = solve(sub, tol=1e-8)
            c, _, _ = sub.evaluate(sol.x, with_grad=False)
            assert c.min() >= -1e-8
            assert sol.objective >= sub.objective_vector @ sub.start()[0]


class TestSolve:
    def test_single_user_matches_grid_oracle(self):
        inst = single_user()
        sub = ConvexSubproblem(build(inst, np.array([[1.0]])), weighted_product(1.0))
        sol = solve(sub, tol=1e-8)
        assert sol.status is SubproblemStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-8

        # independent 1-D oracle: eliminate u through the total-EE slack root
        a = 10.0 / 11.0
        b = np.log2(11.0) - a * np.log2(10.0)
        q = np.arange(np.log2(1e-6), np.log2(10.0) + 1e-12, 1e-5)
        rate_tilde = b + a * np.log2(10.0) + a * q
        u_grid = np.where(
            rate_tilde > 0,
            np.log2(np.maximum(rate_tilde, 1e-300)) - np.log2(2.0**q + 1.0),
            -np.inf,
        )
        oracle = float(u_grid.max())
        assert oracle == pytest.approx(I1_SURROGATE_OPTIMUM_U, abs=1e-12)
        assert sol.objective == pytest.approx(oracle, abs=1e-6)
        assert sol.u == pytest.approx(oracle, abs=1e-6)

    def test_objective_never_below_start(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            p = random_alloc(rng, inst)
            for scal in (weighted_product(0.5), weighted_product(0.0), product_ee()):
                sub = ConvexSubproblem(build(inst, p), scal)
                sol = solve(sub, tol=1e-8)
                start_obj = float(sub.objective_vector @ sub.start()[0])
                assert sol.objective >= start_obj - 1e-9

    def test_solution_reads_its_threshold_columns_and_rates(self):
        rng = np.random.default_rng(49)
        inst = random_instance(rng, 3, 2)
        p = random_alloc(rng, inst)
        model = build(inst, p)
        # (u present, shared v present) per shape; product-EE has per-user v only
        for scal, present in ((weighted_product(0.5), (True, True)),
                              (weighted_product(0.0), (False, True)),
                              (weighted_product(1.0), (True, False)),
                              (weighted_minimum(0.4), (True, True)),
                              (product_ee(), (False, False))):
            sub = ConvexSubproblem(model, scal)
            sol = solve(sub, tol=1e-8)
            assert (sol.u is not None, sol.v is not None) == present
            if sol.u is not None:
                assert sol.u == sol.x[sub.u_index]
            if sol.v is not None:
                assert sol.v == sol.x[sub._v_cols[0]]
            np.testing.assert_array_equal(sol.rates, rate_evaluation(model, sol.q).rates)

    def test_deterministic_iterates(self):
        rng = np.random.default_rng(46)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        sub = ConvexSubproblem(build(inst, p), weighted_product(0.7))
        s1 = solve(sub, tol=1e-8)
        s2 = solve(sub, tol=1e-8)
        assert np.array_equal(s1.x, s2.x)
        assert s1.newton_iterations == s2.newton_iterations

    def test_multipliers_certify_solution(self):
        rng = np.random.default_rng(48)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        sub = ConvexSubproblem(build(inst, p), weighted_product(0.3))
        sol = solve(sub, tol=1e-8)
        assert kkt_residual(sub, sol.x, sol.multipliers) == pytest.approx(sol.kkt_residual)
        assert sol.kkt_residual <= 1e-8


def paper_scale_subproblems(scalarizations):
    """Per scalarization, on 4 D2D pairs and 1 cellular user over 5 blocks: the
    subproblem at the uniform start, the one at its optimum, and its solution."""
    inst = generate(ScenarioConfig(d2d_distance=10.0), np.random.SeedSequence([1, 30]))
    for scal in scalarizations:
        sub = ConvexSubproblem(build(inst, default_initial_point(inst)), scal)
        first = solve(sub)
        yield sub, ConvexSubproblem(build(inst, np.exp2(first.q)), scal), first


SHAPES = (weighted_product(0.5), weighted_product(0.0), weighted_product(1.0),
          weighted_minimum(0.5), product_ee())


class TestPredictorCorrector:
    def test_one_linear_solve_per_newton_step(self, monkeypatch):
        calls = []
        linalg_solve = solver.np.linalg.solve

        def counted(a, b):
            call = [b.shape, False]          # (right-hand side shape, finite result)
            calls.append(call)
            out = linalg_solve(a, b)
            call[1] = bool(np.isfinite(out).all())
            return out

        monkeypatch.setattr(solver.np.linalg, "solve", counted)
        for first_sub, sub, _ in paper_scale_subproblems(SHAPES):
            for problem in (first_sub, sub):
                calls.clear()
                sol = solve(problem)
                assert sol.status is SubproblemStatus.OPTIMAL
                assert all(finite for _, finite in calls)        # no ridge retry fired
                assert len(calls) == sol.newton_iterations
                # the affine direction and one column per row's centering target
                assert {shape for shape, _ in calls} == {
                    (problem.n_vars, problem.n_constraints + 1)}

    def test_warm_start_certifies_the_same_optimum(self):
        cold_steps = warm_steps = 0
        for _, sub, first in paper_scale_subproblems(SHAPES):
            cold = solve(sub, tol=1e-8)
            warm = solve(sub, tol=1e-8, multipliers=first.multipliers)
            for sol in (cold, warm):
                assert sol.status is SubproblemStatus.OPTIMAL
                assert sol.kkt_residual <= 1e-8
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            cold_steps += cold.newton_iterations
            warm_steps += warm.newton_iterations
        assert warm_steps < cold_steps

    def test_warm_start_must_fit_the_layout(self):
        rng = np.random.default_rng(47)
        inst = random_instance(rng, 2, 2)
        sub = ConvexSubproblem(build(inst, random_alloc(rng, inst)), weighted_product(0.5))
        with pytest.raises(ShapeError):
            solve(sub, multipliers=np.ones(sub.n_constraints + 1))
        with pytest.raises(DomainError):
            solve(sub, multipliers=np.full(sub.n_constraints, np.nan))


def surrogate_pair_rates(inst, model, p1, p2):
    """Vectorized 2-user, 1-block surrogate rates on a power grid."""
    a = model.coefficients.a
    b = model.coefficients.b
    g = inst.gain
    n1, n2 = inst.noise[0, 0], inst.noise[1, 0]
    r1 = b[0, 0] + a[0, 0] * (np.log2(g[0, 0, 0]) + np.log2(p1) - np.log2(g[1, 0, 0] * p2 + n1))
    r2 = b[1, 0] + a[1, 0] * (np.log2(g[1, 1, 0]) + np.log2(p2) - np.log2(g[0, 1, 0] * p1 + n2))
    return inst.bandwidth_per_block * r1, inst.bandwidth_per_block * r2


def pair_grid_objective(inst, model, scal, grid_lo, grid_hi, points):
    """Grid oracle for the 2-user subproblem with thresholds eliminated."""
    p = np.logspace(np.log10(grid_lo), np.log10(grid_hi), points)
    p1, p2 = np.meshgrid(p, p, indexing="ij")
    r1, r2 = surrogate_pair_rates(inst, model, p1, p2)
    c1 = inst.amp_inefficiency[0] * p1 + inst.static_power[0]
    c2 = inst.amp_inefficiency[1] * p2 + inst.static_power[1]
    ok = (r1 > 0) & (r2 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.log2((r1 + r2) / (c1 + c2))
        v = np.minimum(np.log2(r1 / c1), np.log2(r2 / c2))
    if scal.kind.value == "weighted_minimum":
        w = scal.weight
        obj = np.minimum(u - np.log2(w), v - np.log2(1 - w))
    else:
        obj = scal.weight * u + (1 - scal.weight) * v
    obj = np.where(ok, obj, -np.inf)
    i, j = np.unravel_index(np.argmax(obj), obj.shape)
    return float(obj[i, j]), float(p1[i, j]), float(p2[i, j])


class TestGridOracles:
    def test_global_optimality_on_random_pairs(self):
        rng = np.random.default_rng(49)
        for trial in range(12):
            inst = random_instance(rng, 2, 1)
            p = random_alloc(rng, inst)
            w = float(rng.choice([0.0, 0.3, 0.7, 1.0]))
            scal = weighted_product(w)
            model = build(inst, p)
            sub = ConvexSubproblem(model, scal)
            sol = solve(sub, tol=1e-8)
            assert sol.status is SubproblemStatus.OPTIMAL
            oracle, _, _ = pair_grid_objective(
                inst, model, scal, 1e-6, float(inst.max_power.min()), 400
            )
            assert sol.objective >= oracle - 1e-4 * abs(oracle) - 1e-9

    def test_weighted_minimum_symmetric_instance(self):
        inst = symmetric_pair()
        p = np.full((2, 1), 1.0)
        model = build(inst, p)
        scal = weighted_minimum(0.5)
        sub = ConvexSubproblem(model, scal)
        sol = solve(sub, tol=1e-8)
        assert sol.status is SubproblemStatus.OPTIMAL
        # symmetric data, symmetric start: thresholds coincide at the optimum
        assert abs(sol.u - sol.v) <= 1e-6

        coarse, p1c, p2c = pair_grid_objective(inst, model, scal, 1e-6, 4.0, 400)
        lo = max(1e-7, min(p1c, p2c) * 0.5)
        hi = min(4.0, max(p1c, p2c) * 2.0)
        fine, _, _ = pair_grid_objective(inst, model, scal, lo, hi, 600)
        oracle = max(coarse, fine)
        assert sol.objective == pytest.approx(oracle, rel=1e-3)
