import warnings
from dataclasses import replace

import numpy as np
import pytest

from eeopt import solver
from eeopt.engine import RunStatus, SolverConfig, default_initial_point, run
from eeopt.errors import DomainError, ShapeError
from eeopt.network import NetworkInstance, evaluate
from eeopt.scalarization import ScalarizationKind, product_ee, weighted_minimum, weighted_product
from eeopt.scenario import ScenarioConfig, generate
from eeopt.solver import (
    ConvexSubproblem,
    SubproblemStatus,
    _interior_point,
    solve,
)
from eeopt.surrogate import LN2, build, rate_evaluation

from helpers import (
    SHAPES,
    dense_jacobian,
    expand,
    kkt_residual,
    log_true_objective,
    oracle_rows,
    paper_scale_instance,
    random_alloc,
    random_instance,
    rate_rows,
    stabilized_rate_pass,
    weighted_constraint_hessian,
)

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
        return c, (self.jacobian(ctx)[0] if with_grad else None), ctx

    def start(self):
        x = np.zeros(1)
        c, _, ctx = self.evaluate(x, with_grad=False)
        return x, c, ctx

    def jacobian(self, ctx):
        return np.array([[-LN2 * ctx["z"]]]), ctx["z"]

    def newton_matrix(self, derivatives, sigma, lam):
        G, z = derivatives
        return np.array([[sigma[0] * G[0, 0] ** 2 + lam[0] * LN2 * LN2 * z]])


class TestBarrierEngine:
    def test_one_variable_root_is_found(self):
        toy = _MonotoneRootToy(root=1.75)
        sol = _interior_point(toy, 1e-8)
        assert sol.status is SubproblemStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-8
        assert sol.x[0] == pytest.approx(1.75, abs=1e-7)
        assert sol.multipliers[0] > 0

    def test_residual_zero_when_objective_and_multipliers_vanish(self):
        toy = _MonotoneRootToy(root=0.0, objective=0.0)
        assert kkt_residual(toy, np.array([-3.0]), np.zeros(1)) == 0.0

    def test_residual_is_objective_norm_with_zero_multipliers(self):
        toy = _MonotoneRootToy(root=0.0)
        assert kkt_residual(toy, np.array([-3.0]), np.zeros(1)) == pytest.approx(1.0)


class TestAscentStop:
    # the toy's objective is u and it starts at u = 0, so the largest gain is the root
    ROOT = 1.75

    def test_no_min_gain_never_stops_early(self):
        toy = _MonotoneRootToy(root=self.ROOT)
        exact = _interior_point(toy, 1e-8)
        assert exact.status is SubproblemStatus.OPTIMAL
        # a gain no point can reach takes the identical path
        unreachable = _interior_point(toy, 1e-8, None, np.inf)
        assert unreachable.status is SubproblemStatus.OPTIMAL
        assert unreachable.x[0] == exact.x[0]
        assert unreachable.newton_iterations == exact.newton_iterations

    @pytest.mark.parametrize("min_gain", [0.0, 0.3, 0.5, 0.87, 0.9, 2.0])
    def test_stops_only_past_twice_min_gain_at_a_feasible_point(self, min_gain):
        toy = _MonotoneRootToy(root=self.ROOT)
        sol = _interior_point(toy, 1e-8, None, min_gain)
        gain = sol.x[0]
        if 2.0 * min_gain > self.ROOT:
            assert sol.status is SubproblemStatus.OPTIMAL
            assert sol.kkt_residual <= 1e-8
        else:
            assert sol.status is SubproblemStatus.ASCENT
            assert sol.newton_iterations > 0
            assert gain >= 2.0 * min_gain
            assert toy.evaluate(sol.x, with_grad=False)[0][0] >= -1e-8
            assert sol.kkt_residual <= 0.1 * gain

    @pytest.mark.parametrize("min_gain", [float("nan"), -1e-9, -np.inf])
    def test_bad_min_gain_is_a_domain_error(self, min_gain):
        rng = np.random.default_rng(46)
        inst = random_instance(rng, 2, 2)
        sub = ConvexSubproblem(expand(inst, random_alloc(rng, inst)), weighted_product(0.5))
        with pytest.raises(DomainError, match="min_gain"):
            solve(sub, min_gain=min_gain)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # an infinite tol would certify the start after 0 steps; 0 and nan never certify
        rng = np.random.default_rng(46)
        inst = random_instance(rng, 2, 2)
        sub = ConvexSubproblem(expand(inst, random_alloc(rng, inst)), weighted_product(0.5))
        with pytest.raises(DomainError, match="tol must be finite and > 0"):
            solve(sub, tol)


class TestSubproblemStructure:
    @pytest.mark.parametrize(
        "scal,expect_m,expect_extra_vars",
        [
            (weighted_product(0.4), 3 * 3 + 1, 2),   # q + u + v
            (weighted_minimum(0.5), 3 * 3 + 1, 1),   # q + t
            (product_ee(), 3 * 3, 3),                # q + v_i
            (weighted_product(1.0), 2 * 3 + 1, 1),   # q + u
            (weighted_product(0.0), 3 * 3, 1),       # q + v
        ],
    )
    def test_constraint_and_variable_counts(self, scal, expect_m, expect_extra_vars):
        rng = np.random.default_rng(40)
        inst = random_instance(rng, 3, 2)
        sub = ConvexSubproblem(expand(inst, random_alloc(rng, inst)), scal)
        assert sub.n_constraints == expect_m
        assert sub.n_vars == 3 * 2 + expect_extra_vars

    # 3 users x 2 blocks: q fills columns 0..5; rows are 3 power, 3 rate,
    # [3 psi], [g]; the weighted minimum's one column t scales both psi and g.
    @pytest.mark.parametrize(
        "scal, n_rows, objective_tail, u_col, v_cols",
        [
            (weighted_product(0.7), 10, [0.7, 1.0 - 0.7], 6, [7, 7, 7]),
            (weighted_product(0.0), 9, [1.0], None, [6, 6, 6]),
            (weighted_product(1.0), 7, [1.0], 6, None),
            (weighted_minimum(0.5), 10, [1.0], 6, [6, 6, 6]),
            (weighted_minimum(0.2), 10, [1.0], 6, [6, 6, 6]),
            (product_ee(), 9, [1.0, 1.0, 1.0], None, [6, 7, 8]),
        ],
        ids=["wp-0.7", "wp-0", "wp-1", "wm-0.5", "wm-0.2", "product-ee"],
    )
    def test_layout(self, scal, n_rows, objective_tail, u_col, v_cols):
        rng = np.random.default_rng(40)
        inst = random_instance(rng, 3, 2)
        model = expand(inst, random_alloc(rng, inst))
        sub = ConvexSubproblem(model, scal)
        assert (sub.n_vars, sub.n_constraints) == (6 + len(objective_tail), n_rows)
        np.testing.assert_array_equal(sub.objective_vector, [0.0] * 6 + objective_tail)
        assert sub.u_index == u_col
        if v_cols is None:
            assert sub._v_cols is None
        else:
            np.testing.assert_array_equal(sub._v_cols, v_cols)
            # users sharing a column get the smallest of their thresholds
            x = sub.pack(model.expansion_q, u=0.0, v=[0.3, -0.1, 0.2])
            shared = len(set(v_cols)) == 1
            np.testing.assert_array_equal(x[v_cols], [-0.1] * 3 if shared else [0.3, -0.1, 0.2])

        if scal.kind is ScalarizationKind.WEIGHTED_MINIMUM:
            # the rows at t are the weighted product's at u = t + log2 w and
            # v = t + log2(1 - w), where the epigraph of the minimum binds
            w, product = scal.weight, ConvexSubproblem(model, weighted_product(0.5))
            for t in (-1.5, 0.125, 2.0):
                c, _, _ = sub.evaluate(sub.pack(model.expansion_q, v=t), with_grad=False)
                want, _, _ = product.evaluate(
                    product.pack(model.expansion_q, u=t + np.log2(w), v=t + np.log2(1.0 - w)),
                    with_grad=False)
                np.testing.assert_allclose(c, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize(
        "scal",
        [weighted_product(0.7), weighted_product(0.0), weighted_product(1.0),
         weighted_minimum(0.5), weighted_minimum(0.2), product_ee()],
        ids=["wp-0.7", "wp-0", "wp-1", "wm-0.5", "wm-0.2", "product-ee"],
    )
    def test_rows_match_their_formulas_away_from_the_expansion_point(self, scal):
        # every row written out from the rates and the instance fields, in the
        # documented order: power, floor, [psi], [g]; the weighted minimum's
        # psi and g carry 1 - w and w on their power terms
        rng = np.random.default_rng(52)
        inst = random_instance(rng, 3, 2, min_rate=0.4, bandwidth=2.5)
        model = expand(inst, random_alloc(rng, inst))
        sub = ConvexSubproblem(model, scal)
        b, w = inst.bandwidth_per_block, scal.weight
        tee, mee = (w, 1.0 - w) if scal.kind is ScalarizationKind.WEIGHTED_MINIMUM else (1.0, 1.0)
        for _ in range(5):
            x = sub.start()[0] + rng.uniform(-1.0, 1.0, size=sub.n_vars)
            c, _, _ = sub.evaluate(x, with_grad=False)
            q = x[:6].reshape(3, 2)
            rates = stabilized_rate_pass(model, q)[0]
            power = np.exp2(q).sum(axis=1)
            consumed = inst.amp_inefficiency * power + inst.static_power
            expected = [1.0 - power / inst.max_power, (rates - inst.min_rate) / b]
            if sub._v_cols is not None:
                expected.append((rates - mee * consumed * np.exp2(x[sub._v_cols])) / b)
            if sub.u_index is not None:
                expected.append([(rates.sum() - tee * consumed.sum() * np.exp2(x[sub.u_index]))
                                 / b])
            np.testing.assert_allclose(c, np.concatenate(expected), rtol=1e-12, atol=1e-12)

    def test_increasing_u_decreases_total_ee_slack(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng, 2, 2)
        sub = ConvexSubproblem(expand(inst, random_alloc(rng, inst)), weighted_product(0.5))
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
        index in the Hessian; w = 1 drops v and its rows.
        """
        for n_users, scal in ((2, weighted_product(0.3)), (2, weighted_minimum(0.4)),
                              (2, product_ee()), (3, weighted_product(0.0)),
                              (3, weighted_minimum(0.6)), (2, weighted_product(1.0))):
            inst = random_instance(rng, n_users, 2)
            sub = ConvexSubproblem(expand(inst, random_alloc(rng, inst)), scal)
            x, _, _ = sub.start()
            yield sub, x + rng.uniform(-0.05, 0.05, size=x.size)

    @staticmethod
    def central_jacobian(sub, x, step=1e-6):
        """Central differences of the value pass, one column per variable."""
        fd = np.zeros((sub.n_constraints, sub.n_vars))
        for col in range(sub.n_vars):
            hi, lo = x.copy(), x.copy()
            hi[col] += step
            lo[col] -= step
            fd[:, col] = (sub.evaluate(hi, with_grad=False)[0]
                          - sub.evaluate(lo, with_grad=False)[0]) / (2 * step)
        return fd

    def test_constraint_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for sub, x in self.assembled_problems(rng):
            c, _, ctx = sub.evaluate(x, with_grad=False)
            G = sub.jacobian(ctx)[0]
            np.testing.assert_array_equal(sub.evaluate(x)[1], G)
            fd = self.central_jacobian(sub, x)
            np.testing.assert_allclose(G, fd, atol=1e-5 * max(1.0, np.abs(fd).max()))

    @staticmethod
    def central_weighted_hessian(sub, x, beta, step=1e-6):
        """Central differences of beta'G, the Jacobian taken from value passes."""
        fd = np.zeros((sub.n_vars, sub.n_vars))
        for col in range(sub.n_vars):
            hi, lo = x.copy(), x.copy()
            hi[col] += step
            lo[col] -= step
            fd[:, col] = beta @ (sub.evaluate(hi)[1] - sub.evaluate(lo)[1]) / (2 * step)
        return fd

    def test_weighted_hessian_matches_finite_differences(self):
        # G' diag(sigma) G - M = sum_m beta_m hess c_m, the derivative of beta'G
        rng = np.random.default_rng(43)
        for sub, x in self.assembled_problems(rng):
            beta = rng.uniform(0.2, 1.5, size=sub.n_constraints)
            sigma = rng.uniform(0.1, 3.0, size=sub.n_constraints)
            derivatives = sub.jacobian(sub.evaluate(x, with_grad=False)[2])
            G = derivatives[0]
            H = (G.T * sigma) @ G - sub.newton_matrix(derivatives, sigma, beta)
            fd = self.central_weighted_hessian(sub, x, beta)
            np.testing.assert_allclose(H, fd, atol=2e-5 * max(1.0, np.abs(fd).max()))

    @pytest.mark.parametrize("scal", SHAPES, ids=lambda s: f"{s.kind.value}-{s.weight}")
    def test_derivatives_at_a_vanishing_power(self, scal):
        # one D2D pair over 2 blocks at -300 dB, with one power all but zero:
        # power terms that span many orders of magnitude
        inst = generate(ScenarioConfig(n_d2d_pairs=1, n_blocks=2, path_loss_const_db=-300.0),
                        np.random.SeedSequence([5, 0]))
        p = default_initial_point(inst)
        p[0, 1] = 1e-12 * p[0, 1]
        sub = ConvexSubproblem(expand(inst, p), scal)
        x, _, _ = sub.start()
        rng = np.random.default_rng(47)
        beta = rng.uniform(0.2, 1.5, size=sub.n_constraints)
        sigma = rng.uniform(0.1, 3.0, size=sub.n_constraints)
        derivatives = sub.jacobian(sub.evaluate(x, with_grad=False)[2])
        G = derivatives[0]
        fd = self.central_jacobian(sub, x)
        np.testing.assert_allclose(G, fd, atol=1e-5 * max(1.0, np.abs(fd).max()))
        H = (G.T * sigma) @ G - sub.newton_matrix(derivatives, sigma, beta)
        fd = self.central_weighted_hessian(sub, x, beta)
        np.testing.assert_allclose(H, fd, atol=2e-5 * max(1.0, np.abs(fd).max()))

    @pytest.mark.parametrize("scal", SHAPES, ids=lambda s: f"{s.kind.value}-{s.weight}")
    def test_swapped_model_matches_a_fresh_layout(self, scal):
        # a run lays a subproblem out once and swaps in each outer iteration's surrogate
        inst = paper_scale_instance()
        rng = np.random.default_rng(49)
        first = expand(inst, random_alloc(rng, inst))
        second = expand(inst, random_alloc(rng, inst))
        swapped = ConvexSubproblem(first, scal)
        swapped.model = second
        fresh = ConvexSubproblem(second, scal)
        lam = rng.uniform(0.1, 2.0, size=fresh.n_constraints)
        sigma = rng.uniform(0.1, 2.0, size=fresh.n_constraints)
        results = []
        for sub in (swapped, fresh):
            x, c, kept = sub.start()
            derivatives = sub.jacobian(kept)
            results.append((x, c, *derivatives, sub.newton_matrix(derivatives, sigma, lam)))
        for got, want in zip(*results):
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def calls(sub, seed):
        """One subproblem's value passes, derivatives and Newton matrices, a result per call.

        The Newton matrix at the start is formed before and again after the
        derivatives at a second point, so state left between calls would show."""
        rng = np.random.default_rng(seed)
        x0, c0, kept0 = sub.start()
        yield x0, c0
        x1 = x0 + rng.uniform(-0.3, 0.3, size=x0.size)
        sigma, lam = rng.uniform(0.1, 2.0, size=(2, sub.n_constraints))
        c1, G1, kept1 = sub.evaluate(x1)
        yield c1, G1
        at0 = sub.jacobian(kept0)
        yield at0
        yield (sub.newton_matrix(at0, sigma, lam),)
        at1 = sub.jacobian(sub.evaluate(x1, with_grad=False)[2])
        yield at1
        yield (sub.newton_matrix(at1, sigma, lam),)
        yield (sub.newton_matrix(at0, sigma, lam),)

    def test_interleaved_subproblems_match_each_alone(self):
        # two shapes on two instances of different sizes, their calls alternating
        rng = np.random.default_rng(53)
        inst_a, inst_b = random_instance(rng, 3, 2), random_instance(rng, 2, 3)
        subs = (ConvexSubproblem(expand(inst_a, random_alloc(rng, inst_a)), weighted_minimum(0.4)),
                ConvexSubproblem(expand(inst_b, random_alloc(rng, inst_b)), product_ee()))
        alone = [list(self.calls(sub, seed)) for seed, sub in enumerate(subs)]
        interleaved = [[], []]
        for a, b in zip(*(self.calls(sub, seed) for seed, sub in enumerate(subs))):
            interleaved[0].append(a)
            interleaved[1].append(b)
        for want, got in zip(alone, interleaved):
            assert len(got) == len(want) == 7
            # the Newton matrix at the start reads only its arguments
            assert want[3][0].tobytes() == want[6][0].tobytes()
            for want_call, got_call in zip(want, got):
                for w, g in zip(want_call, got_call):
                    assert w.dtype == g.dtype and w.shape == g.shape
                    assert w.tobytes() == g.tobytes()

    @staticmethod
    def oracle_case(name):
        """(instance, expansion allocation) of one named oracle case."""
        if name == "vanishing-300dB":
            # the point of test_derivatives_at_a_vanishing_power
            inst = generate(ScenarioConfig(n_d2d_pairs=1, n_blocks=2, path_loss_const_db=-300.0),
                            np.random.SeedSequence([5, 0]))
            p = default_initial_point(inst)
            p[0, 1] = 1e-12 * p[0, 1]
            return inst, p
        if name == "largest-gains":
            # gains up to 2.5e302, about 1e-6 of the largest float
            config = ScenarioConfig(path_loss_const_db=-3050.0)
        else:
            config = {"5x5": ScenarioConfig(d2d_distance=10.0),
                      "20x16": ScenarioConfig(n_d2d_pairs=19, n_blocks=16, d2d_distance=20.0)}[name]
        inst = generate(config, np.random.SeedSequence([1, 3]))
        return inst, random_alloc(np.random.default_rng(48), inst)

    @pytest.mark.parametrize("name", ["5x5", "20x16", "vanishing-300dB", "largest-gains"])
    def test_table_equals_the_dense_oracle(self, name):
        # the fused pass (linear-power interference, rows folded per surrogate)
        # against the max-exponent-stabilized pass and the dense derivatives
        inst, p = self.oracle_case(name)
        rng = np.random.default_rng(48)
        for scal in SHAPES:
            sub = ConvexSubproblem(expand(inst, p), scal)
            x0, c0, kept0 = sub.start()
            x = x0 + rng.uniform(-0.3, 0.3, size=x0.size)
            c, _, kept = sub.evaluate(x, with_grad=False)
            lam = rng.uniform(0.1, 2.0, size=sub.n_constraints)
            sigma = lam / rng.uniform(0.1, 2.0, size=sub.n_constraints)
            for point, values, pass_ in ((x0, c0, kept0), (x, c, kept)):
                want = oracle_rows(sub, point)[0]
                assert np.abs(values - want).max() <= 1e-12 * np.abs(want).max()
                derivatives = sub.jacobian(pass_)
                G, G_dense = derivatives[0], dense_jacobian(sub, point)
                M = sub.newton_matrix(derivatives, sigma, lam)
                M_dense = ((G_dense.T * sigma) @ G_dense
                           - weighted_constraint_hessian(sub, point, lam))
                assert np.abs(G - G_dense).max() <= 1e-12 * np.abs(G_dense).max()
                assert np.abs(M - M_dense).max() <= 1e-12 * np.abs(M_dense).max()

    @pytest.mark.parametrize("scal", SHAPES, ids=lambda s: f"{s.kind.value}-{s.weight}")
    def test_runs_at_the_largest_gains_backtrack_as_their_scaled_twin(self, monkeypatch, scal):
        # gains up to 6.3e307, a third of the largest float, where a trial point's
        # interference sum can overflow; the twin, every gain and the noise times
        # 2^-1000, has the same SINR at every allocation, so a backtrack or failure
        # that overflow causes shows as a difference between the two runs
        inst = generate(ScenarioConfig(path_loss_const_db=-3104.0), np.random.SeedSequence([1, 3]))
        twin = replace(inst, gain=inst.gain * 2.0**-1000, noise=inst.noise * 2.0**-1000)
        passes = []
        monkeypatch.setattr(solver, "rate_evaluation",
                            lambda *a: passes.append(a) or rate_evaluation(*a))
        outcomes = []
        for network in (inst, twin):
            passes.clear()
            result = run(network, scal, SolverConfig())
            assert result.status is RunStatus.CONVERGED and result.uncertified_subproblems == 0
            steps = sum(s.newton_iterations for s in result.iteration_stats)
            # one value pass per start and per Newton step; the rest are backtracks
            outcomes.append((len(passes) - steps - result.iterations, result.trajectory[-1]))
        (backtracks, f), (twin_backtracks, twin_f) = outcomes
        assert backtracks <= twin_backtracks
        assert f == pytest.approx(twin_f, rel=1e-8)


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
            sub = ConvexSubproblem(expand(inst, p), scal)
            passes.clear()
            x, c, _ = sub.start()
            assert len(passes) == 1
            np.testing.assert_array_equal(sub.unpack_q(x), np.log2(p))
            np.testing.assert_array_equal(c, sub.evaluate(x, with_grad=False)[0])
            assert c.min() >= -1e-12
            if scal.kind is ScalarizationKind.WEIGHTED_MINIMUM:
                # t meets the smaller root: only g or the worst user's psi binds
                assert abs(c[2 * n :].min()) <= 1e-12
                continue
            if sub._v_cols is not None:
                psi = c[2 * n : 3 * n]
                # per-user columns meet every root; a shared v meets the smallest
                assert np.abs(psi if scal == product_ee() else psi.min()).max() <= 1e-12
            if sub.u_index is not None:
                assert abs(c[sub._g_row]) <= 1e-12

    def test_expansion_point_rows_are_nonnegative_and_thresholds_at_their_roots(
            self, monkeypatch):
        rng = np.random.default_rng(44)
        inst = random_instance(rng, 3, 2)
        # power rows start exactly tight, like the uniform initial allocation
        p = np.tile(inst.max_power[:, None] / inst.n_blocks, (1, inst.n_blocks))
        self.check_start(monkeypatch, inst, p)

    def test_single_user_huge_budget_start_rows_are_nonnegative(self, monkeypatch):
        self.check_start(monkeypatch, single_user(max_power=1e6, direct=5.0), np.ones((1, 1)))

    @pytest.mark.parametrize("scal", SHAPES, ids=lambda s: f"{s.kind.value}-{s.weight}")
    def test_start_objective_is_the_reports(self, scal):
        # the start reads its thresholds off the report the model was built from,
        # so its objective is the run's trajectory value there
        inst = paper_scale_instance()
        n, per_b = inst.n_users, 1.0 / inst.bandwidth_per_block
        for p in (default_initial_point(inst), random_alloc(np.random.default_rng(54), inst)):
            report = evaluate(inst, p)
            sub = ConvexSubproblem(build(inst, p, report), scal)
            x, c, _ = sub.start()
            want = log_true_objective(scal, report)
            assert abs(float(sub.objective_vector @ x) - want) <= 4 * np.spacing(abs(want))
            # each binding threshold row, at 0 within 1e-12 of its rate term
            if scal.kind is ScalarizationKind.WEIGHTED_MINIMUM:
                # t binds g or the worst user's psi, whichever attains the minimum
                slack = c[2 * n :] / (np.append(report.rate, report.rate_total) * per_b)
                assert abs(slack.min()) <= 1e-12
                continue
            if sub._v_cols is not None:
                psi, scale = c[2 * n : 3 * n], report.rate * per_b
                binding = (np.arange(n) if np.unique(sub._v_cols).size == n
                           else [int(np.argmin(report.ee))])
                assert np.all(np.abs(psi[binding]) <= 1e-12 * scale[binding])
            if sub.u_index is not None:
                assert abs(c[sub._g_row]) <= 1e-12 * report.rate_total * per_b

    def test_tight_rate_floor_solves_optimal(self):
        p0 = np.array([[2.5]])
        r0 = float(evaluate(single_user(), p0).rate[0])
        sub = ConvexSubproblem(expand(single_user(min_rate=r0), p0), weighted_product(1.0))
        _, c, _ = sub.start()
        assert abs(c[1]) <= 1e-12              # the floor is tight at the expansion point
        sol = solve(sub, tol=1e-8)
        assert sol.status is SubproblemStatus.OPTIMAL
        assert sol.kkt_residual <= 1e-8
        assert rate_rows(sub.model, sub.unpack_q(sol.x))[0][0] - r0 >= -1e-8

    def test_unattainable_rate_floor_ends_uncertified(self):
        capacity = 1.0 * np.log2(1.0 + 10.0 * 10.0 / 1.0)
        sub = ConvexSubproblem(expand(single_user(min_rate=1.1 * capacity), np.ones((1, 1))),
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
            sub = ConvexSubproblem(expand(inst, p), scal)
            sol = solve(sub, tol=1e-8)
            c, _, _ = sub.evaluate(sol.x, with_grad=False)
            assert c.min() >= -1e-8
            assert sub.objective_vector @ sol.x >= sub.objective_vector @ sub.start()[0]


class TestSolve:
    def test_single_user_matches_grid_oracle(self):
        inst = single_user()
        sub = ConvexSubproblem(expand(inst, np.array([[1.0]])), weighted_product(1.0))
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
        assert sub.objective_vector @ sol.x == pytest.approx(oracle, abs=1e-6)
        assert sol.x[sub.u_index] == pytest.approx(oracle, abs=1e-6)

    def test_objective_never_below_start(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            p = random_alloc(rng, inst)
            for scal in (weighted_product(0.5), weighted_product(0.0), product_ee()):
                sub = ConvexSubproblem(expand(inst, p), scal)
                sol = solve(sub, tol=1e-8)
                start_obj = float(sub.objective_vector @ sub.start()[0])
                assert sub.objective_vector @ sol.x >= start_obj - 1e-9

    def test_solution_holds_its_threshold_columns(self):
        rng = np.random.default_rng(49)
        inst = random_instance(rng, 3, 2)
        p = random_alloc(rng, inst)
        model = expand(inst, p)
        # (u present, shared v present) per shape; product-EE has per-user v only
        for scal, present in ((weighted_product(0.5), (True, True)),
                              (weighted_product(0.0), (False, True)),
                              (weighted_product(1.0), (True, False)),
                              (weighted_minimum(0.4), (True, True)),
                              (product_ee(), (False, False))):
            sub = ConvexSubproblem(model, scal)
            sol = solve(sub, tol=1e-8)
            shared_v = sub._v_cols is not None and np.unique(sub._v_cols).size == 1
            assert (sub.u_index is not None, shared_v) == present
            assert sol.x.shape == (sub.n_vars,)
            assert sol.multipliers.shape == (sub.n_constraints,)
            np.testing.assert_array_equal(sub.unpack_q(sol.x), sol.x[: sub.nq].reshape(3, 2))

    @pytest.mark.parametrize("w", [0.3, 0.7])
    @pytest.mark.parametrize("case", ["paper-scale", "random-3x2"])
    def test_one_column_solves_the_weighted_minimums_epigraph(self, case, w):
        # the optimal t is the weighted minimum of the surrogate TEE and MEE at q*:
        # the epigraph of min(u - log2 w, v - log2(1-w)) binds, as it would with
        # u and v columns of their own
        inst = (paper_scale_instance() if case == "paper-scale"
                else random_instance(np.random.default_rng(7), 3, 2))
        model = expand(inst, default_initial_point(inst))
        sub = ConvexSubproblem(model, weighted_minimum(w))
        sol = solve(sub, tol=1e-10)
        assert sol.status is SubproblemStatus.OPTIMAL
        q = sub.unpack_q(sol.x)
        rates = rate_rows(model, q)[0]
        consumed = inst.amp_inefficiency * np.exp2(q).sum(axis=1) + inst.static_power
        u = np.log2(rates.sum() / consumed.sum())
        v = np.log2((rates / consumed).min())
        t = sol.x[sub.nq]
        assert abs(t - min(u - np.log2(w), v - np.log2(1.0 - w))) <= 1e-8
        # g or the psi of the worst user binds
        c, _, _ = sub.evaluate(sol.x, with_grad=False)
        n = inst.n_users
        assert min(c[sub._g_row], c[2 * n : 3 * n].min()) <= 1e-8
        assert c.min() >= -1e-10

    def test_deterministic_iterates(self):
        rng = np.random.default_rng(46)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        sub = ConvexSubproblem(expand(inst, p), weighted_product(0.7))
        s1 = solve(sub, tol=1e-8)
        s2 = solve(sub, tol=1e-8)
        assert np.array_equal(s1.x, s2.x)
        assert s1.newton_iterations == s2.newton_iterations

    def test_multipliers_certify_solution(self):
        rng = np.random.default_rng(48)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        sub = ConvexSubproblem(expand(inst, p), weighted_product(0.3))
        sol = solve(sub, tol=1e-8)
        assert kkt_residual(sub, sol.x, sol.multipliers) == pytest.approx(sol.kkt_residual)
        assert sol.kkt_residual <= 1e-8


def paper_scale_subproblems(scalarizations):
    """Per scalarization, on the paper-scale instance: the subproblem at the
    uniform start, the one at its optimum, and its solution."""
    inst = paper_scale_instance()
    for scal in scalarizations:
        sub = ConvexSubproblem(expand(inst, default_initial_point(inst)), scal)
        first = solve(sub)
        yield sub, ConvexSubproblem(expand(inst, np.exp2(sub.unpack_q(first.x))), scal), first


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

    def test_a_direction_too_long_to_step_is_solved_under_the_next_ridge(self, monkeypatch):
        # a numerically singular Newton matrix can give a finite direction so long
        # that the move bound leaves no step of _MIN_STEP; the first solve of each
        # subproblem here returns such a direction, and the loop must solve again
        inst = paper_scale_instance()
        subs = [ConvexSubproblem(expand(inst, default_initial_point(inst)), scal) for scal in SHAPES]
        reference = [solve(sub) for sub in subs]
        linalg_solve = solver.np.linalg.solve
        calls = []

        def too_long_first(a, b):
            calls.append(b.shape)
            out = linalg_solve(a, b)
            return out * 1e30 if len(calls) == 1 else out

        monkeypatch.setattr(solver.np.linalg, "solve", too_long_first)
        for sub, want in zip(subs, reference):
            calls.clear()
            sol = solve(sub)
            assert sol.status is SubproblemStatus.OPTIMAL and sol.kkt_residual <= 1e-8
            assert len(calls) == sol.newton_iterations + 1
            c_obj = sub.objective_vector
            assert c_obj @ sol.x == pytest.approx(c_obj @ want.x, abs=1e-9)

    def test_warm_start_certifies_the_same_optimum(self):
        cold_steps = warm_steps = 0
        for _, sub, first in paper_scale_subproblems(SHAPES):
            cold = solve(sub, tol=1e-8)
            warm = solve(sub, tol=1e-8, multipliers=first.multipliers)
            for sol in (cold, warm):
                assert sol.status is SubproblemStatus.OPTIMAL
                assert sol.kkt_residual <= 1e-8
            c_obj = sub.objective_vector
            assert c_obj @ warm.x == pytest.approx(c_obj @ cold.x, abs=1e-9)
            cold_steps += cold.newton_iterations
            warm_steps += warm.newton_iterations
        assert warm_steps < cold_steps

    def test_warm_start_must_fit_the_layout(self):
        rng = np.random.default_rng(47)
        inst = random_instance(rng, 2, 2)
        sub = ConvexSubproblem(expand(inst, random_alloc(rng, inst)), weighted_product(0.5))
        with pytest.raises(ShapeError):
            solve(sub, multipliers=np.ones(sub.n_constraints + 1))
        with pytest.raises(DomainError):
            solve(sub, multipliers=np.full(sub.n_constraints, np.nan))


def surrogate_pair_rates(inst, model, p1, p2):
    """Vectorized 2-user, 1-block surrogate rates on a power grid."""
    a, b = model.a, model.b
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
            model = expand(inst, p)
            sub = ConvexSubproblem(model, scal)
            sol = solve(sub, tol=1e-8)
            assert sol.status is SubproblemStatus.OPTIMAL
            oracle, _, _ = pair_grid_objective(
                inst, model, scal, 1e-6, float(inst.max_power.min()), 400
            )
            assert sub.objective_vector @ sol.x >= oracle - 1e-4 * abs(oracle) - 1e-9

    def test_weighted_minimum_symmetric_instance(self):
        inst = symmetric_pair()
        p = np.full((2, 1), 1.0)
        model = expand(inst, p)
        scal = weighted_minimum(0.5)
        sub = ConvexSubproblem(model, scal)
        sol = solve(sub, tol=1e-8)
        assert sol.status is SubproblemStatus.OPTIMAL
        # symmetric data, symmetric start: the two powers coincide at the optimum
        q = sub.unpack_q(sol.x)
        assert abs(q[0, 0] - q[1, 0]) <= 1e-6

        coarse, p1c, p2c = pair_grid_objective(inst, model, scal, 1e-6, 4.0, 400)
        lo = max(1e-7, min(p1c, p2c) * 0.5)
        hi = min(4.0, max(p1c, p2c) * 2.0)
        fine, _, _ = pair_grid_objective(inst, model, scal, lo, hi, 600)
        oracle = max(coarse, fine)
        assert sub.objective_vector @ sol.x == pytest.approx(oracle, rel=1e-3)
