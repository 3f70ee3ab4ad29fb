"""The rate, psi and g minorants as the solver assembles them
(`ConvexSubproblem.evaluate`/`jacobian`), checked against the true
functions on the solver's 1/B row scale. Rates and their derivatives are
read off the solver's rate-floor rows."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeopt.errors import DomainError, ShapeError
from eeopt.network import evaluate
from eeopt.solver import (
    ConvexSubproblem,
    bound_coefficients,
    build,
    rate_evaluation,
    weighted_product,
)

from helpers import (
    central_diff,
    expand,
    g_row,
    psi_rows,
    random_alloc,
    random_instance,
    rate_jacobian,
    rate_rows,
    rel_err,
    stabilized_rate_pass,
    true_g,
    true_psi,
)


def true_rate(instance, q, user):
    return float(evaluate(instance, np.exp2(q)).rate[user])


def split_x(x, q_shape):
    """x = [q, thresholds] back into (q, thresholds)."""
    nq = int(np.prod(q_shape))
    return x[:nq].reshape(q_shape), x[nq:]


class TestBoundCoefficients:
    def test_unit_sinr(self):
        a, b = bound_coefficients(1.0)
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(1.0)

    def test_zero_sinr_conventions(self):
        assert bound_coefficients(0.0) == (0.0, 0.0)

    def test_sinr_three(self):
        a, b = bound_coefficients(3.0)
        assert a == pytest.approx(0.75)
        assert b == pytest.approx(2.0 - 0.75 * np.log2(3.0))
        assert b == pytest.approx(0.8112781244591328)

    @pytest.mark.parametrize("bad", [-1e-9, -3.0, np.inf, np.nan])
    def test_invalid_inputs(self, bad):
        with pytest.raises(DomainError):
            bound_coefficients(bad)

    def test_tightness_on_log_grid(self):
        gamma = np.logspace(-6, 6, 481)
        a, b = bound_coefficients(gamma)
        assert np.all(a >= 0.0) and np.all(a < 1.0)
        lhs = a * np.log2(gamma) + b
        rhs = np.log1p(gamma) / np.log(2.0)
        assert np.max(rel_err(lhs, rhs)) < 1e-12

    def test_bound_never_exceeds_true_curve(self):
        gamma_prime = np.logspace(-3, 3, 25)
        gamma = np.logspace(-4, 4, 200)
        for gp in gamma_prime:
            a, b = bound_coefficients(float(gp))
            assert np.all(a * np.log2(gamma) + b <= np.log2(1.0 + gamma) + 1e-12)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_tightness_property(self, gamma):
        a, b = bound_coefficients(gamma)
        assert 0.0 <= a < 1.0
        lhs = a * np.log2(gamma) + b
        assert lhs == pytest.approx(np.log2(1.0 + gamma), rel=1e-12, abs=1e-12)


class TestBuild:
    def test_expansion_matches_current_sinr(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, 3, 2)
        p = random_alloc(rng, inst)
        model = expand(inst, p)
        gamma = evaluate(inst, p).sinr
        a, b = bound_coefficients(gamma)
        np.testing.assert_array_equal(model.a, a)
        np.testing.assert_array_equal(model.b, b)
        np.testing.assert_allclose(model.expansion_q, np.log2(p), rtol=1e-13)
        with pytest.raises(ShapeError, match="SINR shape"):
            build(inst, p, replace(evaluate(inst, p), sinr=gamma[:, :1]))

    def test_rate_pass_checks_the_shape_of_q(self):
        rng = np.random.default_rng(10)
        inst = random_instance(rng, 3, 2)
        model = expand(inst, random_alloc(rng, inst))
        with pytest.raises(ShapeError, match="q shape"):
            rate_evaluation(model, np.zeros((2, 3)))

    def test_zero_power_rejected(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        p[0, 1] = 0.0
        with pytest.raises(DomainError, match="strictly positive"):
            expand(inst, p)

    def test_single_user_rate_is_affine_in_q(self):
        # no interferers: the log-denominator is the constant noise
        rng = np.random.default_rng(12)
        inst = random_instance(rng, 1, 3)
        model = expand(inst, random_alloc(rng, inst))
        q0 = rng.normal(size=(1, 3))
        d = rng.normal(size=(1, 3))
        vals = [rate_rows(model, q0 + t * d)[0][0] for t in (-1.0, 0.0, 1.0)]
        assert vals[0] + vals[2] == pytest.approx(2 * vals[1], rel=1e-12)
        # with slope B a
        slope = inst.bandwidth_per_block * float((model.a * d).sum())
        assert vals[2] - vals[1] == pytest.approx(slope, rel=1e-9, abs=1e-12)


class TestSurrogateRate:
    def test_tight_at_expansion(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
            p = random_alloc(rng, inst)
            model = expand(inst, p)
            q = np.log2(p)
            rates = rate_rows(model, q)[0]
            for i in range(inst.n_users):
                assert rel_err(rates[i], true_rate(inst, q, i)) < 1e-10

    def test_minorizes_true_rate(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            inst = random_instance(rng, 3, 2)
            p = random_alloc(rng, inst)
            model = expand(inst, p)
            for _ in range(10):
                q = np.log2(p) + rng.uniform(-2.0, 2.0, size=p.shape)
                rates = rate_rows(model, q)[0]
                for i in range(inst.n_users):
                    assert rates[i] <= true_rate(inst, q, i) + 1e-9

    def test_gradient_matches_true_rate_at_expansion(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst = random_instance(rng, 3, 2)
            p = random_alloc(rng, inst)
            model = expand(inst, p)
            q = np.log2(p)
            jac = rate_rows(model, q, with_grad=True)[1]
            for i in range(inst.n_users):
                fd = central_diff(lambda qq: true_rate(inst, qq, i), q)
                assert np.max(rel_err(jac[i].ravel(), fd, floor=1e-6)) < 1e-5

    def test_gradient_matches_surrogate_anywhere(self):
        rng = np.random.default_rng(16)
        inst = random_instance(rng, 3, 2)
        model = expand(inst, random_alloc(rng, inst))
        q = model.expansion_q + rng.uniform(-1, 1, size=model.expansion_q.shape)
        jac = rate_rows(model, q, with_grad=True)[1]
        # the surrogate formula's derivative, and that of the rows' own values
        reference = rate_jacobian(model, stabilized_rate_pass(model, q)).reshape(jac.shape)
        np.testing.assert_allclose(jac, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())
        for i in range(inst.n_users):
            fd = central_diff(lambda qq: rate_rows(model, qq)[0][i], q)
            assert np.max(rel_err(jac[i].ravel(), fd, floor=1e-6)) < 1e-5


class TestSurrogatePsi:
    def test_decreasing_in_v_and_rate_limit(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, 2, 2)
        model = expand(inst, random_alloc(rng, inst))
        q = model.expansion_q
        vals = [psi_rows(model, q, v)[0][0] for v in (2.0, 0.0, -5.0, -20.0)]
        assert vals == sorted(vals)
        rate0 = rate_rows(model, q)[0][0] / inst.bandwidth_per_block
        assert rate0 == pytest.approx(true_rate(inst, q, 0) / inst.bandwidth_per_block, rel=1e-10)
        assert psi_rows(model, q, -40.0)[0][0] == pytest.approx(rate0, rel=1e-9)

    def test_zero_at_expansion_for_min_ee_user(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            inst = random_instance(rng, 3, 2)
            p = random_alloc(rng, inst)
            rep = evaluate(inst, p)
            model = expand(inst, p)
            i = int(np.argmin(rep.ee))
            psi, _ = psi_rows(model, np.log2(p), np.log2(rep.ee_min))
            scale = max(rep.rate[i] / inst.bandwidth_per_block, 1.0)
            assert abs(psi[i]) <= 1e-9 * scale

    def test_minorizes_true_psi_at_random_points(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 100:
            inst = random_instance(rng, 3, 2)
            p = random_alloc(rng, inst)
            model = expand(inst, p)
            q = np.log2(p) + rng.uniform(-2, 2, size=p.shape)
            v = rng.uniform(-3, 3, size=inst.n_users)
            psi, _ = psi_rows(model, q, v)
            assert np.all(psi <= true_psi(inst, q, v) / inst.bandwidth_per_block + 1e-9)
            checked += inst.n_users

    def test_gradients(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, 2, 2)
        model = expand(inst, random_alloc(rng, inst))
        shape = model.expansion_q.shape
        v = np.array([0.3, -0.2])
        q = model.expansion_q + rng.uniform(-0.5, 0.5, size=shape)
        _, jac = psi_rows(model, q, v, with_grad=True)
        # at the expansion point the gradient is also the true function's
        q0 = model.expansion_q
        _, jac0 = psi_rows(model, q0, v, with_grad=True)
        rs = 1.0 / inst.bandwidth_per_block
        for i in range(inst.n_users):
            fd = central_diff(lambda x: psi_rows(model, *split_x(x, shape))[0][i],
                              np.append(q.ravel(), v))
            assert np.max(rel_err(jac[i], fd, floor=1e-6)) < 1e-5
            fd_true = central_diff(lambda x: true_psi(inst, *split_x(x, shape))[i] * rs,
                                   np.append(q0.ravel(), v))
            assert np.max(rel_err(jac0[i], fd_true, floor=1e-6)) < 1e-5


class TestSurrogateG:
    def test_zero_at_expansion_total_ee(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_instance(rng, 3, 2)
            p = random_alloc(rng, inst)
            rep = evaluate(inst, p)
            model = expand(inst, p)
            val, _ = g_row(model, np.log2(p), np.log2(rep.ee_total))
            assert abs(val) <= 1e-9 * rep.rate_total / inst.bandwidth_per_block

    def test_strictly_increasing_as_u_decreases(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        rep = evaluate(inst, p)
        model = expand(inst, p)
        u = np.log2(rep.ee_total)
        v0, _ = g_row(model, np.log2(p), u)
        v1, _ = g_row(model, np.log2(p), u - 1.0)
        assert v1 > v0

    def test_minorizes_true_g(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inst = random_instance(rng, 3, 2)
            p = random_alloc(rng, inst)
            model = expand(inst, p)
            q = np.log2(p) + rng.uniform(-2, 2, size=p.shape)
            u = rng.uniform(-3, 3)
            val, _ = g_row(model, q, u)
            assert val <= true_g(inst, q, u) / inst.bandwidth_per_block + 1e-9

    def test_gradients(self):
        rng = np.random.default_rng(24)
        inst = random_instance(rng, 3, 2)
        model = expand(inst, random_alloc(rng, inst))
        shape = model.expansion_q.shape
        u = -0.4
        q = model.expansion_q + rng.uniform(-0.5, 0.5, size=shape)
        _, grad = g_row(model, q, u, with_grad=True)
        fd = central_diff(lambda x: g_row(model, x[:-1].reshape(shape), x[-1])[0],
                          np.append(q.ravel(), u))
        assert np.max(rel_err(grad, fd, floor=1e-6)) < 1e-5
        # at the expansion point the gradient is also the true function's
        q0 = model.expansion_q
        _, grad0 = g_row(model, q0, u, with_grad=True)
        rs = 1.0 / inst.bandwidth_per_block
        fd_true = central_diff(lambda x: true_g(inst, x[:-1].reshape(shape), x[-1]) * rs,
                               np.append(q0.ravel(), u))
        assert np.max(rel_err(grad0, fd_true, floor=1e-6)) < 1e-5


class TestConcavity:
    def midpoint_gap(self, f, x, y):
        mid = tuple(0.5 * (a + b) for a, b in zip(x, y))
        return f(mid) - 0.5 * (f(x) + f(y))

    def test_midpoint_concavity_of_all_tilde_functions(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            inst = random_instance(rng, 3, 2)
            model = expand(inst, random_alloc(rng, inst))
            shape = model.expansion_q.shape

            def sample():
                return (
                    model.expansion_q + rng.uniform(-2, 2, size=shape),
                    rng.uniform(-2, 2, size=inst.n_users),
                )

            x, y = sample(), sample()
            gap_rate = self.midpoint_gap(lambda z: rate_rows(model, z[0])[0], x, y)
            gap_formula = self.midpoint_gap(lambda z: stabilized_rate_pass(model, z[0])[0], x, y)
            gap_psi = self.midpoint_gap(lambda z: psi_rows(model, z[0], z[1])[0], x, y)
            gap_g = self.midpoint_gap(lambda z: g_row(model, z[0], z[1][0])[0], x, y)
            assert np.all(gap_rate >= -1e-12)
            np.testing.assert_allclose(gap_rate, gap_formula, rtol=1e-9, atol=1e-12)
            assert np.all(gap_psi >= -1e-12)
            assert gap_g >= -1e-12


class TestWeightedHessian:
    def test_matches_finite_difference_of_jacobian(self):
        # with weight B w_i on rate floor i and nothing else, minus the Newton
        # matrix is sum_i w_i hess(rate_i): the floors are (rate_i - min_rate_i) / B
        rng = np.random.default_rng(26)
        inst = random_instance(rng, 3, 2)
        model = expand(inst, random_alloc(rng, inst))
        q = model.expansion_q + rng.uniform(-0.5, 0.5, size=model.expansion_q.shape)
        w = rng.uniform(0.1, 2.0, size=inst.n_users)
        sub = ConvexSubproblem(model, weighted_product(1.0))
        n, nq = inst.n_users, sub.nq
        beta = np.zeros(sub.n_constraints)
        beta[n : 2 * n] = inst.bandwidth_per_block * w
        derivatives = sub.jacobian(sub.evaluate(sub.pack(q, u=0.0), with_grad=False)[2])
        h = -sub.newton_matrix(derivatives, np.zeros(sub.n_constraints), beta)[:nq, :nq]

        def weighted_grad(qq):
            return w @ rate_rows(model, qq, with_grad=True)[1]

        fd = np.zeros((nq, nq))
        step = 1e-6
        for c in range(nq):
            hi = q.ravel().copy()
            lo = q.ravel().copy()
            hi[c] += step
            lo[c] -= step
            fd[:, c] = (weighted_grad(hi.reshape(q.shape)) - weighted_grad(lo.reshape(q.shape))) / (2 * step)
        np.testing.assert_allclose(h, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        # negative semidefinite
        eig = np.linalg.eigvalsh(h)
        assert eig.max() <= 1e-10
