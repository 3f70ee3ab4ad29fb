import numpy as np
import pytest

from eeopt.errors import DomainError
from eeopt.network import MetricsReport, evaluate
from eeopt.scalarization import (
    Scalarization,
    ScalarizationKind,
    log_objective,
    product_ee,
    weighted_minimum,
    weighted_product,
)

from helpers import direct_objective, random_alloc, random_instance


def report_with_ees(ees):
    """Metrics report whose links draw 1 W each, so their rates are the EEs."""
    ees = np.asarray(ees, dtype=float)
    return MetricsReport(sinr=np.zeros((ees.size, 1)), rate=ees.copy(), power=np.ones(ees.size),
                         ee=ees)


class TestConstruction:
    def test_weight_bounds(self):
        with pytest.raises(DomainError):
            weighted_product(-0.1)
        with pytest.raises(DomainError):
            weighted_product(1.0001)

    def test_weighted_minimum_rejects_endpoints(self):
        for w in (0.0, 1.0):
            with pytest.raises(DomainError):
                weighted_minimum(w)
        assert weighted_minimum(0.5).weight == 0.5

    def test_product_endpoints_allowed(self):
        assert weighted_product(0.0).weight == 0.0
        assert weighted_product(1.0).weight == 1.0


class TestLogObjective:
    def test_weighted_product_affine(self):
        assert log_objective(weighted_product(0.7), 2.0, 1.0) == pytest.approx(1.7)

    def test_pure_tee_weight(self):
        s = weighted_product(1.0)
        assert log_objective(s, 2.3, -99.0) == 2.3

    def test_pure_mee_weight(self):
        s = weighted_product(0.0)
        assert log_objective(s, 99.0, -1.25) == -1.25

    def test_weighted_minimum(self):
        assert log_objective(weighted_minimum(0.5), 3.0, 2.0) == pytest.approx(3.0)

    def test_product_ee_sums_the_users_and_rejects_a_minus_inf_ee(self):
        # u is not a term of product-EE, so it may be anything
        assert log_objective(product_ee(), np.nan, np.array([1.5, -0.25, 2.0])) == 3.25
        with pytest.raises(DomainError, match="log2 EE must be finite"):
            log_objective(product_ee(), 1.0, np.array([1.5, -np.inf]))

    def test_trade_offs_read_the_minimum_of_the_users(self):
        log_ee = np.array([3.0, 2.0, 2.5])
        for s in (weighted_product(0.7), weighted_product(0.0), weighted_minimum(0.4)):
            assert log_objective(s, 4.0, log_ee) == log_objective(s, 4.0, 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            log_objective(weighted_product(0.5), np.inf, 0.0)

    def test_endpoint_weights_ignore_the_zero_weight_term(self):
        # a surrogate rate a hair below 0 gives a v root of -inf; at w = 1 v has
        # weight 0, so only u must be finite (and u at w = 0)
        assert log_objective(weighted_product(1.0), 2.3, -np.inf) == 2.3
        assert log_objective(weighted_product(0.0), np.nan, -1.25) == -1.25
        with pytest.raises(DomainError, match="u must be finite"):
            log_objective(weighted_product(1.0), -np.inf, 0.0)
        with pytest.raises(DomainError, match="v must be finite"):
            log_objective(weighted_product(0.0), 0.0, -np.inf)

    def test_endpoint_weights_match_the_weighted_sum_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for u, v in rng.normal(0.0, 20.0, size=(50, 2)):
            assert log_objective(weighted_product(1.0), u, v) == 1.0 * u + 0.0 * v
            assert log_objective(weighted_product(0.0), u, v) == 0.0 * u + 1.0 * v

    def test_concave_and_nondecreasing(self):
        rng = np.random.default_rng(30)
        for s in (weighted_product(0.3), weighted_minimum(0.6)):
            for _ in range(50):
                u1, v1, u2, v2 = rng.uniform(-5, 5, size=4)
                mid = log_objective(s, 0.5 * (u1 + u2), 0.5 * (v1 + v2))
                assert mid >= 0.5 * (log_objective(s, u1, v1) + log_objective(s, u2, v2)) - 1e-12
                eps = 0.3
                assert log_objective(s, u1 + eps, v1) >= log_objective(s, u1, v1) - 1e-12
                assert log_objective(s, u1, v1 + eps) >= log_objective(s, u1, v1) - 1e-12

    def test_weighted_minimum_translation_equivariance(self):
        rng = np.random.default_rng(31)
        s = weighted_minimum(0.37)
        for _ in range(20):
            u, v, c = rng.uniform(-4, 4, size=3)
            assert log_objective(s, u + c, v + c) == pytest.approx(log_objective(s, u, v) + c)


class TestDirectObjective:
    def test_pure_mee(self):
        rep = report_with_ees([4.0, 2.5, 7.0])
        assert direct_objective(weighted_product(0.0), rep) == pytest.approx(2.5)

    def test_equal_ees_weight_independent(self):
        rep = report_with_ees([3.0, 3.0])
        for w in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert direct_objective(weighted_product(w), rep) == pytest.approx(3.0)

    def test_product_ee(self):
        rep = report_with_ees([2.0, 8.0])
        assert direct_objective(product_ee(), rep) == pytest.approx(16.0)

    def test_product_ee_zero_if_any_zero(self):
        rep = report_with_ees([2.0, 0.0, 5.0])
        assert direct_objective(product_ee(), rep) == 0.0

    def test_base_consistency_with_log_objective(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            inst = random_instance(rng, 3, 2)
            rep = evaluate(inst, random_alloc(rng, inst))
            for s in (weighted_product(rng.uniform(0.05, 0.95)), weighted_minimum(rng.uniform(0.05, 0.95))):
                lo = log_objective(s, np.log2(rep.ee_total), np.log2(rep.ee_min))
                assert 2.0**lo == pytest.approx(direct_objective(s, rep), rel=1e-10)


class TestKindValues:
    def test_enum_round_trip(self):
        for kind in ScalarizationKind:
            assert ScalarizationKind(kind.value) is kind

    def test_dataclass_equality(self):
        assert weighted_product(0.3) == Scalarization(ScalarizationKind.WEIGHTED_PRODUCT, 0.3)
