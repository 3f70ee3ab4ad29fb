from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eeopt.errors import DomainError, ShapeError
from eeopt.network import NetworkInstance, evaluate, is_feasible, jain_index
from eeopt.scenario import ScenarioConfig, generate

from helpers import metrics_off_reference, random_alloc, random_instance, reference_metrics, rel_err


def single_user(gain=1.0, noise=0.5, mu=1.0, p_st=1.0, p_max=10.0, r_th=0.0, bw=1.0):
    return NetworkInstance(
        bandwidth_per_block=bw,
        gain=np.array([[[gain]]]),
        noise=np.array([[noise]]),
        amp_inefficiency=mu,
        static_power=p_st,
        max_power=p_max,
        min_rate=r_th,
    )


class TestSinr:
    def test_single_user_direct_ratio(self):
        inst = single_user(gain=1.0, noise=0.5)
        assert evaluate(inst, np.array([[2.0]])).sinr == pytest.approx(4.0)

    def test_two_users_interference(self):
        # gain[j, i, k]: user 1 receives cross interference with gain 0.5
        gain = np.zeros((2, 2, 1))
        gain[0, 0, 0] = 1.0
        gain[1, 0, 0] = 0.5
        gain[1, 1, 0] = 1.0
        gain[0, 1, 0] = 0.1
        inst = NetworkInstance(
            bandwidth_per_block=1.0,
            gain=gain,
            noise=np.array([[1.0], [1.0]]),
            amp_inefficiency=1.0,
            static_power=1.0,
            max_power=10.0,
            min_rate=0.0,
        )
        p = np.array([[1.0], [2.0]])
        g = evaluate(inst, p).sinr
        assert g[0, 0] == pytest.approx(1.0 / (0.5 * 2.0 + 1.0))
        assert g[1, 0] == pytest.approx(2.0 / (0.1 * 1.0 + 1.0))

    def test_zero_power_gives_zero_sinr(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 3, 2)
        assert np.all(evaluate(inst, np.zeros((3, 2))).sinr == 0.0)

    def test_shape_mismatch(self):
        inst = single_user()
        with pytest.raises(ShapeError):
            evaluate(inst, np.zeros((2, 1)))

    def test_negative_alloc_rejected(self):
        inst = single_user()
        with pytest.raises(DomainError):
            evaluate(inst, np.array([[-1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_alloc_rejected(self, value):
        with pytest.raises(DomainError, match="must be finite"):
            evaluate(single_user(), np.array([[value]]))

    def test_scale_invariance_in_power_and_noise(self):
        # scaling all powers and all noise by the same factor leaves SINR unchanged
        rng = np.random.default_rng(1)
        inst = random_instance(rng, 3, 2)
        p = random_alloc(rng, inst)
        for c in (0.25, 7.0):
            scaled = NetworkInstance(
                bandwidth_per_block=inst.bandwidth_per_block,
                gain=inst.gain,
                noise=inst.noise * c,
                amp_inefficiency=inst.amp_inefficiency,
                static_power=inst.static_power,
                max_power=inst.max_power,
                min_rate=inst.min_rate,
            )
            np.testing.assert_allclose(evaluate(scaled, p * c).sinr, evaluate(inst, p).sinr,
                                       rtol=1e-12)

    def test_rate_monotonicity_in_powers(self):
        # own power up -> own rate up; other's power up -> own rate down
        rng = np.random.default_rng(2)
        inst = random_instance(rng, 3, 2)
        p = random_alloc(rng, inst)
        base = evaluate(inst, p).rate
        bumped = p.copy()
        bumped[0, 1] *= 1.05
        r = evaluate(inst, bumped).rate
        assert r[0] > base[0]
        assert r[1] <= base[1] and r[2] <= base[2]


class TestEvaluate:
    def test_single_user_metrics(self):
        inst = single_user(gain=3.0, noise=1.0, mu=1.0, p_st=1.0)
        rep = evaluate(inst, np.array([[1.0]]))
        assert rep.sinr[0, 0] == pytest.approx(3.0)
        assert rep.rate[0] == pytest.approx(2.0)  # log2(4)
        assert rep.power[0] == pytest.approx(2.0)
        assert rep.ee[0] == pytest.approx(1.0)
        assert rep.ee_total == pytest.approx(1.0)
        assert rep.ee_min == pytest.approx(1.0)
        assert rep.jain_index == pytest.approx(1.0)

    def test_totals_are_sums(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, 4, 3)
        rep = evaluate(inst, random_alloc(rng, inst))
        assert rep.rate_total == pytest.approx(rep.rate.sum())
        assert rep.power_total == pytest.approx(rep.power.sum())

    def test_total_ee_at_least_min_ee(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            inst = random_instance(rng, n, k)
            rep = evaluate(inst, random_alloc(rng, inst))
            assert rep.ee_total >= rep.ee_min - 1e-12


class TestJainIndex:
    def test_equal_values_fair(self):
        assert jain_index(np.full(5, 3.7)) == pytest.approx(1.0)

    def test_two_user_example(self):
        assert jain_index(np.array([2.0, 1.0])) == pytest.approx(9.0 / 10.0)

    def test_single_nonzero_value(self):
        assert jain_index(np.array([5.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0 / 4.0)

    def test_all_zero_defined_as_fair(self):
        assert jain_index(np.zeros(3)) == 1.0

    def test_values_whose_squares_underflow(self):
        # unscaled, v * v underflows to a subnormal and the index reads 1.0833
        j = jain_index(np.array([5.66e-162, 5.66e-162]))
        assert 0.5 <= j <= 1.0
        assert j == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bounds(self, values):
        v = np.asarray(values)
        j = jain_index(v)
        n = v.size
        if np.any(v > 0):
            assert 1.0 / n - 1e-12 <= j <= 1.0 + 1e-12
        else:
            assert j == 1.0


class TestFeasibility:
    def test_zero_alloc_feasible_without_rate_floors(self):
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 2, 2, min_rate=0.0)
        res = is_feasible(inst, np.zeros((2, 2)))
        assert res.ok and not res.violations

    def test_power_budget_violation_slack(self):
        inst = NetworkInstance(
            bandwidth_per_block=1.0,
            gain=np.ones((1, 1, 2)),
            noise=np.full((1, 2), 0.5),
            amp_inefficiency=1.0,
            static_power=1.0,
            max_power=1.0,
            min_rate=0.0,
        )
        res = is_feasible(inst, np.array([[0.6, 0.6]]))
        assert not res.ok
        assert len(res.violations) == 1
        v = res.violations[0]
        assert v.kind == "power_budget"
        assert v.slack == pytest.approx(-0.2)

    def test_negative_entry_infeasible(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 2, 2)
        p = random_alloc(rng, inst)
        p[1, 0] = -0.05
        res = is_feasible(inst, p)
        assert not res.ok
        assert any(v.kind == "nonnegativity" for v in res.violations)

    def test_rate_floor_violation(self):
        inst = single_user(gain=1.0, noise=1.0, r_th=10.0)
        res = is_feasible(inst, np.array([[1.0]]))  # rate = 1 bit/s < 10
        assert not res.ok
        assert res.violations[0].kind == "min_rate"
        assert res.violations[0].slack == pytest.approx(1.0 - 10.0)

    def test_violations_keep_their_order(self):
        # a negative entry, then per user its budget before its floor: users 0
        # and 2 break both, user 1 only its floor and user 3 only its budget
        rng = np.random.default_rng(7)
        inst = random_instance(rng, 4, 2)
        p = np.tile(0.4 * inst.max_power[:, None], (1, 2))
        p[[0, 2, 3]] *= 2.0
        p[1, 1] = -0.01
        clipped = np.clip(p, 0.0, None)
        rate = evaluate(inst, clipped).rate
        inst = replace(inst, min_rate=rate * np.array([1.5, 1.5, 1.5, 0.5]))
        res = is_feasible(inst, p)
        expected = [("nonnegativity", (1, 1), -0.01)]
        for i, kinds in enumerate((("power_budget", "min_rate"), ("min_rate",),
                                   ("power_budget", "min_rate"), ("power_budget",))):
            for kind in kinds:
                slack = (inst.max_power[i] - clipped[i].sum() if kind == "power_budget"
                         else rate[i] - inst.min_rate[i])
                expected.append((kind, (i,), float(slack)))
        assert not res.ok
        assert [(v.kind, v.index, v.slack) for v in res.violations] == expected

    def test_relative_tolerance(self):
        inst = single_user(p_max=1.0)
        p = np.array([[1.0 + 5e-4]])
        assert not is_feasible(inst, p, tol=0.0).ok
        assert is_feasible(inst, p, tol=1e-3).ok

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # 20 W per user against a 0.2 W budget, which no finite tol >= 0 excuses
        inst = generate(ScenarioConfig(n_d2d_pairs=1, n_blocks=2), 0)
        p = np.full((2, 2), 10.0)
        assert not is_feasible(inst, p).ok
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            is_feasible(inst, p, tol=tol)


class TestInstanceValidation:
    def test_zero_direct_gain_rejected(self):
        gain = np.ones((2, 2, 1))
        gain[1, 1, 0] = 0.0
        with pytest.raises(DomainError):
            NetworkInstance(1.0, gain, np.ones((2, 1)), 1.0, 1.0, 1.0, 0.0)

    def test_amp_inefficiency_below_one_rejected(self):
        with pytest.raises(DomainError):
            NetworkInstance(1.0, np.ones((1, 1, 1)), np.ones((1, 1)), 0.5, 1.0, 1.0, 0.0)

    def test_nonpositive_noise_rejected(self):
        with pytest.raises(DomainError):
            NetworkInstance(1.0, np.ones((1, 1, 1)), np.zeros((1, 1)), 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, True])
    @pytest.mark.parametrize("field", ["noise", "amp_inefficiency", "static_power", "max_power",
                                       "min_rate", "bandwidth_per_block"])
    def test_non_finite_value_rejected_by_name(self, field, value):
        fields = dict(bandwidth_per_block=1.0, gain=np.ones((1, 1, 1)), noise=np.ones((1, 1)),
                      amp_inefficiency=1.0, static_power=1.0, max_power=1.0, min_rate=0.0)
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            NetworkInstance(**{**fields, field: value})

    @pytest.mark.parametrize("change, error, match", [
        ({"gain": np.ones((1, 1))}, ShapeError, r"gain must be \(N, N, K\)"),
        ({"gain": np.ones((1, 1, 0)), "noise": 1.0}, ShapeError, "at least one user and one block"),
        ({"max_power": [1.0, 2.0]}, ShapeError, r"max_power must be scalar or shape \(1,\)"),
        ({"noise": np.ones((2, 1))}, ShapeError, r"noise must be scalar or shape \(1, 1\)"),
        ({"gain": -np.ones((1, 1, 1))}, DomainError, "gains must be finite and nonnegative"),
        ({"gain": np.full((1, 1, 1), np.inf)}, DomainError, "gains must be finite and nonnegative"),
    ], ids=["gain-2d", "zero-blocks", "per-user-length", "noise-shape", "gain-negative",
            "gain-inf"])
    def test_bad_array_rejected(self, change, error, match):
        fields = dict(bandwidth_per_block=1.0, gain=np.ones((1, 1, 1)), noise=np.ones((1, 1)),
                      amp_inefficiency=1.0, static_power=1.0, max_power=1.0, min_rate=0.0)
        with pytest.raises(error, match=match):
            NetworkInstance(**{**fields, **change})

    def test_instance_arrays_immutable(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, 2, 2)
        with pytest.raises(ValueError):
            inst.gain[0, 0, 0] = 2.0


class TestAgainstReference:
    @given(n=st.integers(1, 6), k=st.integers(1, 6), const_db=st.floats(-400.0, -60.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_network_pass_matches_the_per_pair_loop(self, n, k, const_db, seed):
        # strong gains and powers down to 1e-14 of the budget: where the direct
        # power dwarfs interference plus noise, "received minus direct" cancels
        rng = np.random.default_rng(seed)
        inst = generate(ScenarioConfig(n_d2d_pairs=max(n - 1, 1), n_blocks=k,
                                       path_loss_const_db=const_db), rng)
        inst = replace(inst, gain=inst.gain[:n, :n], noise=inst.noise[:n],
                       **{f: getattr(inst, f)[:n] for f in
                          ("amp_inefficiency", "static_power", "max_power", "min_rate")})
        p = 10.0 ** rng.uniform(-14.0, 0.0, size=(n, k)) * inst.max_power[:, None] / k
        report = evaluate(inst, p)
        assert rel_err(report.sinr, reference_metrics(inst, p)[0], floor=1e-300).max() <= 1e-12
        assert metrics_off_reference(report, inst, p) <= 1e-9
