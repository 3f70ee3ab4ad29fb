import math

import numpy as np
import pytest

from eeopt.errors import DomainError, check_number


class TestCheckNumber:
    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, True, np.bool_(True), np.array([True, False]),
        np.array([1.0, math.nan]), np.array([[2.0], [math.inf]]), "1.0", [1j],
        10**400, -10**400])
    def test_non_finite_boolean_or_non_real_refused(self, value):
        with pytest.raises(DomainError, match="^x must be finite, got "):
            check_number("x", value)

    @pytest.mark.parametrize("value", [0, -1.5, 1e300, np.float64(2.0), np.int64(3),
                                       np.arange(3.0), [1.0, 2.0], np.array([], dtype=float)])
    def test_finite_numbers_and_arrays_pass(self, value):
        check_number("x", value)

    @pytest.mark.parametrize("low, high, strict, inside, outside, rule", [
        (0, math.inf, False, [0, 0.0, 5e-324], [-5e-324, -1.0], ">= 0"),
        (0, math.inf, True, [5e-324, 1.0], [0, 0.0, -1.0], "> 0"),
        (1, math.inf, False, [1, 1.0], [math.nextafter(1.0, 0.0), 0.0], ">= 1"),
        (0, 1, False, [0, 0.0, 0.5, 1.0], [-5e-324, math.nextafter(1.0, 2.0)], "in [0, 1]"),
        (0, 1, True, [5e-324, 1.0], [0.0, math.nextafter(1.0, 2.0)], "in (0, 1]"),
    ])
    def test_edges_and_message(self, low, high, strict, inside, outside, rule):
        for value in inside + [np.array(inside)]:
            check_number("x", value, low, high, strict)
        for value in outside + [np.array(inside + outside[:1])]:
            with pytest.raises(DomainError) as info:
                check_number("x", value, low, high, strict)
            assert str(info.value) == f"x must be finite and {rule}, got {value!r}"
