"""Unit tests for the reference polynomial oracles.  The library's
polynomials are plain ascending tuples; the oracles wrap them as RefPoly."""

import pytest
from hypothesis import given, strategies as st

from polyref import BadCompositionPower, RefPoly


def ref(*coeffs: int) -> RefPoly:
    """Ascending-order construction shorthand."""
    return RefPoly(coeffs)


def horner(p: RefPoly, x: int) -> int:
    """Exact value of p at an integer point: the oracle that the algebraic
    properties below evaluate both sides with."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


class TestAdd:
    def test_cancellation(self):
        # (X^2 - X - 1) + (X + 1) = X^2
        assert ref(-1, -1, 1) + ref(1, 1) == ref(0, 0, 1)

    def test_zero_identity(self):
        p = ref(2, 0, -7)
        assert ref() + p == p

    def test_additive_inverse(self):
        p = ref(-1, 1, 1)
        assert p + (-p) == RefPoly()


class TestMul:
    def test_product_of_conjugate_pair(self):
        # (X^2 - X - 1)(X^2 + X - 1) = X^4 - 3X^2 + 1
        assert ref(-1, -1, 1) * ref(-1, 1, 1) == ref(1, 0, -3, 0, 1)

    def test_zero_annihilates(self):
        assert ref(1, 2, 3) * RefPoly() == RefPoly()

    def test_shifted_power_assembly(self):
        # (2-X)^3 - (2-X)^2 - (2-X) - 1 = -X^3 + 5X^2 - 7X + 1
        t = ref(2, -1)
        assembled = t * t * t - t * t - t - RefPoly((1,))
        assert assembled == ref(1, -7, 5, -1)


class TestDivmod:
    def test_exact_division(self):
        # (X^4 - 3X^2 + 1) / (X^2 - X - 1) = X^2 + X - 1 exactly
        quotient, remainder = divmod(ref(1, 0, -3, 0, 1), ref(-1, -1, 1))
        assert quotient == ref(-1, 1, 1)
        assert not remainder

    def test_self_division(self):
        p = ref(-1, -1, 1)
        assert divmod(p, p) == (RefPoly((1,)), RefPoly())

    def test_single_step(self):
        # X^2 / (X^2 - X - 1): quotient 1, remainder X + 1
        quotient, remainder = divmod(ref(0, 0, 1), ref(-1, -1, 1))
        assert quotient == RefPoly((1,))
        assert remainder == ref(1, 1)

    def test_low_degree_numerator(self):
        quotient, remainder = divmod(ref(1, 1), ref(-1, -1, 1))
        assert not quotient
        assert remainder == ref(1, 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(ref(1, 1), RefPoly())

    def test_non_integral_step_raises(self):
        # X / 2X would need the step 1/2; the non-monic divisor is refused
        with pytest.raises(ValueError, match="divisor is not monic"):
            divmod(ref(0, 1), ref(0, 2))

    def test_non_monic_exact_division(self):
        # (2X^2 + 4X) / 2X = X + 2 would divide exactly, but only monic
        # divisors are accepted
        with pytest.raises(ValueError, match="divisor is not monic"):
            divmod(ref(0, 4, 2), ref(0, 2))

    @pytest.mark.parametrize("lead", [2, -1])
    def test_non_monic_divisor_raises_before_any_work(self, lead):
        divisor = ref(-1, -1, lead)
        for num in (ref(1, 0, -3, 0, 1), ref(1, 1), ref()):
            with pytest.raises(ValueError, match="divisor is not monic"):
                divmod(num, divisor)


class TestComposePower:
    def test_square_substitution(self):
        assert ref(1, -3, 1).compose_power(2) == ref(1, 0, -3, 0, 1)

    def test_identity_power(self):
        p = ref(4, -1, 0, 2)
        assert p.compose_power(1) == p

    def test_cube_substitution(self):
        # (X^3 - 7X^2 + 5X - 1) with k=3 -> X^9 - 7X^6 + 5X^3 - 1
        out = ref(-1, 5, -7, 1).compose_power(3)
        assert out == RefPoly((-1, 0, 0, 5, 0, 0, -7, 0, 0, 1))

    def test_bad_power(self):
        for k in (0, -1):
            with pytest.raises(BadCompositionPower, match="composition power must be >= 1"):
                ref(1, 1).compose_power(k)


class TestEvaluate:
    # known values of the horner oracle: a helper that returned 0 everywhere
    # would pass every homomorphism property below
    def test_simple_point(self):
        assert horner(ref(-1, -1, 1), 2) == 1

    def test_zero_everywhere(self):
        assert horner(RefPoly(), 12345) == 0

    def test_quartic_point(self):
        assert horner(ref(1, 0, -3, 0, 1), 3) == 55


small_ints = st.integers(min_value=-100, max_value=100)
polys = st.lists(small_ints, max_size=41).map(RefPoly)
points = st.integers(min_value=-1000, max_value=1000)


class TestAlgebraicProperties:
    @given(polys, polys, points)
    def test_multiplication_commutes_with_evaluation(self, a, b, x):
        assert horner(a * b, x) == horner(a, x) * horner(b, x)

    @given(polys, polys, points)
    def test_addition_commutes_with_evaluation(self, a, b, x):
        assert horner(a + b, x) == horner(a, x) + horner(b, x)

    @given(polys, st.lists(small_ints, max_size=8).map(lambda cs: RefPoly(cs + [1])))
    def test_divrem_round_trip_for_monic_divisors(self, num, den):
        quotient, remainder = divmod(num, den)
        assert den * quotient + remainder == num
        assert len(remainder.coeffs) < len(den.coeffs)

    @given(polys, st.integers(min_value=1, max_value=6), st.integers(-20, 20))
    def test_compose_power_then_evaluate(self, p, k, x):
        assert horner(p.compose_power(k), x) == horner(p, x**k)

    @given(polys, polys)
    def test_results_stay_normalized(self, a, b):
        for result in (a + b, a - b, a * b, -a):
            assert not result.coeffs or result.coeffs[-1] != 0

