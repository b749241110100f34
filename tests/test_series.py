"""Series engine: constructors, composition, inverses, truncation rules."""

import pytest
from hypothesis import given, settings, strategies as st

from degenpoly.algebra import LambdaPoly, XPoly, specialize
from degenpoly.scalars import Q
from degenpoly.series import (
    Series,
    classical_exp,
    comp_inverse,
    compose,
    compositional_power,
    deg_exp,
    deg_log,
    mul_inverse,
    powers,
    scaled_power,
)


def lp(*coeffs):
    return LambdaPoly.from_coeffs(coeffs)


class TestConstructors:
    def test_deg_exp_order_two(self):
        s = deg_exp(1, 2)
        assert s.coeffs == (lp(1), lp(1), lp(Q(1, 2), Q(-1, 2)))

    def test_deg_exp_x_order_one(self):
        s = deg_exp(XPoly.var(), 1)
        assert s.coeffs == (XPoly.one(), XPoly.var())

    def test_deg_exp_lambda_zero_is_classical(self):
        s = deg_exp(1, 6)
        for n in range(7):
            assert specialize(s.coeffs[n], 0) == Q(1, [1, 1, 2, 6, 24, 120, 720][n])

    def test_deg_log_order_two(self):
        s = deg_log(2)
        assert s.coeffs == (lp(0), lp(1), lp(Q(-1, 2), Q(1, 2)))

    def test_deg_log_third_coefficient(self):
        # (λ-1)(λ-2)/3! = (λ^2 - 3λ + 2)/6
        assert deg_log(3).coeffs[3] == lp(Q(1, 3), Q(-1, 2), Q(1, 6))

    def test_deg_log_lambda_zero_is_classical(self):
        s = deg_log(6)
        expected = [0, 1, Q(-1, 2), Q(1, 3), Q(-1, 4), Q(1, 5), Q(-1, 6)]
        for n in range(7):
            assert specialize(s.coeffs[n], 0) == expected[n]

    def test_egf_coeff(self):
        assert deg_exp(1, 3).egf_coeff(2) == lp(1, -1)

    def test_classical_exp(self):
        assert classical_exp(3).coeffs == (lp(1), lp(1), lp(Q(1, 2)), lp(Q(1, 6)))


class TestCompose:
    def test_identity_outer(self):
        f = deg_log(6)
        t = Series.identity(LambdaPoly, 6)
        assert compose(t, f) == f

    def test_definitional_inverse_pair(self):
        n = 12
        out = compose(deg_exp(1, n) - 1, deg_log(n))
        assert out == Series.identity(LambdaPoly, n)

    def test_double_exponential_bell_coefficients(self):
        em1 = deg_exp(1, 2) - 1
        s = compose(em1, em1)
        assert s.egf_coeff(1) == lp(1)
        assert s.egf_coeff(2) == lp(2, -2)

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            compose(deg_log(4), deg_exp(1, 4))

    def test_rejects_mixed_rings(self):
        with pytest.raises(ValueError, match="rings differ"):
            compose(deg_exp(XPoly.var(), 4), deg_log(4))

    def test_truncates_to_minimum_order(self):
        out = compose(deg_exp(1, 9) - 1, deg_log(5))
        assert out.order == 5


class TestCompInverse:
    def test_identity_is_self_inverse(self):
        t = Series.identity(LambdaPoly, 8)
        assert comp_inverse(t) == t

    def test_exp_minus_one_inverts_to_log(self):
        assert comp_inverse(deg_exp(1, 12) - 1) == deg_log(12)

    @pytest.mark.parametrize("order", [1, 2, 4, 8, 12, 16])
    def test_log_matches_at_every_order(self, order):
        assert comp_inverse(deg_exp(1, order) - 1) == deg_log(order)

    def test_double_map_inverse_is_double_log(self):
        n = 8
        em1 = deg_exp(1, n) - 1
        lg = deg_log(n)
        assert comp_inverse(compose(em1, em1)) == compose(lg, lg)

    @pytest.mark.parametrize("builder", [
        lambda n: deg_exp(1, n) - 1,
        lambda n: deg_log(n),
        lambda n: compose(deg_exp(1, n) - 1, deg_exp(1, n) - 1),
        lambda n: compose(deg_log(n), deg_log(n)),
    ])
    def test_round_trip_order_sixteen(self, builder):
        n = 16
        f = builder(n)
        fbar = comp_inverse(f)
        t = Series.identity(LambdaPoly, n)
        assert compose(f, fbar) == t
        assert compose(fbar, f) == t

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="not a delta series"):
            comp_inverse(deg_exp(1, 4))

    def test_rejects_non_invertible_linear_term(self):
        g = Series(LambdaPoly, [lp(0), lp(0, 1), lp(1)])
        with pytest.raises(ValueError, match="linear coefficient"):
            comp_inverse(g)


class TestMulInverse:
    def test_one(self):
        one = Series.one(LambdaPoly, 5)
        assert mul_inverse(one) == one

    def test_log_quotient(self):
        # log_λ(1+t)/t starts 1 + (λ-1)t/2; its inverse starts 1 - (λ-1)t/2
        f = deg_log(2).shift_down()
        inv = mul_inverse(f)
        assert inv.coeffs[0] == lp(1)
        assert inv.coeffs[1] == lp(Q(1, 2), Q(-1, 2))

    def test_defining_property(self):
        f = Series(LambdaPoly, [lp(2), lp(1, 3), lp(Q(1, 5)), lp(0, 0, 7)])
        product = f * mul_inverse(f)
        assert product == Series.one(LambdaPoly, 3)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            mul_inverse(deg_log(3))


class TestScaledPower:
    def test_k_zero(self):
        assert scaled_power(deg_log(4), 0) == Series.one(LambdaPoly, 4)

    def test_second_kind_instance(self):
        s = scaled_power(deg_exp(1, 3) - 1, 2)
        assert s.egf_coeff(3) == lp(3, -3)

    def test_first_kind_instance(self):
        s = scaled_power(deg_log(3), 2)
        assert s.egf_coeff(3) == lp(-3, 3)


class TestSeriesBasics:
    def test_shift_down_requires_zero_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            deg_exp(1, 3).shift_down()

    def test_lift(self):
        lifted = deg_log(3).lift()
        assert lifted.ring is XPoly
        assert lifted.coeffs[2] == XPoly.const(lp(Q(-1, 2), Q(1, 2)))

    def test_coeff_out_of_range(self):
        with pytest.raises(IndexError):
            deg_log(3).coeff(4)

    def test_min_order_arithmetic(self):
        assert (deg_log(7) + deg_log(4)).order == 4
        assert (deg_log(7) * deg_log(4)).order == 4


def delta_series(order):
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    small_poly = st.lists(coeff, min_size=0, max_size=3).map(LambdaPoly.from_coeffs)
    return st.lists(small_poly, min_size=order - 1, max_size=order - 1).map(
        lambda tail: Series(LambdaPoly, [LambdaPoly.zero(), LambdaPoly.one()] + tail)
    )


@settings(max_examples=15, deadline=None)
@given(delta_series(10), delta_series(10), delta_series(10))
def test_composition_associativity(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=15, deadline=None)
@given(delta_series(10))
def test_random_delta_round_trip(f):
    fbar = comp_inverse(f)
    assert compose(f, fbar) == Series.identity(LambdaPoly, 10)
    assert compose(fbar, f) == Series.identity(LambdaPoly, 10)


def order_by_order_inverse(f):
    """The solver comp_inverse used before Lagrange inversion, kept as a
    reference: the t^n coefficient of f(g) is linear in g's n-th
    coefficient, with f's linear coefficient as its factor."""
    inv = 1 / f.coeffs[1].constant_value()
    zero = f.ring.zero()
    g = [zero, f.ring.one() * inv]
    for n in range(2, f.order + 1):
        residual = compose(f.truncate(n), Series(f.ring, g + [zero])).coeffs[n]
        g.append(-residual * inv)
    return Series(f.ring, g)


# nonzero linear coefficients, so t/f has a non-unit constant term
linear_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(
    lambda q: abs(q) >= Q(1, 3))


@settings(max_examples=15, deadline=None)
@given(linear_coeff, delta_series(10))
def test_comp_inverse_matches_order_by_order_solver(lead, f):
    f = f.scale(lead)
    assert comp_inverse(f) == order_by_order_inverse(f)


@settings(max_examples=15, deadline=None)
@given(delta_series(8).map(lambda f: f + 1))
def test_random_unit_mul_inverse(f):
    assert f * mul_inverse(f) == Series.one(LambdaPoly, 8)


def test_powers_multiply_count_times_and_no_more(monkeypatch):
    f = deg_log(6)
    expected = [Series.one(LambdaPoly, 6), f, f * f, f * f * f]
    mul = Series.__mul__
    calls = []
    monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    assert list(powers(expected[0], f, 3)) == expected
    assert len(calls) == 3


def test_compositional_power_matches_repeated_compose():
    f = deg_log(8)
    assert compositional_power(f, 1) == f
    assert compositional_power(f, 2) == compose(f, f)
    assert compositional_power(f, 3) == compose(compose(f, f), f)
