"""Series engine: constructors, composition, inverses, truncation rules."""

from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from degenpoly.algebra import LambdaPoly, XPoly, falling_products, lp_conv, specialize
from degenpoly.scalars import Q
from degenpoly.series import (
    Series,
    classical_exp,
    comp_inverse,
    compose,
    compositional_power,
    deg_exp,
    deg_exp_coeffs,
    deg_log,
    _over_lambda,
    mul_inverse,
    powers,
    substitution,
)
from degenpoly.triangles import egf_triangle_rows
from degenpoly.umbral import sheffer_from_pair
from xseries import deg_exp_x, horner


def lp(*coeffs):
    return LambdaPoly(coeffs)


class TestConstructors:
    def test_deg_exp_order_two(self):
        s = deg_exp(1, 2)
        assert s.coeffs == (lp(1), lp(1), lp(Q(1, 2), Q(-1, 2)))

    def test_deg_exp_x_order_one(self):
        coeffs = deg_exp_coeffs(XPoly.var(), Series.identity(1))
        assert coeffs == [XPoly.one(), XPoly.var()]

    def test_series_rejects_x_polynomial_coefficients(self):
        with pytest.raises(TypeError, match="not a scalar or λ-polynomial"):
            Series([LambdaPoly.one(), XPoly.var()])
        with pytest.raises(TypeError, match="not a scalar or λ-polynomial"):
            deg_log(3) + XPoly.var()

    def test_deg_exp_rejects_an_x_polynomial_exponent(self):
        with pytest.raises(TypeError, match="scalar or λ-polynomial"):
            deg_exp(XPoly.var(), 4)

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

    @pytest.mark.parametrize("order", [0, 1, 2, 7, 24])
    def test_deg_log_matches_its_closed_form(self, order):
        """The recurrence against the closed-form coefficients
        (λ-1)(λ-2)...(λ-n+1)/n!, the route deg_log took before it."""
        shifted = falling_products(LambdaPoly.var() - 1, -1, order)  # (λ-1)...(λ-n)
        closed = [LambdaPoly.zero()] + [
            shifted[n - 1] * Q(1, factorial(n)) for n in range(1, order + 1)]
        assert deg_log(order) == Series(closed)

    def test_deg_log_lambda_zero_is_classical(self):
        s = deg_log(6)
        expected = [0, 1, Q(-1, 2), Q(1, 3), Q(-1, 4), Q(1, 5), Q(-1, 6)]
        for n in range(7):
            assert specialize(s.coeffs[n], 0) == expected[n]

    def test_egf_coeff(self):
        assert deg_exp(1, 3).coeffs[2] * factorial(2) == lp(1, -1)

    def test_classical_exp(self):
        assert classical_exp(3).coeffs == (lp(1), lp(1), lp(Q(1, 2)), lp(Q(1, 6)))
        # exp(e^t - 1) generates the Bell numbers
        inner = classical_exp(6) - 1
        bells = [c * factorial(n) for n, c in enumerate(classical_exp(6, inner).coeffs)]
        assert bells == [lp(b) for b in (1, 1, 2, 5, 15, 52, 203)]


class TestCompose:
    def test_identity_outer(self):
        f = deg_log(6)
        t = Series.identity(6)
        assert compose(t, f) == f

    def test_definitional_inverse_pair(self):
        n = 12
        out = compose(deg_exp(1, n) - 1, deg_log(n))
        assert out == Series.identity(n)

    def test_double_exponential_bell_coefficients(self):
        em1 = deg_exp(1, 2) - 1
        s = compose(em1, em1)
        assert s.coeffs[1] * factorial(1) == lp(1)
        assert s.coeffs[2] * factorial(2) == lp(2, -2)

    def test_rejects_nonzero_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            compose(deg_log(4), deg_exp(1, 4))

    def test_truncates_to_minimum_order(self):
        out = compose(deg_exp(1, 9) - 1, deg_log(5))
        assert out.order == 5


class TestCompInverse:
    def test_identity_is_self_inverse(self):
        t = Series.identity(8)
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
        t = Series.identity(n)
        assert compose(f, fbar) == t
        assert compose(fbar, f) == t

    def test_rejects_nonzero_constant(self):
        with pytest.raises(ValueError, match="not a delta series"):
            comp_inverse(deg_exp(1, 4))

    def test_rejects_non_invertible_linear_term(self):
        g = Series([lp(0), lp(0, 1), lp(1)])
        with pytest.raises(ValueError, match="linear coefficient"):
            comp_inverse(g)


class TestMulInverse:
    def test_one(self):
        one = Series.one(5)
        assert mul_inverse(one) == one

    def test_log_quotient(self):
        # log_λ(1+t)/t starts 1 + (λ-1)t/2; its inverse starts 1 - (λ-1)t/2
        f = deg_log(2).shift_down()
        inv = mul_inverse(f)
        assert inv.coeffs[0] == lp(1)
        assert inv.coeffs[1] == lp(Q(1, 2), Q(-1, 2))

    def test_defining_property(self):
        f = Series([lp(2), lp(1, 3), lp(Q(1, 5)), lp(0, 0, 7)])
        product = f * mul_inverse(f)
        assert product == Series.one(3)

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ValueError, match="constant term"):
            mul_inverse(deg_log(3))


class TestScaledPower:
    # n!/k! [t^n] f^k, read from the running power
    def test_k_zero(self):
        assert list(powers(Series.one(4), deg_log(4), 0)) == [Series.one(4)]

    def test_second_kind_instance(self):
        f = deg_exp(1, 3) - 1
        *_, s = powers(f, f, 1)
        assert s.coeffs[3] * Q(factorial(3), factorial(2)) == lp(3, -3)

    def test_first_kind_instance(self):
        f = deg_log(3)
        *_, s = powers(f, f, 1)
        assert s.coeffs[3] * Q(factorial(3), factorial(2)) == lp(-3, 3)


class TestSeriesBasics:
    def test_shift_down_requires_zero_constant(self):
        with pytest.raises(ValueError, match="constant term"):
            deg_exp(1, 3).shift_down()

    def test_min_order_arithmetic(self):
        assert (deg_log(7) + deg_log(4)).order == 4
        assert (deg_log(7) * deg_log(4)).order == 4


small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
small_lambda_poly = st.lists(small_rational, min_size=0, max_size=3).map(LambdaPoly)


def delta_series(order):
    return st.lists(small_lambda_poly, min_size=order - 1, max_size=order - 1).map(
        lambda tail: Series([LambdaPoly.zero(), LambdaPoly.one()] + tail)
    )


@settings(max_examples=15, deadline=None)
@given(delta_series(10), delta_series(10), delta_series(10))
def test_composition_associativity(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@settings(max_examples=15, deadline=None)
@given(delta_series(10))
def test_random_delta_round_trip(f):
    fbar = comp_inverse(f)
    assert compose(f, fbar) == Series.identity(10)
    assert compose(fbar, f) == Series.identity(10)


def order_by_order_inverse(f):
    """The solver comp_inverse used before Lagrange inversion, kept as a
    reference: the t^n coefficient of f(g) is linear in g's n-th
    coefficient, with f's linear coefficient as its factor."""
    inv = 1 / f.coeffs[1].constant_value()
    zero = LambdaPoly.zero()
    g = [zero, LambdaPoly.one() * inv]
    for n in range(2, f.order + 1):
        residual = compose(f.truncate(n), Series(g + [zero])).coeffs[n]
        g.append(-residual * inv)
    return Series(g)


# nonzero linear coefficients, so t/f has a non-unit constant term
linear_coeff = small_rational.filter(
    lambda q: abs(q) >= Q(1, 3))


@settings(max_examples=15, deadline=None)
@given(linear_coeff, delta_series(10))
def test_comp_inverse_matches_order_by_order_solver(lead, f):
    f = f.scale(lead)
    assert comp_inverse(f) == order_by_order_inverse(f)


@settings(max_examples=15, deadline=None)
@given(delta_series(8).map(lambda f: f + 1))
def test_random_unit_mul_inverse(f):
    assert f * mul_inverse(f) == Series.one(8)


@st.composite
def leading_zero_series(draw):
    """Series of order 0..10 with 0..order+1 leading zero coefficients (all
    of them: the zero series), the rest λ-polynomials that may be zero."""
    order = draw(st.integers(min_value=0, max_value=10))
    zeros = draw(st.integers(min_value=0, max_value=order + 1))
    size = order + 1 - zeros
    tail = draw(st.lists(small_lambda_poly, min_size=size, max_size=size))
    return Series([LambdaPoly.zero()] * zeros + tail)


def per_coefficient_product(a, b):
    """The product as ``Series.__mul__`` computed it before it skipped the
    coefficients below its operands' valuations: one ``lp_conv`` for every
    coefficient up to the lower order."""
    return Series([lp_conv(a.coeffs, b.coeffs, k) for k in range(min(a.order, b.order) + 1)])


@settings(max_examples=60, deadline=None)
@given(leading_zero_series(), leading_zero_series())
@example(Series([0] * 5), deg_log(7))
@example(deg_log(3) * deg_log(3), deg_exp(1, 9) - 1)
def test_product_matches_the_per_coefficient_oracle(a, b):
    assert a * b == per_coefficient_product(a, b)
    assert b * a == per_coefficient_product(b, a)


@st.composite
def inner_series(draw):
    """Delta series of order 1..10 whose linear coefficient may be zero, a
    non-unit rational or λ-dependent, with λ-polynomial higher coefficients."""
    order = draw(st.integers(min_value=1, max_value=10))
    linear = draw(st.one_of(
        st.just(LambdaPoly.zero()), small_rational.map(LambdaPoly.const), small_lambda_poly))
    tail = draw(st.lists(small_lambda_poly, min_size=order - 1, max_size=order - 1))
    return Series([LambdaPoly.zero(), linear] + tail)


exponents = st.one_of(st.just(XPoly.var()), small_rational.filter(bool), small_lambda_poly)


@settings(max_examples=40, deadline=None)
@given(exponents, inner_series())
def test_deg_exp_of_inner_matches_horner_compose(exponent, inner):
    """The recurrence against the Horner composition with the outer series
    e_λ^w(t), the route the family generating series took before the
    differential equation: over x-polynomial coefficients (the tests' own
    helper) for the exponent x, over λ-polynomials for the others."""
    n = inner.order
    if isinstance(exponent, XPoly):
        assert deg_exp_coeffs(exponent, inner) == horner(deg_exp_x(n), inner)
    else:
        assert deg_exp(exponent, n, inner) == Series(horner(deg_exp(exponent, n).coeffs, inner))


@settings(max_examples=40, deadline=None)
@given(inner_series())
def test_deg_log_of_inner_matches_horner_compose(inner):
    """log_λ(1 + u) from the recurrence for (1 + u)^λ against the Horner
    composition with log_λ(1 + t), the route doubled("log") took before."""
    n = inner.order
    assert deg_log(n, inner) == Series(horner(deg_log(n).coeffs, inner))


@pytest.mark.parametrize("offset", [2, 0, -1], ids=["outer-above", "equal", "outer-below"])
@settings(max_examples=25, deadline=None)
@given(inner=inner_series(), coeffs=st.lists(small_lambda_poly, min_size=13, max_size=13))
def test_compose_matches_the_horner_oracle(offset, inner, coeffs):
    """The power-table composition against Horner, with an outer series whose
    order is above, equal to or below the inner one's: the result has the
    lower of the two orders."""
    outer = Series(coeffs[: max(inner.order + offset, 0) + 1])
    composed = compose(outer, inner)
    assert composed.order == min(outer.order, inner.order)
    assert composed == Series(horner(outer.coeffs, inner))


def test_one_substitution_serves_every_outer(monkeypatch):
    u = deg_log(8)
    outers = [deg_exp(1, 8) - 1, deg_exp(LambdaPoly.var(), 10), deg_log(5), Series.one(8)]
    mul = Series.__mul__
    calls = []
    monkeypatch.setattr(Series, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    of_u, of_u_at_5 = substitution(u), substitution(u.truncate(5))
    assert len(calls) == 7 + 4   # u^2..u^8 and u^2..u^5, once each
    composed = [of_u(outer) for outer in outers]
    truncated = [of_u_at_5(outer) for outer in outers]
    assert len(calls) == 11      # applying a map multiplies no series
    monkeypatch.undo()
    assert composed == [compose(outer, u) for outer in outers]
    assert truncated == [compose(outer.truncate(min(outer.order, 5)), u) for outer in outers]


def test_division_by_lambda_refuses_a_nonzero_constant_term():
    assert _over_lambda(lp(0, 2, Q(1, 3))) == lp(2, Q(1, 3))
    with pytest.raises(ValueError, match="nonzero constant term"):
        _over_lambda(lp(1, 1))


def test_deg_exp_of_inner_reads_only_the_requested_order():
    # the public maps truncate a longer inner series to the requested order
    inner = deg_log(9)
    for build in (lambda order, u: deg_exp(1, order, u),
                  lambda order, u: deg_exp(LambdaPoly.var(), order, u),
                  deg_log, classical_exp):
        assert build(6, inner) == build(6, inner.truncate(6))
        assert build(6, inner).order == 6


def test_deg_exp_coeffs_reads_the_order_of_its_inner_series():
    x = XPoly.var()
    for order in (0, 1, 6):
        assert len(deg_exp_coeffs(x, deg_log(order))) == order + 1
    assert deg_exp_coeffs(x, deg_log(9))[:7] == deg_exp_coeffs(x, deg_log(6))


def test_deg_exp_rejects_nonzero_constant_term_like_compose():
    # every caller of check_delta refuses a non-delta series with one message
    not_delta = deg_exp(1, 4)
    with pytest.raises(ValueError) as horner_route:
        compose(deg_exp(1, 4), not_delta)
    for recurrence_route in (lambda: deg_exp_coeffs(XPoly.var(), not_delta),
                             lambda: deg_log(4, not_delta),
                             lambda: comp_inverse(not_delta),
                             lambda: sheffer_from_pair(Series.one(4), not_delta),
                             lambda: egf_triangle_rows(not_delta)):
        with pytest.raises(ValueError, match="constant term") as recurrence:
            recurrence_route()
        assert str(recurrence.value) == str(horner_route.value)


@pytest.mark.parametrize("build", [
    lambda: comp_inverse(Series([0])),
    lambda: sheffer_from_pair(Series.one(3), Series.identity(0)),
], ids=["comp_inverse", "sheffer_from_pair"])
def test_both_inverting_callers_refuse_a_series_with_no_linear_term(build):
    with pytest.raises(ValueError, match="^not a delta series: no linear term$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: mul_inverse(deg_log(3)), "constant term 0"),
    (lambda: sheffer_from_pair(Series([lp(0, 1), lp(1)]), deg_log(1)), "g's constant term λ"),
    (lambda: comp_inverse(Series([lp(0), lp(0, 1), lp(1)])), "linear coefficient λ"),
], ids=["mul_inverse", "sheffer_from_pair-g", "comp_inverse-linear"])
def test_every_unit_scalar_caller_names_its_coefficient(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == f"{message} is not an invertible rational constant"


@pytest.mark.parametrize("build, value", [
    (lambda: Series([LambdaPoly.one(), XPoly.var()]), XPoly.var()),
    (lambda: XPoly([1, "1/2"]), "1/2"),
    (lambda: XPoly.const(XPoly.var()), XPoly.var()),
    (lambda: deg_exp(XPoly.var(), 4), XPoly.var()),
], ids=["Series", "XPoly-text", "XPoly.const", "deg_exp"])
def test_every_as_lambda_poly_caller_refuses_one_way(build, value):
    with pytest.raises(TypeError) as refused:
        build()
    assert str(refused.value) == f"{value!r} is not a scalar or λ-polynomial"


@pytest.mark.parametrize("build", [
    lambda: deg_exp(1, -1),
    lambda: deg_exp(1, -1, Series.identity(4)),
    lambda: deg_log(-1),
    lambda: deg_log(-1, Series.identity(4)),
    lambda: classical_exp(-1),
    lambda: classical_exp(-1, Series.identity(4)),
], ids=["deg_exp", "deg_exp-inner", "deg_log", "deg_log-inner", "classical_exp",
        "classical_exp-inner"])
def test_negative_order_is_refused(build):
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        build()


def test_deg_exp_rejects_inner_truncated_below_order():
    with pytest.raises(ValueError, match="^cannot extend order 4 series to 6$"):
        deg_exp(1, 6, deg_log(4))


def test_powers_multiply_count_times_and_no_more(monkeypatch):
    f = deg_log(6)
    expected = [Series.one(6), f, f * f, f * f * f]
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
