"""Exact polynomial tower: frozen expansions, specialization, ring axioms."""

import pytest
from hypothesis import given, settings, strategies as st

from degenpoly.algebra import LambdaPoly, XPoly, falling_products, specialize
from degenpoly.scalars import Q, as_scalar


def lp(*coeffs):
    return LambdaPoly(coeffs)


def xp(*coeffs):
    return XPoly(coeffs)


X = XPoly.var()
LAM = LambdaPoly.var()


# (first, step, the j-th factor of the product)
FALLING_SHAPES = {
    "falling_factorial": (X, -1, lambda j: xp(-j, 1)),
    "deg_falling_factorial": (X, -LAM, lambda j: xp(lp(0, -j), 1)),
    "deg_falling_scalar": (LambdaPoly.const(Q(3, 2)), -LAM, lambda j: lp(Q(3, 2), -j)),
    "lambda_shifted_falling": (lp(-1, 1), -1, lambda j: lp(-j - 1, 1)),
}


class TestFallingProducts:
    @pytest.mark.parametrize("shape", FALLING_SHAPES)
    def test_matches_the_per_n_loops(self, shape):
        first, step, factor = FALLING_SHAPES[shape]
        products = falling_products(first, step, 12)
        assert len(products) == 13
        for n, p in enumerate(products):
            # member n rebuilt from 1, one factor at a time
            expected = type(first).one()
            for j in range(n):
                expected = expected * factor(j)
            assert p == expected

    @pytest.mark.parametrize("first", [XPoly.var(), LambdaPoly.var()])
    def test_count_zero_is_the_empty_product(self, first):
        products = falling_products(first, -1, 0)
        assert products == [1]
        assert type(products[0]) is type(first)


class TestFallingFactorial:
    def test_empty_product(self):
        assert falling_products(X, -1, 0)[0] == XPoly.one()

    def test_single_factor(self):
        assert falling_products(X, -1, 1)[1] == XPoly.var()

    def test_n3_expansion(self):
        # x(x-1)(x-2) expanded by hand: x^3 - 3x^2 + 2x
        assert falling_products(X, -1, 3)[3] == xp(0, 2, -3, 1)

    def test_n4_expansion(self):
        assert falling_products(X, -1, 4)[4] == xp(0, -6, 11, -6, 1)


class TestDegFallingFactorial:
    def test_empty_product(self):
        assert falling_products(X, -LAM, 0)[0] == XPoly.one()

    def test_n2(self):
        # x(x-λ) = x^2 - λx
        assert falling_products(X, -LAM, 2)[2] == xp(0, lp(0, -1), 1)

    def test_n2_at_x1(self):
        assert falling_products(X, -LAM, 2)[2].eval_x(1) == lp(1, -1)

    @pytest.mark.parametrize("n", range(13))
    def test_lambda_zero_gives_monomial(self, n):
        expected = LambdaPoly([0] * n + [1])
        assert specialize(falling_products(X, -LAM, n)[n], 0) == expected

    def test_scalar_variant_matches_substitution(self):
        at_one = falling_products(LambdaPoly.one(), -LAM, 6)
        for n in range(7):
            assert at_one[n] == falling_products(X, -LAM, n)[n].eval_x(1)


class TestLambdaShiftedFalling:
    def test_m1_empty_product(self):
        assert falling_products(LAM - 1, -1, 0)[0] == LambdaPoly.one()

    def test_m2(self):
        assert falling_products(LAM - 1, -1, 1)[1] == lp(-1, 1)

    def test_m3(self):
        # (λ-1)(λ-2) = λ^2 - 3λ + 2
        assert falling_products(LAM - 1, -1, 2)[2] == lp(2, -3, 1)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_degree_and_leading_coefficient(self, m):
        p = falling_products(LAM - 1, -1, m - 1)[m - 1]
        assert p.degree == m - 1
        assert p.coeff(m - 1) == 1


class TestSpecialize:
    def test_constant_term_extraction(self):
        assert specialize(lp(1, -1), 0) == 1

    def test_bell_two_at_zero(self):
        # x^2 + (1-2λ)x at λ=0, x=1 is 2 (the 2-set has two partitions)
        p = xp(0, lp(1, -2), 1)
        assert specialize(p.eval_x(1), 0) == 2

    def test_root(self):
        assert specialize(lp(-1, 1), 1) == 0

    def test_xpoly_without_x_gives_coefficient_list(self):
        p = xp(0, lp(1, -2), 1)
        assert specialize(p, Q(1, 2)) == lp(0, 0, 1)

    def test_rational_point(self):
        p = falling_products(X, -LAM, 2)[2]
        assert specialize(p.eval_x(Q(1, 2)), Q(1, 3)) == Q(1, 2) * (Q(1, 2) - Q(1, 3))

    def test_takes_no_x_value(self):
        # x is evaluated by XPoly.eval_x alone
        with pytest.raises(TypeError):
            specialize(lp(1, 1), 0, 1)


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert lp(1, 2, 0, 0) == lp(1, 2)
        assert len(lp(1, 2, 0).coeffs) == 2

    def test_zero_is_empty(self):
        assert lp(0, 0).coeffs == ()
        assert not lp(0)
        assert lp(0) == LambdaPoly.zero()

    def test_xpoly_trims_zero_lambda_polys(self):
        assert xp(1, lp(0)).coeffs == (LambdaPoly.one(),)

    def test_scalar_equality(self):
        assert lp(5) == 5
        assert xp(5) == 5
        assert xp(lp(0, 1)) == LambdaPoly.var()

    def test_string_form(self):
        assert str(lp(1, -1)) == "1 - λ"
        assert str(xp(0, lp(2, -3), 1)) == "(2 - 3*λ)*x + x^2"
        assert str(LambdaPoly.zero()) == "0"

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            LambdaPoly([0.5])

    @pytest.mark.parametrize("use", [
        lambda: LambdaPoly(["1/2"]),
        lambda: LambdaPoly.const("1/2"),
        lambda: lp(1, 1) * "1/2",
        lambda: lp(1, 1).eval("1/2"),
        lambda: LambdaPoly.zero().eval("1/2"),
        lambda: xp(1, lp(0, 1)).eval_x("1/2"),
        lambda: specialize(xp(1, lp(0, 1)), "1/2"),
    ], ids=["LambdaPoly", "const", "scalar-mul", "eval", "eval-of-zero", "eval_x",
            "specialize"])
    def test_text_rejected(self, use):
        # text becomes a number only in the CLI
        with pytest.raises(TypeError):
            use()

    def test_malformed_string_rejected(self):
        with pytest.raises(ValueError):
            as_scalar("1//2")


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
lambda_polys = st.builds(LambdaPoly, st.lists(rationals, min_size=0, max_size=5))
x_polys = st.builds(
    lambda rows: XPoly([LambdaPoly(r) for r in rows]),
    st.lists(st.lists(rationals, min_size=0, max_size=3), min_size=0, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(lambda_polys, lambda_polys, lambda_polys)
def test_lambda_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == LambdaPoly.zero()


@settings(max_examples=40, deadline=None)
@given(x_polys, x_polys, x_polys)
def test_x_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(max_examples=40, deadline=None)
@given(x_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4),
       st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_specialize_at_x_is_evaluation_in_x_then_in_lambda(p, lam, x):
    assert specialize(p.eval_x(x), lam) == specialize(p, lam).eval(x)
    assert specialize(XPoly.zero().eval_x(x), lam) == 0


@settings(max_examples=40, deadline=None)
@given(lambda_polys, lambda_polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_evaluation_is_a_ring_morphism(a, b, lam):
    assert (a * b).eval(lam) == a.eval(lam) * b.eval(lam)
    assert (a + b).eval(lam) == a.eval(lam) + b.eval(lam)
