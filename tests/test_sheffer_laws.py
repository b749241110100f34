"""The Sheffer group laws over random (g, f) pairs.

Every sequence of the paper has g(0) = 1 and f'(0) = 1, so the diagonal
g(0)·f'(0)^n of its Riordan array is 1, and a ``sheffer_from_pair`` that
mishandled the diagonal would build all of them right.  The pairs drawn here
have small rational constants g(0) ≠ 0 and f'(0) ≠ 0 and λ-polynomial higher
coefficients.  The laws are those of Roman's Sheffer group under umbral
composition (*The Umbral Calculus*, 1984, ch. 3), read through the
fundamental theorem of Riordan arrays (Shapiro et al., *Discrete Appl. Math.*
34, 1991): the matrix of q∘p is the matrix of q's pair composed with p's by
the group law, a sequence composed with its inverse is the identity, and the
m-fold power's pair, matrix power and explicit chain sum agree.  For an
associated r = (1, f), Corollary 15's right side, s's generating series with
the m-fold compositional power of f's inverse substituted, is r^m∘s.
"""

from hypothesis import example, given, settings, strategies as st

from degenpoly.algebra import LambdaPoly
from degenpoly.scalars import Q
from degenpoly.series import Series, comp_inverse, compose
from degenpoly.triangles import convolution_rows
from degenpoly.umbral import (
    SEQUENCES,
    compose_pair,
    corollary15_rhs,
    inverse_pair,
    power_pair,
    sheffer_from_pair,
    umbral_compose,
    umbral_power,
    umbral_power_explicit_rows,
)

ORDER = 6

constants = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
lambda_polys = st.lists(
    st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=3
).map(LambdaPoly)


@st.composite
def sequences(draw, associated=False):
    """A Sheffer sequence of a random delta series f and a random invertible
    series g, or g = 1 when ``associated``."""
    higher = st.lists(lambda_polys, min_size=ORDER - 1, max_size=ORDER - 1)
    if associated:
        g = Series.one(ORDER)
    else:
        g = Series([draw(constants), draw(lambda_polys), *draw(higher)])
    f = Series([0, draw(constants), *draw(higher)])
    return sheffer_from_pair(g, f)


# g = 2 + t + t²/3 + t⁴ and f = 3t + t² + t⁴/2 + t⁵: a pair whose Riordan
# diagonal 2·3^n is not 1
NON_UNIT = sheffer_from_pair(
    Series([2, 1, Q(1, 3), 0, 1, 0, 0]), Series([0, 3, 1, 0, Q(1, 2), 1, 0])
)


@settings(max_examples=12, deadline=None)
@example(NON_UNIT, NON_UNIT)
@given(sequences(), sequences())
def test_group_law(q, p):
    assert umbral_compose(q, p) == sheffer_from_pair(*compose_pair((q.g, q.f), p)).matrix


@settings(max_examples=12, deadline=None)
@example(NON_UNIT)
@given(sequences())
def test_inverse_laws(s):
    inv = sheffer_from_pair(*inverse_pair(s))
    ident = SEQUENCES["ident"](ORDER).matrix
    assert umbral_compose(s, inv) == ident
    assert umbral_compose(inv, s) == ident


@settings(max_examples=12, deadline=None)
@given(sequences())
def test_comp_inverse_on_both_sides(s):
    t = Series.identity(ORDER)
    assert compose(s.f, s.fbar) == t
    assert compose(s.fbar, s.f) == t
    assert comp_inverse(s.fbar) == s.f


@settings(max_examples=8, deadline=None)
@example(NON_UNIT)
@given(sequences())
def test_power_pairs(r):
    for m in (2, 3):
        powered = umbral_power(r, m)
        assert sheffer_from_pair(*power_pair(r, m)).matrix == powered
        assert tuple(map(tuple, umbral_power_explicit_rows(r, m))) == powered


@settings(max_examples=8, deadline=None)
@example(sheffer_from_pair(Series.one(ORDER), NON_UNIT.f), NON_UNIT)
@given(sequences(associated=True), sequences())
def test_corollary15(r, s):
    for m in (1, 2):
        assert corollary15_rhs(r, s, m) == convolution_rows(umbral_power(r, m), s.matrix)
