"""Differential test: ``LambdaPoly`` against a plain Fraction-list polynomial.

``LambdaPoly`` keeps int numerators over one shared denominator.  The
reference below is the direct representation — one ``Fraction`` per
coefficient, schoolbook arithmetic — and lives in the tests only.  Every
operation must agree with it, and every result must be in canonical form,
so that equal values built by different routes compare and hash equal.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from degenpoly.algebra import LambdaPoly, _poly_str
from degenpoly.scalars import Q


class RefPoly:
    """Dense polynomial in λ with one Fraction per coefficient."""

    def __init__(self, coeffs):
        c = [Fraction(v) for v in coeffs]
        while c and not c[-1]:
            c.pop()
        self.c = tuple(c)

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        pad = lambda c: list(c) + [Fraction(0)] * (n - len(c))  # noqa: E731
        return RefPoly([a + b for a, b in zip(pad(self.c), pad(other.c))])

    def __neg__(self):
        return RefPoly([-a for a in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.c or not other.c:
            return RefPoly([])
        out = [Fraction(0)] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return RefPoly(out)

    def scale(self, s):
        return RefPoly([a * s for a in self.c])

    def eval(self, lam):
        acc = Fraction(0)
        for a in reversed(self.c):
            acc = acc * lam + a
        return acc


small_ints = st.integers(min_value=-50, max_value=50)
big_ints = st.integers(min_value=-(2**80), max_value=2**80)
fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=720)
scalars = st.one_of(small_ints, big_ints, fractions)
coeff_lists = st.lists(st.one_of(scalars, st.just(0)), max_size=8)


def pair(coeffs):
    return LambdaPoly(coeffs), RefPoly(coeffs)


def assert_matches(poly, ref):
    assert poly.coeffs == ref.c
    assert all(isinstance(c, Q) for c in poly.coeffs)
    nums, den = poly._n, poly._d
    assert all(type(c) is int for c in nums) and type(den) is int and den > 0
    if nums:
        assert nums[-1] != 0 and gcd(den, *nums) == 1
    else:
        assert den == 1
    assert poly.degree == len(ref.c) - 1


@given(coeff_lists)
def test_construction_and_accessors(coeffs):
    poly, ref = pair(coeffs)
    assert_matches(poly, ref)
    assert LambdaPoly.from_coeffs([str(Fraction(v)) for v in coeffs]) == poly
    for i in range(-1, len(ref.c) + 2):
        expected = ref.c[i] if 0 <= i < len(ref.c) else 0
        assert poly.coeff(i) == expected
    constant = poly.constant_value()
    if len(ref.c) <= 1:
        assert constant == (ref.c[0] if ref.c else 0)
    else:
        assert constant is None
    assert str(poly) == _poly_str(ref.c, "λ")


@given(coeff_lists, coeff_lists)
def test_ring_operations(a, b):
    pa, ra = pair(a)
    pb, rb = pair(b)
    assert_matches(pa + pb, ra + rb)
    assert_matches(pa - pb, ra - rb)
    assert_matches(-pa, -ra)
    assert_matches(pa * pb, ra * rb)
    assert_matches(pa * pa, ra * ra)


@given(coeff_lists, scalars)
def test_scalar_operations(a, s):
    pa, ra = pair(a)
    assert_matches(pa * s, ra.scale(s))
    assert_matches(s * pa, ra.scale(s))
    assert_matches(pa + s, ra + RefPoly([s]))
    assert_matches(s + pa, ra + RefPoly([s]))
    assert_matches(pa - s, ra - RefPoly([s]))
    assert_matches(s - pa, RefPoly([s]) - ra)


@given(coeff_lists, st.one_of(small_ints, fractions))
def test_eval_at_rational(a, lam):
    pa, ra = pair(a)
    value = pa.eval(lam)
    assert value == ra.eval(Fraction(lam)) and isinstance(value, Q)
    assert pa.eval(str(Fraction(lam))) == value


@given(coeff_lists, coeff_lists)
def test_equality_and_hash_follow_values(a, b):
    pa, ra = pair(a)
    pb, rb = pair(b)
    assert (pa == pb) == (ra.c == rb.c)
    if pa == pb:
        assert hash(pa) == hash(pb)


@given(coeff_lists, coeff_lists, coeff_lists, scalars)
def test_canonical_form_across_routes(a, b, c, s):
    pa, pb, pc = LambdaPoly(a), LambdaPoly(b), LambdaPoly(c)
    routes = [
        ((pa + pb) - pb, pa),
        (pa * pb, pb * pa),
        ((pa * pb) * pc, pa * (pb * pc)),
        (pa * (pb + pc), pa * pb + pa * pc),
        (pa - pa, LambdaPoly.zero()),
    ]
    if s:
        routes.append(((pa * s) * (1 / Fraction(s)), pa))
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)
        assert (left._n, left._d) == (right._n, right._d)


def test_half_times_two_is_one():
    half = LambdaPoly.from_coeffs(["1/2"])
    assert half * 2 == LambdaPoly.one() == LambdaPoly((1,))
    assert hash(half * 2) == hash(LambdaPoly.one())
    assert (half * 2)._d == 1
    assert LambdaPoly((Fraction(1, 2), Fraction(1, 3))) * 6 == LambdaPoly((3, 2))
    assert LambdaPoly((Fraction(1, 6), 0, 0)) + LambdaPoly((Fraction(-1, 6),)) == 0


@given(scalars)
def test_constants_compare_with_scalars(s):
    poly = LambdaPoly.const(s)
    assert poly == s and poly == Fraction(s)
    assert hash(poly) == hash(s) and s in {poly}
    assert poly.constant_value() == s
    assert (poly == s + 1) is False
    assert bool(poly) == bool(s)
