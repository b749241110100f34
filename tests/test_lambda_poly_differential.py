"""Differential test: ``LambdaPoly`` against a plain Fraction-list polynomial.

``LambdaPoly`` keeps int numerators over one shared denominator.  The
reference below is the direct representation — one ``Fraction`` per
coefficient, schoolbook arithmetic — and lives in the tests only.  Every
operation must agree with it, and every result must be in canonical form,
so that equal values built by different routes compare and hash equal.

The dot-product kernels ``lp_dot``/``xp_dot`` are also checked against the
pairwise loops they replaced (a reduced partial sum after every product),
which are kept here as oracles.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from degenpoly.algebra import LambdaPoly, XPoly, _poly_str, as_lambda_poly, lp_dot, xp_dot
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
    assert LambdaPoly([Fraction(v) for v in coeffs]) == poly
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
    assert pa.eval(Fraction(lam)) == value


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
    half = LambdaPoly([Fraction(1, 2)])
    assert half * 2 == LambdaPoly.one() == LambdaPoly((1,))
    assert hash(half * 2) == hash(LambdaPoly.one())
    assert (half * 2)._d == 1
    assert LambdaPoly((Fraction(1, 2), Fraction(1, 3))) * 6 == LambdaPoly((3, 2))
    assert LambdaPoly((Fraction(1, 6), 0, 0)) + LambdaPoly((Fraction(-1, 6),)) == LambdaPoly.zero()


@given(scalars, st.sampled_from([
    (LambdaPoly.const, 0),
    (XPoly.const, 0),
    (XPoly.const, 2),  # the x-constant s + 2λ, which is not constant in λ
]))
def test_constants_compare_with_scalars(s, case):
    const, lam = case
    value = LambdaPoly((s, lam)) if lam else s
    poly = const(value)
    # the constant of an x-polynomial is a λ-polynomial, that of a λ-polynomial a scalar
    assert poly.constant_value() == (as_lambda_poly(value) if isinstance(poly, XPoly) else value)
    assert bool(poly) == bool(value)
    # a polynomial equals only a polynomial of its own type
    same = type(poly)([value])
    assert poly != value and value not in {poly}
    assert poly == same and hash(poly) == hash(same)
    assert poly != type(poly)([value + 1])


def int_product(a, b):
    """The former ``LambdaPoly.__mul__``: an int convolution over the product
    of the denominators, canonicalised by the constructor."""
    if not a or not b:
        return LambdaPoly.zero()
    out = [0] * (len(a._n) + len(b._n) - 1)
    for i, x in enumerate(a._n):
        for j, y in enumerate(b._n):
            out[i + j] += x * y
    return LambdaPoly([Fraction(c, a._d * b._d) for c in out])


def pairwise_dot(pairs):
    """The loop ``lp_dot`` replaced: acc = acc + a*b, skipping zero terms."""
    acc = LambdaPoly.zero()
    for a, b in pairs:
        if a and b:
            acc = acc + int_product(a, b)
    return acc


def pairwise_xmul(p, q):
    """The former ``XPoly.__mul__``: pairwise sums of λ-products per power of x."""
    if not p or not q:
        return XPoly()
    out = [LambdaPoly.zero()] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + int_product(a, b)
    return XPoly(out)


def pairwise_xdot(pairs):
    """The loop ``xp_dot`` replaced: acc = acc + p*c over x-polynomials."""
    acc = XPoly()
    for p, c in pairs:
        acc = acc + XPoly([int_product(a, c) for a in p.coeffs])
    return acc


# mixed denominators (a common one, coprime ones, 1/720-style factorials),
# big numerators and zero coefficients
dot_scalars = st.one_of(
    small_ints, big_ints, fractions, st.just(0),
    st.builds(Fraction, small_ints, st.sampled_from([2, 3, 6, 7, 720, 2**61 - 1])),
)
dot_polys = st.lists(dot_scalars, max_size=6)
dot_pairs = st.lists(st.tuples(dot_polys, dot_polys), max_size=7)


def lp_pairs(raw):
    return [(LambdaPoly(a), LambdaPoly(b)) for a, b in raw]


def ref_dot(raw):
    acc = RefPoly([])
    for a, b in raw:
        acc = acc + RefPoly(a) * RefPoly(b)
    return acc


@given(dot_pairs, st.booleans())
def test_lp_dot_matches_reference_and_pairwise_loop(raw, cancel):
    if cancel:
        # the same terms again with a negated left factor: the sum is zero
        raw = raw + [([-Fraction(c) for c in a], b) for a, b in raw]
    pairs = lp_pairs(raw)
    result = lp_dot(pairs)
    assert_matches(result, ref_dot(raw))
    expected = pairwise_dot(pairs)
    assert (result._n, result._d) == (expected._n, expected._d)
    assert lp_dot(iter(pairs)) == result
    if cancel or not result:
        assert result is LambdaPoly.zero()


def test_lp_dot_of_no_pairs_is_zero():
    assert lp_dot([]) is LambdaPoly.zero()
    assert lp_dot([(LambdaPoly.zero(), LambdaPoly.one())]) is LambdaPoly.zero()
    half, third = LambdaPoly([Fraction(1, 2)]), LambdaPoly([Fraction(1, 3)])
    assert lp_dot([(half, half), (third, third)]) == LambdaPoly([Fraction(13, 36)])


x_polys = st.lists(dot_polys, max_size=4).map(
    lambda cs: XPoly([LambdaPoly(c) for c in cs]))


@given(x_polys, x_polys)
def test_xpoly_product_matches_pairwise_product(p, q):
    product = p * q
    assert product == pairwise_xmul(p, q)
    assert not product.coeffs or product.coeffs[-1]


@given(st.lists(st.tuples(x_polys, dot_polys.map(LambdaPoly)), max_size=5))
def test_xp_dot_matches_pairwise_loop(pairs):
    result = xp_dot(pairs)
    assert result == pairwise_xdot(pairs)
    assert not result.coeffs or result.coeffs[-1]
    for c in result.coeffs:
        assert c._d > 0 and gcd(c._d, *c._n) == 1 if c else c._d == 1
