"""Sheffer-sequence machinery: polynomial sequences attached to a pair of an
invertible series g and a delta series f.

A sequence is represented by its defining pair together with the
lower-triangular coefficient matrix of s_n(x) in the monomial basis, read off
from the generating identity

    (1 / g(fbar(t))) * exp(x * fbar(t)) = sum of s_n(x) t^n / n!

where fbar is the compositional inverse of f.  The exponential is expanded as
sum of x^k fbar(t)^k / k!, so the whole construction happens over λ-polynomial
coefficients.

Umbral composition of two sequences is the matrix product of their coefficient
matrices; sequences form a group under it.  The group law predicts the pair of
a composition and of an m-fold power, and the identity suite cross-checks the
matrix arithmetic against sequences regenerated from those predicted pairs.

The power-pair formula: the m-fold power of a sequence with pair (h, ℓ) has
pair (h(t) h(ℓ(t)) ... h(ℓ^(m-1)(t)), ℓ^m(t)), where ℓ^i is the i-fold
compositional power.  (For associated sequences, h = 1, this is just
(1, ℓ^m).)  The product runs from i = 0: the composition rule applied to
r∘r forces the bare h(t) factor, as the Appell special case (h, t) -> (h^m, t)
confirms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct
from math import factorial

from .algebra import LambdaPoly, XPoly, deg_falling_factorial
from .families import PolyFamily, gaenari as _gaenari_direct, jindalrae as _jindalrae_direct
from .scalars import QONE
from .series import (
    Series,
    comp_inverse,
    compose,
    compositional_power,
    deg_exp,
    deg_log,
    mul_inverse,
    unit_scalar,
)
from .triangles import RouteMismatchError, convolution_rows, egf_triangle_rows


@dataclass(frozen=True)
class ShefferSeq:
    """A polynomial sequence with its defining (g, f) pair and coefficient
    matrix: s_n(x) = sum over k of matrix[n][k] x^k."""

    g: Series
    f: Series
    order: int
    matrix: tuple

    def poly(self, n: int) -> XPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"index {n} beyond stored order {self.order}")
        return XPoly(self.matrix[n])

    def polys(self):
        return tuple(XPoly(row) for row in self.matrix)

    def egf(self) -> Series:
        """The generating series: raw coefficient n is s_n(x)/n!."""
        return Series(
            XPoly,
            [XPoly(row) * (QONE / factorial(n)) for n, row in enumerate(self.matrix)],
        )

    def is_associated(self) -> bool:
        return self.g == Series.one(LambdaPoly, self.g.order)


def sheffer_from_pair(g: Series, f: Series, order: int) -> ShefferSeq:
    """Build the sequence for an invertible/delta pair via its generating
    identity: matrix[n][k] = n!/k! [t^n] (1/g(fbar)) fbar^k."""
    if g.ring is not LambdaPoly or f.ring is not LambdaPoly:
        raise ValueError("pair series must have λ-polynomial coefficients")
    if order < 1:
        raise ValueError("sequence order must be >= 1 (the delta series needs a linear term)")
    if g.order < order or f.order < order:
        raise ValueError(
            f"pair series truncated below the requested order {order} "
            f"(g: {g.order}, f: {f.order})"
        )
    if unit_scalar(g.coeffs[0]) is None:
        raise ValueError(f"g is not invertible: constant term {g.coeffs[0]}")
    if f.coeffs[0] or unit_scalar(f.coeffs[1]) is None:
        raise ValueError(
            f"f is not a delta series with invertible linear term "
            f"(constant {f.coeffs[0]}, linear {f.coeffs[1]})"
        )
    g = g.truncate(order)
    f = f.truncate(order)
    fbar = comp_inverse(f)
    prefactor = None if g == Series.one(LambdaPoly, order) else mul_inverse(compose(g, fbar))
    rows = egf_triangle_rows(fbar, order, prefactor)
    for n in range(order + 1):
        if not rows[n][n]:
            raise RouteMismatchError(f"degenerate pair: zero diagonal entry at n={n}")
    return ShefferSeq(g, f, order, tuple(tuple(row) for row in rows))


def identity_sheffer(order: int) -> ShefferSeq:
    """The group identity: s_n(x) = x^n, pair (1, t)."""
    return sheffer_from_pair(
        Series.one(LambdaPoly, order), Series.identity(LambdaPoly, order), order
    )


def stirling2_sequence(order: int) -> ShefferSeq:
    """Associated sequence of the deformed logarithm; its matrix is the
    degenerate second-kind triangle."""
    return sheffer_from_pair(Series.one(LambdaPoly, order), deg_log(order), order)


def stirling1_sequence(order: int) -> ShefferSeq:
    """Associated sequence of the deformed exponential minus one; its matrix
    is the degenerate first-kind triangle."""
    return sheffer_from_pair(
        Series.one(LambdaPoly, order), deg_exp(1, order) - 1, order
    )


def falling_factorial_sequence(order: int) -> ShefferSeq:
    """The sequence x(x-λ)...(x-(n-1)λ), associated to the delta series with
    coefficients λ^(n-1)/n! (whose inverse substitution exponentiates to the
    deformed exponential).  The matrix read off from the pair is checked
    against the directly expanded products."""
    coeffs = [LambdaPoly.zero()]
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(LambdaPoly([0] * (n - 1) + [QONE / fact]))
    seq = sheffer_from_pair(
        Series.one(LambdaPoly, order), Series(LambdaPoly, coeffs), order
    )
    for n in range(order + 1):
        if seq.poly(n) != deg_falling_factorial(n):
            raise RouteMismatchError(
                f"deformed falling sequence disagrees with the direct product at n={n}"
            )
    return seq


def umbral_compose(q: ShefferSeq, p: ShefferSeq) -> ShefferSeq:
    """q∘p: substitute p's polynomials into q's coefficient expansion.

    The matrix is the product of the coefficient matrices; the pair follows
    the group law (p.g * q.g(p.f), q.f(p.f))."""
    if q.order != p.order:
        raise ValueError(f"order mismatch: {q.order} vs {p.order}")
    matrix = convolution_rows(q.matrix, p.matrix)
    new_g = p.g * compose(q.g, p.f)
    new_f = compose(q.f, p.f)
    return ShefferSeq(new_g, new_f, q.order, tuple(tuple(row) for row in matrix))


def umbral_power(r: ShefferSeq, m: int) -> ShefferSeq:
    """m-fold umbral power: m-th matrix power, pair per the group law."""
    if m < 1:
        raise ValueError("umbral power needs m >= 1")
    if m == 1:
        return r
    matrix = r.matrix
    for _ in range(m - 1):
        matrix = convolution_rows(matrix, r.matrix)
    one = Series.one(LambdaPoly, r.order)
    if r.g == one:
        new_g = one
    else:
        new_g = r.g
        ell_i = None
        for _ in range(1, m):
            ell_i = r.f if ell_i is None else compose(ell_i, r.f)
            new_g = new_g * compose(r.g, ell_i)
    new_f = compositional_power(r.f, m)
    return ShefferSeq(new_g, new_f, r.order, tuple(tuple(row) for row in matrix))


def umbral_power_explicit_rows(r: ShefferSeq, m: int):
    """The m-fold power matrix as the explicit multi-index sum
    sum over (ℓ1..ℓ_{m-1}) of r[n][ℓ1] r[ℓ1][ℓ2] ... r[ℓ_{m-1}][k]."""
    if m < 1:
        raise ValueError("umbral power needs m >= 1")
    if m == 1:
        return r.matrix
    zero = LambdaPoly.zero()
    n_max = r.order
    rows = []

    def entry(i, j):
        return r.matrix[i][j] if j <= i else zero

    for n in range(n_max + 1):
        row = []
        for k in range(n + 1):
            acc = zero
            for mids in _iterproduct(range(n + 1), repeat=m - 1):
                chain = (n,) + mids + (k,)
                term = None
                for a, b in zip(chain, chain[1:]):
                    e = entry(a, b)
                    if not e:
                        term = None
                        break
                    term = e if term is None else term * e
                if term is not None:
                    acc = acc + term
            row.append(acc)
        rows.append(row)
    return rows


def group_inverse(s: ShefferSeq) -> ShefferSeq:
    """The umbral-composition inverse: pair (g(fbar)^(-1), fbar)."""
    fbar = comp_inverse(s.f)
    h = mul_inverse(compose(s.g, fbar))
    return sheffer_from_pair(h, fbar, s.order)


def jindalrae_via_umbral(order: int, direct: PolyFamily | None = None) -> PolyFamily:
    """Jindalrae polynomials as the squared second-kind sequence composed with
    the deformed falling factorials; must match the direct construction."""
    return _family_via_umbral(
        "jindalrae", stirling2_sequence(order), order,
        direct if direct is not None else _jindalrae_direct(order),
    )


def gaenari_via_umbral(order: int, direct: PolyFamily | None = None) -> PolyFamily:
    """Gaenari polynomials as the squared first-kind sequence composed with
    the deformed falling factorials; must match the direct construction."""
    return _family_via_umbral(
        "gaenari", stirling1_sequence(order), order,
        direct if direct is not None else _gaenari_direct(order),
    )


def _family_via_umbral(kind: str, r: ShefferSeq, order: int, direct: PolyFamily) -> PolyFamily:
    polys = squared_composed_polys(r, falling_factorial_sequence(order))
    for n in range(order + 1):
        if polys[n] != direct.poly(n):
            raise RouteMismatchError(
                f"{kind} umbral route disagrees with the direct route at n={n}: "
                f"{polys[n]} vs {direct.poly(n)}"
            )
    return PolyFamily(kind, order, polys)


def squared_composed_polys(r: ShefferSeq, fall: ShefferSeq) -> tuple:
    """The polynomials of r²∘fall: the Jindalrae polynomials when r is the
    second-kind sequence and fall the deformed falling factorials, the
    Gaenari polynomials when r is the first-kind sequence."""
    return umbral_compose(umbral_power(r, 2), fall).polys()


def corollary15_sides(r: ShefferSeq, s: ShefferSeq, m: int, order: int):
    """The two series Corollary 15 equates, truncated at order (or at the
    sequences' order, if lower): the generating series of r^m∘s, and s's
    generating series with the m-fold compositional power of the inverse of
    r's delta series substituted.  Returns (r^m∘s, lhs, rhs)."""
    if not r.is_associated():
        raise ValueError("r must be an associated sequence (unit invertible part)")
    if m < 1:
        raise ValueError("m must be >= 1")
    order = min(order, r.order, s.order)
    composed = umbral_compose(umbral_power(r, m), s)
    lhs = composed.egf().truncate(order)
    ell_bar = compositional_power(comp_inverse(r.f.truncate(order)), m)
    rhs = compose(s.egf().truncate(order), ell_bar.lift())
    return composed, lhs, rhs


def corollary15_check(r: ShefferSeq, s: ShefferSeq, m: int, order: int) -> bool:
    """Verify that composing with the m-fold power of an associated sequence r
    substitutes the m-fold inverse of r's delta series into s's generating
    series."""
    _, lhs, rhs = corollary15_sides(r, s, m, order)
    return lhs == rhs
