"""Sheffer-sequence machinery: polynomial sequences attached to a pair of an
invertible series g and a delta series f.

A sequence is represented by its defining pair together with the
lower-triangular coefficient matrix of s_n(x) in the monomial basis, read off
from the defining orthogonality ⟨g(t) f(t)^k | s_n(x)⟩ = n! δ_{n,k} (Roman,
The Umbral Calculus, 1984, §2.3): the matrix is the inverse of the
exponential Riordan array R[n][k] = n!/k! [t^n] g(t) f(t)^k (Shapiro et al.,
Discrete Appl. Math. 34, 1991).  R's diagonal g(0)·f'(0)^n is a nonzero
scalar, so the inverse is one forward substitution over R's rows; no series
is inverted or composed.

The generating identity

    (1 / g(fbar(t))) * exp(x * fbar(t)) = sum of s_n(x) t^n / n!

where fbar is the compositional inverse of f, says that the same matrix is
the Riordan array of the inverse pair (1/g(fbar), fbar).  The thm14 check's
inverse facts test exactly that: ``group_inverse`` builds the sequence of
that pair, whose matrix is the inverse of its Riordan array, and its product
with s's matrix is the identity only if s's matrix is that array.

Umbral composition of two sequences is the product of their coefficient
matrices, and the m-fold power of a sequence the m-th power of its matrix:
``umbral_compose`` and ``umbral_power`` return those matrices and build no
pair.  The eq56, eq60, eq66 and cor15 checks read only these matrices.

The group law on pairs is a separate statement: ``compose_pair`` and
``power_pair`` predict the (g, f) pair of a composition and of an m-fold
power, and only the thm14 check reads them, regenerating each predicted pair
with ``sheffer_from_pair`` and comparing its matrix with the matrix product.

The power pair is m - 1 group-law steps r^i = r^(i-1)∘r: with r's pair
(h, ℓ) each maps (g, f) to (h·g(ℓ), f(ℓ)), all through one ``substitution``
of ℓ, which gives (h^m, t) for Appell and (1, ℓ^m) for associated sequences.
``group_inverse`` builds the sequence of the inverse pair (1/g(fbar), fbar).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .algebra import LambdaPoly, XPoly, falling_products, lp_dot
from .scalars import QONE
from .series import (
    DELTA_MAPS,
    Series,
    comp_inverse,
    compose,
    compositional_power,
    mul_inverse,
    substitution,
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


def sheffer_from_pair(g: Series, f: Series, order: int) -> ShefferSeq:
    """Build the sequence for an invertible/delta pair from its defining
    orthogonality: the matrix is the inverse of R = ``egf_triangle_rows(f,
    order, g)``, so M[n][n] = 1/R[n][n] and, for k < n,
    M[n][k] = M[n][n]·Σ_{m=k}^{n-1} (-R[n][m])·M[m][k], one ``lp_dot`` each.
    That it equals n!/k! [t^n] (1/g(fbar)) fbar^k, the generating identity,
    is what thm14's inverse facts check."""
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
    riordan = egf_triangle_rows(f, order, g)
    rows = []
    for n, r_row in enumerate(riordan):
        pivot = QONE / r_row[n].constant_value()
        negated = [-c for c in r_row[:n]]
        row = [lp_dot(zip(negated[k:], (rows[m][k] for m in range(k, n)))) * pivot
               for k in range(n)]
        row.append(LambdaPoly.const(pivot))
        rows.append(tuple(row))
    return ShefferSeq(g, f, order, tuple(rows))


def _falling_sequence(order: int) -> ShefferSeq:
    """The sequence x(x-λ)...(x-(n-1)λ), associated to the delta series with
    coefficients λ^(n-1)/n! (whose inverse substitution exponentiates to the
    deformed exponential).  The matrix read off from the pair is checked
    against the directly expanded products."""
    coeffs = [LambdaPoly.zero()]
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(LambdaPoly([0] * (n - 1) + [QONE / fact]))
    seq = sheffer_from_pair(Series.one(order), Series(coeffs), order)
    for n, fall in enumerate(falling_products(XPoly.var(), -LambdaPoly.var(), order)):
        if seq.poly(n) != fall:
            raise RouteMismatchError(
                f"deformed falling sequence disagrees with the direct product at n={n}"
            )
    return seq


def _appell_sequence(order: int) -> ShefferSeq:
    """The Appell sequence of the pair (t/(e_λ(t) - 1), t)."""
    g = mul_inverse(DELTA_MAPS["exp"](order + 1).shift_down())
    return sheffer_from_pair(g, Series.identity(order), order)


# The one table of Sheffer sequences: name -> order -> ShefferSeq.  "ident" is
# the group identity x^n, pair (1, t).  "s2" is the associated sequence of the
# deformed logarithm, whose matrix is the degenerate second-kind triangle;
# "s1" that of the deformed exponential minus one, whose matrix is the
# degenerate first-kind triangle.  Entries look up ``sheffer_from_pair`` as a
# module global when called, so a wrapper installed on the module sees them.
SEQUENCES = {
    "ident": lambda order: sheffer_from_pair(Series.one(order), Series.identity(order), order),
    "s2": lambda order: sheffer_from_pair(Series.one(order), DELTA_MAPS["log"](order), order),
    "s1": lambda order: sheffer_from_pair(Series.one(order), DELTA_MAPS["exp"](order), order),
    "fall": _falling_sequence,
    "appell": _appell_sequence,
}


def umbral_compose(q: ShefferSeq, p: ShefferSeq) -> tuple:
    """The coefficient matrix of q∘p (p's polynomials substituted into q's
    coefficient expansion): the product of q's and p's matrices."""
    return _composed(q.matrix, p)


def _composed(matrix, p: ShefferSeq) -> tuple:
    """The matrix product of a sequence's coefficient matrix and p's."""
    if len(matrix) != len(p.matrix):
        raise ValueError(f"order mismatch: {len(matrix) - 1} vs {p.order}")
    return tuple(tuple(row) for row in convolution_rows(matrix, p.matrix))


def umbral_power(r: ShefferSeq, m: int) -> tuple:
    """The coefficient matrix of the m-fold umbral power: r's matrix to the
    m-th power."""
    if m < 1:
        raise ValueError("umbral power needs m >= 1")
    matrix = r.matrix
    for _ in range(m - 1):
        matrix = convolution_rows(matrix, r.matrix)
    return tuple(tuple(row) for row in matrix)


def compose_pair(q: ShefferSeq, p: ShefferSeq):
    """The pair of q∘p by the group law: (p.g * q.g(p.f), q.f(p.f))."""
    of_pf = substitution(p.f)
    return p.g * of_pf(q.g), of_pf(q.f)


def power_pair(r: ShefferSeq, m: int):
    """The pair of the m-fold umbral power: m - 1 group-law steps
    (g, f) -> (r.g·g(ℓ), f(ℓ)) through one substitution of ℓ = r.f."""
    if m < 1:
        raise ValueError("umbral power needs m >= 1")
    of_ell = substitution(r.f)
    g, f = r.g, r.f
    for _ in range(m - 1):
        g, f = r.g * of_ell(g), of_ell(f)
    return g, f


def umbral_power_explicit_rows(r: ShefferSeq, m: int):
    """The m-fold power matrix as the explicit multi-index sum
    sum over (ℓ1..ℓ_{m-1}) of r[n][ℓ1] r[ℓ1][ℓ2] ... r[ℓ_{m-1}][k], over the
    chains n ≥ ℓ1 ≥ ... ≥ ℓ_{m-1} ≥ k only: every other index tuple has a
    factor above the diagonal, which is zero.  Each row keeps its chains'
    last index with the product of their first m - 1 factors, and each entry
    is one ``lp_dot``."""
    if m < 1:
        raise ValueError("umbral power needs m >= 1")
    a = r.matrix
    if m == 1:
        return a
    rows = []
    for n in range(len(a)):
        heads = list(enumerate(a[n]))
        for _ in range(m - 2):
            heads = [(j, term * a[i][j]) for i, term in heads for j in range(i + 1)]
        rows.append([lp_dot((term, a[i][k]) for i, term in heads if i >= k)
                     for k in range(n + 1)])
    return rows


def group_inverse(s: ShefferSeq) -> ShefferSeq:
    """The umbral-composition inverse: the sequence of s's inverse pair
    (1/g(fbar), fbar), fbar the compositional inverse of f; for g = 1 the
    first member is 1 and nothing is composed."""
    fbar = comp_inverse(s.f)
    one = Series.one(s.g.order)
    g = one if s.g == one else mul_inverse(compose(s.g, fbar))
    return sheffer_from_pair(g, fbar, s.order)


def squared_composed_polys(r: ShefferSeq, fall: ShefferSeq) -> tuple:
    """The polynomials of r²∘fall: the Jindalrae polynomials when r is the
    second-kind sequence and fall the deformed falling factorials, the
    Gaenari polynomials when r is the first-kind sequence."""
    return tuple(XPoly(row) for row in _composed(umbral_power(r, 2), fall))


def corollary15_sides(r: ShefferSeq, s: ShefferSeq, m: int, order: int):
    """The two series Corollary 15 equates, truncated at order (or at the
    sequences' order, if lower): the generating series of r^m∘s, and s's
    generating series with the m-fold compositional power ℓbar of the inverse
    of r's delta series substituted.  Returns the coefficient matrix of r^m∘s
    and the sides (lhs, rhs) as their coefficients of t^0..t^order, each a
    polynomial in x.

    The right-hand side is one Riordan product: [x^k][t^n] of it is
    Σⱼ s[j][k]/j!·[t^n] ℓbarʲ, row n of the product of ℓbar's
    ``egf_triangle_rows`` with s's matrix, scaled by 1/n!."""
    if r.g != Series.one(r.g.order):
        raise ValueError("r must be an associated sequence (unit invertible part)")
    if m < 1:
        raise ValueError("m must be >= 1")
    order = min(order, r.order, s.order)
    composed = _composed(umbral_power(r, m), s)
    lhs = [XPoly(row) * (QONE / factorial(n)) for n, row in enumerate(composed[:order + 1])]
    ell_bar = compositional_power(comp_inverse(r.f.truncate(order)), m)
    rows = convolution_rows(egf_triangle_rows(ell_bar, order), s.matrix[:order + 1])
    rhs = [XPoly(row) * (QONE / factorial(n)) for n, row in enumerate(rows)]
    return composed, lhs, rhs

