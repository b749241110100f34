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
inverse facts test exactly that: ``inverse_pair`` predicts that pair, the
sequence built from it has the inverse of its Riordan array as matrix, and
that matrix's product with s's is the identity only if s's matrix is that
array.

Umbral composition of two sequences is the product of their coefficient
matrices, and the m-fold power of a sequence the m-th power of its matrix:
``umbral_compose`` and ``umbral_power`` return those matrices and build no
pair.  The eq56, eq60, eq66 and cor15 checks read only these matrices; the
suite's workspace builds each power once, for them and thm14's power pairs.

The group law on pairs is a separate statement: ``compose_pair``,
``power_pair`` and ``inverse_pair`` predict the (g, f) pair of a
composition, of an m-fold power and of the inverse, and only the thm14 check
reads them.  It regenerates each distinct predicted pair once with
``sheffer_from_pair`` and compares the matrix with the matrix product.

A sequence owns the two series maps its predictions read, each built on
first use and then kept: ``of_f``, the substitution outer -> outer(f), and
``fbar``, the compositional inverse of f.  ``compose_pair(q, p)`` reads
p's map, ``power_pair`` and ``inverse_pair`` the sequence's own, and
``corollary15_rhs`` r's fbar.  The power pair is m - 1 group-law steps
r^i = r^(i-1)∘r: with r's pair (h, ℓ) each maps (g, f) to (h·g(ℓ), f(ℓ)),
which gives (h^m, t) for Appell and (1, ℓ^m) for associated sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    # Built on first use and kept on the instance: neither is a field, so
    # equality and hashing see only the pair, the order and the matrix.
    @cached_property
    def of_f(self):
        """The map outer -> outer(f), for the group law's pair predictions."""
        return substitution(self.f)

    @cached_property
    def fbar(self) -> Series:
        """The compositional inverse of f."""
        return comp_inverse(self.f)


def sheffer_from_pair(g: Series, f: Series) -> ShefferSeq:
    """Build the sequence for an invertible/delta pair, to the lower of the
    two orders, from its defining orthogonality: the matrix is the inverse
    of R = ``egf_triangle_rows(f, g)``, so M[n][n] = 1/R[n][n] and, for
    k < n, M[n][k] = M[n][n]·Σ_{m=k}^{n-1} (-R[n][m])·M[m][k], one ``lp_dot``
    each.  That it equals n!/k! [t^n] (1/g(fbar)) fbar^k, the generating
    identity, is what thm14's inverse facts check."""
    order = min(g.order, f.order)
    if order < 1:
        raise ValueError("sequence order must be >= 1 (the delta series needs a linear term)")
    if unit_scalar(g.coeffs[0]) is None:
        raise ValueError(f"g is not invertible: constant term {g.coeffs[0]}")
    if f.coeffs[0] or unit_scalar(f.coeffs[1]) is None:
        raise ValueError(
            f"f is not a delta series with invertible linear term "
            f"(constant {f.coeffs[0]}, linear {f.coeffs[1]})"
        )
    g, f = g.truncate(order), f.truncate(order)
    riordan = egf_triangle_rows(f, g)
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
    seq = sheffer_from_pair(Series.one(order), Series(coeffs))
    for n, fall in enumerate(falling_products(XPoly.var(), -LambdaPoly.var(), order)):
        if XPoly(seq.matrix[n]) != fall:
            raise RouteMismatchError(
                f"deformed falling sequence disagrees with the direct product at n={n}"
            )
    return seq


def _appell_sequence(order: int) -> ShefferSeq:
    """The Appell sequence of the pair (t/(e_λ(t) - 1), t)."""
    g = mul_inverse(DELTA_MAPS["exp"](order + 1).shift_down())
    return sheffer_from_pair(g, Series.identity(order))


# The one table of Sheffer sequences: name -> order -> ShefferSeq.  "ident" is
# the group identity x^n, pair (1, t).  "s2" is the associated sequence of the
# deformed logarithm, whose matrix is the degenerate second-kind triangle;
# "s1" that of the deformed exponential minus one, whose matrix is the
# degenerate first-kind triangle.  Entries look up ``sheffer_from_pair`` as a
# module global when called, so a wrapper installed on the module sees them.
SEQUENCES = {
    "ident": lambda order: sheffer_from_pair(Series.one(order), Series.identity(order)),
    "s2": lambda order: sheffer_from_pair(Series.one(order), DELTA_MAPS["log"](order)),
    "s1": lambda order: sheffer_from_pair(Series.one(order), DELTA_MAPS["exp"](order)),
    "fall": _falling_sequence,
    "appell": _appell_sequence,
}


def umbral_compose(q: ShefferSeq, p: ShefferSeq) -> tuple:
    """The coefficient matrix of q∘p (p's polynomials substituted into q's
    coefficient expansion): the product of q's and p's matrices."""
    if q.order != p.order:
        raise ValueError(f"order mismatch: {q.order} vs {p.order}")
    return tuple(tuple(row) for row in convolution_rows(q.matrix, p.matrix))


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
    return p.g * p.of_f(q.g), p.of_f(q.f)


def power_pair(r: ShefferSeq, m: int):
    """The pair of the m-fold umbral power: m - 1 group-law steps
    (g, f) -> (r.g·g(ℓ), f(ℓ)) through r's one substitution of ℓ = r.f."""
    if m < 1:
        raise ValueError("umbral power needs m >= 1")
    of_ell = r.of_f
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


def inverse_pair(s: ShefferSeq):
    """The pair of s's umbral-composition inverse: (1/g(fbar), fbar), fbar
    the compositional inverse of f; for g = 1 the first member is 1 and
    nothing is composed."""
    one = Series.one(s.g.order)
    return (one if s.g == one else mul_inverse(compose(s.g, s.fbar))), s.fbar


def corollary15_rhs(r: ShefferSeq, s: ShefferSeq, m: int):
    """Corollary 15's right side at t^0..t^N, N the lower of the two
    sequences' orders, as EGF rows: s's generating series with ℓbar, the
    m-fold compositional power of the inverse of r's delta series,
    substituted.  It is one Riordan product: n!·[x^k][t^n] of it is
    Σⱼ n!/j!·[t^n] ℓbarʲ·s[j][k], row n of the product of ℓbar's
    ``egf_triangle_rows`` with s's matrix.  The left side, r^m∘s's
    generating series, has the rows of the matrix ``umbral_power(r, m)``·s."""
    if r.g != Series.one(r.g.order):
        raise ValueError("r must be an associated sequence (unit invertible part)")
    if m < 1:
        raise ValueError("m must be >= 1")
    order = min(r.order, s.order)
    ell_bar = compositional_power(r.fbar.truncate(order), m)
    return convolution_rows(egf_triangle_rows(ell_bar), s.matrix)
