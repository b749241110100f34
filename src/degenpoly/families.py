"""Polynomial families in x: the deformed Bell polynomials, the new-type
variant built on the classical second-kind triangle, and the two families
generated by the doubly-iterated deformed maps.

Each family is produced two ways -- the explicit sum over a triangle against
the deformed falling basis, and coefficient extraction from its generating
series -- and the two are compared term by term (RouteMismatchError on any
disagreement).  Every generating series is e_λ^x(u(t)) = (1 + λu)^(x/λ) of
an inner delta series u, and is read coefficient by coefficient from its
differential equation (1 + λu)·F' = x·u'·F (Miller's recurrence for powers
of a series, Knuth, TAOCP vol. 2, §4.7; Stanley, Eur. J. Combin. 1, 1980)
in O(N²) ring operations, with no Horner composition.  Family polynomials
are monic of exact degree n in x with a λ-free leading coefficient, which
the builders verify.  Every kind sits in
the one ``FAMILIES`` table: the triangle it sums and the inner series of its
generating function.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .algebra import XPoly, deg_falling_factorial
from .oracles import bell_number_classical
from .triangles import (
    FrozenValue,
    RouteMismatchError,
    Workspace as TriangleWorkspace,
    row_sums,
)
from .series import Series, classical_exp, deg_exp_coeffs


class PolyFamily(FrozenValue):
    """Members polys[n] (x-polynomials) of a family for 0 <= n <= order."""

    __slots__ = ("kind", "order", "polys")

    def __init__(self, kind: str, order: int, polys: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "polys", polys)

    def poly(self, n: int) -> XPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"index {n} beyond stored order {self.order}")
        return self.polys[n]


def _sum_route(rows, order: int):
    """polys[n] = sum over k of rows[n][k] * x(x-λ)...(x-(k-1)λ)."""
    return row_sums(rows, [deg_falling_factorial(k) for k in range(order + 1)], order)


def _egf_route(inner: Series, order: int):
    """polys[n] = n! [t^n] e_λ^x(inner(t)), read from the differential
    equation of e_λ^x (``deg_exp_coeffs`` with the exponent x), which uses
    only inner's coefficients.

    This route reads no power of inner, so it stays independent of the sum
    route, whose triangle is built from powers of inner itself (through
    ``egf_triangle_rows``) for degbell, jindalrae and gaenari.  Expanding
    e_λ^x(inner) as the sum over k of (x)_{k,λ} inner^k / k! would not be a
    second route: for those kinds that is
    ``row_sums(egf_triangle_rows(inner), fall)``, the sum route itself.
    """
    coeffs = deg_exp_coeffs(XPoly.var(), order, inner)
    return [c * factorial(n) for n, c in enumerate(coeffs)]


def _validated(kind: str, order: int, sum_polys, egf_polys) -> PolyFamily:
    for n, (a, b) in enumerate(zip(sum_polys, egf_polys)):
        if a != b:
            raise RouteMismatchError(
                f"{kind} routes disagree at n={n}: sum {a} vs series {b}"
            )
    for n, p in enumerate(sum_polys):
        lead = p.coeff(n).constant_value()
        if p.degree != n or lead != 1:
            raise RouteMismatchError(
                f"{kind} P_{n} is not monic of degree {n} in x: {p}"
            )
    return PolyFamily(kind, order, tuple(sum_polys))


class FamilyKind(NamedTuple):
    triangle: str   # the triangle kind summed against the deformed falling basis
    inner: object   # workspace -> the inner series of the generating function


# The one table of family kinds.  The inner series of the deformed kinds are
# the workspace's delta series, shared with the triangle routes; the others
# look up the series layer as module globals when called, so a wrapper
# installed on the module sees them.
FAMILIES = {
    "degbell": FamilyKind("s2deg", lambda ws: ws.delta("exp")),
    "newbell": FamilyKind("s2", lambda ws: classical_exp(ws.order) - 1),
    "jindalrae": FamilyKind("j2deg", lambda ws: ws.doubled("exp")),
    "gaenari": FamilyKind("j1deg", lambda ws: ws.doubled("log")),
}
FAMILY_KINDS = tuple(FAMILIES)


class Workspace(TriangleWorkspace):
    """A triangle workspace that also builds, and memoises, the families."""

    def family_routes(self, kind: str):
        """The triangle-sum and series routes of a family, unvalidated."""
        def build():
            spec = FAMILIES[kind]
            return (
                _sum_route(self.tri(spec.triangle).rows, self.order),
                _egf_route(spec.inner(self), self.order),
            )
        return self._get(("family_routes", kind), build)

    def family(self, kind: str) -> PolyFamily:
        return self._get(("family", kind), lambda: _validated(
            kind, self.order, *self.family_routes(kind)))


def build_family(kind: str, order: int) -> PolyFamily:
    if kind not in FAMILIES:
        raise ValueError(f"unknown polynomial family {kind!r}")
    return Workspace(order).family(kind)


def deg_bell(order: int) -> PolyFamily:
    """Deformed Bell polynomials."""
    return build_family("degbell", order)


def newtype_bell(order: int) -> PolyFamily:
    """New-type deformed Bell polynomials (classical second-kind weights)."""
    return build_family("newbell", order)


def jindalrae(order: int) -> PolyFamily:
    """Jindalrae polynomials (iterated second-kind weights)."""
    return build_family("jindalrae", order)


def gaenari(order: int) -> PolyFamily:
    """Gaenari polynomials (iterated first-kind weights)."""
    return build_family("gaenari", order)


__all__ = [
    "FAMILIES",
    "FAMILY_KINDS",
    "PolyFamily",
    "bell_number_classical",
    "build_family",
    "deg_bell",
    "gaenari",
    "jindalrae",
    "newtype_bell",
]
