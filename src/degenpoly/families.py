"""Polynomial families in x: the deformed Bell polynomials, the new-type
variant built on the classical second-kind triangle, and the two families
generated by the doubly-iterated deformed maps.

Each family is produced two ways -- the explicit sum over a triangle against
the deformed falling basis, and coefficient extraction from its generating
series -- and the two are compared term by term (RouteMismatchError on any
disagreement).  Family polynomials are monic of exact degree n in x with a
λ-free leading coefficient, which the builders verify.  Every kind sits in
the one ``FAMILIES`` table: the triangle it sums and the inner series of its
generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import XPoly, deg_falling_factorial
from .oracles import bell_number_classical
from .triangles import RouteMismatchError, Workspace as TriangleWorkspace
from .series import Series, classical_exp, compose, deg_exp, deg_log


@dataclass(frozen=True)
class PolyFamily:
    kind: str
    order: int
    polys: tuple

    def poly(self, n: int) -> XPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"index {n} beyond stored order {self.order}")
        return self.polys[n]


def _sum_route(rows, order: int):
    """polys[n] = sum over k of rows[n][k] * x(x-λ)...(x-(k-1)λ)."""
    basis = [deg_falling_factorial(k) for k in range(order + 1)]
    polys = []
    for n in range(order + 1):
        acc = XPoly.zero()
        for k in range(n + 1):
            c = rows[n][k]
            if c:
                acc = acc + basis[k] * c
        polys.append(acc)
    return polys


def _egf_route(inner: Series, order: int):
    """polys[n] = n! [t^n] of the deformed exponential of x composed with inner."""
    outer = deg_exp(XPoly.var(), order)
    series = compose(outer, inner.truncate(order).lift())
    return [series.egf_coeff(n) for n in range(order + 1)]


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


def _doubled(delta: Series) -> Series:
    """The delta series composed with itself."""
    return compose(delta, delta)


class FamilyKind(NamedTuple):
    triangle: str   # the triangle kind summed against the deformed falling basis
    inner: object   # order -> the inner series of the generating function


# The one table of family kinds; the inner series look up the series layer as
# module globals when called, so a wrapper installed on the module sees them.
FAMILIES = {
    "degbell": FamilyKind("s2deg", lambda order: deg_exp(1, order) - 1),
    "newbell": FamilyKind("s2", lambda order: classical_exp(order) - 1),
    "jindalrae": FamilyKind("j2deg", lambda order: _doubled(deg_exp(1, order) - 1)),
    "gaenari": FamilyKind("j1deg", lambda order: _doubled(deg_log(order))),
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
                _egf_route(spec.inner(self.order), self.order),
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
