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
in O(N²) ring operations, with no Horner composition; so are the inner
series, each a workspace entry of ``series.DELTA_MAPS`` (the delta series of
``triangles.Workspace.delta``, or the doubled map of ``Workspace.doubled``).
Family polynomials are monic of exact degree n in x with a λ-free leading
coefficient, which the builders verify.  Every kind sits in the one
``FAMILIES`` table: the triangle it sums and the inner series of its
generating function.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .algebra import LambdaPoly, XPoly, falling_products
from .triangles import (
    RouteMismatchError,
    Workspace as TriangleWorkspace,
    row_sums,
    rows_mismatch,
)
from .series import Series, deg_exp_coeffs


def _sum_route(rows):
    """polys[n] = sum over k of rows[n][k] * x(x-λ)...(x-(k-1)λ)."""
    return row_sums(rows, falling_products(XPoly.var(), -LambdaPoly.var(), len(rows) - 1))


def _egf_route(inner: Series):
    """polys[n] = n! [t^n] e_λ^x(inner(t)) for n up to inner's order, read
    from the differential equation of e_λ^x (``deg_exp_coeffs`` with the
    exponent x), which uses only inner's coefficients.

    This route reads no power of inner, so it stays independent of the sum
    route, whose triangle is built from powers of inner itself (through
    ``egf_triangle_rows``) for degbell, jindalrae and gaenari.  Expanding
    e_λ^x(inner) as the sum over k of (x)_{k,λ} inner^k / k! would not be a
    second route: for those kinds that is
    ``row_sums(egf_triangle_rows(inner), fall)``, the sum route itself.
    """
    coeffs = deg_exp_coeffs(XPoly.var(), inner)
    return [c * factorial(n) for n, c in enumerate(coeffs)]


def _validated(kind: str, sum_polys, egf_polys) -> tuple:
    """The members of sum_polys as a tuple, once they agree with egf_polys
    and each is monic of exact degree n in x."""
    bad = rows_mismatch((sum_polys,), (egf_polys,))
    if bad is not None:
        _, n, a, b = bad
        raise RouteMismatchError(f"{kind} routes disagree at n={n}: sum {a} vs series {b}")
    for n, p in enumerate(sum_polys):
        lead = p.coeff(n).constant_value()
        if p.degree != n or lead != 1:
            raise RouteMismatchError(
                f"{kind} P_{n} is not monic of degree {n} in x: {p}"
            )
    return tuple(sum_polys)


class FamilyKind(NamedTuple):
    triangle: str   # the triangle kind summed against the deformed falling basis
    inner: object   # workspace -> the inner series of the generating function


# The one table of family kinds.  Every inner series is a workspace delta
# series or doubled map, shared with the triangle routes.
FAMILIES = {
    "degbell": FamilyKind("s2deg", lambda ws: ws.delta("exp")),
    "newbell": FamilyKind("s2", lambda ws: ws.delta("classical")),
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
                _sum_route(self.tri(spec.triangle)),
                _egf_route(spec.inner(self)),
            )
        return self._get(("family_routes", kind), build)

    def family(self, kind: str) -> tuple:
        """A family kind's validated members P_0..P_order, as ``XPoly``."""
        return self._get(("family", kind), lambda: _validated(
            kind, *self.family_routes(kind)))


def build_family(kind: str, order: int) -> tuple:
    if kind not in FAMILIES:
        raise ValueError(f"unknown polynomial family {kind!r}")
    return Workspace(order).family(kind)


__all__ = [
    "FAMILIES",
    "FAMILY_KINDS",
    "build_family",
]
