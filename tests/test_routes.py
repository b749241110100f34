"""The dual-route contract, per kind: one wrong entry in either route of any
triangle or family kind raises RouteMismatchError naming that kind.

Each test perturbs a route through the kind tables, the one place the
builders, the CLI and the identity suite read their kinds from, except the
extra-term case, which wraps the family series route itself.
"""

import pytest

from degenpoly import families
from degenpoly.algebra import LambdaPoly, XPoly
from degenpoly.families import FAMILIES, FAMILY_KINDS, build_family
from degenpoly.series import Series
from degenpoly.triangles import (
    SLICE_KINDS,
    SLICES,
    TRIANGLE_KINDS,
    TRIANGLES,
    RouteMismatchError,
    build_triangle,
)

ORDER = 5


def test_kind_tuples_are_the_table_keys():
    assert TRIANGLE_KINDS == tuple(TRIANGLES)
    assert FAMILY_KINDS == tuple(FAMILIES)
    assert SLICE_KINDS == tuple(SLICES)


def _bumped(rows, n=2, k=1):
    """A copy of triangular rows with entry (n, k) increased by one."""
    rows = [list(row) for row in rows]
    rows[n][k] = rows[n][k] + LambdaPoly.one()
    return rows


def _bump_route(monkeypatch, kind, route, n):
    """Make entry (n, 1) of one route of a triangle kind wrong."""
    spec = TRIANGLES[kind]

    def routes(ws):
        pair = list(spec.routes(ws))
        pair[route] = _bumped(pair[route], n=n)
        return tuple(pair)

    monkeypatch.setitem(TRIANGLES, kind, spec._replace(routes=routes))


@pytest.mark.parametrize("route", [0, 1])
@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_a_wrong_triangle_entry_names_the_kind(monkeypatch, kind, route):
    _bump_route(monkeypatch, kind, route, n=2)
    message = rf"^{kind} routes disagree at \(n=2, k=1\)"
    with pytest.raises(RouteMismatchError, match=message):
        build_triangle(kind, ORDER)


# Both routes of these kinds reach every row.  s2 is left out: its partition
# enumeration route stops at row 10.
@pytest.mark.parametrize("route", [0, 1])
@pytest.mark.parametrize("kind", ["t", "s1"])
def test_a_wrong_entry_in_the_last_row_names_the_kind(monkeypatch, kind, route):
    order = 12
    _bump_route(monkeypatch, kind, route, n=order)
    message = rf"^{kind} routes disagree at \(n={order}, k=1\)"
    with pytest.raises(RouteMismatchError, match=message):
        build_triangle(kind, order)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_wrong_family_sum_names_the_kind(monkeypatch, kind):
    # the family sums a copy of its triangle with one entry changed in both
    # routes, so the triangle itself still validates
    spec = FAMILIES[kind]
    source = TRIANGLES[spec.triangle]

    def routes(ws):
        return tuple(_bumped(rows) for rows in source.routes(ws))

    monkeypatch.setitem(TRIANGLES, "bumped", source._replace(routes=routes))
    monkeypatch.setitem(FAMILIES, kind, spec._replace(triangle="bumped"))
    with pytest.raises(RouteMismatchError, match=rf"^{kind} routes disagree at n=2:"):
        build_family(kind, ORDER)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_a_wrong_family_series_names_the_kind(monkeypatch, kind):
    spec = FAMILIES[kind]

    def inner(ws):
        coeffs = list(spec.inner(ws).coeffs)
        coeffs[3] = coeffs[3] + LambdaPoly.one()
        return Series(coeffs)

    monkeypatch.setitem(FAMILIES, kind, spec._replace(inner=inner))
    with pytest.raises(RouteMismatchError, match=rf"^{kind} routes disagree at n=3:"):
        build_family(kind, ORDER)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_an_extra_family_term_names_the_kind(monkeypatch, kind):
    # members are compared as whole x-polynomials, so a term above a member's
    # degree is caught like a wrong coefficient
    egf_route = families._egf_route

    def route(inner):
        polys = egf_route(inner)
        polys[2] = polys[2] + XPoly([0, 0, 0, 1])
        return polys

    monkeypatch.setattr(families, "_egf_route", route)
    with pytest.raises(RouteMismatchError, match=rf"^{kind} routes disagree at n=2:"):
        build_family(kind, ORDER)


def test_unknown_triangle_kind():
    with pytest.raises(ValueError):
        build_triangle("nope", 3)
