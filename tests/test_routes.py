"""The dual-route contract, per kind: one wrong entry in either route of any
triangle or family kind raises RouteMismatchError naming that kind.

Each test perturbs a route through the kind tables, the one place the
builders, the CLI and the identity suite read their kinds from.
"""

import pytest

from degenpoly.algebra import LambdaPoly
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


@pytest.mark.parametrize("route", [0, 1])
@pytest.mark.parametrize("kind", TRIANGLE_KINDS)
def test_a_wrong_triangle_entry_names_the_kind(monkeypatch, kind, route):
    spec = TRIANGLES[kind]

    def routes(ws):
        pair = list(spec.routes(ws))
        pair[route] = _bumped(pair[route])
        return tuple(pair)

    monkeypatch.setitem(TRIANGLES, kind, spec._replace(routes=routes))
    message = rf"^{kind} routes disagree at \(n=2, k=1\)"
    with pytest.raises(RouteMismatchError, match=message):
        build_triangle(kind, ORDER)


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

    def inner(order):
        coeffs = list(spec.inner(order).coeffs)
        coeffs[3] = coeffs[3] + LambdaPoly.one()
        return Series(LambdaPoly, coeffs)

    monkeypatch.setitem(FAMILIES, kind, spec._replace(inner=inner))
    with pytest.raises(RouteMismatchError, match=rf"^{kind} routes disagree at n=3:"):
        build_family(kind, ORDER)


def test_unknown_triangle_kind():
    with pytest.raises(ValueError):
        build_triangle("nope", 3)
