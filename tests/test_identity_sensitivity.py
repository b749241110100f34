"""Every registered identity can fail: one wrong entry in an artifact it
reads turns its status to "fail" (not "pass", and not "error").

``CORRUPTIONS`` holds one corruption per identity id.  Most change one entry
of a workspace artifact: a triangle entry or a route entry gains 1 + λ^(n+1)
(so both its λ = 0 value and its λ-degree change), a family member gains 1.
The corrupted artifact is one the identity reads but that no other artifact
it reads is built from, so the engine's own route checks stay quiet and the
identity itself has to notice.  ``eq56`` compares two powers of one matrix
and reads no corruptible artifact, so it gets a corrupted layer function.
"""

import dataclasses

import pytest

from degenpoly import identities, umbral
from degenpoly.algebra import LambdaPoly, XPoly
from degenpoly.families import PolyFamily
from degenpoly.identities import SuiteConfig, identity_ids, run_suite
from degenpoly.triangles import Triangle

ORDER = 6
N, K = 2, 1  # the entry every corruption changes


def _bumped_rows(rows):
    rows = [list(row) for row in rows]
    rows[N][K] = rows[N][K] + LambdaPoly.one() + LambdaPoly.var() ** (N + 1)
    return tuple(tuple(row) for row in rows)


def _bumped_members(polys):
    polys = list(polys)
    polys[N] = polys[N] + XPoly.one()
    return tuple(polys)


def _second(bump):
    """Apply a bump to the second of a pair of routes."""
    return lambda pair: (pair[0], bump(pair[1]))


def _triangle(tri):
    return Triangle(tri.kind, tri.order, _bumped_rows(tri.rows))


def _family(family):
    return PolyFamily(family.kind, family.order, _bumped_members(family.polys))


def _sequence(seq):
    return dataclasses.replace(seq, matrix=_bumped_rows(seq.matrix))


def _slices(table):
    table = list(table)
    table[N] = tuple(
        value + LambdaPoly.one() + LambdaPoly.var() ** (N + 1) if n == K else value
        for n, value in enumerate(table[N])
    )
    return table


def _artifact(method, name, corrupt):
    """Corrupt what the suite's workspace method returns for one name."""
    def apply(monkeypatch):
        base = identities._Workspace
        original = getattr(base, method)

        def corrupted(self, key, *args):
            value = original(self, key, *args)
            return corrupt(value) if key == name else value

        monkeypatch.setattr(identities, "_Workspace",
                            type("CorruptedWorkspace", (base,), {method: corrupted}))
    return apply


def _layer(module, attr, corrupt):
    """Corrupt what a layer function returns."""
    def apply(monkeypatch):
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: corrupt(original(*args)))
    return apply


CORRUPTIONS = {
    "eq9": _artifact("routes", "s2deg", _second(_bumped_rows)),
    "eq8": _artifact("routes", "s1deg", _second(_bumped_rows)),
    "orth": _artifact("tri", "s1deg", _triangle),
    "thm1": _artifact("routes", "j2deg", _second(_bumped_rows)),
    "eq22": _artifact("tri", "j2deg", _triangle),
    "thm2": _artifact("tri", "j2deg", _triangle),
    "eq24": _artifact("tri", "s1deg", _triangle),
    "cor3": _artifact("family", "degbell", _family),
    "thm4": _artifact("routes", "j1deg", _second(_bumped_rows)),
    "cor5": _artifact("tri", "j1deg", _triangle),
    "thm6": _artifact("family", "degbell", _family),
    "thm7": _artifact("tri", "j1deg", _triangle),
    "eq34": _artifact("tri", "j1deg", _triangle),
    "eq14": _artifact("family_routes", "degbell", _second(_bumped_members)),
    "newbell": _artifact("family_routes", "newbell", _second(_bumped_members)),
    "thm8": _artifact("family_routes", "jindalrae", _second(_bumped_members)),
    "thm9": _artifact("family", "jindalrae", _family),
    "thm10": _artifact("family", "degbell", _family),
    "thm11": _artifact("family_routes", "gaenari", _second(_bumped_members)),
    "thm12": _artifact("family", "gaenari", _family),
    "eq44": _artifact("family", "gaenari", _family),
    "cor13": _artifact("family", "gaenari", _family),
    "eq49": _artifact("family", "gaenari", _family),
    "eq51": _artifact("family", "jindalrae", _family),
    "eq52": _artifact("family", "gaenari", _family),
    "eq17": _artifact("tri", "t", _triangle),
    "eq19": _artifact("routes", "t", _second(_bumped_rows)),
    "thm14": _artifact("seq", "appell", _sequence),
    "eq56": _layer(umbral, "umbral_power_explicit_rows", _bumped_rows),
    "eq60": _artifact("seq", "s2", _sequence),
    "eq66": _artifact("seq", "s1", _sequence),
    "cor15": _artifact("seq", "s2", _sequence),
    "s31-m1": _artifact("slice_table", "korobov", _slices),
    "s31-m2": _artifact("tri", "j2deg", _triangle),
    "s32-m1": _artifact("slice_table", "degbernoulli", _slices),
    "s32-m2": _artifact("tri", "j1deg", _triangle),
    "s31-m3": _artifact("slice_table", "korobov", _slices),
    "s32-m3": _artifact("slice_table", "degbernoulli", _slices),
    "degbound": _artifact("tri", "s2deg", _triangle),
    "classical": _artifact("tri", "s1deg", _triangle),
}


def test_every_identity_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(identity_ids())
    assert len(CORRUPTIONS) == 40


@pytest.mark.parametrize("identity_id", list(CORRUPTIONS))
def test_a_corrupted_input_fails_the_identity(monkeypatch, identity_id):
    CORRUPTIONS[identity_id](monkeypatch)
    [result] = run_suite(SuiteConfig(order=ORDER, identity_filter=(identity_id,)))
    assert result.status == "fail", result.witness
