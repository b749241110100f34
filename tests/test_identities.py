"""The verification harness: selection, determinism, witnesses."""

import pytest

from degenpoly import series, umbral
from degenpoly.algebra import LambdaPoly, XPoly
from degenpoly.identities import (
    CheckResult,
    SuiteConfig,
    UnknownIdentityError,
    describe_identities,
    identity_ids,
    run_suite,
)
from degenpoly.scalars import Q


@pytest.fixture(scope="module")
def results_order6():
    return run_suite(SuiteConfig(order=6))


class TestSelection:
    def test_default_excludes_stretch(self, results_order6):
        ids = [r.identity_id for r in results_order6]
        assert "thm1" in ids and "cor13" in ids
        assert "s31-m3" not in ids and "s32-m3" not in ids

    def test_include_stretch(self):
        results = run_suite(SuiteConfig(order=4, include_stretch=True))
        ids = [r.identity_id for r in results]
        assert "s31-m3" in ids and "s32-m3" in ids

    def test_stretch_checks_pass_at_their_cap(self):
        results = run_suite(
            SuiteConfig(order=12, identity_filter=("s31-m3", "s32-m3"))
        )
        assert all(r.passed for r in results)
        assert all(r.order == 8 for r in results)

    def test_filter_selects_subset(self):
        results = run_suite(SuiteConfig(order=3, identity_filter=("eq44", "thm1")))
        assert [r.identity_id for r in results] == ["thm1", "eq44"]  # registry order
        assert all(r.passed for r in results)

    def test_filter_can_name_stretch_checks(self):
        results = run_suite(SuiteConfig(order=3, identity_filter=("s31-m3",)))
        assert [r.identity_id for r in results] == ["s31-m3"]
        assert results[0].passed

    def test_unknown_filter_id(self):
        with pytest.raises(UnknownIdentityError):
            run_suite(SuiteConfig(order=3, identity_filter=("nonexistent-id",)))

    def test_order_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(order=0)

    def test_registry_introspection(self):
        ids = identity_ids()
        assert len(ids) == len(set(ids))
        rows = describe_identities()
        assert all(desc for _, desc, _ in rows)
        assert set(ids) == {i for i, _, _ in rows}


class TestResults:
    def test_all_pass_symbolically(self, results_order6):
        assert all(r.passed for r in results_order6)
        assert all(r.witness is None for r in results_order6)

    def test_capped_orders_respected(self, results_order6):
        by_id = {r.identity_id: r for r in results_order6}
        assert by_id["thm1"].order == 6
        assert by_id["eq19"].order == 6  # cap 8, config 6 -> min wins
        results12 = run_suite(SuiteConfig(order=12, identity_filter=("eq19",)))
        assert results12[0].order == 8

    def test_all_pass_at_order_five(self):
        assert all(r.passed for r in run_suite(SuiteConfig(order=5)))

    def test_all_pass_at_the_default_order(self):
        # the flagship configuration: order 12
        config = SuiteConfig(order=12)
        results = run_suite(config)
        assert len(results) == len(identity_ids(include_stretch=False))
        assert all(r.passed for r in results)

    def test_deterministic_output(self):
        config = SuiteConfig(order=4)
        assert run_suite(config) == run_suite(config)

    def test_result_shape(self, results_order6):
        r = results_order6[0]
        assert isinstance(r, CheckResult)
        assert r.status in ("pass", "fail", "error")


class TestLambdaOneDegeneration:
    def test_first_kind_collapses_to_identity_matrix(self):
        # at λ=1 the deformed logarithm of 1+t is t itself, so all its
        # scaled powers are bare monomials
        from degenpoly.triangles import build_triangle

        tri = build_triangle("s1deg", 6)
        for n in range(7):
            for k in range(n + 1):
                assert tri[n][k].eval(1) == (1 if n == k else 0)

    def test_suite_at_lambda_one(self, results_order6):
        # a symbolic pass holds at λ = 1 as at every λ
        assert all(r.passed for r in results_order6)


class TestSharedUmbralProducts:
    def test_each_power_is_built_once(self, monkeypatch):
        # 9 distinct (sequence, order, m) powers: thm14's 4 and eq56's 4 at
        # order 10 share s2^2 and s2^3, cor15 adds ident^2 and reuses s2^2,
        # s1^2; eq60/eq66 read s2^2 and s1^2 at order 12
        built = []
        real = umbral.umbral_power

        def counted(r, m):
            built.append((id(r), m))
            return real(r, m)

        monkeypatch.setattr(umbral, "umbral_power", counted)
        umbral_checks = ("thm14", "eq56", "eq60", "eq66", "cor15")
        results = run_suite(SuiteConfig(order=12, identity_filter=umbral_checks))
        assert all(r.passed for r in results)
        assert len(built) == len(set(built)) == 9

    def test_each_pair_and_map_is_built_once(self, monkeypatch):
        # 22 pair builds: the workspace's ident, s1, s2, appell and fall at
        # order 10 and s2, s1, fall at 12, plus thm14's 14 distinct predicted
        # pairs among its 24; 8 maps: of_f of thm14's 4 sequences, appell's
        # inverse pair composing g with fbar, and cor15's 3 powers of ℓbar
        pairs, maps = [], []
        real_pair, real_map = umbral.sheffer_from_pair, series.substitution

        def counted_pair(g, f):
            pairs.append((g, f))
            return real_pair(g, f)

        def counted_map(u):
            maps.append(u)
            return real_map(u)

        monkeypatch.setattr(umbral, "sheffer_from_pair", counted_pair)
        for module in (series, umbral):
            monkeypatch.setattr(module, "substitution", counted_map)
        assert all(r.passed for r in run_suite(SuiteConfig(order=12)))
        assert (len(pairs), len(maps)) == (22, 8)


def _patch_check(monkeypatch, identity_id, fn):
    import dataclasses

    import degenpoly.identities as ident_mod

    replaced = dataclasses.replace(ident_mod._BY_ID[identity_id], fn=fn)
    registry = tuple(
        replaced if i.identity_id == identity_id else i for i in ident_mod._REGISTRY
    )
    monkeypatch.setattr(ident_mod, "_REGISTRY", registry)
    monkeypatch.setattr(ident_mod, "_BY_ID", {i.identity_id: i for i in registry})


# label, (lhs, rhs), the exact witness: every kind of value a fact holds.
_WITNESS_CASES = [
    ("fraction", (Q(1, 2), 1), "fraction: 1/2 != 1"),
    ("bool", (False, True), "bool: False != True"),
    ("lambda", (LambdaPoly([1, Q(-3, 2)]), LambdaPoly.one()), "lambda: 1 - 3/2*λ != 1"),
    ("xpoly", (XPoly([LambdaPoly([0, 2]), 1]), XPoly.var()), "xpoly: 2*λ + x != x"),
]


class TestWitness:
    def test_failure_carries_witness(self, monkeypatch):
        from degenpoly.algebra import LambdaPoly

        def broken(ws, order):
            yield "(n=1)", LambdaPoly.one(), LambdaPoly.zero()

        _patch_check(monkeypatch, "cor13", broken)
        results = run_suite(SuiteConfig(order=3, identity_filter=("cor13",)))
        assert results[0].status == "fail"
        assert "(n=1)" in results[0].witness

    def test_a_fact_equal_at_some_lambdas_fails(self, monkeypatch):
        from degenpoly.algebra import LambdaPoly

        def subtle(ws, order):
            # λ(λ-1) agrees with 0 at λ in {0, 1} but nowhere else
            yield "(n=0)", LambdaPoly([0, -1, 1]), LambdaPoly.zero()

        _patch_check(monkeypatch, "cor13", subtle)
        results = run_suite(
            SuiteConfig(order=3, identity_filter=("cor13",))
        )
        assert results[0].status == "fail"  # symbolic comparison already fails

    @pytest.mark.parametrize("label, sides, expected", _WITNESS_CASES,
                             ids=[case[0] for case in _WITNESS_CASES])
    def test_witness_text_is_pinned(self, monkeypatch, label, sides, expected):
        def failing(ws, order):
            yield (label, *sides)

        _patch_check(monkeypatch, "cor13", failing)
        results = run_suite(SuiteConfig(order=3, identity_filter=("cor13",)))
        assert (results[0].status, results[0].witness) == ("fail", expected)

    def test_error_becomes_error_result(self, monkeypatch):
        def exploding(ws, order):
            raise RuntimeError("boom")

        _patch_check(monkeypatch, "cor13", exploding)
        results = run_suite(SuiteConfig(order=3, identity_filter=("cor13",)))
        assert results[0].status == "error" and not results[0].passed
        assert results[0].witness == "RuntimeError: boom"

    def test_error_in_a_fact_is_not_a_disproof(self, monkeypatch):
        from degenpoly.algebra import LambdaPoly

        def mistyped(ws, order):
            # a representation bug: adding a str to a polynomial raises TypeError
            yield "(n=1)", LambdaPoly.one() + "1", LambdaPoly.one()

        _patch_check(monkeypatch, "cor13", mistyped)
        results = run_suite(SuiteConfig(order=3, identity_filter=("cor13",)))
        assert results[0].status == "error"
        assert results[0].witness.startswith("TypeError: ")

    def test_errors_and_failures_keep_registry_order(self, monkeypatch):
        from degenpoly.algebra import LambdaPoly

        def exploding(ws, order):
            raise ValueError("bad input")

        def wrong(ws, order):
            yield "(n=1)", LambdaPoly.one(), LambdaPoly.zero()

        _patch_check(monkeypatch, "cor13", exploding)
        _patch_check(monkeypatch, "eq44", wrong)
        results = run_suite(SuiteConfig(order=3, identity_filter=("eq44", "cor13")))
        assert [(r.identity_id, r.status) for r in results] == [
            ("eq44", "fail"), ("cor13", "error")
        ]
