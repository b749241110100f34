"""Polynomial families: frozen small members and their interrelations.  A
family is its members, a tuple of x-polynomials."""

import pytest

from degenpoly.algebra import LambdaPoly, XPoly, falling_products, specialize
from degenpoly.families import Workspace, build_family
from degenpoly.oracles import bell_number_classical
from degenpoly.triangles import RouteMismatchError, build_triangle

N = 8


def lp(*coeffs):
    return LambdaPoly(coeffs)


def xp(*coeffs):
    return XPoly(coeffs)


@pytest.fixture(scope="module")
def bell():
    return build_family("degbell", N)


@pytest.fixture(scope="module")
def jind():
    return build_family("jindalrae", N)


@pytest.fixture(scope="module")
def gaen():
    return build_family("gaenari", N)


class TestDegBell:
    def test_first_members(self, bell):
        assert bell[0] == XPoly.one()
        assert bell[1] == XPoly.var()
        assert bell[2] == xp(0, lp(1, -2), 1)

    def test_number_at_two(self, bell):
        assert bell[2].eval_x(1) == lp(2, -2)

    def test_classical_bell_numbers_at_lambda_zero(self, bell):
        for n in range(N + 1):
            assert specialize(bell[n].eval_x(1), 0) == bell_number_classical(n)

    def test_classical_bell_polynomials_at_lambda_zero(self, bell):
        from degenpoly.oracles import partition_oracle

        for n in range(N + 1):
            coeffs = [partition_oracle(n, k) for k in range(n + 1)]
            assert specialize(bell[n], 0) == LambdaPoly(coeffs)


class TestNewTypeBell:
    def test_second_member(self):
        fam = build_family("newbell", 4)
        assert fam[2] == xp(0, lp(1, -1), 1)

    def test_lambda_zero_is_classical_bell_polynomial(self):
        # B_n(x) = sum over k of S_2(n,k) x^k, built from the partition oracle
        from degenpoly.oracles import partition_oracle

        fam = build_family("newbell", 6)
        for n in range(7):
            coeffs = [partition_oracle(n, k) for k in range(n + 1)]
            assert specialize(fam[n], 0) == LambdaPoly(coeffs)


class TestJindalrae:
    def test_first_members(self, jind):
        assert jind[0] == XPoly.one()
        assert jind[1] == XPoly.var()
        assert jind[2] == xp(0, lp(2, -3), 1)

    def test_thm10_instance(self, jind, bell):
        s2 = build_triangle("s2deg", N)
        for n in range(N + 1):
            acc = XPoly.zero()
            for m in range(n + 1):
                acc = acc + bell[m] * s2[n][m]
            assert acc == jind[n]

    def test_thm9_instance(self, jind, bell):
        s1 = build_triangle("s1deg", N)
        for n in range(N + 1):
            acc = XPoly.zero()
            for m in range(n + 1):
                acc = acc + jind[m] * s1[n][m]
            assert acc == bell[n]


class TestGaenari:
    def test_first_members(self, gaen):
        assert gaen[0] == XPoly.one()
        assert gaen[1] == XPoly.var()
        assert gaen[2] == xp(0, lp(-2, 1), 1)

    def test_numbers_are_shifted_falling(self, gaen):
        shifted = falling_products(LambdaPoly.var() - 1, -1, N)
        for n in range(1, N + 1):
            assert gaen[n].eval_x(1) == shifted[n - 1]

    def test_thm12_instance(self, gaen):
        s2 = build_triangle("s2deg", N)
        falling = falling_products(XPoly.var(), -1, N)
        for n in range(N + 1):
            acc = XPoly.zero()
            for m in range(n + 1):
                acc = acc + gaen[m] * s2[n][m]
            assert acc == falling[n]

    def test_shifted_log_binomial_expansion_generates_the_family(self, gaen):
        # (1 + log_λ(1+t))^x expanded as sum of (x)_l log_λ(1+t)^l / l!
        from math import factorial

        from degenpoly.scalars import QONE
        from degenpoly.series import deg_log
        from xseries import horner

        binomial = [p * (QONE / factorial(l))
                    for l, p in enumerate(falling_products(XPoly.var(), -1, N))]
        acc = horner(binomial, deg_log(N))
        for n in range(N + 1):
            assert acc[n] * factorial(n) == gaen[n]


class TestStructure:
    @pytest.mark.parametrize("kind", ["degbell", "newbell", "jindalrae", "gaenari"])
    def test_monic_of_exact_degree(self, kind):
        fam = build_family(kind, 6)
        for n in range(7):
            p = fam[n]
            assert p.degree == n
            assert p.coeff(n) == LambdaPoly.one()

    @pytest.mark.parametrize("member", [
        xp(0, 2),          # leading coefficient 2
        xp(0, lp(1, 1)),   # leading coefficient 1 + λ
        xp(1),             # degree 0
    ])
    def test_agreeing_routes_must_still_be_monic(self, monkeypatch, member):
        members = [XPoly.one(), member]
        monkeypatch.setattr(Workspace, "family_routes",
                            lambda self, kind: (members, list(members)))
        with pytest.raises(RouteMismatchError, match="is not monic of degree 1"):
            build_family("degbell", 1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_family("nope", 3)

    def test_poly_out_of_range(self, bell):
        with pytest.raises(IndexError):
            bell[N + 1]

    def test_builds_are_tuples_that_compare_and_hash_equal(self):
        tri, fam = build_triangle("j1deg", 4), build_family("gaenari", 4)
        assert type(tri) is tuple and all(type(row) is tuple for row in tri)
        assert type(fam) is tuple and all(type(p) is XPoly for p in fam)
        assert [len(row) for row in tri] == [1, 2, 3, 4, 5] and len(fam) == 5
        for build, kind in ((build_triangle, "j1deg"), (build_family, "gaenari")):
            first, second = build(kind, 4), build(kind, 4)
            assert first == second and hash(first) == hash(second)

    def test_dual_expansions_of_deformed_falling(self, jind, gaen):
        j1 = build_triangle("j1deg", N)
        j2 = build_triangle("j2deg", N)
        falling = falling_products(XPoly.var(), -LambdaPoly.var(), N)
        for n in range(N + 1):
            left = XPoly.zero()
            right = XPoly.zero()
            for m in range(n + 1):
                left = left + gaen[m] * j2[n][m]
                right = right + jind[m] * j1[n][m]
            assert left == falling[n]
            assert right == falling[n]
