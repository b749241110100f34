"""Sheffer machinery: pair construction, the composition group, powers."""

from dataclasses import fields
from itertools import product
from math import factorial

import pytest

from degenpoly import series, umbral
from degenpoly.algebra import LambdaPoly, XPoly, falling_products
from degenpoly.families import build_family
from degenpoly.series import (
    Series,
    comp_inverse,
    compose,
    compositional_power,
    deg_exp,
    deg_log,
    mul_inverse,
)
from degenpoly.triangles import (
    convolution_rows,
    build_triangle,
    egf_triangle_rows,
    rows_mismatch,
)
from degenpoly.umbral import (
    SEQUENCES,
    ShefferSeq,
    compose_pair,
    corollary15_rhs,
    inverse_pair,
    power_pair,
    sheffer_from_pair,
    umbral_compose,
    umbral_power,
    umbral_power_explicit_rows,
)
from degenpoly.scalars import QONE
from xseries import deg_exp_x, horner

N = 8


def generating_identity_rows(g, f, order):
    """The Sheffer matrix read from the generating identity: the Riordan
    array of the inverse pair (1/g(fbar), fbar), fbar the compositional
    inverse of f."""
    g, f = g.truncate(order), f.truncate(order)
    fbar = comp_inverse(f)
    return egf_triangle_rows(fbar, mul_inverse(compose(g, fbar)))


def composed_polys(r, s, m=2):
    """The polynomials of r^m∘s: r's matrix to the m-th power times s's."""
    return tuple(XPoly(row) for row in corollary15_lhs(r, s, m))


def corollary15_lhs(r, s, m):
    """Corollary 15's left side: the generating series of r^m∘s, as its
    EGF rows n!·[t^n] for t^0..t^order, the matrix of r^m∘s."""
    return convolution_rows(umbral_power(r, m), s.matrix)


def product_loop_rows(r, m):
    """The m-fold power matrix as the multi-index sum over every index tuple
    in range(n + 1)^(m - 1), zero factors above the diagonal included."""
    zero = LambdaPoly.zero()

    def entry(i, j):
        return r.matrix[i][j] if j <= i else zero

    rows = []
    for n in range(len(r.matrix)):
        row = []
        for k in range(n + 1):
            acc = zero
            for mids in product(range(n + 1), repeat=m - 1):
                chain = (n,) + mids + (k,)
                term = LambdaPoly.one()
                for a, b in zip(chain, chain[1:]):
                    term = term * entry(a, b)
                acc = acc + term
            row.append(acc)
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def ident():
    return SEQUENCES["ident"](N)


@pytest.fixture(scope="module")
def log_seq():
    return SEQUENCES["s2"](N)


@pytest.fixture(scope="module")
def exp_seq():
    return SEQUENCES["s1"](N)


@pytest.fixture(scope="module")
def fall_seq():
    return SEQUENCES["fall"](N)


@pytest.fixture(scope="module")
def appell_seq():
    return SEQUENCES["appell"](N)


class TestPairConstruction:
    def test_fields_are_the_pair_and_the_matrix(self):
        # the matrix fixes the order, so none is stored beside it
        assert tuple(field.name for field in fields(ShefferSeq)) == ("g", "f", "matrix")

    def test_identity_pair_gives_monomials(self, ident):
        for n in range(N + 1):
            assert XPoly(ident.matrix[n]) == XPoly([LambdaPoly.zero()] * n + [LambdaPoly.one()])

    def test_log_pair_matrix_is_second_kind_triangle(self, log_seq):
        assert rows_mismatch(log_seq.matrix, build_triangle("s2deg", N)) is None

    def test_exp_pair_matrix_is_first_kind_triangle(self, exp_seq):
        assert rows_mismatch(exp_seq.matrix, build_triangle("s1deg", N)) is None

    def test_falling_sequence_polys(self, fall_seq):
        falling = falling_products(XPoly.var(), -LambdaPoly.var(), N)
        for n in range(N + 1):
            assert XPoly(fall_seq.matrix[n]) == falling[n]

    def test_rejects_non_invertible_g(self):
        with pytest.raises(ValueError, match="^g's constant term 0 is not an invertible"):
            sheffer_from_pair(deg_log(N), deg_log(N))

    def test_rejects_non_delta_f(self):
        one = Series.one(N)
        with pytest.raises(ValueError, match="delta series"):
            sheffer_from_pair(one, deg_exp(1, N))

    @pytest.mark.parametrize("order", range(1, 11))
    def test_matrix_is_the_generating_identity(self, order):
        # the workspace sequences, thm14's 16 composed pairs and its power pairs
        seqs = {name: build(order) for name, build in SEQUENCES.items()}
        named = [seqs[name] for name in ("ident", "s1", "s2", "appell")]
        pairs = [(s.g, s.f) for s in seqs.values()]
        pairs += [compose_pair((q.g, q.f), p) for q in named for p in named]
        pairs += [power_pair(r, m) for r in (seqs["s2"], seqs["appell"]) for m in (2, 3)]
        assert len(pairs) == 25
        for g, f in pairs:
            assert rows_mismatch(
                sheffer_from_pair(g, f).matrix, generating_identity_rows(g, f, order)
            ) is None

    @pytest.mark.parametrize("g_order, f_order", [(3, 6), (6, 3)])
    def test_builds_to_the_lower_order(self, g_order, f_order):
        # like every binary series operation, the pair is read to its lower order
        g, f = Series.one(g_order), deg_log(f_order)
        seq = sheffer_from_pair(g, f)
        assert len(seq.matrix) - 1 == 3
        assert seq.matrix == SEQUENCES["s2"](3).matrix


class TestGroup:
    def test_identity_is_neutral(self, ident, log_seq):
        assert umbral_compose(ident, log_seq) == log_seq.matrix
        assert umbral_compose(log_seq, ident) == log_seq.matrix

    def test_group_law_matches_pair_prediction(self, ident, log_seq, exp_seq, appell_seq):
        seqs = (ident, log_seq, exp_seq, appell_seq)
        for q in seqs:
            for p in seqs:
                regenerated = sheffer_from_pair(*compose_pair((q.g, q.f), p))
                assert rows_mismatch(umbral_compose(q, p), regenerated.matrix) is None

    def test_inverse_law(self, ident, log_seq, exp_seq, appell_seq):
        for s in (log_seq, exp_seq, appell_seq):
            inv = sheffer_from_pair(*inverse_pair(s))
            for q, p in ((s, inv), (inv, s)):
                assert rows_mismatch(umbral_compose(q, p), ident.matrix) is None
                regenerated = sheffer_from_pair(*compose_pair((q.g, q.f), p))
                assert rows_mismatch(regenerated.matrix, ident.matrix) is None

    def test_compose_requires_equal_orders(self, log_seq):
        with pytest.raises(ValueError, match="order mismatch"):
            umbral_compose(log_seq, SEQUENCES["s2"](N - 1))

    def test_compose_rejects_matrices_of_different_sizes(self, log_seq):
        shorter = ShefferSeq(log_seq.g, log_seq.f, log_seq.matrix[:-1])
        with pytest.raises(ValueError, match=f"order mismatch: {N - 1} vs {N}"):
            umbral_compose(shorter, log_seq)


class TestPowers:
    def test_power_one_is_identity_operation(self, log_seq):
        assert umbral_power(log_seq, 1) == log_seq.matrix

    def test_square_of_log_pair_is_iterated_second_kind(self, log_seq):
        assert rows_mismatch(umbral_power(log_seq, 2), build_triangle("j2deg", N)) is None

    def test_square_of_exp_pair_is_iterated_first_kind(self, exp_seq):
        assert rows_mismatch(umbral_power(exp_seq, 2), build_triangle("j1deg", N)) is None

    def test_power_is_iterated_compose(self, log_seq):
        assert rows_mismatch(
            umbral_power(log_seq, 3), convolution_rows(log_seq.matrix, umbral_power(log_seq, 2))
        ) is None

    def test_power_pair_regenerates_same_matrix(self, log_seq, appell_seq):
        for r in (log_seq, appell_seq):
            for m in (2, 3):
                regen = sheffer_from_pair(*power_pair(r, m))
                assert rows_mismatch(umbral_power(r, m), regen.matrix) is None

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", ["log_seq", "appell_seq"])
    def test_power_pair_is_compose_pair_steps(self, request, name, m):
        r = request.getfixturevalue(name)
        pair = r.g, r.f
        for _ in range(m - 1):
            pair = compose_pair(pair, r)
        assert power_pair(r, m) == pair

    @pytest.mark.parametrize("m", [2, 3])
    def test_explicit_sum_matches_matrix_power(self, log_seq, m):
        assert rows_mismatch(
            umbral_power_explicit_rows(log_seq, m), umbral_power(log_seq, m)
        ) is None

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", ["log_seq", "appell_seq"])
    def test_chain_sum_matches_the_product_loop(self, request, name, m):
        r = request.getfixturevalue(name)
        assert rows_mismatch(umbral_power_explicit_rows(r, m), product_loop_rows(r, m)) is None

    def test_power_zero_rejected(self, log_seq):
        with pytest.raises(ValueError):
            umbral_power(log_seq, 0)
        with pytest.raises(ValueError):
            power_pair(log_seq, 0)

    def test_matrix_operations_build_no_pair(self, monkeypatch, ident, log_seq, exp_seq, fall_seq):
        explicit = umbral_power_explicit_rows(log_seq, 3)
        direct = build_family("jindalrae", N)

        def refuse(*args):
            raise AssertionError("a matrix operation built a pair")

        monkeypatch.setattr(umbral, "compose", refuse)
        monkeypatch.setattr(umbral, "compositional_power", refuse)
        assert rows_mismatch(umbral_power(log_seq, 3), explicit) is None
        assert umbral_compose(log_seq, exp_seq) == ident.matrix
        assert composed_polys(log_seq, fall_seq) == direct


def _count_maps(monkeypatch):
    """Count substitution maps under both names, series' (which ``compose``
    reads) and umbral's: the returned list grows by one per map built."""
    built = []
    real = series.substitution

    def counted(u):
        built.append(u)
        return real(u)

    monkeypatch.setattr(series, "substitution", counted)
    monkeypatch.setattr(umbral, "substitution", counted)
    return built


class TestPairCost:
    @pytest.mark.parametrize("name", ["log_seq", "appell_seq"])
    def test_power_pair_builds_one_map(self, monkeypatch, exp_seq, name):
        # a fresh sequence: a shared fixture may already hold its map
        r = SEQUENCES[{"log_seq": "s2", "appell_seq": "appell"}[name]](N)
        built = _count_maps(monkeypatch)
        power_pair(r, 3)
        power_pair(r, 2)
        compose_pair((exp_seq.g, exp_seq.f), r)
        assert built == [r.f]

    def test_inverse_of_associated_sequence_composes_nothing(self, monkeypatch, log_seq):
        built = _count_maps(monkeypatch)
        composed = []

        def counted(outer, inner):
            composed.append(outer)
            return compose(outer, inner)

        monkeypatch.setattr(umbral, "compose", counted)
        inv = sheffer_from_pair(*inverse_pair(log_seq))
        assert composed == [] and built == []
        assert umbral_compose(log_seq, inv) == SEQUENCES["ident"](N).matrix

    def test_pair_construction_inverts_and_composes_nothing(
            self, monkeypatch, log_seq, exp_seq, appell_seq):
        pairs = [(s.g, s.f) for s in (log_seq, exp_seq, appell_seq)]
        pairs.append(compose_pair((appell_seq.g, appell_seq.f), log_seq))
        expected = [generating_identity_rows(g, f, N) for g, f in pairs]

        def refuse(*args):
            raise AssertionError("the pair construction inverted or composed a series")

        # triangles binds none of these: its compose reads series.compose
        for module in (series, umbral):
            for name in ("comp_inverse", "compose", "substitution"):
                monkeypatch.setattr(module, name, refuse)
        for (g, f), rows in zip(pairs, expected):
            assert rows_mismatch(sheffer_from_pair(g, f).matrix, rows) is None

class TestFamilyRoutes:
    @pytest.mark.parametrize(
        "name, family", [("log_seq", "jindalrae"), ("exp_seq", "gaenari")],
        ids=["jindalrae", "gaenari"],
    )
    def test_matches_direct(self, request, fall_seq, name, family):
        r = request.getfixturevalue(name)
        assert composed_polys(r, fall_seq) == build_family(family, N)


class TestCorollary15:
    def test_trivial_substitution(self, ident, fall_seq):
        for m in (2, 3):
            assert corollary15_lhs(ident, fall_seq, m) == corollary15_rhs(ident, fall_seq, m)

    def test_jindalrae_substitution(self, log_seq, fall_seq):
        assert corollary15_lhs(log_seq, fall_seq, 2) == corollary15_rhs(log_seq, fall_seq, 2)

    def test_gaenari_substitution(self, exp_seq, fall_seq):
        assert corollary15_lhs(exp_seq, fall_seq, 2) == corollary15_rhs(exp_seq, fall_seq, 2)

    def test_substituted_generating_series_is_the_family_series(self, log_seq, fall_seq):
        em1 = deg_exp(1, N) - 1
        direct = horner(deg_exp_x(N), compose(em1, em1))
        assert [c * factorial(n) for n, c in enumerate(direct)] == list(
            composed_polys(log_seq, fall_seq))

    @pytest.mark.parametrize("order", [1, 5, 8])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("name", ["ident", "log_seq", "exp_seq"])
    def test_column_rhs_matches_x_horner_rhs(self, fall_seq, name, m, order):
        # the right-hand side as one x-coefficient Horner substitution of s's
        # whole generating series, independent of the Riordan product; r at
        # the lower order sets the order of the right side
        r = SEQUENCES[{"ident": "ident", "log_seq": "s2", "exp_seq": "s1"}[name]](order)
        rhs = corollary15_rhs(r, fall_seq, m)
        assert len(rhs) == order + 1
        ell_bar = compositional_power(comp_inverse(r.f), m)
        s_egf = [XPoly(row) * (QONE / factorial(n)) for n, row in enumerate(fall_seq.matrix)]
        direct = horner(s_egf[:order + 1], ell_bar)
        assert [XPoly(row) for row in rhs] == [c * factorial(n) for n, c in enumerate(direct)]

    def test_requires_associated_r(self, appell_seq, fall_seq):
        with pytest.raises(ValueError, match="associated"):
            corollary15_rhs(appell_seq, fall_seq, 2)

    def test_inverse_of_composed_map_is_swapped_inverse_chain(self, fall_seq, log_seq, exp_seq):
        # the inverse of ℓ^m(f(t)) is fbar(ℓbar^m(t)), checked as a property
        f = fall_seq.f
        for ell_seq in (log_seq, exp_seq):
            ell = ell_seq.f
            for m in (1, 2):
                lhs = comp_inverse(compose(compositional_power(ell, m), f))
                rhs = compose(comp_inverse(f), compositional_power(comp_inverse(ell), m))
                assert lhs == rhs
