"""Triangle builders: frozen entries, structure, and cross-checks.  A
triangle is its rows, a tuple of row tuples."""

import pytest

from degenpoly.algebra import LambdaPoly, XPoly, falling_products
from degenpoly.oracles import partition_oracle, signed_cycle_oracle
from degenpoly.scalars import Q
from degenpoly.triangles import (
    basis_change_rows,
    build_triangle,
    convolution_rows,
    deg_bernoulli_table,
    egf_triangle_rows,
    korobov_table,
)
from degenpoly.series import deg_log

N = 8
LAM = LambdaPoly.var()


def lp(*coeffs):
    return LambdaPoly(coeffs)


def peel_rows(targets, basis):
    """Expand targets[n] in a monic triangular basis: rows[n][k] is the
    coefficient of basis[k], peeled from the top degree down, which is exact
    because basis[k] is monic of degree k."""
    rows = []
    for n, target in enumerate(targets):
        residual = target
        row = [LambdaPoly.zero()] * (n + 1)
        for k in range(n, -1, -1):
            c = residual.coeff(k)
            if c:
                row[k] = c
                residual = residual - basis[k] * c
        assert not residual, f"nonzero residual for index {n}: {residual}"
        rows.append(row)
    return rows


# (target step, basis step): the two kinds' pairs, and two that name no kind
STEP_PAIRS = {
    "s1deg": (-1, -LAM),
    "s2deg": (-LAM, -1),
    "2,-1": (2, -1),
    "lambda,1/2": (LAM, Q(1, 2)),
}


@pytest.mark.parametrize("pair", STEP_PAIRS)
def test_basis_change_recurrence_matches_the_peel(pair):
    target_step, basis_step = STEP_PAIRS[pair]
    x = XPoly.var()
    for order in range(13):
        assert basis_change_rows(order, target_step, basis_step) == peel_rows(
            falling_products(x, target_step, order), falling_products(x, basis_step, order))


@pytest.mark.parametrize("order", [0, 1, 6])
def test_egf_rows_read_the_order_of_the_series(order):
    # one row per coefficient of f: the s1deg triangle from log_λ(1 + t)
    rows = egf_triangle_rows(deg_log(order))
    assert len(rows) == order + 1
    assert tuple(map(tuple, rows)) == build_triangle("s1deg", order)


@pytest.fixture(scope="module")
def s2():
    return build_triangle("s2deg", N)


@pytest.fixture(scope="module")
def s1():
    return build_triangle("s1deg", N)


@pytest.fixture(scope="module")
def j2():
    return build_triangle("j2deg", N)


@pytest.fixture(scope="module")
def j1():
    return build_triangle("j1deg", N)


class TestSecondKind:
    def test_entry_2_1(self, s2):
        assert s2[2][1] == lp(1, -1)

    def test_entry_3_2(self, s2):
        assert s2[3][2] == lp(3, -3)

    def test_diagonal_is_one(self, s2):
        for n in range(N + 1):
            assert s2[n][n] == LambdaPoly.one()

    def test_column_zero(self, s2):
        assert s2[0][0] == LambdaPoly.one()
        for n in range(1, N + 1):
            assert s2[n][0] == LambdaPoly.zero()

    def test_column_one_is_deformed_falling_of_one(self, s2):
        at_one = falling_products(LambdaPoly.one(), -LambdaPoly.var(), N)
        for n in range(1, N + 1):
            assert s2[n][1] == at_one[n]


class TestFirstKind:
    def test_entry_2_1(self, s1):
        assert s1[2][1] == lp(-1, 1)

    def test_entry_3_2(self, s1):
        assert s1[3][2] == lp(-3, 3)
        assert s1[3][2].eval(0) == -3

    def test_column_one_is_shifted_falling(self, s1):
        shifted = falling_products(LAM - 1, -1, N)
        for n in range(1, N + 1):
            assert s1[n][1] == shifted[n - 1]

    def test_lambda_one_degenerates_to_identity(self, s1):
        for n in range(N + 1):
            for k in range(n + 1):
                assert s1[n][k].eval(1) == (1 if n == k else 0)


class TestIteratedKinds:
    def test_j2_entry_2_1(self, j2):
        assert j2[2][1] == lp(2, -2)

    def test_j1_entry_2_1(self, j1):
        assert j1[2][1] == lp(-2, 2)

    def test_vanishing_above_diagonal(self, j2):
        # row n stores k = 0..n; every entry above the diagonal is zero
        assert [len(row) for row in j2] == list(range(1, N + 2))

    def test_diagonals(self, j1, j2):
        for n in range(N + 1):
            assert j1[n][n] == LambdaPoly.one()
            assert j2[n][n] == LambdaPoly.one()

    def test_orthogonality(self, s1, s2):
        prod = convolution_rows(s1, s2)
        for n in range(N + 1):
            for k in range(n + 1):
                assert prod[n][k] == (LambdaPoly.one() if n == k else LambdaPoly.zero())


class TestClassical:
    def test_values(self):
        s2c, s1c = build_triangle("s2", 6), build_triangle("s1", 6)
        assert s2c[3][2] == lp(3)
        assert s2c[5][1] == lp(1)
        assert s1c[3][2] == lp(-3)
        assert s1c[4][1] == lp(-6)

    def test_matches_oracles(self):
        s2c, s1c = build_triangle("s2", 7), build_triangle("s1", 7)
        for n in range(8):
            for k in range(n + 1):
                assert s2c[n][k] == lp(partition_oracle(n, k))
                assert s1c[n][k] == lp(signed_cycle_oracle(n, k))


class TestTNumbers:
    def test_small_entries(self):
        t = build_triangle("t", 6)
        assert t[2][1] == lp(2)
        assert t[3][1] == lp(5)
        assert t[3][2] == lp(6)

    def test_column_one_is_bell(self):
        from degenpoly.oracles import bell_number_classical

        t = build_triangle("t", 8)
        for n in range(1, 9):
            assert t[n][1] == lp(bell_number_classical(n))


class TestSlices:
    def test_korobov_constant_term(self):
        for r in (1, 2, 5):
            assert korobov_table(3, r)[r][0] == LambdaPoly.one()

    def test_korobov_first_order_two(self):
        assert korobov_table(3, 2)[2][1] == lp(1, -1)

    def test_bernoulli_first_order_two(self):
        assert deg_bernoulli_table(3, 2)[2][1] == lp(-1, 1)

    def test_korobov_identity_with_second_kind(self):
        from math import comb

        s2 = build_triangle("s2deg", 6)
        table = korobov_table(6, 6)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert s2[n][k] == table[n][n - k] * comb(n - 1, k - 1)

    def test_bernoulli_identity_with_first_kind(self):
        from math import comb

        s1 = build_triangle("s1deg", 6)
        table = deg_bernoulli_table(6, 6)
        for n in range(1, 7):
            for k in range(1, n + 1):
                assert s1[n][k] == table[n][n - k] * comb(n - 1, k - 1)

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            korobov_table(3, 0)


class TestIndependentSpecializations:
    @pytest.mark.parametrize("q", [2, 3])
    def test_second_kind_at_reciprocal_lambda(self, q):
        # at λ = 1/q the deformed exponential is the plain power (1 + t/q)^q,
        # so its k-th powers expand by elementary polynomial arithmetic
        from math import comb, factorial

        order = 6
        base = [Q(0)] + [Q(comb(q, j), q**j) for j in range(1, q + 1)]
        base += [Q(0)] * (order + 1 - len(base))
        tri = build_triangle("s2deg", order)
        power = [Q(1)] + [Q(0)] * order
        for k in range(order + 1):
            if k:
                nxt = [Q(0)] * (order + 1)
                for i, a in enumerate(power):
                    if a:
                        for j, b in enumerate(base[: order + 1 - i]):
                            nxt[i + j] += a * b
                power = nxt
            for n in range(k, order + 1):
                expected = power[n] * Q(factorial(n), factorial(k))
                assert tri[n][k].eval(Q(1, q)) == expected

    def test_first_order_slice_at_lambda_zero_is_falling_integral(self):
        # n! [t^n] t/log(1+t) equals the integral over [0,1] of x(x-1)...(x-n+1),
        # computed from the independent expansion oracle
        values = korobov_table(6, 1)[1]
        for n in range(7):
            integral = sum(
                Q(signed_cycle_oracle(n, k), k + 1) for k in range(n + 1)
            )
            assert values[n].eval(0) == integral

    def test_bernoulli_slice_at_lambda_zero_matches_recurrence(self):
        # classical values from the sum rule over binomials, nothing shared
        # with the series engine
        from math import comb

        classical = [Q(1)]
        for n in range(1, 7):
            acc = sum(comb(n + 1, k) * classical[k] for k in range(n))
            classical.append(Q(-acc, n + 1))
        values = deg_bernoulli_table(6, 1)[1]
        for n in range(7):
            assert values[n].eval(0) == classical[n]

    def test_bernoulli_slice_at_one_half_closed_form(self):
        # at λ = 1/2: t/((1+t/2)^2 - 1) = 1/(1 + t/4), a geometric series
        from math import factorial

        values = deg_bernoulli_table(6, 1)[1]
        for n in range(7):
            assert values[n].eval(Q(1, 2)) == factorial(n) * Q(-1, 4) ** n


class TestTriangleType:
    def test_out_of_range(self, s2):
        with pytest.raises(IndexError):
            s2[N + 1]
        with pytest.raises(IndexError):
            s2[2][3]

    def test_degree_bound(self, s1, s2):
        for n in range(N + 1):
            for k in range(n + 1):
                assert s2[n][k].degree <= n - k
                assert s1[n][k].degree <= n - k

    def test_specialized_rows(self, s2):
        assert s2[2][1].eval(Q(1, 2)) == Q(1, 2)

    def test_kind_and_order(self, s2):
        assert len(s2) - 1 == N
        assert s2 == build_triangle("s2deg", N)
        assert s2 != build_triangle("s1deg", N)
