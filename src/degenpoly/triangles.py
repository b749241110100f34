"""Number triangles: classical and degenerate Stirling kinds, their iterated
second-level kinds, the doubly-composed classical table, and the two
order-parametrised number slices (the 1/log and 1/(exp-1) power coefficients).

Every triangle is produced by two independent routes and compared entrywise;
the second route is the test oracle, since no published numeric tables exist
for the degenerate families.  A route disagreement raises
``RouteMismatchError`` -- it signals an engine bug, never bad input.  A
built triangle is its rows: a tuple of row tuples, row n holding the
λ-polynomial entries (n, k) for k = 0..n.

Routes per kind, all in the one ``TRIANGLES`` table (a ``Workspace`` builds
a kind's routes once, after the kinds and series they read, and validates
them; every delta series, e_λ(t)-1, log_λ(1+t), exp(t)-1 and each map of its
own delta series, is an entry of ``series.DELTA_MAPS``, built once per
workspace and shared with the family routes):

* second-kind degenerate ("s2deg"): EGF extraction from powers of e_λ(t)-1
  versus the row recurrence of the change of basis expressing
  x(x-λ)...(x-(n-1)λ) in the plain falling-factorial basis,
  S2_λ(n+1, k) = S2_λ(n, k-1) + (k - nλ)·S2_λ(n, k) (Carlitz, Utilitas
  Math. 15, 1979).
* first-kind degenerate ("s1deg"): powers of the deformed logarithm versus
  the same recurrence for (x)_n in the deformed falling basis,
  S1_λ(n+1, k) = S1_λ(n, k-1) + (kλ - n)·S1_λ(n, k).
* iterated kinds ("j2deg"/"j1deg", and "t", their λ = 0 case with EGF
  (e^(e^t-1) - 1)^k/k!): powers of the doubled map versus the
  self-convolution of the single-level triangle ("s2" for "t").  The eq19
  identity checks "t" against the paper's multinomial Bell sum.
* classical ("s2"/"s1"): λ=0 specialisation versus brute-force oracles, the
  partition enumeration up to n = 10 and the product expansion at every row.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod
from typing import NamedTuple

from .algebra import LambdaPoly, XPoly, lp_dot, xp_dot
from .oracles import bell_number_classical, partition_oracle, signed_cycle_oracle
from .scalars import Q
# compose is not called here: perfbench/test_perfbench.py reads triangles.compose.
from .series import DELTA_MAPS, Series, check_delta, compose, mul_inverse, powers

# The λ = 0 rows of s2, and the verify checks eq17 and classical, read the
# partition enumeration up to n = 10, not to oracles.ORACLE_LIMIT = 12, for
# cost. Enumerating the partitions of every set up to n elements
# (oracles._block_counts, fresh process; Python 3.11.7, 2-CPU shared host,
# five runs each) took 4-7 ms to n = 10, 0.02-0.03 s to 11 and 0.15-0.18 s
# to 12, which every `triangle --kind s2 --order >= 12` request would pay.
ORACLE_CHECK_LIMIT = 10


class RouteMismatchError(RuntimeError):
    """Two supposedly-equal computation routes disagreed: an engine bug."""


def rows_mismatch(rows_a, rows_b):
    """First (n, k, a, b) where two triangular tables differ, else None."""
    for n, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for k, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return n, k, a, b
    return None


def _validated(kind: str, rows_a, rows_b, what: str) -> tuple:
    """The rows of rows_a as a tuple of row tuples, once they agree with
    rows_b on their common rows (rows_b may stop early: an oracle capped
    below the order)."""
    bad = rows_mismatch(rows_a, rows_b)
    if bad is not None:
        n, k, a, b = bad
        raise RouteMismatchError(
            f"{kind} routes disagree at (n={n}, k={k}): {what}: {a} vs {b}"
        )
    return tuple(tuple(row) for row in rows_a)


def egf_triangle_rows(f: Series, prefactor: Series | None = None):
    """rows[n][k] = n!/k! * [t^n] prefactor(t)·f(t)^k for a delta series f,
    n up to f's order, with prefactor 1 when omitted (a Sheffer matrix
    passes its g)."""
    check_delta(f)
    order = f.order
    facts = [factorial(n) for n in range(order + 1)]
    start = Series.one(order) if prefactor is None else prefactor
    rows = [[] for _ in range(order + 1)]
    for k, power in enumerate(powers(start, f, order)):
        for n in range(k, order + 1):
            rows[n].append(power.coeffs[n] * (facts[n] // facts[k]))
    return rows


def basis_change_rows(order: int, target_step, basis_step):
    """rows[n][k] = the coefficient of B_k = Π_{j<k}(x + j·b) in
    T_n = Π_{j<n}(x + j·a) for n <= order, with a = target_step and
    b = basis_step.

    B_k·(x + n·a) = B_{k+1} + (n·a - k·b)·B_k, so T_{n+1} = T_n·(x + n·a)
    gives rows[n+1][k] = rows[n][k-1] + (n·a - k·b)·rows[n][k].
    """
    zero = LambdaPoly.zero()
    rows = [[LambdaPoly.one()]]
    for n in range(order):
        prev = [zero, *rows[-1], zero]
        rows.append([prev[k] + (target_step * n - basis_step * k) * prev[k + 1]
                     for k in range(n + 2)])
    return rows


def convolution_rows(rows_a, rows_b):
    """rows[n][k] = sum over m of a[n][m] * b[m][k] (lower-triangular product),
    one ``lp_dot`` per entry."""
    return [[lp_dot([(row_a[m], rows_b[m][k]) for m in range(k, n + 1)])
             for k in range(n + 1)]
            for n, row_a in enumerate(rows_a)]


def row_sums(rows, seq):
    """[Σₘ seq[m]·rows[n][m] for each row n]: a triangle's rows applied to a
    sequence of λ-polynomials (``lp_dot``) or x-polynomials (``xp_dot``)."""
    dot = xp_dot if isinstance(seq[-1], XPoly) else lp_dot
    return [dot(zip(seq, row)) for row in rows]


def t_multinomial_rows(order: int):
    """rows[n][k] = (1/k!) * sum over compositions of n into k positive parts
    of the multinomial coefficient times the product of Bell numbers; each
    composition is the gaps between 0, its k - 1 cut points in 1..n-1, and n."""
    facts = [factorial(i) for i in range(order + 1)]
    bells = [bell_number_classical(i) for i in range(order + 1)]
    rows = []
    for n in range(order + 1):
        row = []
        for k in range(n + 1):
            if k == 0:
                row.append(LambdaPoly.const(1 if n == 0 else 0))
                continue
            total = 0
            for cuts in combinations(range(1, n), k - 1):
                parts = [b - a for a, b in zip((0, *cuts), (*cuts, n))]
                total += (facts[n] // prod(facts[p] for p in parts)
                          * prod(bells[p] for p in parts))
            value = Q(total, facts[k])
            if value.denominator != 1:
                raise RouteMismatchError(
                    f"multinomial route produced a non-integer at ({n},{k}): {value}"
                )
            row.append(LambdaPoly.const(value))
        rows.append(row)
    return rows


def _series_vs_basis(delta: Series, target_step, basis_step):
    """Powers of a delta series versus the change of basis expressing the
    falling products x(x+s)...(x+(n-1)s) of step s = target_step in the
    basis of those of step basis_step, row by row."""
    return (egf_triangle_rows(delta),
            basis_change_rows(delta.order, target_step, basis_step))


def _series_vs_convolution(ws, doubled: Series, single: str):
    """Powers of a delta series composed with itself versus the
    self-convolution of the single-level triangle."""
    rows = ws.tri(single)
    return egf_triangle_rows(doubled), convolution_rows(rows, rows)


def _specialised_vs_oracle(ws, degenerate: str, oracle, limit: int):
    """λ = 0 specialisation versus a brute-force oracle, the latter only up to
    row ``limit`` (a prefix of the rows)."""
    specialised = [[LambdaPoly.const(c.eval(0)) for c in row] for row in ws.tri(degenerate)]
    return specialised, [
        [LambdaPoly.const(oracle(n, k)) for k in range(n + 1)] for n in range(limit + 1)
    ]


class TriangleKind(NamedTuple):
    routes: object  # workspace -> (rows_a, rows_b), the kind's two routes
    label: str      # what the two routes are, for RouteMismatchError


# The one table of triangle kinds.  Routes look up the layer functions as
# module globals when called, so a wrapper installed on the module sees them.
TRIANGLES = {
    "s1": TriangleKind(
        lambda ws: _specialised_vs_oracle(ws, "s1deg", signed_cycle_oracle, ws.order),
        "λ=0 vs product expansion"),
    "s2": TriangleKind(
        lambda ws: _specialised_vs_oracle(ws, "s2deg", partition_oracle,
                                          min(ws.order, ORACLE_CHECK_LIMIT)),
        "λ=0 vs partition enumeration"),
    "s1deg": TriangleKind(
        lambda ws: _series_vs_basis(ws.delta("log"), -1, -LambdaPoly.var()),
        "series vs basis change"),
    "s2deg": TriangleKind(
        lambda ws: _series_vs_basis(ws.delta("exp"), -LambdaPoly.var(), -1),
        "series vs basis change"),
    "j1deg": TriangleKind(
        lambda ws: _series_vs_convolution(ws, ws.doubled("log"), "s1deg"),
        "series vs self-convolution"),
    "j2deg": TriangleKind(
        lambda ws: _series_vs_convolution(ws, ws.doubled("exp"), "s2deg"),
        "series vs self-convolution"),
    "t": TriangleKind(
        lambda ws: _series_vs_convolution(ws, ws.doubled("classical"), "s2"),
        "series vs self-convolution"),
}
TRIANGLE_KINDS = tuple(TRIANGLES)


class Workspace:
    """Memoised artifacts at one order: each kind's two routes are built once,
    from the kinds and delta series they depend on, and validated once."""

    def __init__(self, order: int):
        self.order = order
        self._cache = {}

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def delta(self, name: str) -> Series:
        """The ``series.DELTA_MAPS`` entry of that name at the workspace order:
        e_λ(t) - 1 ("exp"), log_λ(1 + t) ("log") or exp(t) - 1 ("classical")."""
        return self._get(("delta", name), lambda: DELTA_MAPS[name](self.order))

    def doubled(self, name: str) -> Series:
        """A map of ``series.DELTA_MAPS`` applied to its own delta series."""
        return self._get(("doubled", name), lambda: DELTA_MAPS[name](
            self.order, self.delta(name)))

    def routes(self, kind: str):
        """Both routes of a triangle kind, as (rows_a, rows_b)."""
        return self._get(("routes", kind), lambda: TRIANGLES[kind].routes(self))

    def tri(self, kind: str) -> tuple:
        """A triangle kind's validated rows: row n holds entries k = 0..n."""
        return self._get(("tri", kind), lambda: _validated(
            kind, *self.routes(kind), TRIANGLES[kind].label))


def build_triangle(kind: str, order: int) -> tuple:
    if kind not in TRIANGLES:
        raise ValueError(f"unknown triangle kind {kind!r}")
    return Workspace(order).tri(kind)


def _power_slices(delta: str, order: int, max_r: int):
    """table[r][n] = n! [t^n] (t/δ(t))^r for r = 0..max_r (table[0] is
    1, 0, ...), δ the ``series.DELTA_MAPS`` entry of that name: "log" for the
    Korobov numbers, "exp" for the deformed Bernoulli numbers."""
    if max_r < 1:
        raise ValueError("slice order r must be >= 1")
    base = mul_inverse(DELTA_MAPS[delta](order + 1).shift_down())
    facts = [factorial(n) for n in range(order + 1)]
    return [tuple(power.coeffs[n] * facts[n] for n in range(order + 1))
            for power in powers(Series.one(order), base, max_r)]


def korobov_table(order: int, max_r: int):
    """Korobov-number slices for every order 0..max_r at once."""
    return _power_slices("log", order, max_r)


def deg_bernoulli_table(order: int, max_r: int):
    """Higher-order deformed Bernoulli number slices for 0..max_r at once."""
    return _power_slices("exp", order, max_r)


# kind -> (order, max_r) -> the slices for r = 0..max_r
SLICES = {
    "korobov": lambda order, max_r: korobov_table(order, max_r),
    "degbernoulli": lambda order, max_r: deg_bernoulli_table(order, max_r),
}
SLICE_KINDS = tuple(SLICES)
