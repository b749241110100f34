"""Number triangles: classical and degenerate Stirling kinds, their iterated
second-level kinds, the doubly-composed classical table, and the two
order-parametrised number slices (the 1/log and 1/(exp-1) power coefficients).

Every triangle is produced by two independent routes and compared entrywise;
the second route is the test oracle, since no published numeric tables exist
for the degenerate families.  A route disagreement raises
``RouteMismatchError`` -- it signals an engine bug, never bad input.

Routes per kind, all in the one ``TRIANGLES`` table (a ``Workspace`` builds
a kind's routes once, after the kinds and series they read, and validates
them; the delta series e_λ(t)-1 and log_λ(1+t) and their self-compositions
are built once per workspace and shared with the family routes):

* second-kind degenerate ("s2deg"): EGF extraction from powers of e_λ(t)-1
  versus the triangular change of basis expressing x(x-λ)...(x-(n-1)λ) in the
  plain falling-factorial basis.
* first-kind degenerate ("s1deg"): powers of the deformed logarithm versus
  the change of basis expressing (x)_n in the deformed falling basis.
* iterated kinds ("j2deg"/"j1deg"): powers of the doubly-composed map versus
  the self-convolution of the single-level triangle.
* classical ("s2"/"s1"): λ=0 specialisation versus brute-force oracles.
* doubly-composed classical ("t"): convolution of the classical second-kind
  table with itself versus the multinomial sum over Bell-number products
  (the latter only for n <= 8; composition counts grow quickly).
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .algebra import LambdaPoly, deg_falling_factorial, falling_factorial
from .oracles import bell_number_classical, partition_oracle, signed_cycle_oracle
from .scalars import Q
from .series import Series, compose, deg_exp, deg_log, mul_inverse, powers

_ORACLE_CHECK_LIMIT = 10


class RouteMismatchError(RuntimeError):
    """Two supposedly-equal computation routes disagreed: an engine bug."""


class FrozenValue:
    """Base of the immutable value classes, whose fields are their
    ``__slots__``: values of one class with equal fields are equal and hash
    alike, and no attribute can be set or deleted once ``__init__`` ran."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Triangle(FrozenValue):
    """Lower-triangular table (n, k) -> LambdaPoly for 0 <= k <= n <= order."""

    __slots__ = ("kind", "order", "rows")

    def __init__(self, kind: str, order: int, rows: tuple):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", rows)

    def entry(self, n: int, k: int) -> LambdaPoly:
        """Entry (n, k); zero above the diagonal (k > n), however large k is."""
        if not 0 <= n <= self.order:
            raise IndexError(f"row {n} beyond stored order {self.order}")
        if k < 0:
            raise IndexError(f"negative column {k}")
        if k > n:
            return LambdaPoly.zero()
        return self.rows[n][k]

    def specialized(self, lambda_value):
        """All entries at a rational λ, as triangular rows of scalars."""
        return tuple(
            tuple(c.eval(lambda_value) for c in row) for row in self.rows
        )


def rows_mismatch(rows_a, rows_b):
    """First (n, k, a, b) where two triangular tables differ, else None."""
    for n, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for k, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return n, k, a, b
    return None


def _validated(kind: str, order: int, rows_a, rows_b, what: str) -> Triangle:
    """The triangle of rows_a, once it agrees with rows_b on their common
    rows (rows_b may stop early: an oracle capped below the order)."""
    bad = rows_mismatch(rows_a, rows_b)
    if bad is not None:
        n, k, a, b = bad
        raise RouteMismatchError(
            f"{kind} routes disagree at (n={n}, k={k}): {what}: {a} vs {b}"
        )
    return Triangle(kind, order, tuple(tuple(row) for row in rows_a))


def egf_triangle_rows(f: Series, order: int, prefactor: Series | None = None):
    """rows[n][k] = n!/k! * [t^n] prefactor(t)·f(t)^k for a delta series f,
    with prefactor 1 when omitted (a Sheffer matrix passes its 1/g(fbar))."""
    if f.coeffs[0]:
        raise ValueError("EGF extraction needs a delta series")
    facts = [factorial(n) for n in range(order + 1)]
    start = Series.one(order) if prefactor is None else prefactor
    rows = [[] for _ in range(order + 1)]
    for k, power in enumerate(powers(start, f, order)):
        for n in range(k, order + 1):
            rows[n].append(power.coeffs[n] * Q(facts[n], facts[k]))
    return rows


def basis_change_rows(targets, basis):
    """Expand targets[n] in the given monic triangular basis.

    rows[n][k] is the coefficient of basis[k] in targets[n]; peeled from the
    top degree down, which is exact because basis[k] is monic of degree k.
    """
    rows = []
    for n, target in enumerate(targets):
        residual = target
        row = [LambdaPoly.zero()] * (n + 1)
        for k in range(n, -1, -1):
            c = residual.coeff(k)
            if c:
                row[k] = c
                residual = residual - basis[k] * c
        if not residual.is_zero():
            raise RouteMismatchError(
                f"basis change left a nonzero residual for index {n}: {residual}"
            )
        rows.append(row)
    return rows


def convolution_rows(rows_a, rows_b):
    """rows[n][k] = sum over m of a[n][m] * b[m][k] (lower-triangular product)."""
    zero = LambdaPoly.zero()
    out = []
    for n, row_a in enumerate(rows_a):
        row = []
        for k in range(n + 1):
            acc = zero
            for m in range(k, n + 1):
                a = row_a[m]
                b = rows_b[m][k]
                if a and b:
                    acc = acc + a * b
            row.append(acc)
        out.append(row)
    return out


def row_sums(rows, seq, order: int):
    """[Σₘ seq[m]·rows[n][m] for n = 0..order]: a triangle's rows applied to a
    sequence of λ- or x-polynomials, skipping zero terms as convolution_rows
    does."""
    zero = type(seq[-1]).zero()
    sums = []
    for n in range(order + 1):
        acc = zero
        for m, c in enumerate(rows[n]):
            if c and seq[m]:
                acc = acc + seq[m] * c
        sums.append(acc)
    return sums


def lambda_zero_rows(rows):
    """Specialise triangular LambdaPoly rows at λ = 0 (constant entries)."""
    return [[LambdaPoly.const(c.eval(0)) for c in row] for row in rows]


def _compositions(n: int, k: int):
    """All k-tuples of positive integers summing to n."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - k + 2):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def t_multinomial_rows(order: int):
    """rows[n][k] = (1/k!) * sum over compositions of n into k positive parts
    of the multinomial coefficient times the product of Bell numbers."""
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
            for parts in _compositions(n, k):
                coeff = facts[n]
                for p in parts:
                    coeff //= facts[p]
                term = coeff
                for p in parts:
                    term *= bells[p]
                total += term
            value = Q(total, facts[k])
            if value.denominator != 1:
                raise RouteMismatchError(
                    f"multinomial route produced a non-integer at ({n},{k}): {value}"
                )
            row.append(LambdaPoly.const(value))
        rows.append(row)
    return rows


def _series_vs_basis(ws, delta: Series, targets, basis):
    """Powers of a delta series versus the change of basis expressing
    targets(n) in the monic basis basis(k)."""
    order = ws.order
    return egf_triangle_rows(delta, order), basis_change_rows(
        [targets(n) for n in range(order + 1)], [basis(k) for k in range(order + 1)]
    )


def _series_vs_convolution(ws, doubled: Series, single: str):
    """Powers of a delta series composed with itself versus the
    self-convolution of the single-level triangle."""
    rows = ws.tri(single).rows
    return egf_triangle_rows(doubled, ws.order), convolution_rows(rows, rows)


def _specialised_vs_oracle(ws, degenerate: str, oracle):
    """λ = 0 specialisation versus a brute-force oracle, the latter only up to
    the oracle cap (a prefix of the rows)."""
    limit = min(ws.order, _ORACLE_CHECK_LIMIT)
    return lambda_zero_rows(ws.tri(degenerate).rows), [
        [LambdaPoly.const(oracle(n, k)) for k in range(n + 1)] for n in range(limit + 1)
    ]


def _convolution_vs_multinomial(ws):
    """Self-convolution of the classical second-kind triangle versus the
    multinomial Bell sum (only for n <= 8)."""
    s2 = ws.tri("s2").rows
    return convolution_rows(s2, s2), t_multinomial_rows(min(ws.order, 8))


class TriangleKind(NamedTuple):
    routes: object  # workspace -> (rows_a, rows_b), the kind's two routes
    label: str      # what the two routes are, for RouteMismatchError


# The one table of triangle kinds.  Routes look up the layer functions as
# module globals when called, so a wrapper installed on the module sees them.
TRIANGLES = {
    "s1": TriangleKind(
        lambda ws: _specialised_vs_oracle(ws, "s1deg", signed_cycle_oracle),
        "λ=0 vs product expansion"),
    "s2": TriangleKind(
        lambda ws: _specialised_vs_oracle(ws, "s2deg", partition_oracle),
        "λ=0 vs partition enumeration"),
    "s1deg": TriangleKind(
        lambda ws: _series_vs_basis(
            ws, ws.delta("log"), falling_factorial, deg_falling_factorial),
        "series vs basis change"),
    "s2deg": TriangleKind(
        lambda ws: _series_vs_basis(
            ws, ws.delta("exp"), deg_falling_factorial, falling_factorial),
        "series vs basis change"),
    "j1deg": TriangleKind(
        lambda ws: _series_vs_convolution(ws, ws.doubled("log"), "s1deg"),
        "series vs self-convolution"),
    "j2deg": TriangleKind(
        lambda ws: _series_vs_convolution(ws, ws.doubled("exp"), "s2deg"),
        "series vs self-convolution"),
    "t": TriangleKind(_convolution_vs_multinomial, "convolution vs multinomial"),
}
TRIANGLE_KINDS = tuple(TRIANGLES)

# The delta series shared by triangle routes and family generating functions.
_DELTAS = {
    "exp": lambda order: deg_exp(1, order) - 1,  # e_λ(t) - 1
    "log": lambda order: deg_log(order),         # log_λ(1 + t)
}

# Each delta series composed with itself: e_λ(u) - 1 from the differential
# equation of e_λ, log_λ(1 + u) by Horner.
_DOUBLED = {
    "exp": lambda ws: deg_exp(1, ws.order, ws.delta("exp")) - 1,
    "log": lambda ws: compose(ws.delta("log"), ws.delta("log")),
}


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
        """e_λ(t) - 1 ("exp") or log_λ(1 + t) ("log") at the workspace order."""
        return self._get(("delta", name), lambda: _DELTAS[name](self.order))

    def doubled(self, name: str) -> Series:
        """A delta series composed with itself."""
        return self._get(("doubled", name), lambda: _DOUBLED[name](self))

    def routes(self, kind: str):
        """Both routes of a triangle kind, as (rows_a, rows_b)."""
        return self._get(("routes", kind), lambda: TRIANGLES[kind].routes(self))

    def tri(self, kind: str) -> Triangle:
        return self._get(("tri", kind), lambda: _validated(
            kind, self.order, *self.routes(kind), TRIANGLES[kind].label))


def build_triangle(kind: str, order: int) -> Triangle:
    if kind not in TRIANGLES:
        raise ValueError(f"unknown triangle kind {kind!r}")
    return Workspace(order).tri(kind)


def stirling2_deg(order: int) -> Triangle:
    """Degenerate second-kind triangle."""
    return build_triangle("s2deg", order)


def stirling1_deg(order: int) -> Triangle:
    """Degenerate (signed) first-kind triangle."""
    return build_triangle("s1deg", order)


def jstirling2(order: int) -> Triangle:
    """Iterated degenerate second-kind triangle."""
    return build_triangle("j2deg", order)


def jstirling1(order: int) -> Triangle:
    """Iterated degenerate first-kind triangle."""
    return build_triangle("j1deg", order)


def classical_triangles(order: int):
    """Classical second-kind and signed first-kind triangles, as (s2, s1)."""
    ws = Workspace(order)
    return ws.tri("s2"), ws.tri("s1")


def t_numbers(order: int) -> Triangle:
    """Doubly-composed classical second-kind triangle."""
    return build_triangle("t", order)


def korobov(order: int, r: int):
    """Constant terms of (t / log_λ(1+t))^r: one λ-polynomial per n <= order."""
    return korobov_table(order, r)[r]


def deg_bernoulli(order: int, r: int):
    """Constant terms of (t / (e_λ(t)-1))^r: one λ-polynomial per n <= order."""
    return deg_bernoulli_table(order, r)[r]


def _power_slices(base: Series, order: int, max_r: int):
    """table[r][n] = n! [t^n] base^r for r = 0..max_r (table[0] is 1, 0, ...)."""
    if max_r < 1:
        raise ValueError("slice order r must be >= 1")
    facts = [factorial(n) for n in range(order + 1)]
    return [tuple(power.coeffs[n] * facts[n] for n in range(order + 1))
            for power in powers(Series.one(order), base, max_r)]


def korobov_table(order: int, max_r: int):
    """Korobov-number slices for every order 0..max_r at once."""
    base = mul_inverse(deg_log(order + 1).shift_down())
    return _power_slices(base, order, max_r)


def deg_bernoulli_table(order: int, max_r: int):
    """Higher-order deformed Bernoulli number slices for 0..max_r at once."""
    base = mul_inverse((deg_exp(1, order + 1) - 1).shift_down())
    return _power_slices(base, order, max_r)


# kind -> (order, max_r) -> the slices for r = 0..max_r
SLICES = {
    "korobov": lambda order, max_r: korobov_table(order, max_r),
    "degbernoulli": lambda order, max_r: deg_bernoulli_table(order, max_r),
}
SLICE_KINDS = tuple(SLICES)
