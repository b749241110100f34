"""The verification harness.

Every identity the engine is supposed to satisfy is registered here as a
closure that yields (label, lhs, rhs) facts over a shared workspace of
memoized triangles, families, and sequences (the engine's ``Workspace``,
which builds every triangle and family kind from its table, plus the
artifacts only the checks use, each umbral matrix power among them).

Most closures are built from a few shared pieces:

* fact helpers: ``triangles.row_sums`` applies a triangle's rows to a
  sequence (the one kernel behind every "Σₘ seq[m]·rows[n][m]" identity,
  and behind the families' triangle-sum route);
  ``_entry_facts`` and ``_member_facts`` yield one fact per entry of two
  triangles or per member of two sequences; ``_matrix_fact`` condenses a
  whole-matrix comparison into one fact;
* check factories: ``_triangle_route_check`` and ``_family_route_check``
  compare a kind's two routes, ``_product_check`` a triangle with a product
  of two others, ``_expansion_check`` a sequence with the row sums of a
  family, ``_slice_check`` a triangle with a power of a matrix built from
  a number-slice table, and
  ``_umbral_family_check`` a family with the polynomials of r²∘fall, read
  from the workspace's product of coefficient matrices.

``run_suite`` evaluates each registered identity exactly and symbolically,
comparing λ-polynomials / x-polynomials for structural equality. A check
that holds symbolically holds at every λ, so no λ value is substituted;
``verify --lambda-list`` values are validated and recorded in the JSON
metadata only.

Failures are data, not errors: each identity yields one CheckResult whose
witness pinpoints the first offending (n, k) with both rendered values.
An exception raised while evaluating an identity (e.g. an internal
route-mismatch guard) is a bug in the engine or the check, not a disproof:
its result gets status "error", with the exception as witness.

Results come back in registration order, so suite output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import comb, factorial

from .algebra import LambdaPoly, XPoly, falling_products, lp_dot, specialize
from .oracles import bell_number_classical, partition_oracle, signed_cycle_oracle
from .scalars import Q
from .triangles import (
    ORACLE_CHECK_LIMIT,
    SLICES,
    convolution_rows,
    row_sums,
    rows_mismatch,
    t_multinomial_rows,
)
from . import families as _families
from . import umbral as _umbral


@dataclass(frozen=True)
class CheckResult:
    identity_id: str
    order: int
    status: str  # "pass", "fail", or "error" (the check itself raised)
    witness: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class SuiteConfig:
    order: int = 12
    identity_filter: tuple | None = None
    include_stretch: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("suite order must be >= 1")
        if self.identity_filter is not None:
            object.__setattr__(self, "identity_filter", tuple(self.identity_filter))


class UnknownIdentityError(ValueError):
    """An identity filter named a check that is not registered."""


@dataclass(frozen=True)
class _Identity:
    identity_id: str
    description: str
    fn: object
    cap: int | None = None  # identity-specific order ceiling
    stretch: bool = False   # off by default, opt-in


class _Workspace(_families.Workspace):
    """The shared artifacts of one suite run: the triangles and families of
    the engine's workspace at the suite order, plus what only the checks use.
    Each umbral power and r²∘fall matrix is built here once; one side of a
    check reads it, the other is computed without it."""

    def family_at_one(self, kind: str):
        """Members evaluated at x = 1 (the number sequence of the family)."""
        return self._get(
            ("at_one", kind),
            lambda: tuple(p.eval_x(1) for p in self.family(kind)),
        )

    def seq(self, name: str, order: int):
        """A Sheffer sequence (order-capped checks request smaller orders)."""
        return self._get(("seq", name, order), lambda: _umbral.SEQUENCES[name](order))

    def power(self, name: str, order: int, m: int):
        """A sequence's m-fold umbral power matrix, built once per run."""
        return self._get(("power", name, order, m),
                         lambda: _umbral.umbral_power(self.seq(name, order), m))

    def squared_fall(self, name: str, order: int):
        """The coefficient matrix of r²∘fall, r the named sequence: the
        Jindalrae polynomials for "s2", the Gaenari polynomials for "s1"."""
        return self._get(("squared_fall", name, order), lambda: convolution_rows(
            self.power(name, order, 2), self.seq("fall", order).matrix))

    def slice_table(self, kind: str, order: int):
        """Slices r = 0..order of a number-slice kind."""
        return self._get(("slices", kind, order), lambda: SLICES[kind](order, order))

    def fall_at_one(self):
        """(1)(1-λ)...(1-(n-1)λ) for n = 0..order: the deformed falling
        factorials at x = 1."""
        return self._get(("fall_at_one",), lambda: tuple(
            falling_products(LambdaPoly.one(), -LambdaPoly.var(), self.order)))


# ---------------------------------------------------------------------------
# fact helpers
# ---------------------------------------------------------------------------


def _pairs(order):
    for n in range(order + 1):
        for k in range(n + 1):
            yield n, k


def _identity_rows(order):
    one = LambdaPoly.one()
    zero = LambdaPoly.zero()
    return [[one if n == k else zero for k in range(n + 1)] for n in range(order + 1)]


def _entry_facts(rows_a, rows_b, order, label="(n={n}, k={k})"):
    """One fact per entry (n, k), k <= n <= order, of two triangles."""
    for n, k in _pairs(order):
        yield label.format(n=n, k=k), rows_a[n][k], rows_b[n][k]


def _member_facts(seq_a, seq_b, order, start=0):
    """One fact per member n = start..order of two sequences."""
    for n in range(start, order + 1):
        yield f"(n={n})", seq_a[n], seq_b[n]


def _matrix_fact(label, rows_a, rows_b):
    """One fact for two whole matrices: true when they agree, else their
    first differing entry."""
    bad = rows_mismatch(rows_a, rows_b)
    if bad is None:
        return label, True, True
    n, k, a, b = bad
    return f"{label} (n={n}, k={k})", a, b


# ---------------------------------------------------------------------------
# check factories: each returns a closure yielding (label, lhs, rhs) facts
# ---------------------------------------------------------------------------


def _triangle_route_check(kind: str):
    """A check comparing the two routes of a triangle kind entry by entry."""
    def check(ws, order):
        yield from _entry_facts(*ws.routes(kind), order)
    return check


def _family_route_check(kind: str):
    """A check comparing the two routes of a family kind member by member."""
    def check(ws, order):
        yield from _member_facts(*ws.family_routes(kind), order)
    return check


def _product_check(target: str, left: str, right: str, label="(n={n}, k={k})"):
    """A check that triangle ``target`` is the product of two triangles:
    target[n][k] = Σₘ left[n][m]·right[m][k]."""
    def check(ws, order):
        rows = convolution_rows(ws.tri(left)[: order + 1], ws.tri(right))
        yield from _entry_facts(ws.tri(target), rows, order, label)
    return check


def _expansion_check(target, family: str, triangle: str):
    """A check that member n of ``target`` (a family kind, or the step s of
    the falling products x(x+s)...(x+(n-1)s)) is Σₘ family[m]·triangle[n][m]."""
    def check(ws, order):
        if isinstance(target, str):
            expected = ws.family(target)
        else:
            expected = falling_products(XPoly.var(), target, order)
        sums = row_sums(ws.tri(triangle), ws.family(family))
        yield from _member_facts(expected, sums, order)
    return check


def _slice_check(slices: str, m: int, *kinds: str):
    """A check that entry (n, k), 1 <= k <= n, of the product of the
    ``kinds`` triangles is the m-fold slice sum of a slice kind's table:
    Σ over k_m + ... + k_1 = n - k of (n-1)!/(k_1!...k_m!(k-1)!) times
    table[n][k_m]·table[n-k_m][k_(m-1)]·...·table[k+k_1][k_1].

    The multinomial is a product of binomials C(a-1, a-b), one per step
    a → b of the chain n → n-k_m → ... → k, so the sum is entry (n, k) of
    stepᵐ, where step[a][b] = C(a-1, a-b)·table[a][a-b] for 1 <= b <= a."""
    def check(ws, order):
        rows = reduce(convolution_rows, [ws.tri(kind)[: order + 1] for kind in kinds])
        table = ws.slice_table(slices, order)
        step = [[comb(a - 1, a - b) * table[a][a - b] if b else LambdaPoly.zero()
                 for b in range(a + 1)] for a in range(order + 1)]
        sums = reduce(convolution_rows, [step] * m)
        for n in range(1, order + 1):
            for k in range(1, n + 1):
                yield f"(n={n}, k={k})", rows[n][k], sums[n][k]
    return check


def _umbral_family_check(seq: str, kind: str):
    """A check that the polynomials of r²∘fall, with r the named Sheffer
    sequence, are the members of a family kind."""
    def check(ws, order):
        polys = [XPoly(row) for row in ws.squared_fall(seq, order)]
        yield from _member_facts(polys, ws.family(kind), order)
    return check


# ---------------------------------------------------------------------------
# the remaining identity closures
# ---------------------------------------------------------------------------


def _check_orth(ws, order):
    s1 = ws.tri("s1deg")
    s2 = ws.tri("s2deg")
    identity = _identity_rows(order)
    for first, second, tag in ((s1, s2, "1*2"), (s2, s1, "2*1")):
        rows = convolution_rows(first, second)
        yield from _entry_facts(rows, identity, order, tag + " (n={n}, k={k})")


def _check_eq22(ws, order):
    j2 = ws.tri("j2deg")
    bell = ws.family_at_one("degbell")
    sums = row_sums(ws.tri("s2deg"), ws.fall_at_one())
    for n in range(1, order + 1):
        yield f"column 1 (n={n})", j2[n][1], bell[n]
        yield f"weighted sum (n={n})", bell[n], sums[n]


def _check_eq24(ws, order):
    s2 = ws.tri("s2deg")
    sums = row_sums(ws.tri("s1deg"), ws.family_at_one("degbell"))
    falls = ws.fall_at_one()
    for n in range(1, order + 1):
        yield f"(n={n}) sum", s2[n][1], sums[n]
        yield f"(n={n}) closed form", s2[n][1], falls[n]


def _check_cor3(ws, order):
    sums = row_sums(ws.tri("s1deg"), ws.family_at_one("degbell"))
    yield from _member_facts(sums, ws.fall_at_one(), order, start=1)


def _check_cor5(ws, order):
    j1 = ws.tri("j1deg")
    # the m = 0 weight is never read: s1deg[n][0] = 0 for n >= 1
    weights = [LambdaPoly.zero()] + falling_products(LambdaPoly.var() - 1, -1, order - 1)
    sums = row_sums(ws.tri("s1deg"), weights)
    for n in range(1, order + 1):
        yield f"(n={n})", j1[n][1], sums[n]


def _check_thm6(ws, order):
    j2 = ws.tri("j2deg")
    # bell[n][l]: each deformed Bell polynomial at each integer l, once
    bell = [[p.eval_x(l) for l in range(order + 1)] for p in ws.family("degbell")]
    zero = LambdaPoly.zero()
    for k in range(order + 1):
        weights = [LambdaPoly.const(Q((-1) ** (k - l) * comb(k, l), factorial(k)))
                   for l in range(k + 1)]
        for n in range(order + 1):
            expected = j2[n][k] if n >= k else zero
            tag = "vanishing " if n < k else ""
            yield f"{tag}(n={n}, k={k})", lp_dot(zip(bell[n], weights)), expected


def _check_eq34(ws, order):
    s1 = ws.tri("s1deg")
    sums = row_sums(ws.tri("j1deg"), ws.fall_at_one())
    for n in range(1, order + 1):
        yield f"(n={n})", s1[n][1], sums[n]


def _check_eq44(ws, order):
    numbers = ws.family_at_one("gaenari")
    sums = row_sums(ws.tri("s2deg"), numbers)
    yield "initial value", numbers[0], LambdaPoly.one()
    for n in range(order + 1):
        yield f"(n={n})", sums[n], LambdaPoly.one() if n <= 1 else LambdaPoly.zero()


def _check_cor13(ws, order):
    numbers = ws.family_at_one("gaenari")
    shifted = falling_products(LambdaPoly.var() - 1, -1, order - 1)  # (λ-1)...(λ-n+1)
    for n in range(1, order + 1):
        yield f"(n={n})", numbers[n], shifted[n - 1]


def _check_eq52(ws, order):
    left = row_sums(ws.tri("j2deg"), ws.family("gaenari"))
    right = row_sums(ws.tri("j1deg"), ws.family("jindalrae"))
    yield from _member_facts(left, right, order)


def _check_eq17(ws, order):
    t = ws.tri("t")
    yield "(n=0, k=0)", t[0][0], 1
    for n in range(1, order + 1):
        yield f"column 1 (n={n})", t[n][1], bell_number_classical(n)
        yield f"diagonal (n={n})", t[n][n], 1
        yield f"column 0 (n={n})", t[n][0], 0


def _check_eq19(ws, order):
    yield from _entry_facts(ws.tri("t"), t_multinomial_rows(order), order)


def _check_thm14(ws, order):
    ident = ws.seq("ident", order)
    yield from _entry_facts(
        ident.matrix, _identity_rows(order), order, "identity pair (n={n}, k={k})")

    # each distinct predicted pair, every one at the check order, is
    # regenerated once; the cache holds regenerations only, never a workspace
    # sequence, so no fact reads one matrix on both sides
    regen = cache(_umbral.sheffer_from_pair)

    named = [
        ("t", ident),
        ("exp", ws.seq("s1", order)),
        ("log", ws.seq("s2", order)),
        ("appell", ws.seq("appell", order)),
    ]
    for qname, q in named:
        for pname, p in named:
            yield _matrix_fact(f"group law {qname}∘{pname}", _umbral.umbral_compose(q, p),
                               regen(*_umbral.compose_pair((q.g, q.f), p)).matrix)

    # s's matrix inverts its Riordan array [g, f]; inv's inverts the array of
    # (1/g(fbar), fbar), so s∘inv = I checks s's generating identity
    for name, s in named:
        inv = regen(*_umbral.inverse_pair(s))
        for tag, prod in (
            ("right", _umbral.umbral_compose(s, inv)),
            ("left", _umbral.umbral_compose(inv, s)),
        ):
            yield _matrix_fact(f"{tag} inverse of {name}", prod, ident.matrix)

    # power pairs regenerate the same matrices
    for tag, name in (("log", "s2"), ("appell", "appell")):
        for m in (2, 3):
            yield _matrix_fact(f"power pair {tag}^({m})", ws.power(name, order, m),
                               regen(*_umbral.power_pair(ws.seq(name, order), m)).matrix)


def _check_eq56(ws, order):
    for name in ("s2", "s1"):
        for m in (2, 3):
            explicit = _umbral.umbral_power_explicit_rows(ws.seq(name, order), m)
            powered = ws.power(name, order, m)
            yield from _entry_facts(explicit, powered, order, f"{name} m={m} (n={{n}}, k={{k}})")


def _check_cor15(ws, order):
    fall = ws.seq("fall", order)
    targets = {
        "ident": [XPoly(row) for row in fall.matrix],
        "s2": ws.family("jindalrae"),
        "s1": ws.family("gaenari"),
    }
    for name, target in targets.items():
        rhs = _umbral.corollary15_rhs(ws.seq(name, order), fall, 2)
        for n, row in enumerate(ws.squared_fall(name, order)):
            composed = XPoly(row)
            yield f"{name} substitution (n={n})", composed, XPoly(rhs[n])
            yield f"{name} generating coefficient (n={n})", composed, target[n]


def _check_degbound(ws, order):
    s2 = ws.tri("s2deg")
    s1 = ws.tri("s1deg")
    for n, k in _pairs(order):
        yield f"second kind (n={n}, k={k})", s2[n][k].degree <= n - k, True
        yield f"first kind (n={n}, k={k})", s1[n][k].degree <= n - k, True


def _check_classical(ws, order):
    s2 = ws.tri("s2deg")
    s1 = ws.tri("s1deg")
    for n, k in _pairs(order):
        yield f"second kind (n={n}, k={k})", s2[n][k].eval(0), partition_oracle(n, k)
        yield f"first kind (n={n}, k={k})", s1[n][k].eval(0), signed_cycle_oracle(n, k)
    bell = ws.family("degbell")
    for n in range(order + 1):
        yield (
            f"bell number (n={n})",
            specialize(bell[n].eval_x(1), 0),
            bell_number_classical(n),
        )


_REGISTRY = (
    _Identity("eq9", "second-kind degenerate triangle: series extraction equals falling-basis change", _triangle_route_check("s2deg")),
    _Identity("eq8", "first-kind degenerate triangle: series extraction equals deformed-basis change", _triangle_route_check("s1deg")),
    _Identity("orth", "first- and second-kind degenerate triangles are mutually inverse", _check_orth),
    _Identity("thm1", "iterated second-kind numbers equal the self-convolution of the second-kind triangle", _triangle_route_check("j2deg")),
    _Identity("eq22", "column one of the iterated second-kind triangle gives the deformed Bell numbers", _check_eq22),
    _Identity("thm2", "second-kind entries recovered from iterated second-kind and first-kind entries", _product_check("s2deg", "s1deg", "j2deg")),
    _Identity("eq24", "column one of the second-kind triangle via Bell numbers and first-kind weights", _check_eq24),
    _Identity("cor3", "first-kind-weighted deformed Bell numbers collapse to the deformed falling factorial of 1", _check_cor3),
    _Identity("thm4", "iterated first-kind numbers equal the self-convolution of the first-kind triangle", _triangle_route_check("j1deg")),
    _Identity("cor5", "column one of the iterated first-kind triangle via shifted falling factorials", _check_cor5),
    _Identity("thm6", "iterated second-kind numbers as alternating sums of deformed Bell values at integers (zero above the diagonal)", _check_thm6),
    _Identity("thm7", "first-kind entries recovered from iterated first-kind and second-kind entries", _product_check("s1deg", "j1deg", "s2deg", "(n={n}, l={k})")),
    _Identity("eq34", "column one of the first-kind triangle via iterated first-kind weights", _check_eq34),
    _Identity("eq14", "deformed Bell polynomials: triangle sum equals series extraction", _family_route_check("degbell")),
    _Identity("newbell", "new-type Bell polynomials: classical-triangle sum equals series extraction", _family_route_check("newbell")),
    _Identity("thm8", "Jindalrae polynomials: iterated-triangle sum equals series extraction", _family_route_check("jindalrae")),
    _Identity("thm9", "deformed Bell polynomials as first-kind-weighted Jindalrae polynomials", _expansion_check("degbell", "jindalrae", "s1deg")),
    _Identity("thm10", "Jindalrae polynomials as second-kind-weighted deformed Bell polynomials", _expansion_check("jindalrae", "degbell", "s2deg")),
    _Identity("thm11", "Gaenari polynomials: iterated-triangle sum equals series extraction", _family_route_check("gaenari")),
    _Identity("thm12", "plain falling factorials as second-kind-weighted Gaenari polynomials", _expansion_check(-1, "gaenari", "s2deg")),
    _Identity("eq44", "second-kind-weighted Gaenari numbers vanish beyond the first two rows", _check_eq44),
    _Identity("cor13", "Gaenari numbers equal the shifted falling factorial of λ", _check_cor13),
    _Identity("eq49", "deformed falling factorials as iterated-second-kind-weighted Gaenari polynomials", _expansion_check(-LambdaPoly.var(), "gaenari", "j2deg")),
    _Identity("eq51", "deformed falling factorials as iterated-first-kind-weighted Jindalrae polynomials", _expansion_check(-LambdaPoly.var(), "jindalrae", "j1deg")),
    _Identity("eq52", "the two dual expansions of the deformed falling factorial agree", _check_eq52),
    _Identity("eq17", "doubly-composed classical triangle: column one gives the Bell numbers", _check_eq17, cap=ORACLE_CHECK_LIMIT),
    # eq19's multinomial sum reads Bell numbers from the partition enumeration
    # (limit 12). t_multinomial_rows, enumeration cache cleared, best of 3
    # (Python 3.11.7, 2-CPU shared host): 1.0 ms at 8, 6.3 ms at 10, 0.17 s at 12.
    # The caps of eq17, eq19 and classical are printed by verify, and those
    # orders are pinned by perfbench/digests.json.
    _Identity("eq19", "doubly-composed classical triangle: convolution equals the multinomial Bell sum", _check_eq19, cap=8),
    # thm14 and eq56 uncapped at orders 16 / 24 (in-process, fresh workspace,
    # best of 3 in each of three processes; Python 3.11.7, Fraction, 2-CPU
    # shared host): thm14 0.17-0.22 s / 0.79-1.18 s, with its 14 distinct
    # regenerated pairs (0.26 s / 1.13 s when it rebuilt all 24), eq56
    # 0.05-0.07 s / 0.36 s.
    _Identity("thm14", "umbral composition group law, identity, inverses, and power pairs", _check_thm14, cap=10),
    _Identity("eq56", "umbral powers equal the explicit multi-index coefficient sums", _check_eq56, cap=10),
    _Identity("eq60", "Jindalrae polynomials via the squared second-kind sequence", _umbral_family_check("s2", "jindalrae")),
    _Identity("eq66", "Gaenari polynomials via the squared first-kind sequence", _umbral_family_check("s1", "gaenari")),
    _Identity("cor15", "composing with a squared associated sequence substitutes the doubled inverse map", _check_cor15, cap=10),
    _Identity("s31-m1", "second-kind entries from single binomial-weighted log-quotient slices", _slice_check("korobov", 1, "s2deg"), cap=10),
    _Identity("s31-m2", "iterated second-kind entries from paired log-quotient slices", _slice_check("korobov", 2, "j2deg"), cap=10),
    _Identity("s32-m1", "first-kind entries from single binomial-weighted exp-quotient slices", _slice_check("degbernoulli", 1, "s1deg"), cap=10),
    _Identity("s32-m2", "iterated first-kind entries from paired exp-quotient slices", _slice_check("degbernoulli", 2, "j1deg"), cap=10),
    _Identity("s31-m3", "triple-convolved second-kind entries from log-quotient slices (stretch)", _slice_check("korobov", 3, "s2deg", "s2deg", "s2deg"), cap=8, stretch=True),
    _Identity("s32-m3", "triple-convolved first-kind entries from exp-quotient slices (stretch)", _slice_check("degbernoulli", 3, "s1deg", "s1deg", "s1deg"), cap=8, stretch=True),
    _Identity("degbound", "degenerate triangle entries have λ-degree at most n-k", _check_degbound),
    _Identity("classical", "λ=0 degenerations match the enumeration and expansion oracles", _check_classical, cap=ORACLE_CHECK_LIMIT),
)

_BY_ID = {ident.identity_id: ident for ident in _REGISTRY}


def identity_ids(include_stretch: bool = True):
    return tuple(
        i.identity_id for i in _REGISTRY if include_stretch or not i.stretch
    )


def describe_identities():
    """(id, description, stretch) rows in registry order."""
    return tuple((i.identity_id, i.description, i.stretch) for i in _REGISTRY)


def _first_failure(facts):
    """The witness of the first fact that fails; None when every fact holds."""
    for label, lhs, rhs in facts:
        if lhs != rhs:
            return f"{label}: {lhs} != {rhs}"
    return None


def run_suite(config: SuiteConfig | None = None):
    """Evaluate the selected identities and return CheckResults in registry
    order.  Deterministic: same config, same bytes."""
    if config is None:
        config = SuiteConfig()
    if config.identity_filter is not None:
        unknown = [i for i in config.identity_filter if i not in _BY_ID]
        if unknown:
            raise UnknownIdentityError(
                f"unknown identity id(s): {', '.join(sorted(unknown))}"
            )
        wanted = set(config.identity_filter)
        selected = [i for i in _REGISTRY if i.identity_id in wanted]
    else:
        selected = [i for i in _REGISTRY if config.include_stretch or not i.stretch]

    ws = _Workspace(config.order)
    results = []
    for ident in selected:
        order = min(config.order, ident.cap) if ident.cap else config.order
        try:
            # every fact is built before any is compared, so an exception in
            # any fact makes the result an error, never a failure
            facts = list(ident.fn(ws, order))
            witness = _first_failure(facts)
            status = "fail" if witness else "pass"
        except Exception as exc:  # a bug in the engine or the check, not a disproof
            status = "error"
            witness = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(ident.identity_id, order, status, witness))
    return results
