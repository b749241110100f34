"""The verification harness.

Every identity the engine is supposed to satisfy is registered here as a
closure that yields (label, lhs, rhs) facts over a shared workspace of
memoized triangles, families, and sequences (the engine's ``Workspace``,
which builds every triangle and family kind from its table, plus the
artifacts only the checks use).  ``run_suite`` evaluates each registered
identity exactly:

* symbolically, comparing λ-polynomials / x-polynomials for structural
  equality (the strongest form: an identity that holds symbolically holds for
  every λ), and
* optionally at a list of rational λ values, substituting first and then
  comparing scalars, which exercises the substitution path itself.

Failures are data, not errors: each identity yields one CheckResult whose
witness pinpoints the first offending (n, k) with both rendered values.
An exception raised while evaluating an identity (e.g. an internal
route-mismatch guard) is a bug in the engine or the check, not a disproof:
its result gets status "error", with the exception as witness.

Results come back in registration order, so suite output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .algebra import (
    LambdaPoly,
    XPoly,
    deg_falling_factorial,
    deg_falling_scalar,
    falling_factorial,
    lambda_shifted_falling,
    specialize,
)
from .oracles import bell_number_classical, partition_oracle, signed_cycle_oracle
from .scalars import Q, as_scalar, is_scalar, scalar_str
from .series import (
    Series,
    comp_inverse,
    compose,
    compositional_power,
    deg_exp,
    mul_inverse,
)
from .triangles import SLICES, convolution_rows, rows_mismatch
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
    lambda_specializations: tuple = ()
    identity_filter: tuple | None = None
    include_stretch: bool = False

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("suite order must be >= 1")
        object.__setattr__(
            self,
            "lambda_specializations",
            tuple(as_scalar(v) for v in self.lambda_specializations),
        )
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


def _appell_sequence(order: int):
    base = deg_exp(1, order + 1) - 1
    g = mul_inverse(base.shift_down())
    return _umbral.sheffer_from_pair(g, Series.identity(LambdaPoly, order), order)


# Sheffer sequences by name: order -> ShefferSeq
_SEQUENCES = {
    "ident": _umbral.identity_sheffer,
    "s2": _umbral.stirling2_sequence,
    "s1": _umbral.stirling1_sequence,
    "fall": _umbral.falling_factorial_sequence,
    "appell": _appell_sequence,
}


class _Workspace(_families.Workspace):
    """The shared artifacts of one suite run: the triangles and families of
    the engine's workspace at the suite order, plus what only the checks use."""

    def family_at_one(self, kind: str):
        """Members evaluated at x = 1 (the number sequence of the family)."""
        return self._get(
            ("at_one", kind),
            lambda: tuple(p.eval_x(1) for p in self.family(kind).polys),
        )

    def seq(self, name: str, order: int):
        """A Sheffer sequence (order-capped checks request smaller orders)."""
        return self._get(("seq", name, order), lambda: _SEQUENCES[name](order))

    def slice_table(self, kind: str, order: int):
        """Slices r = 0..order of a number-slice kind."""
        return self._get(("slices", kind, order), lambda: SLICES[kind](order, order))

    def fall_one(self, n: int) -> LambdaPoly:
        """(1)(1-λ)...(1-(n-1)λ)."""
        return self._get(("fall_one", n), lambda: deg_falling_scalar(1, n))


# ---------------------------------------------------------------------------
# identity closures: each yields (label, lhs, rhs) facts
# ---------------------------------------------------------------------------


def _pairs(order):
    for n in range(order + 1):
        for k in range(n + 1):
            yield n, k


def _triangle_route_check(kind: str):
    """A check comparing the two routes of a triangle kind entry by entry
    (over the rows both routes have)."""
    def check(ws, order):
        rows_a, rows_b = ws.routes(kind)
        for n, (row_a, row_b) in enumerate(zip(rows_a[: order + 1], rows_b)):
            for k, (a, b) in enumerate(zip(row_a, row_b)):
                yield f"(n={n}, k={k})", a, b
    return check


def _family_route_check(kind: str):
    """A check comparing the two routes of a family kind member by member."""
    def check(ws, order):
        sum_polys, egf_polys = ws.family_routes(kind)
        for n in range(order + 1):
            yield f"(n={n})", sum_polys[n], egf_polys[n]
    return check


def _check_orth(ws, order):
    s1 = ws.tri("s1deg").rows
    s2 = ws.tri("s2deg").rows
    one = LambdaPoly.one()
    zero = LambdaPoly.zero()
    for first, second, tag in ((s1, s2, "1*2"), (s2, s1, "2*1")):
        prod = convolution_rows(first, second)
        for n, k in _pairs(order):
            yield f"{tag} (n={n}, k={k})", prod[n][k], one if n == k else zero


def _check_eq22(ws, order):
    j2 = ws.tri("j2deg").rows
    s2 = ws.tri("s2deg").rows
    bell = ws.family_at_one("degbell")
    for n in range(1, order + 1):
        yield f"column 1 (n={n})", j2[n][1], bell[n]
        acc = LambdaPoly.zero()
        for m in range(1, n + 1):
            acc = acc + s2[n][m] * ws.fall_one(m)
        yield f"weighted sum (n={n})", bell[n], acc


def _check_thm2(ws, order):
    s2 = ws.tri("s2deg").rows
    s1 = ws.tri("s1deg").rows
    j2 = ws.tri("j2deg").rows
    for n, k in _pairs(order):
        acc = LambdaPoly.zero()
        for m in range(k, n + 1):
            acc = acc + j2[m][k] * s1[n][m]
        yield f"(n={n}, k={k})", s2[n][k], acc


def _check_eq24(ws, order):
    s2 = ws.tri("s2deg").rows
    s1 = ws.tri("s1deg").rows
    bell = ws.family_at_one("degbell")
    for n in range(1, order + 1):
        acc = LambdaPoly.zero()
        for m in range(1, n + 1):
            acc = acc + bell[m] * s1[n][m]
        yield f"(n={n}) sum", s2[n][1], acc
        yield f"(n={n}) closed form", s2[n][1], ws.fall_one(n)


def _check_cor3(ws, order):
    s1 = ws.tri("s1deg").rows
    bell = ws.family_at_one("degbell")
    for n in range(1, order + 1):
        acc = LambdaPoly.zero()
        for m in range(1, n + 1):
            acc = acc + bell[m] * s1[n][m]
        yield f"(n={n})", acc, ws.fall_one(n)


def _check_cor5(ws, order):
    j1 = ws.tri("j1deg").rows
    s1 = ws.tri("s1deg").rows
    for n in range(1, order + 1):
        acc = LambdaPoly.zero()
        for m in range(1, n + 1):
            acc = acc + lambda_shifted_falling(m) * s1[n][m]
        yield f"(n={n})", j1[n][1], acc


def _check_thm6(ws, order):
    j2 = ws.tri("j2deg").rows
    bell_polys = ws.family("degbell").polys
    zero = LambdaPoly.zero()
    for k in range(order + 1):
        inv_kfact = LambdaPoly.const(_inv_factorial(k))
        for n in range(order + 1):
            acc = zero
            for l in range(k + 1):
                sign = 1 if (k - l) % 2 == 0 else -1
                acc = acc + bell_polys[n].eval_x(l) * (sign * comb(k, l))
            value = acc * inv_kfact
            expected = j2[n][k] if n >= k else zero
            tag = "vanishing " if n < k else ""
            yield f"{tag}(n={n}, k={k})", value, expected


def _inv_factorial(k: int):
    return Q(1, factorial(k))


def _check_thm7(ws, order):
    s1 = ws.tri("s1deg").rows
    s2 = ws.tri("s2deg").rows
    j1 = ws.tri("j1deg").rows
    for n, l in _pairs(order):
        acc = LambdaPoly.zero()
        for k in range(l, n + 1):
            acc = acc + j1[n][k] * s2[k][l]
        yield f"(n={n}, l={l})", s1[n][l], acc


def _check_eq34(ws, order):
    s1 = ws.tri("s1deg").rows
    j1 = ws.tri("j1deg").rows
    for n in range(1, order + 1):
        acc = LambdaPoly.zero()
        for k in range(1, n + 1):
            acc = acc + ws.fall_one(k) * j1[n][k]
        yield f"(n={n})", s1[n][1], acc


def _check_thm9(ws, order):
    bell = ws.family("degbell").polys
    jind = ws.family("jindalrae").polys
    s1 = ws.tri("s1deg").rows
    for n in range(order + 1):
        acc = XPoly.zero()
        for m in range(n + 1):
            acc = acc + jind[m] * s1[n][m]
        yield f"(n={n})", bell[n], acc


def _check_thm10(ws, order):
    bell = ws.family("degbell").polys
    jind = ws.family("jindalrae").polys
    s2 = ws.tri("s2deg").rows
    for n in range(order + 1):
        acc = XPoly.zero()
        for m in range(n + 1):
            acc = acc + bell[m] * s2[n][m]
        yield f"(n={n})", jind[n], acc


def _check_thm12(ws, order):
    gae = ws.family("gaenari").polys
    s2 = ws.tri("s2deg").rows
    for n in range(order + 1):
        acc = XPoly.zero()
        for m in range(n + 1):
            acc = acc + gae[m] * s2[n][m]
        yield f"(n={n})", falling_factorial(n), acc


def _check_eq44(ws, order):
    numbers = ws.family_at_one("gaenari")
    s2 = ws.tri("s2deg").rows
    yield "initial value", numbers[0], LambdaPoly.one()
    for n in range(order + 1):
        acc = LambdaPoly.zero()
        for m in range(n + 1):
            acc = acc + numbers[m] * s2[n][m]
        expected = LambdaPoly.one() if n <= 1 else LambdaPoly.zero()
        yield f"(n={n})", acc, expected


def _check_cor13(ws, order):
    numbers = ws.family_at_one("gaenari")
    for n in range(1, order + 1):
        yield f"(n={n})", numbers[n], lambda_shifted_falling(n)


def _check_eq49(ws, order):
    gae = ws.family("gaenari").polys
    j2 = ws.tri("j2deg").rows
    for n in range(order + 1):
        acc = XPoly.zero()
        for m in range(n + 1):
            acc = acc + gae[m] * j2[n][m]
        yield f"(n={n})", deg_falling_factorial(n), acc


def _check_eq51(ws, order):
    jind = ws.family("jindalrae").polys
    j1 = ws.tri("j1deg").rows
    for n in range(order + 1):
        acc = XPoly.zero()
        for m in range(n + 1):
            acc = acc + jind[m] * j1[n][m]
        yield f"(n={n})", deg_falling_factorial(n), acc


def _check_eq52(ws, order):
    gae = ws.family("gaenari").polys
    jind = ws.family("jindalrae").polys
    j2 = ws.tri("j2deg").rows
    j1 = ws.tri("j1deg").rows
    for n in range(order + 1):
        left = XPoly.zero()
        right = XPoly.zero()
        for m in range(n + 1):
            left = left + gae[m] * j2[n][m]
            right = right + jind[m] * j1[n][m]
        yield f"(n={n})", left, right


def _check_eq17(ws, order):
    t = ws.tri("t").rows
    yield "(n=0, k=0)", t[0][0], 1
    for n in range(1, order + 1):
        yield f"column 1 (n={n})", t[n][1], bell_number_classical(n)
        yield f"diagonal (n={n})", t[n][n], 1
        yield f"column 0 (n={n})", t[n][0], 0


def _check_thm14(ws, order):
    ident = ws.seq("ident", order)
    one = LambdaPoly.one()
    zero = LambdaPoly.zero()
    for n, k in _pairs(order):
        yield f"identity pair (n={n}, k={k})", ident.matrix[n][k], one if n == k else zero

    named = [
        ("t", ident),
        ("exp", ws.seq("s1", order)),
        ("log", ws.seq("s2", order)),
        ("appell", ws.seq("appell", order)),
    ]
    for qname, q in named:
        for pname, p in named:
            composed = _umbral.umbral_compose(q, p)
            regen = _umbral.sheffer_from_pair(composed.g, composed.f, order)
            bad = rows_mismatch(composed.matrix, regen.matrix)
            label = f"group law {qname}∘{pname}"
            if bad is None:
                yield label, True, True
            else:
                n, k, a, b = bad
                yield f"{label} (n={n}, k={k})", a, b

    for name, s in named:
        inv = _umbral.group_inverse(s)
        for tag, prod in (
            ("right", _umbral.umbral_compose(s, inv)),
            ("left", _umbral.umbral_compose(inv, s)),
        ):
            bad = rows_mismatch(prod.matrix, ident.matrix)
            label = f"{tag} inverse of {name}"
            if bad is None:
                yield label, True, True
            else:
                n, k, a, b = bad
                yield f"{label} (n={n}, k={k})", a, b

    # power pairs regenerate the same matrices
    for name, r in (("log", ws.seq("s2", order)), ("appell", ws.seq("appell", order))):
        for m in (2, 3):
            powered = _umbral.umbral_power(r, m)
            regen = _umbral.sheffer_from_pair(powered.g, powered.f, order)
            bad = rows_mismatch(powered.matrix, regen.matrix)
            label = f"power pair {name}^({m})"
            if bad is None:
                yield label, True, True
            else:
                n, k, a, b = bad
                yield f"{label} (n={n}, k={k})", a, b


def _check_eq56(ws, order):
    for name in ("s2", "s1"):
        r = ws.seq(name, order)
        for m in (2, 3):
            explicit = _umbral.umbral_power_explicit_rows(r, m)
            powered = _umbral.umbral_power(r, m).matrix
            for n, k in _pairs(order):
                yield f"{name} m={m} (n={n}, k={k})", explicit[n][k], powered[n][k]


def _umbral_family_polys(ws, seq_name: str, order: int):
    r = ws.seq(seq_name, order)
    fall = ws.seq("fall", order)
    return _umbral.umbral_compose(_umbral.umbral_power(r, 2), fall).polys()


def _check_eq60(ws, order):
    polys = _umbral_family_polys(ws, "s2", order)
    direct = ws.family("jindalrae").polys
    for n in range(order + 1):
        yield f"(n={n})", polys[n], direct[n]


def _check_eq66(ws, order):
    polys = _umbral_family_polys(ws, "s1", order)
    direct = ws.family("gaenari").polys
    for n in range(order + 1):
        yield f"(n={n})", polys[n], direct[n]


def _check_cor15(ws, order):
    fall = ws.seq("fall", order)
    targets = {
        "ident": fall.polys(),
        "s2": ws.family("jindalrae").polys,
        "s1": ws.family("gaenari").polys,
    }
    for name in ("ident", "s2", "s1"):
        r = ws.seq(name, order)
        composed = _umbral.umbral_compose(_umbral.umbral_power(r, 2), fall)
        lhs = composed.egf()
        ell_bar = compositional_power(comp_inverse(r.f), 2)
        rhs = compose(fall.egf(), ell_bar.lift())
        for n in range(order + 1):
            yield f"{name} substitution (n={n})", lhs.coeffs[n], rhs.coeffs[n]
            yield (
                f"{name} generating coefficient (n={n})",
                composed.poly(n),
                targets[name][n],
            )


def _check_s31_m1(ws, order):
    s2 = ws.tri("s2deg").rows
    table = ws.slice_table("korobov", order)
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            yield f"(n={n}, k={k})", s2[n][k], table[n][n - k] * comb(n - 1, k - 1)


def _check_s32_m1(ws, order):
    s1 = ws.tri("s1deg").rows
    table = ws.slice_table("degbernoulli", order)
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            yield f"(n={n}, k={k})", s1[n][k], table[n][n - k] * comb(n - 1, k - 1)


def _two_slice_convolution(rows, table, order):
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            acc = LambdaPoly.zero()
            for k2 in range(n - k + 1):
                k1 = n - k - k2
                coeff = factorial(n - 1) // (
                    factorial(k1) * factorial(k2) * factorial(k - 1)
                )
                acc = acc + table[n][k2] * table[n - k2][k1] * coeff
            yield f"(n={n}, k={k})", rows[n][k], acc


def _check_s31_m2(ws, order):
    yield from _two_slice_convolution(ws.tri("j2deg").rows, ws.slice_table("korobov", order), order)


def _check_s32_m2(ws, order):
    yield from _two_slice_convolution(ws.tri("j1deg").rows, ws.slice_table("degbernoulli", order), order)


def _three_slice_convolution(rows3, table, order):
    for n in range(1, order + 1):
        for k in range(1, n + 1):
            acc = LambdaPoly.zero()
            for k3 in range(n - k + 1):
                for k2 in range(n - k - k3 + 1):
                    k1 = n - k - k3 - k2
                    coeff = factorial(n - 1) // (
                        factorial(k1)
                        * factorial(k2)
                        * factorial(k3)
                        * factorial(k - 1)
                    )
                    acc = acc + (
                        table[n][k3]
                        * table[n - k3][k2]
                        * table[n - k3 - k2][k1]
                        * coeff
                    )
            yield f"(n={n}, k={k})", rows3[n][k], acc


def _check_s31_m3(ws, order):
    s2 = ws.tri("s2deg").rows
    cube = convolution_rows(convolution_rows(s2, s2), s2)
    yield from _three_slice_convolution(cube, ws.slice_table("korobov", order), order)


def _check_s32_m3(ws, order):
    s1 = ws.tri("s1deg").rows
    cube = convolution_rows(convolution_rows(s1, s1), s1)
    yield from _three_slice_convolution(cube, ws.slice_table("degbernoulli", order), order)


def _check_degbound(ws, order):
    s2 = ws.tri("s2deg").rows
    s1 = ws.tri("s1deg").rows
    for n, k in _pairs(order):
        yield f"second kind (n={n}, k={k})", s2[n][k].degree <= n - k, True
        yield f"first kind (n={n}, k={k})", s1[n][k].degree <= n - k, True


def _check_classical(ws, order):
    s2 = ws.tri("s2deg").rows
    s1 = ws.tri("s1deg").rows
    for n, k in _pairs(order):
        yield f"second kind (n={n}, k={k})", s2[n][k].eval(0), partition_oracle(n, k)
        yield f"first kind (n={n}, k={k})", s1[n][k].eval(0), signed_cycle_oracle(n, k)
    bell = ws.family("degbell").polys
    for n in range(order + 1):
        yield (
            f"bell number (n={n})",
            specialize(bell[n], 0, 1),
            bell_number_classical(n),
        )


_REGISTRY = (
    _Identity("eq9", "second-kind degenerate triangle: series extraction equals falling-basis change", _triangle_route_check("s2deg")),
    _Identity("eq8", "first-kind degenerate triangle: series extraction equals deformed-basis change", _triangle_route_check("s1deg")),
    _Identity("orth", "first- and second-kind degenerate triangles are mutually inverse", _check_orth),
    _Identity("thm1", "iterated second-kind numbers equal the self-convolution of the second-kind triangle", _triangle_route_check("j2deg")),
    _Identity("eq22", "column one of the iterated second-kind triangle gives the deformed Bell numbers", _check_eq22),
    _Identity("thm2", "second-kind entries recovered from iterated second-kind and first-kind entries", _check_thm2),
    _Identity("eq24", "column one of the second-kind triangle via Bell numbers and first-kind weights", _check_eq24),
    _Identity("cor3", "first-kind-weighted deformed Bell numbers collapse to the deformed falling factorial of 1", _check_cor3),
    _Identity("thm4", "iterated first-kind numbers equal the self-convolution of the first-kind triangle", _triangle_route_check("j1deg")),
    _Identity("cor5", "column one of the iterated first-kind triangle via shifted falling factorials", _check_cor5),
    _Identity("thm6", "iterated second-kind numbers as alternating sums of deformed Bell values at integers (zero above the diagonal)", _check_thm6),
    _Identity("thm7", "first-kind entries recovered from iterated first-kind and second-kind entries", _check_thm7),
    _Identity("eq34", "column one of the first-kind triangle via iterated first-kind weights", _check_eq34),
    _Identity("eq14", "deformed Bell polynomials: triangle sum equals series extraction", _family_route_check("degbell")),
    _Identity("newbell", "new-type Bell polynomials: classical-triangle sum equals series extraction", _family_route_check("newbell")),
    _Identity("thm8", "Jindalrae polynomials: iterated-triangle sum equals series extraction", _family_route_check("jindalrae")),
    _Identity("thm9", "deformed Bell polynomials as first-kind-weighted Jindalrae polynomials", _check_thm9),
    _Identity("thm10", "Jindalrae polynomials as second-kind-weighted deformed Bell polynomials", _check_thm10),
    _Identity("thm11", "Gaenari polynomials: iterated-triangle sum equals series extraction", _family_route_check("gaenari")),
    _Identity("thm12", "plain falling factorials as second-kind-weighted Gaenari polynomials", _check_thm12),
    _Identity("eq44", "second-kind-weighted Gaenari numbers vanish beyond the first two rows", _check_eq44),
    _Identity("cor13", "Gaenari numbers equal the shifted falling factorial of λ", _check_cor13),
    _Identity("eq49", "deformed falling factorials as iterated-second-kind-weighted Gaenari polynomials", _check_eq49),
    _Identity("eq51", "deformed falling factorials as iterated-first-kind-weighted Jindalrae polynomials", _check_eq51),
    _Identity("eq52", "the two dual expansions of the deformed falling factorial agree", _check_eq52),
    _Identity("eq17", "doubly-composed classical triangle: column one gives the Bell numbers", _check_eq17, cap=10),
    _Identity("eq19", "doubly-composed classical triangle: convolution equals the multinomial Bell sum", _triangle_route_check("t"), cap=8),
    _Identity("thm14", "umbral composition group law, identity, inverses, and power pairs", _check_thm14, cap=10),
    _Identity("eq56", "umbral powers equal the explicit multi-index coefficient sums", _check_eq56, cap=10),
    _Identity("eq60", "Jindalrae polynomials via the squared second-kind sequence", _check_eq60),
    _Identity("eq66", "Gaenari polynomials via the squared first-kind sequence", _check_eq66),
    _Identity("cor15", "composing with a squared associated sequence substitutes the doubled inverse map", _check_cor15, cap=10),
    _Identity("s31-m1", "second-kind entries from single binomial-weighted log-quotient slices", _check_s31_m1, cap=10),
    _Identity("s31-m2", "iterated second-kind entries from paired log-quotient slices", _check_s31_m2, cap=10),
    _Identity("s32-m1", "first-kind entries from single binomial-weighted exp-quotient slices", _check_s32_m1, cap=10),
    _Identity("s32-m2", "iterated first-kind entries from paired exp-quotient slices", _check_s32_m2, cap=10),
    _Identity("s31-m3", "triple-convolved second-kind entries from log-quotient slices (stretch)", _check_s31_m3, cap=8, stretch=True),
    _Identity("s32-m3", "triple-convolved first-kind entries from exp-quotient slices (stretch)", _check_s32_m3, cap=8, stretch=True),
    _Identity("degbound", "degenerate triangle entries have λ-degree at most n-k", _check_degbound),
    _Identity("classical", "λ=0 degenerations match the enumeration and expansion oracles", _check_classical, cap=10),
)

_BY_ID = {ident.identity_id: ident for ident in _REGISTRY}


def identity_ids(include_stretch: bool = True):
    return tuple(
        i.identity_id for i in _REGISTRY if include_stretch or not i.stretch
    )


def describe_identities():
    """(id, description, stretch) rows in registry order."""
    return tuple((i.identity_id, i.description, i.stretch) for i in _REGISTRY)


def _value_equal(lhs, rhs) -> bool:
    return lhs == rhs


def _value_at(value, lam):
    if isinstance(value, LambdaPoly):
        return value.eval(lam)
    if isinstance(value, XPoly):
        return specialize(value, lam)
    return value


def _render(value) -> str:
    if isinstance(value, (LambdaPoly, XPoly)):
        return str(value)
    if isinstance(value, bool):
        return str(value)
    if is_scalar(value):
        return scalar_str(value)
    return repr(value)


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
        witness = None
        status = "fail"
        try:
            facts = list(ident.fn(ws, order))
            for label, lhs, rhs in facts:
                if not _value_equal(lhs, rhs):
                    witness = f"{label}: {_render(lhs)} != {_render(rhs)}"
                    break
            if witness is None:
                for lam in config.lambda_specializations:
                    for label, lhs, rhs in facts:
                        left = _value_at(lhs, lam)
                        right = _value_at(rhs, lam)
                        if left != right:
                            witness = (
                                f"{label} at λ={scalar_str(lam)}: "
                                f"{_render(left)} != {_render(right)}"
                            )
                            break
                    if witness is not None:
                        break
        except Exception as exc:  # a bug in the engine or the check, not a disproof
            status = "error"
            witness = f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(
                ident.identity_id,
                order,
                status if witness else "pass",
                witness,
            )
        )
    return results
