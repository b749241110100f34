"""Truncated exponential-generating-function engine in the variable t.

A ``Series`` holds raw coefficients c_0..c_N of t^n over LambdaPoly; the
series is known modulo t^(N+1).  Statements about number families are in EGF
form, about the values n! * c_n: the triangle and family builders scale whole
rows by precomputed factorials; raw coefficients keep composition and
inversion simple.

Every generating series in t has λ-polynomial coefficients; polynomials in x
are only the values a series generates.  The family route reads them from
``deg_exp_coeffs`` with the exponent x, and Corollary 15 one power of x at a
time (``umbral.corollary15_rhs``).  A series multiplies series, adds a
scalar or λ-polynomial to its constant term, truncates and divides by t,
and nothing else.  A product truncates to the lower operand order, since
composition pipelines naturally lose order and callers pin orders
explicitly.  Each coefficient of a product or of
``mul_inverse`` is one dot product, a single ``algebra.lp_dot`` call, except
that a product computes none below the sum of its operands' valuations (so
the power g·f^k of a delta series f skips its k leading zeros); each
step of the ``deg_exp_coeffs`` recurrence is two (``xp_dot`` for the
exponent x).

Both deformed maps of a delta series u, and exp(t), come from one
recurrence, ``deg_exp_coeffs``, which reads F = (1 + a·u)^(w/a) coefficient by
coefficient from (1 + a·u)·F' = w·u'·F, each in O(n) ring operations:
J. C. P. Miller's recurrence for a power of a series (Knuth, TAOCP vol. 2,
§4.7), applied to a series that satisfies a linear differential equation
(Stanley, "Differentiably finite power series", Eur. J. Combin. 1, 1980).
That is O(N²) ring operations, where ``compose`` with the outer series
takes N - 1 series multiplies to build the power table.

* ``deg_exp(w, N, u=t)``: e_λ^w(u(t)) = (1 + λu)^(w/λ) (a = λ) for a λ- or
  x-polynomial exponent w; for u = t it is the sum of
  w(w-λ)(w-2λ)...(w-(n-1)λ) t^n/n!, which reduces to exp(w t) at λ = 0.
* ``deg_log(N, u=t)``: log_λ(1 + u(t)) = ((1 + u)^λ - 1)/λ (a = 1, w = λ);
  for u = t its coefficients are (λ-1)(λ-2)...(λ-n+1)/n!.  The division by
  λ is an exact shift of numerators, which refuses a nonzero constant term.
* ``classical_exp(N, u=t)``: exp(u(t)) (a = 0, w = 1), the λ = 0 limit.

``deg_log`` and ``deg_exp(1) - 1`` are compositional inverses of one another,
which the test suite checks coefficientwise and through round trips.

``DELTA_MAPS`` is the one table of the delta series other modules read:
e_λ(u) - 1 ("exp"), log_λ(1 + u) ("log") and exp(u) - 1 ("classical"), of t
or of an inner delta series u; no other module calls the three maps above.

Each input rule is one function: ``check_delta`` (f(0) = 0 and, with
``invertible``, a linear coefficient that ``unit_scalar`` accepts), and
``unit_scalar``, the value of a nonzero λ-free coefficient, which also gives
``mul_inverse`` its constant term.

Powers of a series are read from one running power, ``powers``.  So are
``comp_inverse``, by Lagrange inversion: [t^n] fbar = (1/n) [t^(n-1)] (t/f)^n,
and ``compose``: at a fixed delta series u, f -> f(u) is linear, and
``substitution(u)`` reads it from the table u^0..u^N, u's exponential Riordan
matrix up to n!/k! (Shapiro et al., Discrete Appl. Math. 34, 1991).
"""

from __future__ import annotations

from .algebra import LambdaPoly, as_lambda_poly, lp_conv, lp_dot, xp_dot
from .scalars import QONE


class Series:
    """Truncated power series over LambdaPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(map(as_lambda_poly, coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([LambdaPoly.one()] + [LambdaPoly.zero()] * order)

    @classmethod
    def identity(cls, order: int) -> "Series":
        """The series t (the delta series fixed by composition)."""
        coeffs = [LambdaPoly.zero()] * (order + 1)
        if order >= 1:
            coeffs[1] = LambdaPoly.one()
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
        return Series(self.coeffs[: order + 1])

    def shift_down(self) -> "Series":
        """Divide by t (requires a zero constant term; loses one order)."""
        if self.coeffs[0]:
            raise ValueError(
                f"cannot divide by t: nonzero constant term {self.coeffs[0]}"
            )
        if self.order == 0:
            raise ValueError("cannot shift a constant-only series")
        return Series(self.coeffs[1:])

    def _common(self, other: "Series") -> int:
        if not isinstance(other, Series):
            raise TypeError(f"expected a Series, got {type(other).__name__}")
        return min(self.order, other.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, value):
        """Add a scalar or λ-polynomial to the constant term."""
        return Series((self.coeffs[0] + as_lambda_poly(value), *self.coeffs[1:]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        n = self._common(other)
        # every coefficient below the sum of the valuations is zero: convolve
        # the operands from their first nonzero coefficients
        va, vb = _valuation(self.coeffs), _valuation(other.coeffs)
        start = va + vb
        a, b = self.coeffs[va:], other.coeffs[vb:]
        return Series([LambdaPoly.zero()] * min(start, n + 1)
                      + [lp_conv(a, b, k - start) for k in range(start, n + 1)])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"Series(order={self.order}; {inner}{tail})"


def _valuation(coeffs) -> int:
    """The index of the first nonzero coefficient; len(coeffs) for zero."""
    return next((i for i, c in enumerate(coeffs) if c), len(coeffs))


def deg_exp(exponent, order: int, inner: Series | None = None) -> Series:
    """Deformed exponential e_λ^w(u(t)) = (1 + λu)^(w/λ) of a delta series u
    (u = t when inner is None) for a scalar or λ-polynomial exponent w: sum
    of (w)_{k,λ} u^k/k!, from the recurrence ``deg_exp_coeffs``."""
    return Series(deg_exp_coeffs(as_lambda_poly(exponent), _inner_at(order, inner)))


def _inner_at(order: int, inner: Series | None) -> Series:
    """The delta series u of a map at the requested order: t when inner is
    None, else inner truncated to that order."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return Series.identity(order) if inner is None else inner.truncate(order)


def deg_exp_coeffs(exponent, inner: Series, a=LambdaPoly.var()) -> list:
    """Coefficients f_0..f_N of F = (1 + a·u(t))^(w/a), N the order of the
    delta series u = inner, for a scalar or λ-polynomial a (λ: F = e_λ^w(u);
    0: F = exp(w·u), the limit a -> 0) and an exponent w that is a
    λ-polynomial or an x-polynomial (x, for the family generating series);
    each sum below is one ``lp_dot`` or ``xp_dot``.

    Read coefficient by coefficient from (1 + a·u)·F' = w·u'·F, with f_0 = 1:
    n·f_n = w·[t^(n-1)] u'F - [t^(n-1)] a·u·F'.  For u = t this is the
    falling product f_n = f_(n-1)·(w - (n-1)a)/n.
    """
    check_delta(inner)
    order = inner.order
    ring = type(exponent)
    dot = lp_dot if ring is LambdaPoly else xp_dot
    u = inner.coeffs
    du = [u[j + 1] * (j + 1) for j in range(order)]   # u'
    a_u = [u[j + 1] * a for j in range(order - 1)]    # a·u/t
    coeffs = [ring.one()]
    dcoeffs = []                                      # F'
    for n in range(1, order + 1):
        deriv = (dot(zip(coeffs, reversed(du[:n]))) * exponent
                 - dot(zip(dcoeffs, reversed(a_u[: n - 1]))))
        dcoeffs.append(deriv)
        coeffs.append(deriv * (QONE / n))
    return coeffs


def deg_log(order: int, inner: Series | None = None) -> Series:
    """Deformed logarithm log_λ(1 + u(t)) = ((1 + u)^λ - 1)/λ of a delta
    series u (u = t when inner is None: t + (λ-1)t²/2! + ...), with
    (1 + u)^λ from the recurrence ``deg_exp_coeffs`` at a = 1."""
    power = deg_exp_coeffs(LambdaPoly.var(), _inner_at(order, inner), 1)
    return Series([LambdaPoly.zero()] + [_over_lambda(c) for c in power[1:]])


def _over_lambda(c: LambdaPoly) -> LambdaPoly:
    """c/λ, exactly: the coefficients of c shifted down one power of λ."""
    if c.coeff(0):
        raise ValueError(f"cannot divide {c} by λ: nonzero constant term")
    return LambdaPoly(c.coeffs[1:])


def classical_exp(order: int, inner: Series | None = None) -> Series:
    """exp(u(t)) of a delta series u (u = t when inner is None: coefficients
    1/n!, λ-free), from the recurrence ``deg_exp_coeffs`` at a = 0, w = 1."""
    return Series(deg_exp_coeffs(LambdaPoly.one(), _inner_at(order, inner), 0))


# name -> (order, inner delta series u, t when omitted) -> the delta series.
# The entries are lambdas that make each map a delta series: "exp" fixes
# deg_exp's exponent at 1, "exp" and "classical" drop the constant term 1,
# and "log", a delta series already, is wrapped to match.
DELTA_MAPS = {
    "exp": lambda order, inner=None: deg_exp(1, order, inner) - 1,
    "log": lambda order, inner=None: deg_log(order, inner),
    "classical": lambda order, inner=None: classical_exp(order, inner) - 1,
}


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)), to the lower of the two orders, through
    ``substitution``; an inner series with a nonzero constant term is refused."""
    outer._common(inner)
    return substitution(inner)(outer)


def substitution(u: Series):
    """The map outer -> outer(u), to the lower of the two orders, for a delta
    series u, read from the table u^0..u^N built once by ``powers``:
    [t^m] f(u) = Σ_k f_k [t^m] u^k is one ``lp_dot``."""
    check_delta(u)
    table = [Series.one(u.order), *powers(u, u, u.order - 1)]
    columns = [[power.coeffs[m] for power in table[: m + 1]] for m in range(u.order + 1)]
    return lambda outer: Series([lp_dot(zip(outer.coeffs, column))
                                 for column in columns[: outer.order + 1]])


def check_delta(f: Series, invertible: bool = False) -> None:
    """Refuse a series with a nonzero constant term and, if ``invertible``,
    one with no linear term or a linear coefficient that ``unit_scalar``
    refuses: the delta series that can be inverted by composition."""
    if f.coeffs[0]:
        raise ValueError(f"not a delta series: nonzero constant term {f.coeffs[0]}")
    if invertible:
        if f.order < 1:
            raise ValueError("not a delta series: no linear term")
        unit_scalar(f.coeffs[1], "linear coefficient")


def comp_inverse(f: Series) -> Series:
    """Compositional inverse: the series g with f(g(t)) = g(f(t)) = t.

    Lagrange inversion: [t^n] g = (1/n) [t^(n-1)] φ^n with φ = t/f(t), read
    from one running power of φ.  Requires f(0) = 0 and a λ-free nonzero
    rational linear coefficient (the invertible constant term of φ).
    """
    check_delta(f, invertible=True)
    phi = mul_inverse(f.shift_down())
    return Series([LambdaPoly.zero()] + [
        power.coeffs[n - 1] * (QONE / n)
        for n, power in enumerate(powers(phi, phi, f.order - 1), 1)
    ])


def mul_inverse(f: Series) -> Series:
    """Multiplicative inverse: the series g with f*g = 1 mod t^(N+1)."""
    inv = QONE / unit_scalar(f.coeffs[0], "constant term")
    tail = f.coeffs[1:]
    out = [LambdaPoly.one() * inv]
    for n in range(1, f.order + 1):
        out.append(-lp_conv(tail, out, n - 1) * inv)
    return Series(out)


def powers(start: Series, f: Series, count: int):
    """start, start·f, ..., start·f^count: count multiplies, none past the
    last power."""
    yield start
    for _ in range(count):
        start = start * f
        yield start


def compositional_power(f: Series, m: int) -> Series:
    """m-fold self-composition f(f(...f(t)...)), left-associated."""
    if m < 1:
        raise ValueError("compositional power needs m >= 1")
    of_f = substitution(f)
    result = f
    for _ in range(m - 1):
        result = of_f(result)
    return result


def unit_scalar(coeff: LambdaPoly, what: str):
    """The scalar value of a nonzero λ-free coefficient; any other is refused,
    named in the message by ``what``."""
    value = coeff.constant_value()
    if not value:
        raise ValueError(f"{what} {coeff} is not an invertible rational constant")
    return value
