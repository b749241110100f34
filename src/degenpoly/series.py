"""Truncated exponential-generating-function engine in the variable t.

A ``Series`` holds raw coefficients c_0..c_N of t^n over LambdaPoly; the
series is known modulo t^(N+1).  Statements about number families are in EGF
form, so ``egf_coeff(n) = n! * c_n`` is the accessor used at every
table-facing boundary; raw coefficients keep composition and inversion simple.

Every generating series in t has λ-polynomial coefficients; polynomials in x
are only the values a series generates.  The family route reads them from
``deg_exp_coeffs`` with the exponent x, and Corollary 15 one power of x at a
time (``umbral.corollary15_sides``).  Binary operations truncate to the
minimum operand order, since composition pipelines naturally lose order and
callers pin orders explicitly.

The two structural constructors:

* ``deg_exp(w, N, u=t)``: e_λ^w(u(t)) = (1 + λu)^(w/λ), the deformed
  exponential of a delta series u (``deg_exp_coeffs`` for an exponent in
  any ring); for u = t it is the sum of w(w-λ)(w-2λ)...(w-(n-1)λ) t^n/n!,
  which reduces to exp(w t) at λ = 0.
  F = e_λ^w(u) solves (1 + λu)·F' = w·u'·F, and reading that equation
  coefficient by coefficient gives every coefficient in O(n) ring
  operations from the ones before it: J. C. P. Miller's recurrence for a
  power of a series (Knuth, TAOCP vol. 2, §4.7), applied to a series that
  satisfies a linear differential equation (Stanley, "Differentiably finite
  power series", Eur. J. Combin. 1, 1980).  That is O(N²) ring operations,
  where a Horner ``compose`` with the outer series takes N series multiplies.
* ``deg_log(N)``: the deformed logarithm of 1+t, built directly from its
  closed-form coefficients (λ-1)(λ-2)...(λ-n+1)/n!.  The 1/λ prefactor of the
  defining formula cancels symbolically; division by the indeterminate λ is
  never performed.

``deg_log`` and ``deg_exp(1) - 1`` are compositional inverses of one another,
which the test suite checks coefficientwise and through round trips.

Powers of a series are read from one running power, ``powers``; so is
``comp_inverse``, by Lagrange inversion: [t^n] fbar = (1/n) [t^(n-1)] (t/f)^n.
"""

from __future__ import annotations

from math import factorial

from .algebra import LambdaPoly, lambda_shifted_falling
from .scalars import QONE, is_scalar, scalar_inv


class Series:
    """Truncated power series over LambdaPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(self._coerce(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    @staticmethod
    def _coerce(value):
        if isinstance(value, LambdaPoly):
            return value
        if is_scalar(value):
            return LambdaPoly.const(value)
        raise TypeError(f"coefficient {value!r} is not a λ-polynomial")

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

    def coeff(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coeff(self, n: int):
        """n! * c_n: the value the generating identities talk about."""
        return self.coeff(n) * factorial(n)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
        return Series(self.coeffs[: order + 1])

    def scale(self, value) -> "Series":
        """Multiply every coefficient by a scalar or λ-polynomial."""
        return Series([c * value for c in self.coeffs])

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

    def __neg__(self) -> "Series":
        return Series([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, Series):
            n = self._common(other)
            return Series([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])
        # scalar / λ-polynomial addition touches only the constant term
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return Series(coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return self + (-other)
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - other
        return Series(coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        n = self._common(other)
        zero = LambdaPoly.zero()
        return Series([_dot(self.coeffs, other.coeffs, k, zero) for k in range(n + 1)])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"Series(order={self.order}; {inner}{tail})"


def deg_exp(exponent, order: int, inner: Series | None = None) -> Series:
    """Deformed exponential e_λ^w(u(t)) = (1 + λu)^(w/λ) of a delta series u
    (u = t when inner is None) for a scalar or λ-polynomial exponent w: sum
    of (w)_{k,λ} u^k/k!, from the recurrence ``deg_exp_coeffs``."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if is_scalar(exponent):
        exponent = LambdaPoly.const(exponent)
    elif not isinstance(exponent, LambdaPoly):
        raise TypeError(
            f"exponent must be a scalar or λ-polynomial, got {type(exponent).__name__}"
        )
    if inner is None:
        inner = Series.identity(order)
    return Series(deg_exp_coeffs(exponent, order, inner))


def deg_exp_coeffs(exponent, order: int, inner: Series) -> list:
    """Coefficients f_0..f_order of e_λ^w(u(t)) for a delta series u and an
    exponent w in any ring whose elements multiply λ-polynomials and whose
    class has ``zero()`` and ``one()``: a λ-polynomial for ``deg_exp``, the
    polynomial x for the family generating series.

    Read coefficient by coefficient from (1 + λu)·F' = w·u'·F, with f_0 = 1:
    n·f_n = w·[t^(n-1)] u'F - [t^(n-1)] λu·F'.  For u = t this is the
    falling product f_n = f_(n-1)·(w - (n-1)λ)/n.
    """
    _check_delta(inner)
    if inner.order < order:
        raise ValueError(
            f"inner series truncated below the requested order {order} "
            f"(order {inner.order})"
        )
    ring = type(exponent)
    zero = ring.zero()
    u = inner.coeffs
    du = [u[j + 1] * (j + 1) for j in range(order)]                # u'
    lam_u = [u[j + 1] * LambdaPoly.var() for j in range(order - 1)]  # λu/t
    coeffs = [ring.one()]
    dcoeffs = []                                                   # F'
    for n in range(1, order + 1):
        deriv = (_dot(coeffs, du, n - 1, zero) * exponent
                 - _dot(dcoeffs, lam_u, n - 2, zero))
        dcoeffs.append(deriv)
        coeffs.append(deriv * (QONE / n))
    return coeffs


def _dot(a, b, m, zero):
    """[t^m] of the product of the coefficient lists a and b, skipping zero
    terms: the one convolution loop of the series engine."""
    acc = zero
    for j in range(m + 1):
        aj = a[j]
        bj = b[m - j]
        if aj and bj:
            acc = acc + aj * bj
    return acc


def deg_log(order: int) -> Series:
    """Deformed logarithm of 1+t: t + (λ-1)t²/2! + (λ-1)(λ-2)t³/3! + ..."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [LambdaPoly.zero()]
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(lambda_shifted_falling(n) * (QONE / fact))
    return Series(coeffs)


def classical_exp(order: int) -> Series:
    """exp(t) truncated: coefficients 1/n! (λ-free)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    fact = 1
    coeffs = [LambdaPoly.one()]
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(LambdaPoly((QONE / fact,)))
    return Series(coeffs)


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) by Horner over truncated series.

    The inner series must be a delta-like substitution target: a nonzero
    constant term would make the truncated composition ill-defined.
    """
    n = outer._common(inner)
    _check_delta(inner)
    inner = inner.truncate(n)
    result = Series([outer.coeffs[n]] + [LambdaPoly.zero()] * n)
    for i in range(n - 1, -1, -1):
        result = result * inner + outer.coeffs[i]
    return result


def _check_delta(inner: Series) -> None:
    if inner.coeffs[0]:
        raise ValueError(
            f"inner series has nonzero constant term {inner.coeffs[0]}; "
            "only delta series can be substituted"
        )


def comp_inverse(f: Series) -> Series:
    """Compositional inverse: the series g with f(g(t)) = g(f(t)) = t.

    Lagrange inversion: [t^n] g = (1/n) [t^(n-1)] φ^n with φ = t/f(t), read
    from one running power of φ.  Requires f(0) = 0 and a λ-free nonzero
    rational linear coefficient (the invertible constant term of φ).
    """
    if f.coeffs[0]:
        raise ValueError(
            f"not a delta series: constant term is {f.coeffs[0]}, expected 0"
        )
    if f.order < 1:
        raise ValueError("cannot invert a series truncated below order 1")
    if unit_scalar(f.coeffs[1]) is None:
        raise ValueError(
            f"linear coefficient {f.coeffs[1]} is not an invertible rational constant"
        )
    phi = mul_inverse(f.shift_down())
    return Series([LambdaPoly.zero()] + [
        power.coeffs[n - 1] * (QONE / n)
        for n, power in enumerate(powers(phi, phi, f.order - 1), 1)
    ])


def mul_inverse(f: Series) -> Series:
    """Multiplicative inverse: the series g with f*g = 1 mod t^(N+1)."""
    head = unit_scalar(f.coeffs[0])
    if head is None:
        raise ValueError(
            f"constant term {f.coeffs[0]} is not an invertible rational constant"
        )
    inv = scalar_inv(head)
    tail = f.coeffs[1:]
    out = [LambdaPoly.one() * inv]
    for n in range(1, f.order + 1):
        out.append(-_dot(tail, out, n - 1, LambdaPoly.zero()) * inv)
    return Series(out)


def scaled_power(f: Series, k: int) -> Series:
    """f^k / k! with exact rational division of every coefficient."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return Series.one(f.order)
    *_, power = powers(f, f, k - 1)
    return power.scale(QONE / factorial(k))


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
    result = f
    for _ in range(m - 1):
        result = compose(result, f)
    return result


def unit_scalar(coeff: LambdaPoly):
    """The scalar value of a nonzero λ-free coefficient, else None."""
    value = coeff.constant_value()
    return value if value else None
