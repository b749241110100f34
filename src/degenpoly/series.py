"""Truncated exponential-generating-function engine in the variable t.

A ``Series`` holds raw coefficients c_0..c_N of t^n over a coefficient ring
(LambdaPoly or XPoly, the class object doubling as the ring tag); the series
is known modulo t^(N+1).  Statements about number families are in EGF form,
so ``egf_coeff(n) = n! * c_n`` is the accessor used at every table-facing
boundary; raw coefficients keep composition and inversion simple.

Binary operations require equal coefficient rings (use ``lift`` to move a
λ-series into the x-ring) and truncate to the minimum operand order, since
composition pipelines naturally lose order and callers pin orders explicitly.

The two structural constructors:

* ``deg_exp(w, N)``: sum of w(w-λ)(w-2λ)...(w-(n-1)λ) t^n/n!, the deformed
  exponential; reduces to exp(w t) at λ = 0.
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

from .algebra import LambdaPoly, XPoly, lambda_shifted_falling
from .scalars import QONE, is_scalar, scalar_inv


class Series:
    """Truncated power series over LambdaPoly or XPoly coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        if ring not in (LambdaPoly, XPoly):
            raise TypeError(f"unsupported coefficient ring {ring!r}")
        self.ring = ring
        self.coeffs = tuple(self._coerce(ring, c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    @staticmethod
    def _coerce(ring, value):
        if isinstance(value, ring):
            return value
        if ring is XPoly and (isinstance(value, LambdaPoly) or is_scalar(value)):
            return XPoly.const(value)
        if ring is LambdaPoly and is_scalar(value):
            return LambdaPoly.const(value)
        raise TypeError(f"coefficient {value!r} does not live in {ring.__name__}")

    @classmethod
    def zero(cls, ring, order: int) -> "Series":
        return cls(ring, [ring.zero()] * (order + 1))

    @classmethod
    def one(cls, ring, order: int) -> "Series":
        return cls(ring, [ring.one()] + [ring.zero()] * order)

    @classmethod
    def identity(cls, ring, order: int) -> "Series":
        """The series t (the delta series fixed by composition)."""
        coeffs = [ring.zero()] * (order + 1)
        if order >= 1:
            coeffs[1] = ring.one()
        return cls(ring, coeffs)

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
        return Series(self.ring, self.coeffs[: order + 1])

    def lift(self) -> "Series":
        """Embed a λ-coefficient series into the x-coefficient ring."""
        if self.ring is XPoly:
            return self
        return Series(XPoly, [XPoly.const(c) for c in self.coeffs])

    def scale(self, value) -> "Series":
        """Multiply every coefficient by a scalar or ring element."""
        return Series(self.ring, [c * value for c in self.coeffs])

    def shift_down(self) -> "Series":
        """Divide by t (requires a zero constant term; loses one order)."""
        if self.coeffs[0]:
            raise ValueError(
                f"cannot divide by t: nonzero constant term {self.coeffs[0]}"
            )
        if self.order == 0:
            raise ValueError("cannot shift a constant-only series")
        return Series(self.ring, self.coeffs[1:])

    def _common(self, other: "Series") -> int:
        if not isinstance(other, Series):
            raise TypeError(f"expected a Series, got {type(other).__name__}")
        if self.ring is not other.ring:
            raise ValueError(
                f"coefficient rings differ: {self.ring.__name__} vs {other.ring.__name__}"
            )
        return min(self.order, other.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

    def __neg__(self) -> "Series":
        return Series(self.ring, [-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, Series):
            n = self._common(other)
            return Series(
                self.ring,
                [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)],
            )
        # scalar / ring-element addition touches only the constant term
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + other
        return Series(self.ring, coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return self + (-other)
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] - other
        return Series(self.ring, coeffs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        n = self._common(other)
        a, b = self.coeffs, other.coeffs
        zero = self.ring.zero()
        out = []
        for k in range(n + 1):
            acc = zero
            for j in range(k + 1):
                aj = a[j]
                bj = b[k - j]
                if aj and bj:
                    acc = acc + aj * bj
            out.append(acc)
        return Series(self.ring, out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order >= 5 else ""
        return f"Series[{self.ring.__name__}](order={self.order}; {inner}{tail})"


def deg_exp(exponent, order: int) -> Series:
    """Deformed exponential: sum of (w)_{n,λ} t^n/n! for exponent w.

    A scalar exponent produces a λ-coefficient series; the x polynomial (or
    any XPoly) produces an x-coefficient series.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if is_scalar(exponent):
        exponent = LambdaPoly.const(exponent)
    elif isinstance(exponent, LambdaPoly):
        exponent = XPoly.const(exponent)
    elif not isinstance(exponent, XPoly):
        raise TypeError(f"exponent must be a scalar or XPoly, got {type(exponent).__name__}")
    prod = type(exponent).one()
    coeffs = [prod]
    fact = 1
    for n in range(1, order + 1):
        prod = prod * (exponent + LambdaPoly((0, 1 - n)))
        fact *= n
        coeffs.append(prod * (QONE / fact))
    return Series(type(exponent), coeffs)


def deg_log(order: int) -> Series:
    """Deformed logarithm of 1+t: t + (λ-1)t²/2! + (λ-1)(λ-2)t³/3! + ..."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [LambdaPoly.zero()]
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(lambda_shifted_falling(n) * (QONE / fact))
    return Series(LambdaPoly, coeffs)


def classical_exp(order: int) -> Series:
    """exp(t) truncated: coefficients 1/n! (λ-free)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    fact = 1
    coeffs = [LambdaPoly.one()]
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(LambdaPoly((QONE / fact,)))
    return Series(LambdaPoly, coeffs)


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) by Horner over truncated series.

    The inner series must be a delta-like substitution target: a nonzero
    constant term would make the truncated composition ill-defined.
    """
    n = outer._common(inner)
    if inner.coeffs[0]:
        raise ValueError(
            f"inner series has nonzero constant term {inner.coeffs[0]}; "
            "only delta series can be substituted"
        )
    inner = inner.truncate(n)
    result = Series(inner.ring, [outer.coeffs[n]] + [inner.ring.zero()] * n)
    for i in range(n - 1, -1, -1):
        result = result * inner + outer.coeffs[i]
    return result


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
    return Series(f.ring, [f.ring.zero()] + [
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
    ring = f.ring
    out = [ring.one() * inv]
    for n in range(1, f.order + 1):
        acc = ring.zero()
        for j in range(1, n + 1):
            fj = f.coeffs[j]
            gn = out[n - j]
            if fj and gn:
                acc = acc + fj * gn
        out.append(-acc * inv)
    return Series(ring, out)


def scaled_power(f: Series, k: int) -> Series:
    """f^k / k! with exact rational division of every coefficient."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return Series.one(f.ring, f.order)
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


def unit_scalar(coeff):
    """The scalar value of a nonzero constant ring element, else None."""
    if isinstance(coeff, XPoly):
        coeff = coeff.constant_value()
        if coeff is None:
            return None
    if isinstance(coeff, LambdaPoly):
        value = coeff.constant_value()
        return value if value else None
    return coeff if coeff else None
