"""Exact polynomial tower: rationals, polynomials in λ, polynomials in x over λ.

Two dense, immutable polynomial types:

* ``LambdaPoly`` — univariate polynomial in the deformation parameter λ with
  exact rational coefficients.  All triangle entries live here.
* ``XPoly`` — univariate polynomial in x whose coefficients are ``LambdaPoly``
  values.  All polynomial families live here.

A ``LambdaPoly`` stores a tuple of Python-int numerators over one positive
int denominator, because nearly every λ-polynomial of the theory has integer
coefficients: rationals enter only through the 1/n! of raw series
coefficients and through the Korobov/Bernoulli slices.  Arithmetic then runs
on ints (a product is an int convolution plus one gcd), and rational scalars
appear only at the edges: constructors accept them, and ``coeffs``, ``coeff``,
``constant_value`` and ``eval`` return them.  The form is canonical —
trailing zero numerators trimmed, ``gcd(den, *nums) == 1``, zero stored as
``((), 1)`` — so equality and hashing compare the two fields directly.

``XPoly`` stores a tuple of ``LambdaPoly`` values with trailing zeros trimmed.
Both are dense in ascending power order: degrees stay small (bounded by the
working truncation order), which makes dense storage simpler and faster than
sparse maps.

λ is symbolic by default: identities are verified as polynomial identities in
λ, which is strictly stronger than checking them at particular real values.
``specialize`` substitutes rational values for λ (and optionally x) for spot
checks, the λ→0 degeneration checks, and the CLI.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Q, QONE, QZERO, as_scalar, is_scalar, scalar_str


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _ratio(value) -> tuple:
    """(numerator, denominator) of a scalar as plain ints."""
    if type(value) is int:
        return value, 1
    value = as_scalar(value)
    return int(value.numerator), int(value.denominator)


def _make(nums: tuple, den: int) -> "LambdaPoly":
    """Wrap numerators and denominator that are already in canonical form."""
    poly = object.__new__(LambdaPoly)
    poly._n = nums
    poly._d = den
    return poly


def _reduced(nums: list, den: int) -> "LambdaPoly":
    """Trim trailing zeros and divide out gcd(den, *nums)."""
    nums = _trim(nums)
    if not nums:
        return _LP_ZERO
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple([c // g for c in nums])
    return _make(nums, den)


class LambdaPoly:
    """Dense polynomial in λ over the exact rationals: int numerators over one
    shared positive denominator, in canonical form."""

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs=()):
        pairs = [_ratio(c) for c in coeffs]
        den = 1
        for _, d in pairs:
            if d != 1:
                den = lcm(den, d)
        nums = [p * (den // d) for p, d in pairs]
        # reduced inputs over their lcm leave gcd(den, *nums) == 1 already
        self._n = _trim(nums)
        self._d = den if self._n else 1

    @classmethod
    def from_coeffs(cls, coeffs) -> "LambdaPoly":
        """Build from any iterable of ints / rationals / "p/q" strings."""
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "LambdaPoly":
        return _LP_ZERO

    @classmethod
    def one(cls) -> "LambdaPoly":
        return _LP_ONE

    @classmethod
    def var(cls) -> "LambdaPoly":
        """The polynomial λ itself."""
        return _LP_VAR

    @classmethod
    def const(cls, value) -> "LambdaPoly":
        p, q = _ratio(value)
        return _make((p,), q) if p else _LP_ZERO

    @property
    def coeffs(self) -> tuple:
        """The reduced rational coefficients, ascending in λ-power."""
        den = self._d
        return tuple(Q(c, den) for c in self._n)

    # the former name of the coefficient field, still read by perfbench/tracing.py
    _c = coeffs

    def coeff(self, i: int):
        return Q(self._n[i], self._d) if 0 <= i < len(self._n) else QZERO

    @property
    def degree(self) -> int:
        """Degree in λ; the zero polynomial has degree -1."""
        return len(self._n) - 1

    def is_zero(self) -> bool:
        return not self._n

    def is_constant(self) -> bool:
        return len(self._n) <= 1

    def constant_value(self):
        """The scalar value if constant, else None."""
        if not self._n:
            return QZERO
        if len(self._n) == 1:
            return Q(self._n[0], self._d)
        return None

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        if type(other) is LambdaPoly:
            return self._n == other._n and self._d == other._d
        if is_scalar(other):
            if not other:
                return not self._n
            return len(self._n) == 1 and Q(self._n[0], self._d) == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its scalar value, so it must hash like it too
        if len(self._n) <= 1:
            return hash(self.constant_value())
        return hash((self._n, self._d))

    def __neg__(self) -> "LambdaPoly":
        return _make(tuple([-c for c in self._n]), self._d)

    def __add__(self, other):
        if type(other) is not LambdaPoly:
            if not is_scalar(other):
                return NotImplemented
            other = LambdaPoly.const(other)
        a, b = self._n, other._n
        if not b:
            return self
        if not a:
            return other
        da, db = self._d, other._d
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _reduced(out, da)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is LambdaPoly or is_scalar(other):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LambdaPoly:
            if not is_scalar(other):
                return NotImplemented
            p, q = _ratio(other)
            if not p or not self._n:
                return _LP_ZERO
            if p == q:
                return self
            return _reduced([c * p for c in self._n], self._d * q)
        a, b = self._n, other._n
        if not a or not b:
            return _LP_ZERO
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            c = b[0]
            out = [x * c for x in a]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for shift, c in enumerate(b):
                if c:
                    k = shift
                    for x in a:
                        out[k] += x * c
                        k += 1
        return _reduced(out, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LambdaPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _LP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, lam):
        """Exact Horner evaluation at a rational λ, homogenised in ints."""
        nums = self._n
        if not nums:
            return QZERO
        p, q = _ratio(lam)
        acc = nums[-1]
        scale = 1
        for c in reversed(nums[:-1]):
            scale *= q
            acc = acc * p + c * scale
        # acc = sum of c_i p^i q^(deg - i), and scale = q^deg
        return Q(acc, self._d * scale)

    def __str__(self) -> str:
        return _poly_str(self.coeffs, "λ")

    def __repr__(self) -> str:
        return f"LambdaPoly({list(self.coeffs)!r})"


_LP_ZERO = LambdaPoly()
_LP_ONE = LambdaPoly((1,))
_LP_VAR = LambdaPoly((0, 1))


def _as_lambda_poly(value) -> "LambdaPoly":
    if isinstance(value, LambdaPoly):
        return value
    return LambdaPoly.const(value)


class XPoly:
    """Dense polynomial in x with LambdaPoly coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        self._c = _trim([_as_lambda_poly(c) for c in coeffs])

    @classmethod
    def zero(cls) -> "XPoly":
        return _XP_ZERO

    @classmethod
    def one(cls) -> "XPoly":
        return _XP_ONE

    @classmethod
    def var(cls) -> "XPoly":
        """The polynomial x itself."""
        return _XP_VAR

    @classmethod
    def const(cls, value) -> "XPoly":
        value = _as_lambda_poly(value)
        return cls((value,)) if value else _XP_ZERO

    @property
    def coeffs(self) -> tuple:
        return self._c

    def coeff(self, j: int) -> LambdaPoly:
        return self._c[j] if 0 <= j < len(self._c) else _LP_ZERO

    @property
    def degree(self) -> int:
        """Degree in x; the zero polynomial has degree -1."""
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def constant_value(self) -> "LambdaPoly | None":
        """The LambdaPoly value if constant in x, else None."""
        if not self._c:
            return _LP_ZERO
        if len(self._c) == 1:
            return self._c[0]
        return None

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, XPoly):
            return self._c == other._c
        if isinstance(other, LambdaPoly) or is_scalar(other):
            other = XPoly.const(other)
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __neg__(self) -> "XPoly":
        return XPoly([-c for c in self._c])

    def __add__(self, other):
        if isinstance(other, LambdaPoly) or is_scalar(other):
            other = XPoly.const(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (XPoly, LambdaPoly)) or is_scalar(other):
            return self + (-(other if isinstance(other, XPoly) else XPoly.const(other)))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LambdaPoly) or is_scalar(other):
            if not other:
                return _XP_ZERO
            if other == 1:
                return self
            return XPoly([c * other for c in self._c])
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return _XP_ZERO
        out = [_LP_ZERO] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = out[i + j] + ai * bj
        return XPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "XPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = _XP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval_x(self, x_value) -> LambdaPoly:
        """Horner evaluation at a rational x, leaving λ symbolic."""
        x_value = as_scalar(x_value)
        acc = _LP_ZERO
        for c in reversed(self._c):
            acc = acc * x_value + c
        return acc

    def __str__(self) -> str:
        return _poly_str(self._c, "x")

    def __repr__(self) -> str:
        return f"XPoly({list(self._c)!r})"


_XP_ZERO = XPoly()
_XP_ONE = XPoly((_LP_ONE,))
_XP_VAR = XPoly((_LP_ZERO, _LP_ONE))


def _poly_str(coeffs, name: str) -> str:
    """Human text form, "1 - λ" style; used by the CSV output and witnesses."""
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if isinstance(c, LambdaPoly):
            inner = str(c)
            if sum(1 for v in c.coeffs if v) == 1:
                # single λ-term: inline its sign
                negate = inner.startswith("-")
                body = _term_str(inner.lstrip("-"), i, name)
            else:
                negate = False
                body = _term_str(f"({inner})", i, name)
        else:
            negate = c < 0
            body = _term_str(scalar_str(-c if negate else c), i, name)
        if not parts:
            parts.append(f"-{body}" if negate else body)
        else:
            parts.append(f" - {body}" if negate else f" + {body}")
    return "".join(parts)


def _term_str(coeff_text: str, power: int, name: str) -> str:
    if power == 0:
        return coeff_text
    var = name if power == 1 else f"{name}^{power}"
    if coeff_text == "1":
        return var
    return f"{coeff_text}*{var}"


def falling_factorial(n: int) -> XPoly:
    """x(x-1)(x-2)...(x-n+1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    result = _XP_ONE
    for j in range(n):
        result = result * XPoly((LambdaPoly.const(-j), _LP_ONE))
    return result


def deg_falling_factorial(n: int) -> XPoly:
    """x(x-λ)(x-2λ)...(x-(n-1)λ); reduces to x^n at λ = 0."""
    if n < 0:
        raise ValueError("degenerate falling factorial needs n >= 0")
    result = _XP_ONE
    for j in range(n):
        result = result * XPoly((LambdaPoly((QZERO, as_scalar(-j))), _LP_ONE))
    return result


def deg_falling_scalar(base, n: int) -> LambdaPoly:
    """(c)(c-λ)(c-2λ)...(c-(n-1)λ) for a rational c, as a λ-polynomial."""
    if n < 0:
        raise ValueError("degenerate falling factorial needs n >= 0")
    base = as_scalar(base)
    result = _LP_ONE
    for j in range(n):
        result = result * LambdaPoly((base, as_scalar(-j)))
    return result


def lambda_shifted_falling(m: int) -> LambdaPoly:
    """(λ-1)(λ-2)...(λ-m+1); monic of degree m-1, with 1 for m = 1."""
    if m < 1:
        raise ValueError("shifted falling factorial needs m >= 1")
    result = _LP_ONE
    for j in range(1, m):
        result = result * LambdaPoly((as_scalar(-j), QONE))
    return result


def specialize(poly, lambda_value, x_value=None):
    """Substitute a rational λ (and optionally x) into a polynomial.

    * LambdaPoly → scalar.
    * XPoly with ``x_value`` → scalar.
    * XPoly without ``x_value`` → polynomial in x with rational coefficients,
      returned as a LambdaPoly-shaped dense coefficient list.
    """
    if isinstance(poly, LambdaPoly):
        if x_value is not None:
            raise ValueError("x_value only applies to polynomials in x")
        return poly.eval(lambda_value)
    if isinstance(poly, XPoly):
        lam = as_scalar(lambda_value)
        values = [c.eval(lam) for c in poly.coeffs]
        if x_value is None:
            return LambdaPoly(values)
        x_value = as_scalar(x_value)
        acc = QZERO
        for v in reversed(values):
            acc = acc * x_value + v
        return acc
    raise TypeError(f"cannot specialize {type(poly).__name__}")
