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

Every product is one call of ``lp_dot``, which sums the numerators of Σ a·b
over one common denominator and reduces once (delayed normalisation: von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 2 and 8); a single product
is a dot product of one pair, and an ``XPoly`` product or ``xp_dot`` takes
one ``lp_dot`` per power of x.

The falling products Π_{j<n}(first + j·step) -- (x)_n, the deformed
(x)_{n,λ}, (c)_{n,λ} and (λ-1)...(λ-n+1) -- come from one running product,
``falling_products``, which returns every member n = 0..N from N multiplies.

``XPoly`` stores a tuple of ``LambdaPoly`` values with trailing zeros trimmed.
Both are dense in ascending power order: degrees stay small (bounded by the
working truncation order), which makes dense storage simpler and faster than
sparse maps.

λ is symbolic by default: identities are verified as polynomial identities in
λ, which is strictly stronger than checking them at particular real values.
``specialize`` substitutes a rational λ, and ``XPoly.eval_x`` a rational x,
for spot checks, the λ→0 degeneration checks, and the CLI.  Every scalar
argument is an ``int`` or a ``Fraction``; text is the CLI's to parse.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import Q, QZERO, is_scalar


def _trim(coeffs: list) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _ratio(value) -> tuple:
    """(numerator, denominator) of an int or a Fraction as plain ints."""
    if type(value) is int:
        return value, 1
    if not is_scalar(value):
        raise TypeError(f"{value!r} is not an int or a Fraction")
    return value.numerator, value.denominator


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
    shared positive denominator, in canonical form.  Built from an iterable
    of ascending int or Fraction coefficients."""

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
        return NotImplemented

    def __hash__(self) -> int:
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
            if isinstance(other, XPoly):
                return NotImplemented  # XPoly.__rmul__ scales the x-polynomial
            p, q = _ratio(other)
            if not p or not self._n:
                return _LP_ZERO
            if p == q:
                return self
            return _reduced([c * p for c in self._n], self._d * q)
        return lp_dot(((self, other),))

    __rmul__ = __mul__

    def eval(self, lam):
        """Exact Horner evaluation at a rational λ, homogenised in ints."""
        p, q = _ratio(lam)
        nums = self._n
        if not nums:
            return QZERO
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


def lp_dot(pairs) -> LambdaPoly:
    """Σ a·b over an iterable of (a, b) LambdaPoly pairs, skipping zero
    operands: every product's numerators are scaled to the lcm of the
    products' denominators and convolved into one int list, which is reduced
    once.  Equal to the pairwise sum, in the same canonical form."""
    terms = []
    den = 1
    width = 0
    for a, b in pairs:
        x, y = a._n, b._n
        if x and y:
            d = a._d * b._d
            if den % d:
                den = lcm(den, d)
            if len(x) < len(y):
                x, y = y, x
            terms.append((x, y, d))
            if len(x) + len(y) > width:
                width = len(x) + len(y)
    if not terms:
        return _LP_ZERO
    out = [0] * (width - 1)
    for x, y, d in terms:
        scale = den // d
        if scale != 1:
            y = [c * scale for c in y]
        for shift, c in enumerate(y):
            if c:
                k = shift
                for v in x:
                    out[k] += v * c
                    k += 1
    return _reduced(out, den)


def lp_conv(a, b, k: int) -> LambdaPoly:
    """Coefficient k of the product of two λ-coefficient lists a and b:
    Σ a_i·b_(k-i) over the i that index both, in one ``lp_dot``."""
    return lp_dot(zip(a[max(0, k + 1 - len(b)):], reversed(b[: k + 1])))


def as_lambda_poly(value) -> LambdaPoly:
    """A LambdaPoly as itself and a scalar as a constant; any other value,
    "p/q" text included, is refused."""
    if isinstance(value, LambdaPoly):
        return value
    if is_scalar(value):
        return LambdaPoly.const(value)
    raise TypeError(f"{value!r} is not a scalar or λ-polynomial")


class XPoly:
    """Dense polynomial in x with LambdaPoly coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        self._c = _trim([as_lambda_poly(c) for c in coeffs])

    @classmethod
    def one(cls) -> "XPoly":
        return _XP_ONE

    @classmethod
    def var(cls) -> "XPoly":
        """The polynomial x itself."""
        return _XP_VAR

    @classmethod
    def const(cls, value) -> "XPoly":
        value = as_lambda_poly(value)
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
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, LambdaPoly) or is_scalar(other):
            if other == 1:
                return self
            return XPoly([c * other for c in self._c])
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self._c, other._c
        return XPoly([lp_conv(a, b, k) for k in range(len(a) + len(b) - 1)])

    __rmul__ = __mul__

    def eval_x(self, x_value) -> LambdaPoly:
        """Horner evaluation at a rational x, leaving λ symbolic."""
        _ratio(x_value)
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


def xp_dot(pairs) -> XPoly:
    """Σ p·c over an iterable of (p, c) pairs of an XPoly and a LambdaPoly:
    one ``lp_dot`` per power of x."""
    pairs = [(p._c, c) for p, c in pairs if c]
    width = max((len(p) for p, _ in pairs), default=0)
    return XPoly([lp_dot([(p[i], c) for p, c in pairs if i < len(p)])
                  for i in range(width)])


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
            body = _term_str(str(-c if negate else c), i, name)
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


def falling_products(first, step, count: int) -> list:
    """[Π_{j<n} (first + j·step) for n = 0..count], from one running product
    of ``count`` multiplies; ``first`` is a LambdaPoly or an XPoly, and
    ``step`` a scalar or a LambdaPoly."""
    out = [type(first).one()]
    for j in range(count):
        out.append(out[-1] * (first + step * j))
    return out


def specialize(poly, lambda_value):
    """Substitute a rational λ into a polynomial.

    * LambdaPoly → scalar.
    * XPoly → polynomial in x with rational coefficients, returned as a
      LambdaPoly-shaped dense coefficient list.
    """
    _ratio(lambda_value)
    if isinstance(poly, LambdaPoly):
        return poly.eval(lambda_value)
    if isinstance(poly, XPoly):
        return LambdaPoly([c.eval(lambda_value) for c in poly.coeffs])
    raise TypeError(f"cannot specialize {type(poly).__name__}")
