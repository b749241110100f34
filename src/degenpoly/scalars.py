"""Exact rational scalars at the edges of the engine.

Every coefficient in this package is an exact rational.  The polynomial
arithmetic itself runs on plain ints: a ``LambdaPoly`` keeps int numerators
over one shared denominator (see ``algebra``).  Rational scalars appear only
where values cross into or out of that storage — parsing "p/q" text,
constructor arguments, scalar factors such as 1/n!, ``coeffs`` and ``eval``
results, and rendering.  ``Q`` is the rational type used there:
``fractions.Fraction``, or gmpy2's ``mpq`` when the optional ``gmpy`` extra is
installed.  Both are always in lowest terms with a positive denominator, and
both render as "num/den" with the denominator omitted when it is 1, which is
the canonical text form used throughout the CLI output.

Plain ``int`` values are accepted anywhere a scalar is: mixed int/rational
arithmetic stays exact and never produces floats (the code never divides two
bare ints).
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Q
except ImportError:  # gmpy2 is the optional ``gmpy`` extra
    Q = Fraction

Scalar = object  # int | Fraction | Q; kept loose on purpose

_SCALAR_TYPES = (int, Fraction, type(Q(0)))

QZERO = Q(0)
QONE = Q(1)


def is_scalar(value) -> bool:
    return isinstance(value, _SCALAR_TYPES)


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions, and "p/q" strings to the scalar type.

    Floats are rejected: no rounding ever occurs anywhere in the package.
    """
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            return Q(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def scalar_inv(value) -> Scalar:
    """Exact reciprocal; guaranteed to return a rational even for int input."""
    if not value:
        raise ZeroDivisionError("reciprocal of zero")
    return QONE / as_scalar(value)


def scalar_str(value) -> str:
    """Canonical "num/den" rendering (denominator omitted when 1)."""
    return str(as_scalar(value))
