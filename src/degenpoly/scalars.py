"""Exact rational scalars at the edges of the engine.

Every coefficient in this package is an exact rational.  The polynomial
arithmetic itself runs on plain ints: a ``LambdaPoly`` keeps int numerators
over one shared denominator (see ``algebra``).  Rational scalars appear only
where values cross into or out of that storage — parsing "p/q" text,
constructor arguments, scalar factors such as 1/n!, ``coeffs`` and ``eval``
results, and rendering.  ``Q`` is the rational type used there:
``fractions.Fraction``, always in lowest terms with a positive denominator,
and rendered as "num/den" with the denominator omitted when it is 1, which is
the canonical text form used throughout the CLI output.

Plain ``int`` values are accepted anywhere a scalar is: mixed int/rational
arithmetic stays exact and never produces floats (the code never divides two
bare ints).
"""

from __future__ import annotations

import re
from fractions import Fraction

Q = Fraction

Scalar = object  # int | Fraction; kept loose on purpose

_SCALAR_TYPES = (int, Fraction)

QZERO = Q(0)
QONE = Q(1)

# The one text form: optional sign, digits, optional "/digits".  Fraction's
# own parser also takes decimals and exponents, and for "1e999999999" it
# computes 10**999999999 before any check could run.  Compiled on first use
# (re's cache), so a process that parses no text pays nothing for it.
_P_OVER_Q = r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*"


def is_scalar(value) -> bool:
    return isinstance(value, _SCALAR_TYPES)


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions, and "p/q" strings to the scalar type.

    Floats are rejected: no rounding ever occurs anywhere in the package.
    """
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, str):
        match = re.fullmatch(_P_OVER_Q, value)
        try:
            if match is None:
                raise ValueError("not of the form p/q")
            return Q(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def scalar_str(value) -> str:
    """Canonical "num/den" rendering (denominator omitted when 1)."""
    return str(as_scalar(value))
