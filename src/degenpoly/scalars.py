"""Exact rational scalars, and the one parser of rational text.

Every coefficient in this package is an exact rational.  The polynomial
arithmetic itself runs on plain ints: a ``LambdaPoly`` keeps int numerators
over one shared denominator (see ``algebra``).  Inside the engine a scalar is
an ``int`` or a ``Q`` -- ``fractions.Fraction``, always in lowest terms with
a positive denominator -- and anything else is refused.  Both print as
"num/den" with the denominator omitted when it is 1, the canonical text form
of the CLI output, so rendering is ``str``.  Text becomes a number only in
the CLI, through ``as_scalar``.

Mixed int/rational arithmetic stays exact and never produces floats (the code
never divides two bare ints).
"""

from __future__ import annotations

import re
from fractions import Fraction

Q = Fraction

QZERO = Q(0)
QONE = Q(1)

# The one text form: optional sign, digits, optional "/digits" naming a
# nonzero denominator.  Fraction's own parser also takes decimals and
# exponents, and for "1e999999999" it computes 10**999999999 before any check
# could run.  Compiled on first use (re's cache), so a process that parses no
# text pays nothing for it.
_P_OVER_Q = r"\s*([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?\s*"


def is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction))


def as_scalar(text: str) -> Fraction:
    """Parse "p/q" text (or an integer's text) to an exact rational;
    ValueError on any other text, and on digits past CPython's int limit."""
    match = re.fullmatch(_P_OVER_Q, text)
    if match is None:
        raise ValueError(f"malformed rational {text!r}")
    return Q(int(match[1]), int(match[2] or 1))
