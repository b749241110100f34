"""Series with x-polynomial coefficients, for the test oracles only.

The engine's ``Series`` holds λ-polynomials and runs only the arithmetic the
engine needs: products of series and a constant added to the constant term.
The oracles below work on plain coefficient lists instead, with the sums and
products of their coefficients.  ``horner`` substitutes a λ-series into a
series whose coefficients are polynomials in x (or in λ), the way the family
generating series and Corollary 15's right-hand side were computed before
they were read from the differential equation and column by column; over
λ-polynomial coefficients it is how ``series.compose`` worked before it read
the inner series' power table.  Zero of either ring is its empty polynomial,
``LambdaPoly()`` or ``XPoly()``.
"""

from math import factorial

from degenpoly.algebra import LambdaPoly, XPoly, falling_products
from degenpoly.scalars import QONE


def horner(outer, inner):
    """outer(inner(t)) by Horner, for a sequence of XPoly or LambdaPoly
    coefficients outer and a λ-coefficient delta series inner; the
    coefficients of t^0..t^N, N the lower of the two orders, from pairwise
    products and sums."""
    n = min(len(outer) - 1, inner.order)
    u = inner.coeffs
    zero = type(outer[0])()
    result = [outer[n]] + [zero] * n
    for i in range(n - 1, -1, -1):
        result = [sum((result[j] * u[m - j] for j in range(m + 1)), zero)
                  for m in range(n + 1)]
        result[0] = result[0] + outer[i]
    return result


def deg_exp_x(order):
    """e_λ^x(t) = Σ (x)_{n,λ} t^n/n!, from the deformed falling factorials."""
    falling = falling_products(XPoly.var(), -LambdaPoly.var(), order)
    return [p * (QONE / factorial(n)) for n, p in enumerate(falling)]
