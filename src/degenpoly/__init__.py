"""degenpoly: exact arithmetic for degenerate Stirling-type numbers, the
Bell-type polynomial families built on them, and the identity suite that
mechanically cross-checks every construction by at least two routes.

Everything is computed over exact rationals with λ kept symbolic; no
floating point appears anywhere.
"""

__version__ = "0.1.0"
