"""degenpoly: exact arithmetic for degenerate Stirling-type numbers, the
Bell-type polynomial families built on them, and the identity suite that
mechanically cross-checks every construction by at least two routes.

Everything is computed over exact rationals with λ kept symbolic; no
floating point appears anywhere.
"""

__version__ = "0.1.0"

from .algebra import LambdaPoly, XPoly, specialize
from .families import FAMILY_KINDS, build_family
from .oracles import bell_number_classical, partition_oracle, signed_cycle_oracle
from .series import (
    Series,
    classical_exp,
    comp_inverse,
    compose,
    compositional_power,
    deg_exp,
    deg_log,
    mul_inverse,
)
from .triangles import (
    RouteMismatchError,
    SLICE_KINDS,
    TRIANGLE_KINDS,
    build_triangle,
)

# The identity suite and the umbral layer load on first use (PEP 562), so a
# triangle, poly or eval request does not import them.  A name is looked up
# on its module at each access, never cached here, so it follows a function
# rebound on its module (as perfbench/tracing.py does).
_LAZY = {
    "identities": (
        "CheckResult",
        "SuiteConfig",
        "UnknownIdentityError",
        "describe_identities",
        "identity_ids",
        "run_suite",
    ),
    "umbral": (
        "SEQUENCES",
        "ShefferSeq",
        "inverse_pair",
        "sheffer_from_pair",
        "umbral_compose",
        "umbral_power",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + [*_LAZY, *_LAZY_OWNER]
)


def __getattr__(name):
    module = name if name in _LAZY else _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)
