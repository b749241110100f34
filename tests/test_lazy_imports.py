"""Start-up cost: a triangle, poly or eval request imports neither the
identity suite, the umbral layer nor ``dataclasses``; the package re-exports
them on first use."""

import json
import subprocess
import sys

import degenpoly

# The modules only ``verify`` (and a direct import) may load.
VERIFY_ONLY = ("degenpoly.identities", "degenpoly.umbral", "dataclasses")

PROBE = f"""
import json, sys
before = set(sys.modules)
from degenpoly import cli
for argv in (["triangle", "--kind", "j2deg", "--order", "4", "--format", "csv"],
             ["poly", "--family", "gaenari", "--order", "4", "--lambda", "1/2"],
             ["eval", "--expr", "korobov(3,2)"]):
    assert cli.main(argv) == 0, argv
loaded = [m for m in {VERIFY_ONLY!r} if m in sys.modules and m not in before]
assert cli.main(["verify", "--order", "2"]) == 0
sys.stderr.write(json.dumps([loaded, "degenpoly.identities" in sys.modules]))
"""

PACKAGE_NAMES = [
    "CheckResult", "FAMILY_KINDS", "LambdaPoly", "RouteMismatchError",
    "SEQUENCES", "SLICE_KINDS", "Series", "ShefferSeq", "SuiteConfig", "TRIANGLE_KINDS",
    "UnknownIdentityError", "XPoly", "algebra", "bell_number_classical",
    "build_family", "build_triangle", "classical_exp", "comp_inverse", "compose",
    "compositional_power", "deg_exp", "deg_log", "describe_identities", "families",
    "identities", "identity_ids", "inverse_pair", "mul_inverse", "oracles",
    "partition_oracle", "run_suite", "scalars", "series", "sheffer_from_pair",
    "signed_cycle_oracle", "specialize", "triangles", "umbral", "umbral_compose",
    "umbral_power",
]


def test_requests_other_than_verify_load_no_suite():
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    )
    loaded, verify_loaded_suite = json.loads(probe.stderr)
    assert loaded == []
    assert verify_loaded_suite


def test_package_names_all_resolve():
    assert degenpoly.__all__ == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        assert getattr(degenpoly, name) is not None, name
    from degenpoly import identities, umbral

    assert degenpoly.run_suite is identities.run_suite
    assert degenpoly.umbral_power is umbral.umbral_power
    assert degenpoly.umbral is umbral


def test_unknown_package_name_raises_attribute_error():
    assert not hasattr(degenpoly, "no_such_name")
