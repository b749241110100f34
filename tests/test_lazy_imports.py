"""Start-up cost: ``import degenpoly`` loads no submodule and binds no public
name (each name is imported from the module that defines it), and a
triangle, poly or eval request imports neither the identity suite, the
umbral layer nor ``dataclasses``."""

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

ROOT_PROBE = """
import json, sys
import degenpoly
sys.stderr.write(json.dumps([
    sorted(m for m in sys.modules if m.startswith("degenpoly.")),
    sorted(n for n in vars(degenpoly) if not n.startswith("_")),
]))
"""


def test_requests_other_than_verify_load_no_suite():
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True
    )
    loaded, verify_loaded_suite = json.loads(probe.stderr)
    assert loaded == []
    assert verify_loaded_suite


def test_package_root_loads_no_submodule_and_binds_no_name():
    probe = subprocess.run(
        [sys.executable, "-c", ROOT_PROBE], capture_output=True, text=True, check=True
    )
    assert json.loads(probe.stderr) == [[], []]


def test_unknown_package_name_raises_attribute_error():
    assert not hasattr(degenpoly, "no_such_name")
