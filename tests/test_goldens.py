"""Byte-exact CLI goldens: every triangle, slice and family kind at order 6,
and symbolically at order 12; every family symbolically at the order limit
24; plus the manifest of the facts each identity checks at order 8.

The files under ``tests/goldens/`` hold the stdout of each command below.
They pin the rendered bytes of the engine, so a change of representation
(how λ-polynomials store their coefficients, say) cannot move a single byte
of output unnoticed.  ``facts_order8.json`` holds, for every registered
identity, the number of facts it checks at order 8 and the sha256 of their
labels, so a rewrite of a check cannot drop, add or reorder a fact
unnoticed.  Re-record them only on purpose, when the output is meant to
change:

    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from degenpoly import identities
from degenpoly.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"
FACTS_ORDER = 8
FACTS_FILE = GOLDEN_DIR / f"facts_order{FACTS_ORDER}.json"

ORDER = "6"
LARGE_ORDER = "12"
LIMIT_ORDER = "24"
LAMBDAS = (None, "0", "1/2", "-1")
TRIANGLES = ("s1", "s2", "s1deg", "s2deg", "j1deg", "j2deg", "t")
SLICES = ("korobov", "degbernoulli")
FAMILIES = ("degbell", "newbell", "jindalrae", "gaenari")


def _with_lambda(argv, lam):
    return argv if lam is None else argv + ["--lambda", lam]


def _cases():
    cases = []
    for lam in LAMBDAS:
        for kind in TRIANGLES:
            cases.append(_with_lambda(["triangle", "--kind", kind, "--order", ORDER], lam))
        for kind in SLICES:
            cases.append(_with_lambda(
                ["triangle", "--kind", kind, "--order", ORDER, "--r", "2"], lam))
        for family in FAMILIES:
            cases.append(_with_lambda(["poly", "--family", family, "--order", ORDER], lam))
    for kind in TRIANGLES:
        cases.append(["triangle", "--kind", kind, "--order", ORDER, "--format", "csv"])
    for kind in SLICES:
        cases.append(["triangle", "--kind", kind, "--order", ORDER, "--r", "2",
                      "--format", "csv"])
    for family in FAMILIES:
        cases.append(["poly", "--family", family, "--order", ORDER, "--format", "csv"])
        cases.append(["poly", "--family", family, "--order", ORDER, "--x", "2/3"])
        cases.append(["poly", "--family", family, "--order", ORDER,
                      "--lambda", "1/2", "--x", "-3"])
    for kind in TRIANGLES:
        cases.append(["triangle", "--kind", kind, "--order", LARGE_ORDER])
    for kind in SLICES:
        cases.append(["triangle", "--kind", kind, "--order", LARGE_ORDER, "--r", "2"])
    for family in FAMILIES:
        cases.append(["poly", "--family", family, "--order", LARGE_ORDER])
    for family in FAMILIES:
        cases.append(["poly", "--family", family, "--order", LIMIT_ORDER])
    cases.append(["eval", "--expr", "degbernoulli(6,2)", "--format", "csv"])
    cases.append(["eval", "--expr", "gaenari(6)", "--lambda=-1/3"])
    cases.append(["verify", "--order", "8", "--format", "json"])
    return cases


CASES = _cases()


def golden_name(argv) -> str:
    """File name of a case: its arguments joined, unsafe characters spelled out."""
    text = "_".join(a[2:] if a.startswith("--") else a for a in argv)
    text = text.replace("/", "over").replace("-", "minus")
    return re.sub(r"[^A-Za-z0-9_]", "", text) + ".out"


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=golden_name)
def test_cli_output_matches_golden(argv):
    code, out = run_cli(argv)
    assert code == 0
    expected = (GOLDEN_DIR / golden_name(argv)).read_bytes()
    assert out.encode("utf-8") == expected


def test_golden_names_are_unique_and_complete():
    names = [golden_name(argv) for argv in CASES]
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(p.name for p in GOLDEN_DIR.glob("*.out"))


def fact_manifest():
    """Per registered identity, in registry order: its id, how many facts it
    checks at FACTS_ORDER (or its cap), and the sha256 of their labels."""
    ws = identities._Workspace(FACTS_ORDER)
    manifest = []
    for ident in identities._REGISTRY:
        order = min(FACTS_ORDER, ident.cap) if ident.cap else FACTS_ORDER
        labels = [label for label, _, _ in ident.fn(ws, order)]
        digest = hashlib.sha256("\n".join(labels).encode("utf-8")).hexdigest()
        manifest.append({"id": ident.identity_id, "facts": len(labels),
                         "labels_sha256": digest})
    return manifest


def test_identities_check_the_recorded_facts():
    expected = json.loads(FACTS_FILE.read_text(encoding="utf-8"))
    assert fact_manifest() == expected


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in CASES:
        code, out = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        (GOLDEN_DIR / golden_name(argv)).write_bytes(out.encode("utf-8"))
    manifest = fact_manifest()
    FACTS_FILE.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(CASES)} goldens and {sum(m['facts'] for m in manifest)} "
          f"fact labels in {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    record()
