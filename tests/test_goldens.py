"""Byte-exact CLI goldens: every triangle, slice and family kind at order 6,
and symbolically at order 12.

The files under ``tests/goldens/`` hold the stdout of each command below.
They pin the rendered bytes of the engine, so a change of representation
(how λ-polynomials store their coefficients, say) cannot move a single byte
of output unnoticed.  Re-record them only on purpose, when the output is
meant to change:

    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from degenpoly.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

ORDER = "6"
LARGE_ORDER = "12"
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


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in CASES:
        code, out = run_cli(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        (GOLDEN_DIR / golden_name(argv)).write_bytes(out.encode("utf-8"))
    print(f"recorded {len(CASES)} goldens in {GOLDEN_DIR}", file=sys.stderr)


if __name__ == "__main__":
    record()
