"""Mutants of the shared kernels: each breaks one line of a copy of the
package, and the identity suite at order 8 must notice (some check is not
"pass").

The two routes of a kind often share kernels (``lp_dot``, the series
product, ``powers``, ``egf_triangle_rows``, ``deg_exp_coeffs``), so a bug in
one of them can make both routes wrong alike; the route check then stays
quiet, and only an identity that reads the kernel through an independent
statement can catch it.  The suite's shared workspace products (an umbral
power, r²∘fall) are mutated the same way: each is read by one side of
several checks.  So are the reference sides that only the identity suite
computes: the step matrix whose power gives the slice sums, and thm6's
alternating weights.  Each row names the file, a source line fragment found
there exactly once, and the fragment that replaces it.

A mutant that only pairs outside the paper can show, where the suite's
sequences cannot, is a row of ``NODE_MUTANTS`` instead: it also names the
test that must fail, run alone by pytest against the mutated copy.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degenpoly"

MUTANTS = {
    "lp_dot-rescale": ("algebra.py", "y = [c * scale for c in y]", "y = [c for c in y]"),
    "lp_conv-reversed": ("algebra.py", "reversed(b[: k + 1])", "b[: k + 1]"),
    "lp_conv-drops-a-term": ("algebra.py", "reversed(b[: k + 1])))", "reversed(b[1: k + 1])))"),
    "series-mul-valuation": ("series.py", "start = va + vb", "start = va + vb + 1"),
    "substitution-skips-k2": ("series.py", "lp_dot(zip(outer.coeffs, column))",
                              "lp_dot(p for k, p in enumerate(zip(outer.coeffs, column)) if k != 2)"),
    "basis-change-weight": ("triangles.py", "(target_step * n - basis_step * k)",
                            "(target_step * (n + 1) - basis_step * k)"),
    "chain-sum": ("umbral.py", "if i >= k)", "if i > k)"),
    "forward-substitution": ("umbral.py", "for m in range(k, n)", "for m in range(k, n - 1)"),
    "umbral-power-square": ("umbral.py", "matrix = convolution_rows(matrix, r.matrix)",
                            "matrix = convolution_rows(r.matrix, r.matrix)"),
    "power-pair": ("umbral.py", "return p.g * p.of_f(g), p.of_f(f)",
                   "return p.of_f(g), p.of_f(f)"),
    "deg_log-a": ("series.py",
                  "deg_exp_coeffs(LambdaPoly.var(), _inner_at(order, inner), 1)",
                  "deg_exp_coeffs(LambdaPoly.var(), _inner_at(order, inner))"),
    "cor15-ell-bar-power": ("umbral.py", "r.fbar.truncate(order), m)",
                            "r.fbar.truncate(order), m - 1)"),
    "squared-fall-times-ident": ("identities.py", 'self.seq("fall", order).matrix',
                                 'self.seq("ident", order).matrix'),
    "slice-step-binomial": ("identities.py", "comb(a - 1, a - b)", "comb(a, a - b)"),
    "thm6-weight-sign": ("identities.py", "(-1) ** (k - l)", "(-1) ** l"),
    "classical-map-a": ("series.py",
                        "deg_exp_coeffs(LambdaPoly.one(), _inner_at(order, inner), 0)",
                        "deg_exp_coeffs(LambdaPoly.one(), _inner_at(order, inner), 1)"),
}

# Every sequence of the paper has g(0) = f'(0) = 1, a unit Riordan diagonal,
# so a pivot of 1 builds each of them right and only a random pair shows it.
NODE_MUTANTS = {
    "sheffer-pivot-one": ("umbral.py", "pivot = QONE / r_row[n].constant_value()",
                          "pivot = QONE", "tests/test_sheffer_laws.py::test_group_law"),
}

SUITE = """
import sys
import degenpoly
from degenpoly.identities import SuiteConfig, run_suite
assert degenpoly.__file__.startswith(sys.argv[1]), degenpoly.__file__
print(" ".join(r.status for r in run_suite(SuiteConfig(order=8))))
"""


NODE = """
import sys
import degenpoly
import pytest
assert degenpoly.__file__.startswith(sys.argv[1]), degenpoly.__file__
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", sys.argv[2]]))
"""


def _run_mutated(tmp_path, filename, anchor, replacement, *args):
    """Run a script against a copy of the package with one fragment replaced."""
    copy = tmp_path / "degenpoly"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / filename).read_text(encoding="utf-8")
    assert source.count(anchor) == 1
    (copy / filename).write_text(source.replace(anchor, replacement), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-c", *args],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", MUTANTS)
def test_the_suite_notices_the_mutant(tmp_path, name):
    run = _run_mutated(tmp_path, *MUTANTS[name], SUITE, str(tmp_path))
    assert run.returncode == 0, run.stderr
    statuses = run.stdout.split()
    assert statuses and set(statuses) != {"pass"}


@pytest.mark.parametrize("name", NODE_MUTANTS)
def test_the_named_test_notices_the_mutant(tmp_path, name):
    *mutation, node = NODE_MUTANTS[name]
    run = _run_mutated(tmp_path, *mutation, NODE, str(tmp_path), str(ROOT / node))
    # pytest exits 1 when tests ran and some failed, not on an error of its own
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
