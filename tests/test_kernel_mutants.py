"""Mutants of the shared kernels: each breaks one line of a copy of the
package, and the identity suite at order 8 must notice (some check is not
"pass").

The two routes of a kind often share kernels (``lp_dot``, the series
product, ``powers``, ``egf_triangle_rows``, ``deg_exp_coeffs``), so a bug in
one of them can make both routes wrong alike; the route check then stays
quiet, and only an identity that reads the kernel through an independent
statement can catch it.  The suite's shared workspace products (an umbral
power, r²∘fall) are mutated the same way: each is read by one side of
several checks.  So is the key of thm14's regenerated pairs, which must
tell every predicted pair apart.  Each row names the file, a source line
fragment found there exactly once, and the fragment that replaces it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "degenpoly"

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
    "power-pair": ("umbral.py", "g, f = r.g * of_ell(g), of_ell(f)",
                   "g, f = of_ell(g), of_ell(f)"),
    "deg_log-a": ("series.py",
                  "deg_exp_coeffs(LambdaPoly.var(), _inner_at(order, inner), 1)",
                  "deg_exp_coeffs(LambdaPoly.var(), _inner_at(order, inner))"),
    "cor15-ell-bar-power": ("umbral.py", "r.fbar.truncate(order), m)",
                            "r.fbar.truncate(order), m - 1)"),
    "squared-fall-times-ident": ("identities.py", 'self.seq("fall", order).matrix',
                                 'self.seq("ident", order).matrix'),
    "thm14-regeneration-key": ("identities.py",
                               "key = (g, f)",
                               "key = f"),
    "classical-map-a": ("series.py",
                        "deg_exp_coeffs(LambdaPoly.one(), _inner_at(order, inner), 0)",
                        "deg_exp_coeffs(LambdaPoly.one(), _inner_at(order, inner), 1)"),
}

SUITE = """
import sys
import degenpoly
from degenpoly.identities import SuiteConfig, run_suite
assert degenpoly.__file__.startswith(sys.argv[1]), degenpoly.__file__
print(" ".join(r.status for r in run_suite(SuiteConfig(order=8))))
"""


@pytest.mark.parametrize("name", MUTANTS)
def test_the_suite_notices_the_mutant(tmp_path, name):
    filename, anchor, replacement = MUTANTS[name]
    copy = tmp_path / "degenpoly"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = (copy / filename).read_text(encoding="utf-8")
    assert source.count(anchor) == 1
    (copy / filename).write_text(source.replace(anchor, replacement), encoding="utf-8")

    run = subprocess.run(
        [sys.executable, "-c", SUITE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    statuses = run.stdout.split()
    assert statuses and set(statuses) != {"pass"}
