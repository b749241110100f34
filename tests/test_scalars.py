"""Scalars: parsing text, rendering, and the Fraction backend end to end."""

import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from degenpoly.algebra import LambdaPoly
from degenpoly.cli import render_value
from degenpoly.scalars import Q, as_scalar, is_scalar


class TestCoercion:
    def test_parses_p_over_q_text(self):
        assert as_scalar("3/4") == Q(3, 4)
        assert as_scalar(" -3/6 ") == Q(-1, 2)
        assert as_scalar("-7") == -7
        assert as_scalar("4/01") == 4

    def test_rejects_floats(self):
        # no rounding ever occurs: the engine refuses a float wherever a scalar enters
        with pytest.raises(TypeError):
            LambdaPoly.const(0.5)
        with pytest.raises(TypeError):
            LambdaPoly((1, 1)).eval(0.5)

    def test_rejects_garbage_strings(self):
        for bad in ("1//2", "a/b", "1/0", "1/00", "", "1e5000", "1.5"):
            with pytest.raises(ValueError):
                as_scalar(bad)

    def test_is_scalar(self):
        assert is_scalar(1) and is_scalar(Q(1, 2)) and is_scalar(Fraction(1, 3))
        assert not is_scalar("1/2") and not is_scalar(0.5)


class TestRendering:
    # a scalar renders as its str: ints and Fractions already print "num/den"
    def test_denominator_omitted_when_one(self):
        assert render_value(Q(4, 2)) == "2"
        assert render_value(7) == "7"

    def test_num_den_form(self):
        assert render_value(Q(-3, 6)) == "-1/2"
        assert render_value(Fraction(5, 15)) == "1/3"


def test_everything_stays_exact():
    # crawl a few engine artifacts and confirm no coefficient is a float
    from degenpoly.families import build_family
    from degenpoly.triangles import korobov_table

    for poly in build_family("jindalrae", 5):
        for lam_poly in poly.coeffs:
            assert all(is_scalar(c) and not isinstance(c, float) for c in lam_poly.coeffs)
    for value in korobov_table(5, 3)[3]:
        assert all(is_scalar(c) and not isinstance(c, float) for c in value.coeffs)


def test_fraction_fallback_backend_runs_the_suite():
    # a fresh interpreter runs the suite and the CLI on Fraction scalars
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from degenpoly.scalars import Q
        assert Q is Fraction

        from degenpoly.identities import SuiteConfig, run_suite
        results = run_suite(SuiteConfig(order=4))
        bad = [r.identity_id for r in results if not r.passed]
        assert not bad, bad

        from degenpoly.cli import main
        assert main(["eval", "--expr", "s2deg(3,2)"]) == 0
        print("fallback ok")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "fallback ok" in proc.stdout
