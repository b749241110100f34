"""Acceptance criteria, one test per criterion.

Everything is exact: every assertion is structural equality of rationals or
polynomials, zero tolerance.  The full identity suite at order 12 is computed
once and shared; each criterion prints its own pass/fail line.
"""

import json
import subprocess
import sys
import time

import pytest

from degenpoly.algebra import LambdaPoly, specialize
from degenpoly.cli import render_json
from degenpoly.identities import SuiteConfig, run_suite
from degenpoly.oracles import (
    bell_number_classical,
    partition_oracle,
    signed_cycle_oracle,
)
from degenpoly.series import (
    Series,
    comp_inverse,
    compose,
    deg_exp,
    deg_log,
)

SUITE_ORDER = 12


@pytest.fixture(scope="module")
def suite():
    start = time.perf_counter()
    results = run_suite(SuiteConfig(order=SUITE_ORDER))
    elapsed = time.perf_counter() - start
    return {r.identity_id: r for r in results}, elapsed


def _report(name, ok, detail=""):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, name


def _all_pass(by_id, ids):
    bad = [i for i in ids if not by_id[i].passed]
    return not bad, bad


def test_criterion_1_identity_suite(suite):
    by_id, elapsed = suite
    required = (
        "thm1", "thm2", "cor3", "thm4", "cor5", "thm6", "thm7", "eq34",
        "thm8", "thm9", "thm10", "thm11", "thm12", "eq44", "cor13",
        "eq22", "eq24", "eq49", "eq51", "eq52", "orth",
    )
    ok, bad = _all_pass(by_id, required)
    ok = ok and all(r.passed for r in by_id.values())
    ok = ok and elapsed < 60.0
    _report(
        "1 identity suite at order 12",
        ok,
        f" ({len(by_id)} checks in {elapsed:.1f}s"
        + (f"; failing: {bad}" if bad else "")
        + ")",
    )


def test_criterion_2_classical_degeneration(suite):
    by_id, _ = suite
    ok = by_id["classical"].passed
    from degenpoly.triangles import build_triangle
    from degenpoly.families import build_family

    s2 = build_triangle("s2deg", 10)
    s1 = build_triangle("s1deg", 10)
    bell = build_family("degbell", 10)
    for n in range(11):
        for k in range(n + 1):
            ok = ok and s2[n][k].eval(0) == partition_oracle(n, k)
            ok = ok and s1[n][k].eval(0) == signed_cycle_oracle(n, k)
        ok = ok and specialize(bell[n].eval_x(1), 0) == bell_number_classical(n)
    ok = ok and bell_number_classical(10) == 115975
    _report("2 classical degeneration (n <= 10, Bell(10) by enumeration)", ok)


def test_criterion_3_compositional_inversion():
    n = 16
    t = Series.identity(n)
    em1 = deg_exp(1, n) - 1
    lg = deg_log(n)
    double = compose(em1, em1)
    ok = True
    for f in (em1, lg, double):
        fbar = comp_inverse(f)
        ok = ok and compose(f, fbar) == t and compose(fbar, f) == t
    em1_12 = deg_exp(1, 12) - 1
    lg_12 = deg_log(12)
    ok = ok and comp_inverse(compose(em1_12, em1_12)) == compose(lg_12, lg_12)
    _report("3 compositional inversion mod t^17 and the stated inverse pair", ok)


def test_criterion_4_dual_route_agreement(suite):
    by_id, _ = suite
    ok, bad = _all_pass(
        by_id,
        ("eq9", "eq8", "thm1", "thm4", "eq14", "newbell", "thm8", "thm11",
         "eq60", "eq66"),
    )
    _report("4 dual-route agreement at order 12", ok, f" {bad}" if bad else "")


def test_criterion_5_umbral_layer(suite):
    by_id, _ = suite
    ok, bad = _all_pass(by_id, ("thm14", "eq56", "cor15"))
    ok = ok and by_id["thm14"].order == 10
    ok = ok and by_id["eq56"].order == 10
    ok = ok and by_id["cor15"].order == 10
    _report("5 umbral group law, powers, substitution at order 10", ok,
            f" {bad}" if bad else "")


def test_criterion_6_slice_identities(suite):
    by_id, _ = suite
    ok, bad = _all_pass(by_id, ("s31-m1", "s31-m2", "s32-m1", "s32-m2"))
    ok = ok and all(by_id[i].order == 10 for i in ("s31-m1", "s31-m2", "s32-m1", "s32-m2"))
    _report("6 quotient-slice identities (single and paired) at n <= 10", ok,
            f" {bad}" if bad else "")


def test_criterion_7_t_triple_agreement(suite):
    by_id, _ = suite
    ok, bad = _all_pass(by_id, ("eq17", "eq19"))
    from degenpoly.triangles import build_triangle

    t = build_triangle("t", 10)
    for n in range(1, 11):
        ok = ok and t[n][1] == LambdaPoly.const(bell_number_classical(n))
    _report("7 doubly-composed table: convolution, multinomial, Bell column", ok,
            f" {bad}" if bad else "")


def test_criterion_8_cli_conformance():
    base = [sys.executable, "-m", "degenpoly.cli"]
    verify = subprocess.run(
        base + ["verify", "--order", "12"], capture_output=True, text=True
    )
    ok = verify.returncode == 0

    triangle = subprocess.run(
        base + ["triangle", "--kind", "s2deg", "--order", "3", "--lambda", "0"],
        capture_output=True, text=True,
    )
    ok = ok and triangle.returncode == 0
    doc = json.loads(triangle.stdout)
    for record in doc["entries"]:
        expected = partition_oracle(record["n"], record["k"])
        ok = ok and record["value"] == str(expected)
    ok = ok and render_json(doc) == triangle.stdout

    poly = subprocess.run(
        base + ["poly", "--family", "gaenari", "--order", "4"],
        capture_output=True, text=True,
    )
    ok = ok and poly.returncode == 0
    ok = ok and render_json(json.loads(poly.stdout)) == poly.stdout
    _report("8 CLI conformance (verify exit 0, oracle match, byte round-trip)", ok)
