"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _take(workload, seed, n_rounds):
    stream = workloads.rounds(workload, seed)
    return [next(stream) for _ in range(n_rounds)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _take(workload, 7, 3) == _take(workload, 7, 3)
    assert _take(workload, 7, 3) != _take(workload, 8, 3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_draws_one_request_per_slot_from_the_catalogue(workload):
    entries = set(workloads.catalogue(workload))
    for round_ in _take(workload, 3, 5):
        assert len(round_) == len(workloads.slots(workload))
        assert set(round_) <= entries


def test_every_catalogue_entry_has_a_recorded_digest():
    digests = json.loads((HERE / "digests.json").read_text())
    for workload in workloads.WORKLOADS:
        for argv in workloads.catalogue(workload):
            assert workloads.key(argv) in digests


def _client_with(argv, stdout):
    client = run.Client.__new__(run.Client)
    client.digests = {workloads.key(argv): hashlib.sha256(stdout).hexdigest()}
    return client


def test_digest_gate_catches_a_corrupted_byte():
    argv = ("triangle", "--kind", "s2deg", "--order", "3", "--format", "csv")
    stdout = b"n,k,value\n0,0,1\n1,0,0\n1,1,1\n"
    client = _client_with(argv, stdout)
    assert client.problem(argv, 0, stdout) is None
    for i in range(len(stdout)):
        corrupted = bytearray(stdout)
        corrupted[i] ^= 0x01
        assert client.problem(argv, 0, bytes(corrupted)) is not None


def test_verify_gate_rejects_a_fail_verdict():
    lines = [f"pass  id{i}  order=12" for i in range(run.VERIFY_CHECKS)]
    good = "\n".join(lines + ["38 checks: 38 passed, 0 failed"]) + "\n"
    argv = ("verify", "--format", "table")
    assert run.verify_problem(argv, good.encode()) is None
    lines[5] = "fail  id5  order=12  (n=1, k=1): 1 != 2"
    bad = "\n".join(lines + ["38 checks: 37 passed, 1 failed"]) + "\n"
    assert run.verify_problem(argv, bad.encode()) is not None
    assert run.verify_problem(argv, "\n".join(lines[:3] + ["3 checks"]).encode()) is not None


def test_self_time_reduction_on_a_hand_made_tree():
    # root [0, 100] -> a [10, 40] -> b [15, 25]
    #               -> b [50, 90] -> b [60, 70]   (b nested in itself)
    spans = [
        ("root", -1, 0, 100),
        ("a", 0, 10, 40),
        ("b", 1, 15, 25),
        ("b", 0, 50, 90),
        ("b", 3, 60, 70),
    ]
    table = tracing.reduce_spans(spans)
    ns = 1e-9
    assert table["root"]["calls"] == 1
    assert table["root"]["self_s"] == pytest.approx((100 - 30 - 40) * ns)
    assert table["a"]["self_s"] == pytest.approx((30 - 10) * ns)
    assert table["b"]["calls"] == 3
    assert table["b"]["self_s"] == pytest.approx((10 + 30 + 10) * ns)
    assert table["b"]["s"] == pytest.approx((10 + 40) * ns)  # outermost b spans only
    assert table["root"]["s"] == pytest.approx(100 * ns)


def test_tracer_nests_spans_and_survives_exceptions():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: tracer.wrap("inner", inner)())
    with pytest.raises(ValueError):
        outer()
    assert tracer.spans() == [("outer", -1, 0, 3), ("inner", 0, 1, 2)]


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        yield tracer
    finally:
        restore()


def test_mul_count_is_the_closed_form_on_a_known_multiply(installed):
    from degenpoly.algebra import LambdaPoly

    m, n = 5, 7
    a = LambdaPoly([Fraction(1, 2 ** 70)] + [1] * (m - 1))
    b = LambdaPoly(range(1, n + 1))
    product = a * b
    assert installed.counters["scalars.mul.count"] == m * n
    assert installed.counters["scalars.max_bits"] == 71
    a * 3  # a scalar multiply is not a λ-polynomial multiply
    assert installed.counters["scalars.mul.count"] == m * n
    assert len(product.coeffs) == m + n - 1
    names = [name for name, _, _, _ in installed.spans()]
    assert names == ["algebra.lp_mul", "algebra.lp_mul"]


def test_install_restores_every_original():
    from degenpoly import algebra, cli, identities, series, triangles

    before = (algebra.LambdaPoly.__mul__, series.compose, triangles.compose,
              cli.run_suite, identities._REGISTRY, identities._Workspace._get)
    restore = tracing.install(tracing.Tracer())
    assert triangles.compose is series.compose is not before[1]
    restore()
    after = (algebra.LambdaPoly.__mul__, series.compose, triangles.compose,
             cli.run_suite, identities._REGISTRY, identities._Workspace._get)
    assert after == before


def test_identity_spans_cover_every_default_identity(installed):
    from degenpoly import cli

    cli.run_suite(cli.SuiteConfig(order=3, identity_filter=("eq9", "orth")))
    table = tracing.reduce_spans(installed.spans())
    assert table["identities.eq9"]["calls"] == table["identities.orth"]["calls"] == 1
    assert table["cli.build"]["calls"] == 1
    assert installed.counters["identities.ws.misses"] > 0
    from degenpoly.identities import identity_ids
    assert identity_ids(include_stretch=False) == tracing.IDENTITY_IDS


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_percentiles_need_ten_samples_beyond():
    values = sorted(range(1, 101))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.99) is None
    assert run.percentile([1.0, 3.0], 0.5) == 2.0
