"""CLI conformance: documents, formats, exit codes, round-trips."""

import json
import subprocess
import sys

import pytest

from degenpoly.cli import main, render_json
from degenpoly.oracles import partition_oracle


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def entry_map(doc):
    return {(e["n"], e.get("k")): e["value"] for e in doc["entries"]}


class TestTriangleCommand:
    def test_symbolic_second_kind(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--kind", "s2deg", "--order", "2")
        assert code == 0
        doc = json.loads(out)
        values = entry_map(doc)
        assert values[(2, 1)] == ["1", "-1"]
        assert values[(2, 2)] == "1"
        assert doc["metadata"]["parameters"]["lambda"] is None

    def test_specialized_matches_partition_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--kind", "s2deg", "--order", "3", "--lambda", "0"
        )
        assert code == 0
        values = entry_map(json.loads(out))
        assert values[(3, 2)] == "3"
        for n in range(4):
            for k in range(n + 1):
                assert values[(n, k)] == str(partition_oracle(n, k))

    def test_t_kind_column_one(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--kind", "t", "--order", "3")
        assert code == 0
        assert entry_map(json.loads(out))[(3, 1)] == "5"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--kind", "s2deg", "--order", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,value"
        assert lines[-1] == "2,2,1"
        assert "2,1,1 - λ" in lines

    def test_korobov_slice(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--kind", "korobov", "--order", "3", "--r", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["parameters"]["r"] == 2
        assert entry_map(doc)[(1, None)] == ["1", "-1"]

    def test_r_rejected_for_plain_triangles(self, capsys):
        code, _, err = run_cli(
            capsys, "triangle", "--kind", "s2deg", "--order", "3", "--r", "2"
        )
        assert code == 2
        assert "--r" in err

    def test_order_guard(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--kind", "s2deg", "--order", "25")
        assert code == 2
        assert "guard rail" in err

    @pytest.mark.parametrize("kind", ["korobov", "degbernoulli"])
    def test_slice_order_guard(self, capsys, kind):
        code, out, _ = run_cli(
            capsys, "triangle", "--kind", kind, "--order", "2", "--r", "24"
        )
        assert code == 0 and json.loads(out)["metadata"]["parameters"]["r"] == 24
        code, out, err = run_cli(
            capsys, "triangle", "--kind", kind, "--order", "12", "--r", "2000"
        )
        assert code == 2 and out == ""
        assert "r=2000 exceeds the guard rail 24" in err

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--kind", "bogus", "--order", "3")
        assert code == 2

    def test_malformed_rational_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "triangle", "--kind", "s2deg", "--order", "3", "--lambda", "x/y"
        )
        assert code == 2

    def test_exponent_notation_is_usage_error(self, capsys):
        # Fraction's parser would read 1e5000 as a 5001-digit integer
        code, out, err = run_cli(
            capsys, "eval", "--expr", "s2deg(3,1)", "--lambda", "1e5000"
        )
        assert code == 2 and out == ""
        assert "malformed rational '1e5000'" in err


class TestPolyCommand:
    def test_gaenari_at_x_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "gaenari", "--order", "2", "--x", "1"
        )
        assert code == 0
        values = entry_map(json.loads(out))
        assert values[(2, None)] == ["-1", "1"]

    def test_degbell_scalar_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "degbell", "--order", "2",
            "--lambda", "0", "--x", "1",
        )
        assert code == 0
        assert entry_map(json.loads(out))[(2, None)] == "2"

    def test_jindalrae_order_zero(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "jindalrae", "--order", "0")
        assert code == 0
        assert entry_map(json.loads(out))[(0, None)] == "1"

    def test_symbolic_nested_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "poly", "--family", "jindalrae", "--order", "2")
        assert code == 0
        # x^2 + (2-3λ)x renders as x-major arrays of λ-coefficient arrays
        assert entry_map(json.loads(out))[(2, None)] == [[], ["2", "-3"], ["1"]]

    def test_lambda_only_gives_x_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "degbell", "--order", "2", "--lambda", "0"
        )
        assert code == 0
        assert entry_map(json.loads(out))[(2, None)] == ["0", "1", "1"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--family", "degbell", "--order", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "n,value"
        assert out.splitlines()[3] == "2,(1 - 2*λ)*x + x^2"


class TestVerifyCommand:
    def test_small_order_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--order", "3")
        assert code == 0
        assert "0 failed" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--order", "3", "--format", "json",
            "--filter", "thm1,eq44", "--lambda-list", "1,1/2",
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["id"] for e in doc["entries"]] == ["thm1", "eq44"]
        assert all(e["status"] == "pass" for e in doc["entries"])
        assert doc["metadata"]["parameters"]["lambda_list"] == ["1", "1/2"]

    def test_unknown_filter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--order", "3", "--filter", "nope")
        assert code == 2
        assert "unknown identity" in err

    @pytest.mark.parametrize("empty", [",", " , ,"])
    def test_filter_naming_no_identity_exits_two(self, capsys, empty):
        code, out, err = run_cli(capsys, "verify", "--order", "2", "--filter", empty)
        assert code == 2
        assert out == ""
        assert "--filter" in err

    @pytest.mark.parametrize("empty", [",", " , ,"])
    def test_lambda_list_naming_no_value_exits_two(self, capsys, empty):
        code, out, err = run_cli(
            capsys, "verify", "--order", "2", "--filter", "thm1", "--lambda-list", empty
        )
        assert code == 2
        assert out == ""
        assert "--lambda-list" in err

    def test_malformed_lambda_list_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--order", "2", "--lambda-list", "1/2,x")
        assert code == 2 and out == ""
        assert "malformed rational list '1/2,x'" in err

    @pytest.mark.parametrize("lambdas", ["1/2,-1", "2,-3/2"])
    def test_lambda_list_is_only_recorded(self, capsys, lambdas):
        # a check that holds symbolically holds at every λ, so the listed
        # values change nothing but the metadata that records them
        def verify(fmt, *extra):
            code, out, _ = run_cli(capsys, "verify", "--order", "4", "--format", fmt, *extra)
            assert code == 0
            return out

        flag = f"--lambda-list={lambdas}"
        plain, listed = json.loads(verify("json")), json.loads(verify("json", flag))
        assert plain["metadata"]["parameters"].pop("lambda_list") == []
        assert listed["metadata"]["parameters"].pop("lambda_list") == lambdas.split(",")
        assert listed == plain
        assert verify("table", flag) == verify("table")

    def test_include_stretch(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--order", "3", "--include-stretch", "--format", "json"
        )
        assert code == 0
        ids = [e["id"] for e in json.loads(out)["entries"]]
        assert "s31-m3" in ids

    def test_list_identities(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--list")
        assert code == 0
        assert out.startswith("eq9")
        assert "[stretch]" in out
        code, out, _ = run_cli(capsys, "verify", "--list", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "identities"
        assert {"id": "thm1"} .items() <= doc["entries"][3].items()

    def test_failure_exits_one(self, capsys, monkeypatch):
        import degenpoly.cli as cli_mod
        from degenpoly.identities import CheckResult

        monkeypatch.setattr(
            cli_mod, "run_suite",
            lambda config: [CheckResult("thm1", config.order, "fail", "(n=1): 0 != 1")],
        )
        code, out, _ = run_cli(capsys, "verify", "--order", "3")
        assert code == 1
        assert "fail" in out and "(n=1)" in out
        code, out, _ = run_cli(capsys, "verify", "--order", "3", "--format", "json")
        assert code == 1
        record = json.loads(out)["entries"][0]
        assert record["status"] == "fail" and "(n=1)" in record["witness"]

    def test_error_exits_one_and_is_counted_apart(self, capsys, monkeypatch):
        import degenpoly.cli as cli_mod
        from degenpoly.identities import CheckResult

        monkeypatch.setattr(
            cli_mod, "run_suite",
            lambda config: [
                CheckResult("thm1", config.order, "pass"),
                CheckResult("eq44", config.order, "error", "TypeError: boom"),
            ],
        )
        code, out, _ = run_cli(capsys, "verify", "--order", "3")
        assert code == 1
        assert out.splitlines()[1].startswith("error  eq44")
        assert out.endswith("2 checks: 1 passed, 0 failed, 1 errored\n")
        code, out, _ = run_cli(capsys, "verify", "--order", "3", "--format", "json")
        assert code == 1
        assert json.loads(out)["entries"][1]["status"] == "error"


class TestEvalCommand:
    def test_triangle_entry(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--expr", "s2deg(2,1)")
        assert code == 0
        assert json.loads(out)["entries"][0]["value"] == ["1", "-1"]

    @pytest.mark.parametrize("expr", ["s2deg(4,7)", "j1deg(2,30)", "t(3,5)", "s1(0,1)"])
    def test_entry_above_the_diagonal_is_zero(self, capsys, expr):
        code, out, err = run_cli(capsys, "eval", "--expr", expr)
        assert code == 0 and err == ""
        assert json.loads(out)["entries"][0]["value"] == "0"
        code, out, _ = run_cli(capsys, "eval", "--expr", expr, "--lambda", "1/2",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1] == f'"{expr}",0'

    def test_family_member_specialized(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--expr", "degbell(2)", "--lambda", "0", "--x", "1"
        )
        assert code == 0
        assert json.loads(out)["entries"][0]["value"] == "2"

    def test_slice_entry(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--expr", "korobov(1,2)")
        assert code == 0
        assert json.loads(out)["entries"][0]["value"] == ["1", "-1"]

    @pytest.mark.parametrize("expr", ["korobov(3,25)", "degbernoulli(3,2000)"])
    def test_slice_order_guard(self, capsys, expr):
        code, out, err = run_cli(capsys, "eval", "--expr", expr)
        assert code == 2 and out == ""
        assert "exceeds the guard rail" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_value_too_long_to_print_is_usage_error(self, capsys, fmt):
        # s2deg(4,1) is cubic in λ: a 2 001-digit λ gives a value of over
        # 6 000 digits, past Python's int-to-text limit
        code, out, err = run_cli(capsys, "eval", "--expr", "s2deg(4,1)",
                                 "--lambda", "1" + "0" * 2000, "--format", fmt)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "too long to print" in err

    def test_other_render_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(value):
            raise ValueError("renderer bug")
        monkeypatch.setattr("degenpoly.cli.render_value", broken)
        with pytest.raises(ValueError, match="renderer bug"):
            main(["eval", "--expr", "s2deg(4,1)", "--format", "json"])

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "what?")
        assert code == 2
        assert "cannot parse" in err

    def test_x_rejected_for_triangles(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--expr", "s2deg(2,1)", "--x", "1")
        assert code == 2

    def test_arity_mismatches(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--expr", "s2deg(3)")
        assert code == 2 and "two indices" in err
        code, _, err = run_cli(capsys, "eval", "--expr", "degbell(2,1)")
        assert code == 2 and "single index" in err
        code, _, err = run_cli(capsys, "eval", "--expr", "mystery(2)")
        assert code == 2 and "unknown table or family" in err


class TestRoundTrip:
    @pytest.mark.parametrize("argv", [
        ("triangle", "--kind", "s2deg", "--order", "3"),
        ("triangle", "--kind", "t", "--order", "4", "--lambda", "0"),
        ("poly", "--family", "jindalrae", "--order", "3"),
        ("verify", "--order", "3", "--format", "json"),
        ("eval", "--expr", "gaenari(2)", "--x", "1"),
    ])
    def test_json_reemission_is_byte_identical(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert render_json(json.loads(out)) == out

    def test_repeated_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--order", "3", "--format", "json")
        _, second, _ = run_cli(capsys, "verify", "--order", "3", "--format", "json")
        assert first == second


GOLDEN = {
    ("triangle", "--kind", "s2deg", "--order", "2"): (
        '{"entries":[{"k":0,"n":0,"value":"1"},{"k":0,"n":1,"value":"0"},'
        '{"k":1,"n":1,"value":"1"},{"k":0,"n":2,"value":"0"},'
        '{"k":1,"n":2,"value":["1","-1"]},{"k":2,"n":2,"value":"1"}],'
        '"kind":"s2deg","metadata":{"parameters":{"kind":"s2deg","lambda":null,'
        '"order":2},"tool_version":"0.1.0"},"order":2}\n'
    ),
    ("triangle", "--kind", "korobov", "--order", "2"): (
        '{"entries":[{"n":0,"value":"1"},{"n":1,"value":["1/2","-1/2"]},'
        '{"n":2,"value":["-1/6","0","1/6"]}],"kind":"korobov","metadata":'
        '{"parameters":{"kind":"korobov","lambda":null,"order":2,"r":1},'
        '"tool_version":"0.1.0"},"order":2}\n'
    ),
    ("poly", "--family", "gaenari", "--order", "2", "--x", "1"): (
        '{"entries":[{"n":0,"value":"1"},{"n":1,"value":"1"},'
        '{"n":2,"value":["-1","1"]}],"kind":"gaenari","metadata":'
        '{"parameters":{"family":"gaenari","lambda":null,"order":2,"x":"1"},'
        '"tool_version":"0.1.0"},"order":2}\n'
    ),
}


class TestGoldenDocuments:
    @pytest.mark.parametrize("argv", sorted(GOLDEN), ids=lambda a: " ".join(a))
    def test_document_bytes_are_pinned(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == GOLDEN[argv]


# A family specialised at λ (no --x) is still a polynomial in x, but its CSV
# prints λ in place of x.  The wrong bytes are pinned by 40 entries of
# perfbench/digests.json (36 cli-small, 4 cli-large); once those digests are
# re-recorded and the renderer fixed, these pass and the marker must go.
SPECIALIZED_CSV = {
    ("poly", "--family", "degbell", "--order", "3", "--lambda", "1/2", "--format", "csv"):
        "n,value\n0,1\n1,x\n2,x^2\n3,-1/4*x + x^3\n",
    ("eval", "--expr", "degbell(3)", "--lambda", "1/2", "--format", "csv"):
        "expr,value\ndegbell(3),-1/4*x + x^3\n",
}


class TestSpecializedFamilyCsv:
    @pytest.mark.xfail(strict=True, reason=(
        "prints λ for x; 40 perfbench/digests.json entries pin these bytes"))
    @pytest.mark.parametrize("argv", sorted(SPECIALIZED_CSV), ids=lambda a: " ".join(a))
    def test_variable_is_x(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == SPECIALIZED_CSV[argv]


class TestInstalledEntryPoint:
    def test_module_invocation_exit_codes(self):
        base = [sys.executable, "-m", "degenpoly.cli"]
        ok = subprocess.run(
            base + ["triangle", "--kind", "s2deg", "--order", "2"],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0 and ok.stdout.startswith("{")
        bad = subprocess.run(
            base + ["verify", "--order", "2", "--filter", "nope"],
            capture_output=True, text=True,
        )
        assert bad.returncode == 2
        usage = subprocess.run(base + ["triangle"], capture_output=True, text=True)
        assert usage.returncode == 2
