"""Command-line front end.

Subcommands:

* ``triangle`` -- emit a number triangle (or an order-r number slice) as
  JSON or CSV, symbolically or specialized at a rational λ.
* ``poly`` -- emit a polynomial family, optionally specialized at rational
  λ and/or x.
* ``verify`` -- run the identity suite; exit 0 when every selected check
  passes, 1 when any check fails or errors (raises instead of answering).
* ``eval`` -- evaluate a single table entry or family member given as a
  compact expression such as ``s2deg(4,2)`` or ``degbell(3)``.

JSON output is canonical: keys sorted, rationals as "num/den" strings with
the denominator omitted when 1, λ-polynomials as coefficient arrays ascending
in λ-power (constants collapse to a bare rational string), x-polynomials as
arrays of λ-coefficient arrays ascending in x-power.  Rationals are never
floats, so parsing and re-emitting a document reproduces it byte for byte.
CSV is the human-readable flattening; polynomial values appear in canonical
text form ("1 - λ" style).

Exit codes: 0 success, 1 verification failure, 2 usage error.  Output goes
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from . import __version__
from .algebra import LambdaPoly, XPoly, specialize
from .families import FAMILY_KINDS, build_family
from .scalars import as_scalar, is_scalar
from .triangles import SLICE_KINDS, SLICES, TRIANGLE_KINDS, build_triangle

# What the limit costs, one process per request (best of 10, in each of two
# runs; Python 3.11.7, Fraction scalars, 2-CPU shared Linux host): poly
# --order 24 takes 0.16-0.18 s (degbell), 0.11-0.12 s (newbell), 0.15-0.16 s
# (jindalrae) and 0.15-0.16 s (gaenari); triangle --order 24 of j1deg/j2deg
# takes 0.11-0.12 s; verify --order 24 (the 38 default checks, symbolic only,
# default table output) takes 0.67-0.69 s, and has read 0.84 s on a busier
# host.
MAX_ORDER = 24


class UsageError(Exception):
    pass


def render_value(value):
    """Canonical JSON form of a scalar / λ-polynomial / x-polynomial."""
    if is_scalar(value):
        return str(value)
    if isinstance(value, LambdaPoly):
        constant = value.constant_value()
        if constant is not None:
            return str(constant)
        return [str(c) for c in value.coeffs]
    if isinstance(value, XPoly):
        constant = value.constant_value()
        if constant is not None:
            return render_value(constant)
        return [[str(s) for s in c.coeffs] for c in value.coeffs]
    raise TypeError(f"cannot render {type(value).__name__}")


def render_json(document) -> str:
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ) + "\n"


def _document(kind: str, order: int, entries, parameters) -> dict:
    return {
        "kind": kind,
        "order": order,
        "entries": entries,
        "metadata": {"tool_version": __version__, "parameters": parameters},
    }


def _csv_lines(fieldnames, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_records(args, kind: str, order: int, parameters, fieldnames, records):
    """Write (key, ..., value) records, each value at the requested λ and x,
    as one JSON document or as CSV rows; fieldnames names the keys and then
    the value."""
    x = getattr(args, "x", None)  # triangle requests take no --x
    records = [(*keys, _specialized(value, args.lam, x)) for *keys, value in records]
    try:
        if args.format == "json":
            entries = [dict(zip(fieldnames, (*keys, render_value(value))))
                       for *keys, value in records]
            text = render_json(_document(kind, order, entries, parameters))
        else:
            text = _csv_lines(fieldnames, records)  # csv writes each value as str(value)
    except ValueError as exc:  # only CPython's int-to-text digit limit is the user's
        if "integer string conversion" not in str(exc):
            raise
        raise UsageError(f"a value has an integer of over {sys.get_int_max_str_digits()} "
                         "digits, too long to print") from exc
    sys.stdout.write(text)


def _specialized(value, lam, x):
    """A table value or family member at the requested x and/or λ."""
    if x is not None:
        value = value.eval_x(x)
    if lam is not None:
        value = specialize(value, lam)  # scalar, or x-coefficients when x is None
    return value


def _parameter(value):
    """A λ or x argument as its parameters field: the rational's text, or None."""
    return None if value is None else str(value)


def _rational_arg(text: str):
    try:
        return as_scalar(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed rational {text!r}") from exc


def _check_order(order: int) -> int:
    if order < 0:
        raise UsageError("order must be nonnegative")
    if order > MAX_ORDER:
        raise UsageError(f"order {order} exceeds the guard rail {MAX_ORDER}")
    return order


# Kept as a name of its own: perfbench/tracing.py (CLI_BUILD),
# perfbench/record_digests.py and tests/check_digests.py wrap the CLI's build
# step by this name.
_build_triangle = build_triangle


def _build_slice(kind: str, order: int, r: int):
    if r < 1:
        raise UsageError("slice order r must be >= 1")
    if r > MAX_ORDER:
        # a slice's cost grows linearly in r, so r gets the order's guard rail
        raise UsageError(f"slice order r={r} exceeds the guard rail {MAX_ORDER}")
    return SLICES[kind](order, r)[r]


def cmd_triangle(args) -> int:
    order = _check_order(args.order)
    parameters = {"kind": args.kind, "order": order, "lambda": _parameter(args.lam)}
    if args.kind in SLICE_KINDS:
        r = 1 if args.r is None else args.r
        values = _build_slice(args.kind, order, r)
        parameters["r"] = r
        fieldnames = ("n", "value")
        records = list(enumerate(values))
    else:
        if args.r is not None:
            raise UsageError(f"--r only applies to kinds {'/'.join(SLICE_KINDS)}")
        fieldnames = ("n", "k", "value")
        records = [(n, k, value) for n, row in enumerate(_build_triangle(args.kind, order))
                   for k, value in enumerate(row)]
    _write_records(args, args.kind, order, parameters, fieldnames, records)
    return 0


def cmd_poly(args) -> int:
    order = _check_order(args.order)
    parameters = {
        "family": args.family,
        "order": order,
        "lambda": _parameter(args.lam),
        "x": _parameter(args.x),
    }
    _write_records(args, args.family, order, parameters, ("n", "value"),
                   enumerate(build_family(args.family, order)))
    return 0


# The identity suite loads on the first verify request, not with the CLI.
# run_suite stays a function of this module, and SuiteConfig a name of it:
# perfbench/tracing.py rebinds cli.run_suite, and perfbench's tests call
# cli.SuiteConfig.
def run_suite(config):
    from .identities import run_suite as suite

    return suite(config)


def __getattr__(name):
    if name == "SuiteConfig":
        from .identities import SuiteConfig

        return SuiteConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_verify(args) -> int:
    from .identities import SuiteConfig, UnknownIdentityError, describe_identities

    if args.list:
        rows = describe_identities()
        if args.format == "json":
            entries = [
                {"id": i, "description": d, "stretch": s} for i, d, s in rows
            ]
            parameters = {"list": True}
            sys.stdout.write(render_json(_document("identities", 0, entries, parameters)))
        else:
            width = max(len(i) for i, _, _ in rows)
            for i, d, s in rows:
                flag = "  [stretch]" if s else ""
                sys.stdout.write(f"{i:<{width}s}  {d}{flag}\n")
        return 0
    if args.order < 1:
        raise UsageError("verification order must be >= 1")
    _check_order(args.order)
    if args.lambda_list == []:
        raise UsageError("--lambda-list names no λ value")
    if args.filter == []:
        raise UsageError("--filter names no identity id")
    identity_filter = tuple(args.filter) if args.filter else None
    try:
        config = SuiteConfig(
            order=args.order,
            identity_filter=identity_filter,
            include_stretch=args.include_stretch,
        )
        results = run_suite(config)
    except UnknownIdentityError as exc:
        raise UsageError(str(exc)) from exc
    failed = [r for r in results if r.status == "fail"]
    errored = [r for r in results if r.status == "error"]
    if args.format == "json":
        entries = []
        for r in results:
            record = {"id": r.identity_id, "order": r.order, "status": r.status}
            if r.witness is not None:
                record["witness"] = r.witness
            entries.append(record)
        parameters = {
            "order": args.order,
            # only recorded: a check that holds symbolically holds at every λ
            "lambda_list": [str(v) for v in args.lambda_list or ()],
            "filter": list(identity_filter) if identity_filter else None,
            "include_stretch": args.include_stretch,
        }
        sys.stdout.write(render_json(_document("verify", args.order, entries, parameters)))
    else:
        width = max(len(r.identity_id) for r in results) if results else 0
        for r in results:
            line = f"{r.status:4s}  {r.identity_id:<{width}s}  order={r.order}"
            if r.witness:
                line += f"  {r.witness}"
            sys.stdout.write(line + "\n")
        passed = len(results) - len(failed) - len(errored)
        summary = f"{len(results)} checks: {passed} passed, {len(failed)} failed"
        if errored:
            summary += f", {len(errored)} errored"
        sys.stdout.write(summary + "\n")
    return 1 if failed or errored else 0


_EVAL_RE = re.compile(r"^\s*([a-z0-9]+)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$")


def _eval_expr(expr: str, x):
    match = _EVAL_RE.match(expr)
    if not match:
        raise UsageError(
            f"cannot parse expression {expr!r}; expected name(n) or name(n,k)"
        )
    name, first, second = match.group(1), int(match.group(2)), match.group(3)
    if name in FAMILY_KINDS:
        if second is not None:
            raise UsageError(f"family {name} takes a single index, got {expr!r}")
        n = _check_order(first)
        return build_family(name, n)[n]
    if name not in SLICE_KINDS and name not in TRIANGLE_KINDS:
        raise UsageError(f"unknown table or family {name!r}")
    if x is not None:
        raise UsageError("--x only applies to polynomial families")
    if second is None:
        raise UsageError(f"{name} needs two indices, e.g. {name}({first},1)")
    if name in SLICE_KINDS:
        n, r = first, int(second)
        _check_order(n)
        return _build_slice(name, n, r)[n]
    n, k = first, int(second)
    _check_order(n)
    return _build_triangle(name, n)[n][k] if k <= n else LambdaPoly.zero()


def cmd_eval(args) -> int:
    value = _eval_expr(args.expr, args.x)
    parameters = {"expr": args.expr, "lambda": _parameter(args.lam), "x": _parameter(args.x)}
    _write_records(args, "eval", 0, parameters, ("expr", "value"), [(args.expr, value)])
    return 0


def _comma_list(text: str):
    return [part.strip() for part in text.split(",") if part.strip()]


def _lambda_list_arg(text: str):
    try:
        return [as_scalar(part) for part in _comma_list(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed rational list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenpoly",
        description="Exact tables, polynomial families, and identity checks "
        "for degenerate Stirling-type numbers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="emit a number triangle or slice")
    tri.add_argument("--kind", required=True, choices=TRIANGLE_KINDS + SLICE_KINDS)
    tri.add_argument("--order", required=True, type=int)
    tri.add_argument("--r", type=int, default=None,
                     help="slice order (korobov/degbernoulli only; default 1)")
    tri.add_argument("--lambda", dest="lam", type=_rational_arg, default=None,
                     metavar="P/Q", help="specialize λ at this rational")
    tri.add_argument("--format", choices=("json", "csv"), default="json")
    tri.set_defaults(handler=cmd_triangle)

    pol = sub.add_parser("poly", help="emit a polynomial family")
    pol.add_argument("--family", required=True, choices=FAMILY_KINDS)
    pol.add_argument("--order", required=True, type=int)
    pol.add_argument("--lambda", dest="lam", type=_rational_arg, default=None,
                     metavar="P/Q")
    pol.add_argument("--x", dest="x", type=_rational_arg, default=None, metavar="P/Q")
    pol.add_argument("--format", choices=("json", "csv"), default="json")
    pol.set_defaults(handler=cmd_poly)

    ver = sub.add_parser("verify", help="run the identity suite")
    ver.add_argument("--order", type=int, default=12)
    ver.add_argument("--lambda-list", dest="lambda_list", type=_lambda_list_arg,
                     default=None, metavar="P/Q,...",
                     help="record these rational λ values in the JSON metadata; "
                     "a check that holds symbolically holds at every λ")
    ver.add_argument("--filter", type=_comma_list, default=None, metavar="ID,...",
                     help="run only these identity ids")
    ver.add_argument("--include-stretch", action="store_true",
                     help="include the off-by-default stretch checks")
    ver.add_argument("--list", action="store_true",
                     help="list the registered identity ids and exit")
    ver.add_argument("--format", choices=("table", "json"), default="table")
    ver.set_defaults(handler=cmd_verify)

    ev = sub.add_parser("eval", help="evaluate one table entry or family member")
    ev.add_argument("--expr", required=True,
                    help="e.g. s2deg(4,2), degbell(3), korobov(5,2)")
    ev.add_argument("--lambda", dest="lam", type=_rational_arg, default=None,
                    metavar="P/Q")
    ev.add_argument("--x", dest="x", type=_rational_arg, default=None, metavar="P/Q")
    ev.add_argument("--format", choices=("json", "csv"), default="json")
    ev.set_defaults(handler=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"degenpoly: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
