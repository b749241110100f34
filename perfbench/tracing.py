"""Span recording around calls into degenpoly's layers, and the reducer that
turns spans into the per-layer table.

The wrappers are installed from outside the program: ``install`` replaces a
function or method of a degenpoly module with a wrapper that records a span
(name, start, end, parent) and calls the original.  A module that imported
the function by name gets the wrapper too, because every degenpoly module
attribute bound to the original object is replaced.  Spans stay in memory,
in flat arrays, until ``Tracer.dump`` writes them out.

Counters are kept at the same boundaries:

* ``scalars.mul.count``: sum of len(a) * len(b) over LambdaPoly x LambdaPoly
  multiplies, the number of scalar multiplies the dense product performs;
* ``scalars.max_bits``: the largest numerator or denominator bit length among
  the coefficients of those operands;
* ``identities.ws.hits`` / ``misses``: ``_Workspace._get`` cache lookups.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
from array import array

# The default (non-stretch) identity ids, in registry order.
IDENTITY_IDS = (
    "eq9", "eq8", "orth", "thm1", "eq22", "thm2", "eq24", "cor3", "thm4", "cor5",
    "thm6", "thm7", "eq34", "eq14", "newbell", "thm8", "thm9", "thm10", "thm11",
    "thm12", "eq44", "cor13", "eq49", "eq51", "eq52", "eq17", "eq19", "thm14",
    "eq56", "eq60", "eq66", "cor15", "s31-m1", "s31-m2", "s32-m1", "s32-m2",
    "degbound", "classical",
)

# span name -> (module, attributes wrapped under that name)
LAYERS = {
    "algebra.lp_add": ("degenpoly.algebra", ("LambdaPoly.__add__", "LambdaPoly.__radd__")),
    "algebra.xp_mul": ("degenpoly.algebra", ("XPoly.__mul__", "XPoly.__rmul__")),
    "algebra.eval": ("degenpoly.algebra", ("LambdaPoly.eval", "XPoly.eval_x")),
    "series.mul": ("degenpoly.series", ("Series.__mul__", "Series.__rmul__")),
    "series.compose": ("degenpoly.series", ("compose",)),
    "series.comp_inverse": ("degenpoly.series", ("comp_inverse",)),
    "series.mul_inverse": ("degenpoly.series", ("mul_inverse",)),
    "umbral.sheffer_from_pair": ("degenpoly.umbral", ("sheffer_from_pair",)),
    "umbral.umbral_compose": ("degenpoly.umbral", ("umbral_compose",)),
    "umbral.umbral_power": ("degenpoly.umbral", ("umbral_power",)),
    "umbral.explicit_rows": ("degenpoly.umbral", ("umbral_power_explicit_rows",)),
    "triangles.egf_rows": ("degenpoly.triangles", ("egf_triangle_rows",)),
    "triangles.basis_change": ("degenpoly.triangles", ("basis_change_rows",)),
    "triangles.convolution": ("degenpoly.triangles", ("convolution_rows",)),
    "triangles.route_check": ("degenpoly.triangles", ("rows_mismatch",)),
    "triangles.slices": ("degenpoly.triangles", ("korobov_table", "deg_bernoulli_table")),
    "triangles.t_multinomial": ("degenpoly.triangles", ("t_multinomial_rows",)),
    "families.sum_route": ("degenpoly.families", ("_sum_route",)),
    "families.egf_route": ("degenpoly.families", ("_egf_route",)),
    "families.validate": ("degenpoly.families", ("_validated",)),
    "oracles": ("degenpoly.oracles",
                ("partition_oracle", "signed_cycle_oracle", "bell_number_classical")),
    "cli.render": ("degenpoly.cli", ("cmd_triangle", "cmd_poly", "cmd_verify", "cmd_eval")),
}
# Wrapped only where the CLI calls them: the build step of a request.
CLI_BUILD = ("_build_triangle", "_build_slice", "build_family")

# The per-layer table: (metric, unit, better).
PER_LAYER = (
    [("scalars.mul.count", "count", "lower"), ("scalars.max_bits", "bits", "lower")]
    + [(f"{layer}.{kind}", unit, "lower")
       for layer in ("algebra.lp_mul", "algebra.lp_add", "algebra.xp_mul", "algebra.eval",
                     "series.mul", "series.compose", "series.comp_inverse",
                     "series.mul_inverse")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"{layer}.self_s", "s", "lower")
       for layer in ("umbral.sheffer_from_pair", "umbral.umbral_compose",
                     "umbral.umbral_power", "umbral.explicit_rows",
                     "triangles.egf_rows", "triangles.basis_change",
                     "triangles.convolution", "triangles.route_check",
                     "triangles.slices", "triangles.t_multinomial",
                     "families.sum_route", "families.egf_route", "families.validate",
                     "oracles")]
    + [(f"identities.{i}.s", "s", "lower") for i in IDENTITY_IDS]
    + [("identities.ws.hits", "count", "higher"), ("identities.ws.misses", "count", "lower"),
       ("identities.ws.hit_ratio", "ratio", "higher")]
    + [("cli.import_s", "s", "lower"), ("cli.parse.self_s", "s", "lower"),
       ("cli.build.s", "s", "lower"), ("cli.render.self_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


def _max_bits(coeffs) -> int:
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in coeffs)


class Tracer:
    """Records nested spans into flat arrays; one tracer per request."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters = {"scalars.mul.count": 0, "scalars.max_bits": 0,
                         "identities.ws.hits": 0, "identities.ws.misses": 0}

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def wrap(self, name: str, fn):
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)
        return traced

    def spans(self):
        """(name, parent, start_ns, end_ns) per span, in start order."""
        return _decode(self.names, self.name, self.parent, self.start, self.end)

    def dump(self, path, request_id: int, extra=None) -> None:
        document = {
            "request": request_id,
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": {**self.counters, **(extra or {})},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _decode(names, name, parent, start, end):
    return [(names[n], p, s, e) for n, p, s, e in zip(name, parent, start, end)]


def load(path):
    """Read a dump back as (spans, counters)."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    spans = _decode(doc["names"], doc["name"], doc["parent"], doc["start"], doc["end"])
    return spans, doc["counters"]


def _replace_everywhere(original, replacement) -> list:
    """Point every degenpoly module attribute bound to ``original`` at
    ``replacement``; return the (module, attribute) pairs changed."""
    changed = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "degenpoly" and not module_name.startswith("degenpoly."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def install(tracer: Tracer):
    """Wrap degenpoly's layer boundaries with ``tracer``; return an undo
    function that restores every original."""
    undo = []

    def set_attr(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for span_name, (module_name, attrs) in LAYERS.items():
        module = importlib.import_module(module_name)
        for path in attrs:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapped = tracer.wrap(span_name, original)
            if owner_name:
                set_attr(owner, attr, wrapped)
            else:
                for mod, name in _replace_everywhere(original, wrapped):
                    undo.append((mod, name, original))

    _install_lp_mul(tracer, set_attr)
    _install_cli(tracer, set_attr)
    _install_identities(tracer, set_attr)

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return restore


def _install_lp_mul(tracer, set_attr):
    from degenpoly.algebra import LambdaPoly

    original = LambdaPoly.__mul__
    counters = tracer.counters
    begin, finish = tracer.begin, tracer.finish

    @functools.wraps(original)
    def lp_mul(self, other):
        if isinstance(other, LambdaPoly) and self._c and other._c:
            a, b = self._c, other._c
            counters["scalars.mul.count"] += len(a) * len(b)
            bits = max(_max_bits(a), _max_bits(b))
            if bits > counters["scalars.max_bits"]:
                counters["scalars.max_bits"] = bits
        index = begin("algebra.lp_mul")
        try:
            return original(self, other)
        finally:
            finish(index)

    set_attr(LambdaPoly, "__mul__", lp_mul)
    set_attr(LambdaPoly, "__rmul__", lp_mul)


def _install_cli(tracer, set_attr):
    from degenpoly import cli

    for name in CLI_BUILD:
        set_attr(cli, name, tracer.wrap("cli.build", getattr(cli, name)))

    build_parser = cli.build_parser

    @functools.wraps(build_parser)
    def traced_build_parser():
        parser = tracer.wrap("cli.parse", build_parser)()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args)
        return parser

    set_attr(cli, "build_parser", traced_build_parser)


def _install_identities(tracer, set_attr):
    """One span per identity, covering its facts, their comparison and the
    λ substitutions: it opens when run_suite calls the identity and closes
    when the next identity starts or run_suite returns."""
    from degenpoly import cli, identities

    open_span = []

    def close():
        if open_span:
            tracer.finish(open_span.pop())

    def traced_fn(span_name, fn):
        def start(ws, order):
            close()
            open_span.append(tracer.begin(span_name))
            return fn(ws, order)
        return start

    registry = tuple(
        dataclasses.replace(i, fn=traced_fn(f"identities.{i.identity_id}", i.fn))
        for i in identities._REGISTRY
    )
    set_attr(identities, "_REGISTRY", registry)
    set_attr(identities, "_BY_ID", {i.identity_id: i for i in registry})

    run_suite = cli.run_suite

    @functools.wraps(run_suite)
    def closing_run_suite(*args, **kwargs):
        try:
            return run_suite(*args, **kwargs)
        finally:
            close()

    set_attr(cli, "run_suite", tracer.wrap("cli.build", closing_run_suite))

    get = identities._Workspace._get
    counters = tracer.counters

    @functools.wraps(get)
    def counted_get(self, key, build):
        counters["identities.ws.hits" if key in self._cache else "identities.ws.misses"] += 1
        return get(self, key, build)

    set_attr(identities._Workspace, "_get", counted_get)


def reduce_spans(spans):
    """Per span name: calls, self time and inclusive time, in seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only outermost spans of a name, so a
    name nested inside itself is not counted twice.
    """
    child_ns = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table = {}
    for i, (name, parent, start, end) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            row["s"] += (end - start) / 1e9
    return table


def layer_metrics(table, counters, overhead_s):
    """The PER_LAYER metrics from a reduced table and summed counters."""
    def pick(name, field):
        return table.get(name, {}).get(field, 0)

    lookups = counters["identities.ws.hits"] + counters["identities.ws.misses"]
    values = {
        "scalars.mul.count": counters["scalars.mul.count"],
        "scalars.max_bits": counters["scalars.max_bits"],
        "identities.ws.hits": counters["identities.ws.hits"],
        "identities.ws.misses": counters["identities.ws.misses"],
        "identities.ws.hit_ratio": counters["identities.ws.hits"] / lookups if lookups else 0.0,
        "cli.import_s": counters["cli.import_s"],
        "cli.build.s": pick("cli.build", "s"),
        "trace.overhead_s": overhead_s,
    }
    for metric, _, _ in PER_LAYER:
        if metric in values:
            continue
        layer, _, field = metric.rpartition(".")
        values[metric] = pick(layer, field)
    return values
