"""Request catalogues and the seeded request generator.

Every request is the argument list of one ``python -m degenpoly.cli``
process.  A workload is a *round*: an ordered list of slots, each slot a list
of interchangeable catalogue entries.  The generator plays rounds forever;
in each round the seed picks one entry per slot and shuffles the slots.  So
the seed changes which requests run and in what order, never the catalogue,
and every round carries the same kinds of work.  Entries that share a slot
cost about the same, which keeps a run's throughput steady across seeds.
"""

from __future__ import annotations

import itertools
import random

LAMBDAS = (None, "0", "1/2", "-1")
# (λ, format) pairs: every λ once, and the symbolic table in both formats
VARIANTS = ((None, "json"), (None, "csv"), ("0", "json"), ("1/2", "csv"), ("-1", "json"))
TRIANGLE_KINDS = ("s1", "s2", "s1deg", "s2deg", "j1deg", "j2deg", "t")
SLICE_KINDS = ("korobov", "degbernoulli")
FAMILY_KINDS = ("degbell", "newbell", "jindalrae", "gaenari")
SMALL_ORDERS = range(2, 11)
VERIFY_ORDER = 12
VERIFY_LAMBDAS = ("1/2", "-1", "2", "-3/2")
VERIFY_FORMATS = ("table", "json")


def _lam(lam):
    return () if lam is None else ("--lambda", lam)


def triangle(kind, order, lam, fmt, r=None):
    extra = () if r is None else ("--r", str(r))
    return ("triangle", "--kind", kind, "--order", str(order), *extra,
            *_lam(lam), "--format", fmt)


def poly(family, order, lam, x, fmt):
    x_arg = () if x is None else ("--x", x)
    return ("poly", "--family", family, "--order", str(order), *_lam(lam),
            *x_arg, "--format", fmt)


def evaluate(expr, lam):
    return ("eval", "--expr", expr, *_lam(lam), "--format", "json")


def verify(lams, fmt):
    # one "--opt=value" word: argparse would read a bare "-1,2" as an option
    return ("verify", "--order", str(VERIFY_ORDER), f"--lambda-list={','.join(lams)}",
            "--format", fmt)


def _slice_r(order):
    """Slices cycle through r = 1..3 with the order."""
    return 1 + order % 3


def _triangles(kinds, orders):
    return [triangle(kind, n, lam, fmt)
            for kind, n, (lam, fmt) in itertools.product(kinds, orders, VARIANTS)]


def _slices(kinds, orders, rs=None):
    return [triangle(kind, n, lam, fmt, r)
            for kind, n, (lam, fmt) in itertools.product(kinds, orders, VARIANTS)
            for r in (rs or (_slice_r(n),))]


def _polys(families, orders):
    return [poly(fam, n, lam, x, fmt)
            for fam, n, (lam, fmt), x
            in itertools.product(families, orders, VARIANTS, (None, "1"))]


def _entry_evals(kinds, orders):
    """One entry per table and λ: kind(n, n//2) for triangles, kind(n, r) for slices."""
    return [evaluate(f"{kind}({n},{_slice_r(n) if kind in SLICE_KINDS else max(1, n // 2)})", lam)
            for kind, n, lam in itertools.product(kinds, orders, LAMBDAS)]


def _family_evals(families, orders):
    return [evaluate(f"{fam}({n})", lam)
            for fam, n, lam in itertools.product(families, orders, LAMBDAS)]


def _verify_slots():
    pairs = itertools.permutations(VERIFY_LAMBDAS, 2)
    return [[verify(p, fmt) for p, fmt in itertools.product(pairs, VERIFY_FORMATS)]]


def _small_slots():
    """One slot per triangle kind, slice kind and family, plus two eval slots
    (15, an odd number, so the median falls inside a slot)."""
    return (
        [_triangles((kind,), SMALL_ORDERS) for kind in TRIANGLE_KINDS]
        + [_slices((kind,), SMALL_ORDERS) for kind in SLICE_KINDS]
        + [_polys((fam,), SMALL_ORDERS) for fam in FAMILY_KINDS]
        + [_entry_evals(TRIANGLE_KINDS + SLICE_KINDS, SMALL_ORDERS),
           _family_evals(FAMILY_KINDS, SMALL_ORDERS)]
    )


def _large_slots():
    """Eight slots, one per kind of work, so every round carries the same mix;
    the seed picks only λ, format, x and, in the slots at either end, one of
    two like-cost kinds.  The wall time of each slot's requests at this commit
    (Fraction backend, 2 CPUs, spawn to exit) is noted above it.  A run's
    median latency falls between the fourth and the fifth slot, and the slots
    near it hold requests of nearly one cost, so which entries the seed draws
    barely moves that median: with two kinds of different cost in the median
    slot, it would jump between their costs from seed to seed."""
    return [
        # ~0.35 s: both number slices at the order limit, r = 1..3
        _slices(SLICE_KINDS, (24,), rs=(1, 2, 3)),
        # ~1.0 s: the degenerate Stirling triangles at the order limit
        _triangles(("s1deg", "s2deg"), (24,)) + _entry_evals(("s1deg", "s2deg"), (24,)),
        # ~1.25 s: gaenari at 12
        _polys(("gaenari",), (12,)) + _family_evals(("gaenari",), (12,)),
        # ~1.3 s: jindalrae at 12
        _polys(("jindalrae",), (12,)) + _family_evals(("jindalrae",), (12,)),
        # ~1.5 s: the classical Stirling triangles at 24
        _triangles(("s1", "s2"), (24,)),
        # ~1.7 s: newbell at 16
        _polys(("newbell",), (16,)) + _family_evals(("newbell",), (16,)),
        # ~2.0 s: the doubly-composed triangle at 24, degbell at 14
        _triangles(("t",), (24,)) + _polys(("degbell",), (14,))
        + _family_evals(("degbell",), (14,)),
        # ~3.8 s: the iterated triangles at order 20
        _triangles(("j1deg", "j2deg"), (20,)) + _entry_evals(("j1deg", "j2deg"), (20,)),
    ]


WORKLOADS = {
    "verify": _verify_slots,
    "cli-small": _small_slots,
    "cli-large": _large_slots,
}


def slots(workload: str):
    return WORKLOADS[workload]()


def key(argv) -> str:
    """The text that names a request in digests.json."""
    return " ".join(argv)


def catalogue(workload: str):
    """Every request the workload can emit, in a fixed order, without repeats."""
    return list(dict.fromkeys(itertools.chain.from_iterable(slots(workload))))


def rounds(workload: str, seed: int):
    """Yield rounds (lists of argument tuples) forever; same seed, same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    table = slots(workload)
    while True:
        order = list(range(len(table)))
        rng.shuffle(order)
        yield [table[i][rng.randrange(len(table[i]))] for i in order]
