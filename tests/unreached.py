"""Check that every package function is entered by some request, or kept.

Run from the repository root:

    python3 tests/unreached.py [workload ...]

Every perfbench catalogue request of the named workloads (default: all) runs
in-process through ``degenpoly.cli.main``, with the table and family
builders memoised as ``tests/check_digests.py`` memoises them.  So do a few
``verify`` requests that no catalogue holds (``--include-stretch``, ``--list``
in both formats, ``--filter``) and the README's library tour.  All of it runs
under ``sys.setprofile``, which records every code object entered.  The
script then prints each function, method and lambda defined under
``src/degenpoly`` that was never entered, one per line as
``module:line qualname``, and their count.  Comprehensions and class bodies
are not listed.  The exit code is 1 if a listed name is not in ``KEPT``,
the functions no request needs that stay on purpose, each with its reason;
so a run over fewer workloads than all may fail.  With every workload it
takes 13–19 s on a 2-CPU host.  The name has no ``test_`` prefix, so pytest
does not collect it.
"""

import functools
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

# record_digests puts src/ on the path and imports the CLI and the catalogues
from record_digests import cli, run_in_process, workloads  # noqa: E402

PACKAGE = ROOT / "src" / "degenpoly"
EXTRA_REQUESTS = (
    ("verify", "--include-stretch", "--order", "8"),
    ("verify", "--list"),
    ("verify", "--list", "--format", "json"),
    ("verify", "--filter", "thm1,eq44", "--order", "6"),
)
# module:qualname -> why it stays although no request enters it
KEPT = {
    "algebra:LambdaPoly.__repr__": "the form failing tests and debuggers print",
    "algebra:XPoly.__repr__": "the form failing tests and debuggers print",
    "series:Series.__repr__": "the form failing tests and debuggers print",
    "algebra:XPoly.__bool__": "without it every x-polynomial, zero included, is true",
    "algebra:XPoly.__hash__": "__eq__ alone would make x-polynomials, and families, unhashable",
    "cli:__getattr__": "cli.SuiteConfig without importing identities, for perfbench's tests",
    "identities:identity_ids": "perfbench's tests check tracing.IDENTITY_IDS against it",
}
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
CO_OPTIMIZED = 0x1  # set on function code, not on module or class bodies


def readme_tour() -> str:
    """The README's first ``python`` block, the library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def definitions():
    """(path, line, qualname) of every function, method and lambda."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & CO_OPTIMIZED and code.co_name not in COMPREHENSIONS:
                found.append((path, code.co_firstlineno, code.co_qualname))
    return sorted(found)


def entered(names) -> set:
    """(path, line, qualname) of every package code object the requests enter."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    for name in ("_build_triangle", "_build_slice", "build_family"):
        setattr(cli, name, functools.lru_cache(maxsize=None)(getattr(cli, name)))
    requests = [argv for workload in names or workloads.WORKLOADS
                for argv in workloads.catalogue(workload)]
    sys.setprofile(profile)
    try:
        for argv in (*requests, *EXTRA_REQUESTS):
            run_in_process(argv)
        exec(readme_tour(), {})
    finally:
        sys.setprofile(None)
    return {(Path(code.co_filename).resolve(), code.co_firstlineno, code.co_qualname)
            for code in codes}


def main(names) -> int:
    reached = entered(names)
    defined = definitions()
    unreached = [found for found in defined if found not in reached]
    unkept = 0
    for path, line, qualname in unreached:
        kept = f"{path.stem}:{qualname}" in KEPT
        unkept += not kept
        print(f"{path.stem}:{line} {qualname}" + ("" if kept else "  (not kept)"))
    print(f"{len(unreached)} of {len(defined)} definitions never entered, "
          f"{unkept} of them not kept")
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
