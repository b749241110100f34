"""Check that every package function is entered by some request, or kept.

Run from the repository root:

    python3 tests/unreached.py [workload ...]

Every perfbench catalogue request of the named workloads (default: all) runs
in-process through ``degenpoly.cli.main``, with the table and family
builders memoised as ``tests/check_digests.py`` memoises them.  So do a few
``verify`` requests that no catalogue holds (``--include-stretch``, ``--list``
in both formats, ``--filter``) and the README's library tour.  All of it runs
under ``sys.settrace``, which records every code object entered and, in
package code, every line executed.  The script then prints each function,
method and lambda defined under ``src/degenpoly`` that was never entered,
one per line as ``module:line qualname``, and their count.  Comprehensions
and class bodies are not listed.  The exit code is 1 if a listed name is not
in ``KEPT``, the functions no request needs that stay on purpose, each with
its reason; so a run over fewer workloads than all may fail.  After that it
prints, for information only, each line of an entered function (its
comprehensions included) that no request executed, as ``module:line
qualname: source``, and their count; ``raise`` statements are left out, as
no request that succeeds runs one.  A function is no longer traced line by
line once each of its lines has run.  With every workload it takes 17-18 s
on a 2-CPU host, against 13 s for a pass that records calls only.  The name
has no ``test_`` prefix, so pytest does not collect it.
"""

import ast
import dis
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


def body_lines(code) -> set:
    """The lines of a code object's own instructions after its prologue, which
    ends at RESUME: a def or decorator line executes nothing when called."""
    resume = next(i.offset for i in dis.get_instructions(code) if i.opname == "RESUME")
    return {line for start, _, line in code.co_lines() if line is not None and start > resume}


def run_traced(names):
    """Run every request; return {code: lines not executed} for each code
    object the requests enter, with an empty set for code outside the
    package."""
    unseen = {}
    package = str(Path(cli.__file__).parent)

    def trace_lines(frame, event, arg):
        if event == "line":
            pending = unseen[frame.f_code]
            pending.discard(frame.f_lineno)
            if not pending:
                return None
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        pending = unseen.get(code)
        if pending is None:
            in_package = code.co_filename.startswith(package)
            pending = unseen[code] = body_lines(code) if in_package else set()
        return trace_lines if pending else None

    for name in ("_build_triangle", "_build_slice", "build_family"):
        setattr(cli, name, functools.lru_cache(maxsize=None)(getattr(cli, name)))
    requests = [argv for workload in names or workloads.WORKLOADS
                for argv in workloads.catalogue(workload)]
    sys.settrace(trace_calls)
    try:
        for argv in (*requests, *EXTRA_REQUESTS):
            run_in_process(argv)
        exec(readme_tour(), {})
    finally:
        sys.settrace(None)
    return unseen


@functools.cache
def source(path):
    """The lines of one source file, and the set of lines its raise
    statements span."""
    text = path.read_text(encoding="utf-8")
    raises = {line for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
              for line in range(node.lineno, node.end_lineno + 1)}
    return text.splitlines(), raises


def main(names) -> int:
    unseen = run_traced(names)
    reached = {(Path(code.co_filename).resolve(), code.co_firstlineno, code.co_qualname): code
               for code in unseen}
    defined = definitions()
    unreached = [found for found in defined if found not in reached]
    unkept = 0
    for path, line, qualname in unreached:
        kept = f"{path.stem}:{qualname}" in KEPT
        unkept += not kept
        print(f"{path.stem}:{line} {qualname}" + ("" if kept else "  (not kept)"))
    print(f"{len(unreached)} of {len(defined)} definitions never entered, "
          f"{unkept} of them not kept")

    missed = 0
    for path, line, qualname in defined:
        code = reached.get((path, line, qualname))
        if code is None:
            continue
        lines, stack = set(), [code]
        while stack:  # the function and the comprehensions it holds
            inner = stack.pop()
            lines |= unseen.get(inner, body_lines(inner))
            stack.extend(c for c in inner.co_consts
                         if hasattr(c, "co_code") and c.co_name in COMPREHENSIONS)
        text, raises = source(path)
        for n in sorted(lines - raises):
            print(f"{path.stem}:{n} {qualname}: {text[n - 1].strip()}")
            missed += 1
    print(f"{missed} lines of entered functions never executed, "
          "raise statements left out")
    return 1 if unkept else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
