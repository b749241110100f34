"""Net line count of the package sources against a git revision.

Run from the repository root:

    python3 tests/net_lines.py [REV]

Every line of the ``src/degenpoly`` Python files is one of three kinds:
blank, comment or docstring (a line inside a module, class or function
docstring, found with ``ast``, or a line holding only a comment, found with
``tokenize``), or code (any other line).  The script prints each kind's count
at REV (default HEAD) and in the working tree, the net change, and
``git diff --shortstat`` of the same files.  The name has no ``test_``
prefix, so pytest does not collect it.
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/degenpoly"
KINDS = ("code", "comments and docstrings", "blank")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def line_kinds(source: str) -> dict:
    """Counts of each kind of line in one Python source."""
    lines = source.splitlines()
    prose = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                prose.update(range(first.lineno, first.end_lineno + 1))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and not lines[token.start[0] - 1][: token.start[1]].strip():
            prose.add(token.start[0])
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, 1):
        if not line.strip():
            counts["blank"] += 1
        elif number in prose:
            counts["comments and docstrings"] += 1
        else:
            counts["code"] += 1
    return counts


def totals(sources) -> dict:
    counts = dict.fromkeys(KINDS, 0)
    for source in sources:
        for kind, count in line_kinds(source).items():
            counts[kind] += count
    return counts


def main(rev: str) -> None:
    paths = git("ls-tree", "-r", "--name-only", rev, "--", PACKAGE).split()
    before = totals(git("show", f"{rev}:{path}") for path in paths if path.endswith(".py"))
    after = totals(path.read_text(encoding="utf-8")
                   for path in sorted((ROOT / PACKAGE).rglob("*.py")))
    print(f"{PACKAGE} lines, {rev} -> working tree")
    for kind in KINDS:
        print(f"  {kind}: {before[kind]} -> {after[kind]} ({after[kind] - before[kind]:+d})")
    total = sum(after.values()) - sum(before.values())
    print(f"  net: {total:+d}")
    print(git("diff", "--shortstat", rev, "--", PACKAGE).strip() or "  no change")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "HEAD")
