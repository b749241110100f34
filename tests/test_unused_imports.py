"""Every name a package module imports is used there: a standard-library
``ast`` stand-in for a linter's unused-import rule.

A name counts as used when it appears as a bare name (an attribute access
``a.b`` reads ``a``) or inside a string annotation.  The package root is
checked too, so a re-export there fails.

Every module-level private function or class (one whose name starts with a
single underscore) is referenced somewhere in the package, as a bare name or
as an attribute: dead private code fails here.  So is every public method of
a package class (dunders aside) and every module-level public function: one
that only tests call fails too.  A public function counts as referenced only
when code reads it; no string does.

These rules match names, so they cannot see a dead dunder (``__rsub__``,
``__pow__``), and a method counts as read when any class's method of the same
name is.  ``tests/unreached.py`` finds those: it lists every package function
that no benchmark request enters.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "degenpoly"
MODULES = sorted(PACKAGE.glob("*.py"))
# the benchmark's tracing test reads identities.identity_ids
EXEMPT = {("identities", "identity_ids")}


def _imported(tree):
    """(bound name, line) for every import statement in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass  # prose, not an annotation
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from .scalars import Q, is_scalar\n"
        "import os.path\n"
        "def f(x) -> 'Q':\n"
        "    return os.path.join(x)\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == [("is_scalar", 1)]


def _private_definitions(tree):
    """(name, line) of every module-level private function or class."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node.name, node.lineno


def _referenced(tree):
    """The names a module uses, and every attribute name it reads."""
    return _used(tree) | {node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute)}


def _unreferenced(paths, definitions, referenced=_referenced):
    """(module, *definition) for each definition, ending (name, line), whose
    name no module in paths references (as ``referenced`` reads a module)."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = set().union(*map(referenced, trees.values()))
    return [(path.stem, *found) for path, tree in trees.items()
            for found in definitions(tree) if found[-2] not in used]


def unreferenced_private_definitions(paths):
    return _unreferenced(paths, _private_definitions)


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_definitions(MODULES) == []


def test_check_sees_an_unreferenced_private_definition(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "class _Used:\n"
        "    pass\n"
        "def _dead():\n"
        "    return _Used()\n"
        "def _read_as_attribute():\n"
        "    pass\n"
        "def public():\n"
        "    return sample._read_as_attribute\n",
        encoding="utf-8",
    )
    assert unreferenced_private_definitions([module]) == [("sample", "_dead", 3)]


def _public_methods(tree):
    """(class, method, line) of every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item.name, item.lineno


def unreferenced_public_methods(paths):
    return _unreferenced(paths, _public_methods)


def test_no_unreferenced_public_method():
    assert unreferenced_public_methods(MODULES) == []


def test_check_sees_an_unreferenced_public_method(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "class Poly:\n"
        "    def __bool__(self):\n"
        "        return self.used()\n"
        "    def used(self):\n"
        "        return True\n"
        "    def dead(self):\n"
        "        return False\n"
        "    def aliased(self):\n"
        "        return None\n"
        "    other_name = aliased\n",
        encoding="utf-8",
    )
    assert unreferenced_public_methods([module]) == [("sample", "Poly", "dead", 6)]


def _public_functions(tree):
    """(name, line) of every module-level public function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.lineno


def _read_as_code(tree):
    """Every bare name and attribute a module reads; no string counts."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def unreferenced_public_functions(paths):
    return [found for found in _unreferenced(paths, _public_functions, _read_as_code)
            if found[:2] not in EXEMPT]


def test_no_unreferenced_public_function():
    assert unreferenced_public_functions(MODULES) == []


def test_check_sees_an_unreferenced_public_function(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "_LAZY = {'sample': ('dead',)}\n"
        "__all__ = ['called', 'dead']\n"
        "def called():\n"
        "    return sample.read_as_attribute\n"
        "def read_as_attribute():\n"
        "    return called()\n"
        "def dead() -> 'dead':\n"
        "    return 'dead()'\n",
        encoding="utf-8",
    )
    assert unreferenced_public_functions([module]) == [("sample", "dead", 7)]
