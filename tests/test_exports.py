"""Every name the package exports, and every public function and class any
of its modules defines, is used somewhere besides the unit tests: in the
package itself, the demos, the benchmark or the acceptance suite.  A name
that only its own tests call does not pay its way."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grouporders"
INIT = PACKAGE / "__init__.py"


def _exported():
    """The names ``grouporders/__init__.py`` imports from its modules."""
    tree = ast.parse(INIT.read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _used(path):
    """Names a file reads, as a bare name or an attribute; a def, a class or
    an assignment target is not a use.  Outside the package a bare name
    counts only if the file imports it from ``grouporders``, so a file's own
    variable that shares a name with the package's is no use of it."""
    tree = ast.parse(path.read_text())
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    if path.parent != PACKAGE:
        imported = {
            a.asname or a.name: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "grouporders"
            for a in node.names
        }
        bare = {imported[name] for name in bare if name in imported}
    return bare | attributes


def _used_outside_the_unit_tests():
    files = [
        *PACKAGE.glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    return set().union(*(_used(f) for f in files if f != INIT))


def test_every_export_has_a_caller_outside_the_unit_tests():
    assert sorted(_exported() - _used_outside_the_unit_tests()) == []


def test_every_public_definition_has_a_caller_outside_the_unit_tests():
    defined = {
        (path.name, node.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = _used_outside_the_unit_tests()
    assert sorted((module, name) for module, name in defined if name not in used) == []
