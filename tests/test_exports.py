"""Every name the package exports, and every public function and class any
of its modules defines, is used somewhere besides the unit tests: in the
package itself, the demos, the benchmark or the acceptance suite.  A name
that only its own tests call does not pay its way."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "grouporders" / "__init__.py"


def _exported():
    """The names ``grouporders/__init__.py`` imports from its modules."""
    tree = ast.parse(INIT.read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}


def _used(path):
    """Names a file reads, as a bare name or an attribute; a def, a class or
    an assignment target is not a use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _used_outside_the_unit_tests():
    files = [
        *(ROOT / "src" / "grouporders").glob("*.py"),
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
        for path in (ROOT / "src" / "grouporders").glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = _used_outside_the_unit_tests()
    assert sorted((module, name) for module, name in defined if name not in used) == []
