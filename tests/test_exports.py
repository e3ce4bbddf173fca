"""Every name the package exports is used somewhere besides the unit tests:
in the package itself, the demos, the benchmark or the acceptance suite.
A name that only its own tests call does not pay its way."""

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


def test_every_export_has_a_caller_outside_the_unit_tests():
    files = [
        *(ROOT / "src" / "grouporders").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    used = set().union(*(_used(f) for f in files if f != INIT))
    assert sorted(_exported() - used) == []
