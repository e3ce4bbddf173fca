"""`serialize.canonical_dumps` is the package's one JSON encoder, and it
writes the bytes of the reference encoder with the cycle check on: for
drawn JSON trees and for every builder's output.  A cyclic object still
fails, and a failed write leaves no file.  Writers hand it a window's
payload tuples (`serialize.window_record`), which it writes as the rows of
`window_to_json`, the decoded view."""

import json

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import (
    HEISENBERG,
    SL3Z,
    ConstraintSystem,
    OrderMatrix,
    Window,
    ball,
    default_generators,
    solve,
    uniform_order,
    zn,
)
from grouporders import cli, serialize as ser
from grouporders.groups import interval_window
from test_engine import propagation_systems
from test_replay import SL3, sl3_system

SRC = Path(__file__).resolve().parents[1] / "src" / "grouporders"

EDGE_INTS = [0, -1, (1 << 63) - 1, -(1 << 63), 1 << 63, -(1 << 63) - 1, 1 << 64, -(1 << 80)]
EDGE_TEXT = ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "  ", "😀", "\ud800", "</a>"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(EDGE_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.sampled_from(EDGE_TEXT),
)
keys = st.text() | st.sampled_from(EDGE_TEXT)
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(keys, kids, max_size=5),
    max_leaves=40,
)


def same_bytes(obj):
    assert ser.canonical_dumps(obj) == oracles.canonical_dumps_reference(obj)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(trees)
def test_drawn_trees_encode_as_the_reference_does(obj):
    same_bytes(obj)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(propagation_systems())
def test_certificates_and_systems_encode_as_the_reference_does(cs):
    same_bytes(ser.certificate_to_json(solve(cs)))
    same_bytes(ser.system_to_json(cs))


@pytest.mark.parametrize("q, convention", SL3)
def test_sl3_certificates_and_systems_encode_as_the_reference_does(q, convention):
    cs = sl3_system(q, convention)
    cert = solve(cs)
    assert cert.verdict == ("unsat" if convention == "plain_left" else "sat")
    same_bytes(ser.certificate_to_json(cert))
    same_bytes(ser.system_to_json(cs))


def test_windows_and_orders_encode_as_the_reference_does():
    for group, radius in ((zn(2), 2), (HEISENBERG, 2), (SL3Z, 1)):
        w = ball(default_generators(group), radius)
        same_bytes(ser.window_to_json(w))
        same_bytes(ser.order_to_json(uniform_order(w, 5)))
    partial = OrderMatrix.from_pairs(interval_window(-2, 3), [(0, 1), (1, 2), (3, 4)])
    for m in (uniform_order(interval_window(-3, 4), 7), partial):
        for include_window in (True, False):
            obj = ser.order_to_json(m, include_window=include_window)
            assert ("perm" in obj) is (m is not partial)
            same_bytes(obj)


BIG = (1 << 63) - 1
EDGE_WINDOWS = [
    Window(zn(1), [[0], [BIG], [-BIG], [1]]),
    Window(zn(2), [[0, 0], [BIG, -BIG], [-BIG, 5], [3, BIG]]),
    Window(zn(3), [[0, 0, 0], [BIG, 0, -BIG], [-1, -BIG, BIG]]),
    Window(HEISENBERG, [[0, 0, 0], [BIG, -BIG, 0], [1, 2, -BIG]]),
    Window(SL3Z, [[1, 0, 0, 0, 1, 0, 0, 0, 1], [1, BIG, 0, 0, 1, 0, 0, 0, 1],
                  [1, 0, 0, -BIG, 1, 0, 0, 0, 1], [0, 1, 0, -1, 0, 0, 0, 0, 1]]),
    ball(default_generators(zn(2)), 2),
    ball(default_generators(HEISENBERG), 1),
    ball(default_generators(SL3Z), 1),
]


@pytest.mark.parametrize("w", EDGE_WINDOWS, ids=lambda w: f"{w.group}-{len(w)}")
def test_a_window_record_writes_the_rows_of_window_to_json(w):
    text = ser.canonical_dumps(ser.window_record(w))
    assert text == ser.canonical_dumps(ser.window_to_json(w))
    assert json.loads(text) == ser.window_to_json(w)
    rows = ser.window_to_json(w)["elements"]
    assert type(rows) is list and all(type(r) is list for r in rows)
    same_bytes(ser.window_record(w))


@pytest.mark.parametrize("w", EDGE_WINDOWS, ids=lambda w: f"{w.group}-{len(w)}")
def test_orders_and_systems_on_every_group_encode_as_the_reference_does(w):
    same_bytes(ser.order_to_json(uniform_order(w, 3)))
    same_bytes(ser.order_to_json(OrderMatrix.from_pairs(w, [(0, 1), (2, 1)])))
    same_bytes(ser.system_to_json(ConstraintSystem(w, ((0, 1), (1, 2), (2, 0)))))


def test_a_cyclic_object_still_raises():
    loop = [1]
    loop.append(loop)
    mapping = {"a": [0]}
    mapping["a"].append(mapping)
    for obj in (loop, mapping):
        with pytest.raises((ValueError, RecursionError)):
            ser.canonical_dumps(obj)


def test_a_write_that_cannot_encode_leaves_no_file(tmp_path):
    loop = []
    loop.append(loop)
    path = tmp_path / "out.json"
    for obj in ({"x": object()}, [{1, 2}], {"k": [0, loop]}):
        with pytest.raises((TypeError, ValueError, RecursionError)):
            cli._write_json(str(path), obj)
        assert not path.exists()


class _ScopedVisitor(ast.NodeVisitor):
    """Collects (scope, what) findings, scope being module.function."""

    def __init__(self, path):
        self.scope = [path.stem]
        self.found = []

    def note(self, what):
        self.found.append((".".join(self.scope), what))

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    @classmethod
    def scan(cls, path):
        v = cls(path)
        v.visit(ast.parse(path.read_text()))
        return v.found


def _json_uses(path):
    """(scope, what) for each json.dump/json.dumps call in path and each
    other use of the json module's encoder."""

    class Visitor(_ScopedVisitor):
        def visit_Attribute(self, node):
            if isinstance(node.value, ast.Name) and node.value.id == "json" and node.attr in (
                "dump", "dumps", "encoder", "JSONEncoder"
            ):
                self.note(node.attr)
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "JSONEncoder":
                self.note(node.id)

        def visit_ImportFrom(self, node):
            if node.module and node.module.split(".")[0] == "json":
                self.note(f"from {node.module}")

        def visit_Import(self, node):  # json.encoder, or json under another name
            for alias in node.names:
                if alias.name.split(".")[0] == "json" and (alias.name, alias.asname) != ("json", None):
                    self.note(f"import {alias.name}")

    return Visitor.scan(path)


def test_canonical_dumps_is_the_one_encoder():
    """json.dumps runs in canonical_dumps and on sample's perm lines (which
    the golden digests pin), and nothing builds or subclasses an encoder."""
    uses = sorted(u for f in sorted(SRC.glob("*.py")) for u in _json_uses(f))
    assert uses == [("cli.cmd_sample", "dumps"), ("serialize.canonical_dumps", "dumps")]


def _row_copies(path):
    """(scope, what) for each call of window_to_json in path and each list
    of rows copied to lists: ``list(map(list, ...))`` or ``[list(r) for r in ...]``."""

    def is_list(node):
        return isinstance(node, ast.Name) and node.id == "list"

    class Visitor(_ScopedVisitor):
        def visit_Call(self, node):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "window_to_json":
                self.note("window_to_json")
            if is_list(f) and node.args and isinstance(node.args[0], ast.Call):
                inner = node.args[0]
                if getattr(inner.func, "id", None) == "map" and inner.args and is_list(inner.args[0]):
                    self.note("list(map(list, ...))")
            self.generic_visit(node)

        def visit_ListComp(self, node):
            if isinstance(node.elt, ast.Call) and is_list(node.elt.func):
                self.note("[list(...) for ...]")
            self.generic_visit(node)

    return Visitor.scan(path)


def test_writers_hand_the_encoder_payload_tuples():
    """Every writer encodes window_record and hands over the tuples it holds:
    only window_to_json, the decoded view, copies payload rows to lists, and
    no module of the package calls it."""
    found = sorted(u for f in sorted(SRC.glob("*.py")) for u in _row_copies(f))
    assert found == [("serialize.window_to_json", "list(map(list, ...))")]
