"""Window.from_payloads and the builders routed through it (window files,
element-set files, ball, window_closure, window_from_elements,
interval_window) and the rank-vector reconstruct, against the
element-by-element code they replaced (tests/oracles.py)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import (
    HEISENBERG,
    SL3Z,
    GeneratorSet,
    IntegerOverflow,
    NotTotal,
    OrderMatrix,
    ball,
    box,
    cesaro,
    default_generators,
    reconstruct,
    uniform_order,
    window_closure,
    window_from_elements,
    zn,
)
from grouporders import serialize as ser
from grouporders.groups import (
    INT64_MAX,
    INT64_MIN,
    GroupElement,
    Window,
    identity,
    interval_window,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
GROUPS = [zn(1), zn(2), zn(3), HEISENBERG, SL3Z]
SL3_ROWS = [list(g.payload) for g in ball(default_generators(SL3Z), 2)]
EDGES = [INT64_MIN, INT64_MIN + 1, -(1 << 62), -1, 0, 1, 1 << 62, INT64_MAX - 1, INT64_MAX]
PAST = [INT64_MIN - 1, INT64_MAX + 1]  # just outside the signed 64-bit range


def outcome(f, *args):
    """Return value of f, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared against the reference
        return type(exc), str(exc)


def same(new, ref):
    """Equal windows or element lists, whose payload entries are exact ints;
    or the same exception type and message."""
    assert new == ref
    if isinstance(new, (Window, list)):
        assert [g.payload for g in new] == [g.payload for g in ref]
        assert all(type(v) is int for g in new for v in g.payload)


def _entry():
    return st.one_of(st.integers(-3, 3), st.sampled_from(EDGES))


@st.composite
def valid_row(draw, group):
    if group == SL3Z:
        return list(draw(st.sampled_from(SL3_ROWS)))
    return draw(st.lists(_entry(), min_size=len(identity(group).payload),
                         max_size=len(identity(group).payload)))


@st.composite
def bad_row(draw, group):
    """A row make_element rejects, or one it reads as something else."""
    row = draw(valid_row(group))
    kinds = ["float", "string", "short", "long", "past", "bool", "scalar", "text", "none"]
    kind = draw(st.sampled_from(kinds + ["det"] * 3 if group == SL3Z else kinds))
    at = draw(st.integers(0, len(row) - 1))
    if kind == "float":
        row[at] = draw(st.sampled_from([1.0, 0.5, float("nan")]))
    elif kind == "string":
        row[at] = "1"
    elif kind == "short":
        row = row[:-1]
    elif kind == "long":
        row = row + [0]
    elif kind == "past":
        row[at] = draw(st.sampled_from(PAST))
    elif kind == "det":
        row[at] += 1
    elif kind == "bool":
        row[at] = True
    elif kind == "scalar":
        row = draw(st.sampled_from([0, 1.5]))
    elif kind == "text":
        row = "12"
    else:
        row = None
    return row


@st.composite
def window_rows(draw):
    """Rows of a window file: distinct valid rows, mostly with the identity,
    sometimes duplicates, and bad rows of several kinds in random places."""
    group = draw(st.sampled_from(GROUPS))
    rows = draw(st.lists(valid_row(group), max_size=8, unique_by=tuple))
    e = list(identity(group).payload)
    if e not in rows and draw(st.sampled_from([True, True, True, False])):
        rows.insert(draw(st.integers(0, len(rows))), e)
    if rows and draw(st.sampled_from([True, False, False, False])):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_row(group)))
    return group, rows


@SETTINGS
@given(window_rows())
def test_window_decode_matches_the_rowwise_loop(case):
    group, rows = case
    obj = {"format": 1, "group": ser.group_to_json(group), "elements": rows}
    ref = outcome(oracles.rowwise_window, group, rows)
    same(outcome(ser.window_from_json, obj), ref)
    same(outcome(Window.from_payloads, group, rows), ref)
    same(outcome(ser.element_set_from_json, obj),
         outcome(oracles.rowwise_elements, group, rows))


def test_range_edges_decode_and_one_past_raises():
    rows = [[0], [INT64_MAX], [INT64_MIN]]
    assert [g.payload for g in Window.from_payloads(zn(1), rows)] == [(0,), (INT64_MAX,), (INT64_MIN,)]
    for past in PAST:
        with pytest.raises(IntegerOverflow, match=f"entry {past} leaves"):
            Window.from_payloads(zn(1), [[0], [past]])
    with pytest.raises(ValueError, match="duplicate window element"):
        Window.from_payloads(zn(1), [[0], [1], [1]])
    with pytest.raises(ValueError, match="must contain the identity"):
        Window.from_payloads(zn(1), [[1]])


@st.composite
def generator_sets(draw):
    group = draw(st.sampled_from(GROUPS))
    if group == SL3Z or draw(st.booleans()):
        return default_generators(group)
    d = len(identity(group).payload)
    big = st.sampled_from([1 << 61, (1 << 62) + 1, -(1 << 62)])
    entry = st.one_of(st.integers(-2, 2), big)
    payloads = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=3, unique=True))
    gens = tuple(GroupElement(group, p) for p in payloads if any(p))
    return GeneratorSet(group, gens) if gens else default_generators(group)


@SETTINGS
@given(generator_sets(), st.integers(0, 4), st.sampled_from([1, 2, 5, 13, 40, 150, 100_000]))
def test_ball_matches_the_elementwise_ball(gens, radius, size_limit):
    if gens.group == SL3Z and size_limit > 150:
        radius = min(radius, 2)
    same(outcome(ball, gens, radius, size_limit),
         outcome(oracles.elementwise_ball, gens, radius, size_limit))


def test_ball_rejects_an_sl3_generator_of_determinant_other_than_1():
    # The elementwise ball gave a window of such products; the bulk payload
    # check refuses them as make_element does.
    bad = GroupElement(SL3Z, (2, 0, 0, 0, 1, 0, 0, 0, 1))
    gens = GeneratorSet(SL3Z, (bad,))
    assert len(oracles.elementwise_ball(gens, 1)) == 3
    with pytest.raises(ValueError, match="determinant 1"):
        ball(gens, 1)


@SETTINGS
@given(generator_sets(), st.integers(0, 2), st.sampled_from([5, 30, 100_000]), st.data())
def test_closure_and_from_elements_match_the_elementwise_builders(gens, radius, limit, data):
    w = ball(default_generators(gens.group), radius)
    mults = data.draw(st.lists(st.sampled_from(gens.generators), max_size=3))
    same(outcome(window_closure, w, mults, limit),
         outcome(oracles.elementwise_window_closure, w, mults, limit))
    picks = data.draw(st.lists(st.sampled_from(w.elements + gens.generators), max_size=6))
    same(window_from_elements(gens.group, picks),
         oracles.elementwise_window_from_elements(gens.group, picks))


def test_interval_window_matches_the_rowwise_window():
    for lo, hi in ((0, 1), (-3, 5), (-50, 1)):
        rows = [[k] for k in range(lo, hi)]
        same(interval_window(lo, hi), oracles.rowwise_window(zn(1), rows))


RECONSTRUCT_WINDOWS = [
    interval_window(0, 9), interval_window(-5, 4), ball(default_generators(zn(1)), 6),
    ball(default_generators(zn(2)), 3),
    window_from_elements(zn(2), [GroupElement(zn(2), (x, y)) for x in range(-2, 4) for y in range(4)]),
]


@st.composite
def total_orders(draw):
    """A uniform order (a rank vector) or a total order kept as rows."""
    w = draw(st.sampled_from(RECONSTRUCT_WINDOWS))
    if draw(st.booleans()):
        return uniform_order(w, draw(st.integers(0, (1 << 64) - 1)))
    perm = draw(st.permutations(range(len(w))))
    return OrderMatrix.from_pairs(
        w, [(perm[a], perm[b]) for a in range(len(w)) for b in range(a + 1, len(w))], closed=True
    )


@SETTINGS
@given(total_orders(), st.sampled_from([cesaro, box]), st.integers(1, 6))
def test_reconstruct_matches_the_has_loop(m, scheme, n):
    new = outcome(reconstruct, m, scheme(n))
    ref = outcome(oracles.has_loop_reconstruct, m, scheme(n))
    if isinstance(ref, tuple):
        assert isinstance(new, tuple) and new[0] is ref[0]
    else:
        assert type(new) is Fraction and new == ref


def test_reconstruct_rejects_an_order_that_is_not_total():
    w = interval_window(-2, 3)
    lower = OrderMatrix.from_pairs(w, [(0, 2), (1, 2)])  # only -2, -1 below 0
    assert oracles.has_loop_reconstruct(lower, cesaro(3)) == 0
    with pytest.raises(NotTotal):
        reconstruct(lower, cesaro(3))
