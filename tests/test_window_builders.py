"""The window constructor Window(group, rows) and the builders routed
through it (window files, element-set files, ball,
window_from_elements, interval_window), the rank-vector reconstruct, and the payload keys
(payload_keys, uniform_keys, orbit_keys), against the element-by-element
code they replaced (tests/oracles.py); and the windows read from files,
whose elements the keying, realizing and writing paths never build."""

import json
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
    SizeLimitExceeded,
    ball,
    box,
    Sqrt2Num,
    bernoulli_action,
    cesaro,
    default_generators,
    make_element,
    realize,
    reconstruct,
    render_levels,
    rotation_action,
    torus_action,
    uniform_order,
    uniform_sampler,
    window_from_elements,
    zn,
)
from grouporders import groups, sampling
from grouporders import serialize as ser
from grouporders.groups import (
    INT64_MAX,
    INT64_MIN,
    GroupElement,
    Window,
    identity,
    interval_window,
    payload_keys,
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
    same(outcome(Window, group, rows), ref)
    same(outcome(ser.element_set_from_json, obj),
         outcome(oracles.rowwise_elements, group, rows))
    # rows that can be read only once: an iterator of rows, and rows that are
    # iterators themselves
    same(outcome(Window, group, iter(rows)), ref)
    row_iters = [iter(r) if isinstance(r, list) else r for r in rows]
    same(outcome(Window, group, row_iters), ref)


def test_range_edges_decode_and_one_past_raises():
    rows = [[0], [INT64_MAX], [INT64_MIN]]
    assert [g.payload for g in Window(zn(1), rows)] == [(0,), (INT64_MAX,), (INT64_MIN,)]
    for past in PAST:
        with pytest.raises(IntegerOverflow, match=f"entry {past} leaves"):
            Window(zn(1), [[0], [past]])
    with pytest.raises(ValueError, match="duplicate window element"):
        Window(zn(1), [[0], [1], [1]])
    with pytest.raises(ValueError, match="must contain the identity"):
        Window(zn(1), [[1]])


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


@pytest.mark.parametrize(
    "steps, cap, overflow, entry",
    [
        ([(1 << 62,)], 3, 4, 1 << 63),
        ([((1 << 62) + 1,)], 2, 3, -(1 << 63) - 2),
        ([(1 << 62, 0), (0, 1 << 62)], 9, 10, 1 << 63),
    ],
)
def test_one_coordinate_steps_overflow_or_hit_the_cap_in_one_layer(steps, cap, overflow, entry):
    # layer 2 reaches the 64-bit edge: a cap up to `cap` fires first, a
    # larger one lets the walk on to the entry that leaves the range
    group = zn(len(steps[0]))
    gens = GeneratorSet(group, tuple(GroupElement(group, s) for s in steps))
    for size_limit in range(1, overflow + 3):
        same(outcome(ball, gens, 2, size_limit),
             outcome(oracles.elementwise_ball, gens, 2, size_limit))
    assert outcome(ball, gens, 2, cap) == (SizeLimitExceeded, f"ball exceeds the {cap}-element cap")
    assert outcome(ball, gens, 2, overflow) == (IntegerOverflow, f"entry {entry} leaves the 64-bit range")


@st.composite
def zn_multi_steps(draw):
    """Generators of Z^1..Z^3 with entries in -3..3, most steps changing
    several coordinates at once."""
    group = zn(draw(st.integers(1, 3)))
    step = st.tuples(*[st.integers(-3, 3)] * group.n).filter(any)
    payloads = draw(st.lists(step, min_size=1, max_size=3, unique=True))
    return GeneratorSet(group, tuple(GroupElement(group, p) for p in payloads))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(zn_multi_steps(), st.integers(0, 8),
       st.one_of(st.integers(1, 60), st.integers(1, 100_000)))
def test_zn_ball_on_integer_codes_matches_the_elementwise_ball(gens, radius, size_limit):
    same(outcome(ball, gens, radius, size_limit),
         outcome(oracles.elementwise_ball, gens, radius, size_limit))


SEVENTH = INT64_MAX // 7  # 7 * SEVENTH == INT64_MAX


@pytest.mark.parametrize(
    "steps, radius, size_limit, walks_on_codes",
    [
        ([(1, 1), (1, 0)], 6, 100_000, True),  # several coordinates per step
        ([(SEVENTH,)], 7, 100_000, True),  # the walk's bound is INT64_MAX exactly
        ([(SEVENTH, 1), (0, 1)], 7, 100_000, True),
        ([(SEVENTH,)], 9, 7, True),  # the cap, not the radius, sets the bound
        ([(1 << 62,)], 2, 100_000, False),  # bound INT64_MAX + 1: reaches 2^63
        ([(1 << 60, -1)], 8, 100_000, False),
        ([(1 << 62, 0), (0, 1)], 2, 2, False),  # the cap fires first
    ],
)
def test_zn_ball_walks_integer_codes_while_no_entry_can_leave_the_range(
    monkeypatch, steps, radius, size_limit, walks_on_codes
):
    group = zn(len(steps[0]))
    gens = GeneratorSet(group, tuple(GroupElement(group, s) for s in steps))
    ref = outcome(oracles.elementwise_ball, gens, radius, size_limit)
    calls = []

    def counted(p, q):  # the checked Z^n product, counted
        calls.append(1)
        return groups._zn_product(p, q)

    monkeypatch.setitem(groups._PRODUCT, groups.KIND_ZN, counted)
    same(outcome(ball, gens, radius, size_limit), ref)
    assert (not calls) == walks_on_codes


def test_ball_rejects_an_sl3_generator_of_determinant_other_than_1():
    # A determinant-2 generator leads both BFS walks out of SL3(Z); the
    # window constructor refuses what they reach as make_element does.
    bad = GroupElement(SL3Z, (2, 0, 0, 0, 1, 0, 0, 0, 1))
    gens = GeneratorSet(SL3Z, (bad,))
    for build in (ball, oracles.elementwise_ball):
        with pytest.raises(ValueError, match="determinant 1"):
            build(gens, 1)


@SETTINGS
@given(generator_sets(), st.integers(0, 2), st.data())
def test_from_elements_matches_the_elementwise_builder(gens, radius, data):
    w = ball(default_generators(gens.group), radius)
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


# -- payload-first windows ------------------------------------------------------


@st.composite
def valid_windows(draw):
    """Distinct valid rows of one group, the identity among them."""
    group = draw(st.sampled_from(GROUPS))
    rows = draw(st.lists(valid_row(group), max_size=8, unique_by=tuple))
    e = list(identity(group).payload)
    if e not in rows:
        rows.insert(draw(st.integers(0, len(rows))), e)
    return group, rows


@SETTINGS
@given(valid_windows(), st.data())
def test_lazy_elements_equal_the_eager_ones(case, data):
    group, rows = case
    eager = [make_element(group, r) for r in rows]
    lazy = Window(group, rows)
    assert lazy._elements is None
    assert lazy == Window(group, rows) and hash(lazy) == hash(Window(group, rows))
    assert lazy.payloads == tuple(map(tuple, rows))
    i = data.draw(st.integers(0, len(rows) - 1))
    assert lazy.element(i) == eager[i] and lazy.element(i).group is group
    assert lazy._elements is None  # element(i) builds one element, not the tuple
    assert list(lazy) == eager and lazy.elements == tuple(eager)
    assert all(g.group is lazy.group for g in lazy.elements)
    assert lazy.elements is lazy.elements  # built once, then kept
    other = Window(group, rows[::-1]) if len(rows) > 1 else None
    if other is not None:
        assert other != lazy


def _key_entry():
    return st.one_of(st.integers(-12, 12), st.sampled_from(EDGES))


@SETTINGS
@given(st.sampled_from(GROUPS), st.data())
def test_payload_keys_equal_the_element_keys_byte_for_byte(group, data):
    if group == SL3Z:
        rows = data.draw(st.lists(st.sampled_from(SL3_ROWS), max_size=5))
    else:
        d = len(identity(group).payload)
        rows = data.draw(st.lists(st.lists(_key_entry(), min_size=d, max_size=d), max_size=5))
    payloads = [tuple(r) for r in rows]
    elements = [GroupElement(group, p) for p in payloads]
    assert payload_keys(group, payloads) == [oracles.element_key(g) for g in elements]


def test_payload_keys_at_the_ends_of_the_range():
    keys = payload_keys(zn(3), [(-1, INT64_MAX, INT64_MIN), (0, -(INT64_MAX), 7)])
    assert keys == [
        b"zn:3:-1,9223372036854775807,-9223372036854775808",
        b"zn:3:0,-9223372036854775807,7",
    ]
    assert payload_keys(HEISENBERG, [(1, -2, 3)]) == [b"heis:1,-2,3"]
    assert payload_keys(SL3Z, [identity(SL3Z).payload]) == [b"sl3:1,0,0,0,1,0,0,0,1"]


ANGLES = [Sqrt2Num.of(-1, 1), Sqrt2Num.of(Fraction(1, 3), Fraction(1, 2)),
          Sqrt2Num.of(Fraction(1, 5), Fraction(-1, 3)), Sqrt2Num.of(Fraction(-2, 7), 3)]
POINTS = st.fractions(0, 1, max_denominator=1000)


@st.composite
def keyed_elements(draw, groups):
    """A window of one of the groups and a nonempty sub-sequence of it in
    random order."""
    group, rows = draw(valid_windows().filter(lambda c: c[0] in groups))
    w = Window(group, rows)
    picks = draw(st.lists(st.integers(0, len(w) - 1), min_size=1, max_size=len(w), unique=True))
    return w, [w.element(i) for i in picks]


@SETTINGS
@given(keyed_elements(GROUPS), st.integers(0, (1 << 64) - 1))
def test_uniform_keys_equal_the_element_keyed_reference(case, seed):
    w, sub = case
    for elements in (list(w), sub):
        payloads = [g.payload for g in elements]
        new = sampling.uniform_keys(w.group, payloads)(seed)
        assert new == oracles.uniform_keys(seed, elements)


@SETTINGS
@given(keyed_elements([zn(1), zn(2), zn(3)]), st.data())
def test_orbit_keys_equal_the_element_keyed_reference(case, data):
    w, sub = case
    d = w.group.n
    if d == 1 and data.draw(st.booleans()):
        action, point = rotation_action(data.draw(st.sampled_from(ANGLES))), data.draw(POINTS)
    else:
        action = torus_action(data.draw(st.lists(st.sampled_from(ANGLES), min_size=d, max_size=d)))
        point = tuple(data.draw(st.lists(POINTS, min_size=d, max_size=d)))
    for elements in (list(w), sub):
        payloads = [g.payload for g in elements]
        assert sampling.orbit_keys(action, point, w.group, payloads) == oracles.orbit_keys(
            action, point, elements
        )


def _loaded(window):
    """The window read back from its file, with no element built."""
    w = ser.window_from_json(json.loads(ser.canonical_dumps(ser.window_to_json(window))))
    assert w == window and w._elements is None
    return w


def test_keying_realizing_and_writing_a_window_file_builds_no_element():
    z1 = _loaded(interval_window(-30, 31))
    rect = _loaded(window_from_elements(
        zn(2), [GroupElement(zn(2), (x, y)) for x in range(-3, 4) for y in range(-2, 3)]
    ))
    alpha = Sqrt2Num.of(-1, 1)
    orders = [
        uniform_order(z1, 5),
        uniform_sampler(rect)(7),
        realize(rotation_action(alpha), Fraction(1, 7), z1),
        realize(torus_action([alpha, Sqrt2Num.of(0, 1)]), (Fraction(1, 3), Fraction(2, 9)), rect),
        realize(bernoulli_action(1), 11, z1),
        realize(bernoulli_action(2), 11, rect),
    ]
    for m in orders:
        ser.order_to_json(m)
    ser.window_to_json(z1)
    render_levels(ser.order_from_json(ser.order_to_json(orders[1]), rect))
    for m in orders[0], orders[2], orders[4]:
        reconstruct(m, cesaro(20))
    reconstruct(orders[3], box(3))
    assert z1._elements is None and rect._elements is None
