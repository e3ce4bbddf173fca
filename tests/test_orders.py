import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from grouporders import (
    CylinderSpec,
    SizeLimitExceeded,
    DomainNotCovered,
    ElementNotInWindow,
    HEISENBERG,
    NotRectangular,
    NotTotal,
    OrderMatrix,
    Window,
    ball,
    cone_order,
    default_generators,
    direction_set,
    heisenberg_positive_order,
    identity,
    interval_window,
    is_total,
    lex_functional,
    matches_cylinder,
    multiply,
    past_set,
    quadrant_order,
    render_levels,
    translate_order,
    uniform_order,
    window_from_elements,
    zn,
    zn_element,
)

W2 = ball(default_generators(zn(2)), 2)
LEX2 = lex_functional(2)


def test_is_total():
    assert is_total(LEX2.window_order(W2))
    w = interval_window(0, 3)
    assert not is_total(OrderMatrix.from_pairs(w, [], closed=True))
    closed = OrderMatrix.from_pairs(w, [(0, 1)], closed=True)
    assert not is_total(closed)
    # totality is read from the rows, whatever closed claims
    assert not is_total(OrderMatrix.from_pairs(w, [(0, 1)]))
    assert is_total(OrderMatrix.from_pairs(w, [(0, 1), (0, 2), (1, 2)]))


def test_total_order_bit_count():
    for seed in range(5):
        m = uniform_order(W2, seed)
        assert m.decided_count() == len(W2) * (len(W2) - 1) // 2


def test_translate_left_invariant_order_is_fixed():
    m = LEX2.window_order(W2)
    for g in (zn_element(1, 0), zn_element(0, 1), zn_element(1, 1)):
        t = translate_order(m, g)
        for i, j in t.pairs():
            assert m.has(i, j)


def test_translate_roundtrip_and_identity():
    m = uniform_order(W2, 3)
    g = zn_element(1, 0)
    back = translate_order(translate_order(m, g), zn_element(-1, 0))
    for i, j in back.pairs():
        assert m.has(i, j)
    same = translate_order(m, zn_element(0, 0))
    assert same == m


def test_translate_action_property():
    m = uniform_order(W2, 9)
    g, h = zn_element(1, 0), zn_element(0, 1)
    lhs = translate_order(translate_order(m, g), h)
    rhs = translate_order(m, multiply(h, g))
    for i, j in lhs.pairs():
        if rhs.decided(i, j):
            assert rhs.has(i, j)


def test_past_set_quadrant_example():
    cone = cone_order(quadrant_order(2), W2)
    past = past_set(cone, zn_element(0, 0))
    assert {g.payload for g in past} == {(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)}
    total = LEX2.window_order(W2)
    ranks = total.ranks()
    top = W2.element(max(range(len(W2)), key=ranks.__getitem__))
    assert past_set(total, top) == set()
    with pytest.raises(ElementNotInWindow):
        past_set(total, zn_element(9, 9))


def test_heisenberg_past_cone_is_nonnegative():
    w = ball(default_generators(HEISENBERG), 3)
    cone = cone_order(heisenberg_positive_order(), w)
    for g in past_set(cone, identity(HEISENBERG)):
        assert all(v >= 0 for v in g.payload)


def test_direction_set_duality_and_invariance():
    m = uniform_order(W2, 21)
    for x in (zn_element(0, 0), zn_element(1, 0)):
        dirs = direction_set(m, x)
        past = past_set(m, x)
        assert {multiply(x, s).payload for s in dirs} == {g.payload for g in past}
    lex = LEX2.window_order(W2)
    d0 = direction_set(lex, zn_element(0, 0))
    d1 = direction_set(lex, zn_element(1, 0))
    # independent of the base point on the common domain
    common = {s.payload for s in d0 if multiply(zn_element(1, 0), s) in W2}
    assert {s.payload for s in d1} == common
    cone = cone_order(quadrant_order(2), W2)
    dirs = direction_set(cone, zn_element(0, 0))
    assert {(1, 0), (0, 1)} <= {s.payload for s in dirs}


def test_dynamical_past_axioms_on_window():
    m = uniform_order(W2, 33)
    for i, x in enumerate(W2):
        dirs_x = direction_set(m, x)
        for j, y in enumerate(W2):
            if i == j:
                continue
            s = multiply(zn_element(-x.payload[0], -x.payload[1]), y)
            fwd = s in dirs_x
            bwd = zn_element(-s.payload[0], -s.payload[1]) in direction_set(m, y)
            assert fwd != bwd  # exactly one of the two directions
        # transitivity: s in S(x) implies s * S(x s) inside S(x)
        for s in dirs_x:
            xs = multiply(x, s)
            for t in direction_set(m, xs):
                st = multiply(s, t)
                if multiply(x, st) in W2:
                    assert st in dirs_x


def test_cylinders():
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
    pattern = OrderMatrix.from_ranks(D, [0, 1])
    c = CylinderSpec(D, pattern)
    m = LEX2.window_order(W2)
    assert matches_cylinder(m, c)
    flipped = CylinderSpec(D, OrderMatrix.from_ranks(D, [1, 0]))
    assert not matches_cylinder(m, flipped)
    singleton = window_from_elements(zn(2), [])
    trivial = CylinderSpec(singleton, OrderMatrix.from_ranks(singleton, [0]))
    assert matches_cylinder(m, trivial)
    off = window_from_elements(zn(2), [zn_element(5, 5)])
    with pytest.raises(DomainNotCovered):
        matches_cylinder(m, CylinderSpec(off, OrderMatrix.from_ranks(off, [0, 1])))


def test_cylinder_pattern_must_be_total():
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
    with pytest.raises(ValueError):
        CylinderSpec(D, OrderMatrix.from_pairs(D, [], closed=True))


def test_render_levels_lex_sweep():
    w = window_from_elements(
        zn(2), [zn_element(x, y) for x in range(3) for y in range(3)]
    )
    grid = render_levels(LEX2.window_order(w))
    assert grid == [[2, 5, 8], [1, 4, 7], [0, 3, 6]]


def test_render_levels_properties_and_errors():
    w = window_from_elements(
        zn(2), [zn_element(x, y) for x in range(-1, 2) for y in range(-1, 2)]
    )
    m = uniform_order(w, 4)
    grid = render_levels(m)
    assert sorted(v for row in grid for v in row) == list(range(9))
    ext = OrderMatrix.from_pairs(w, list(LEX2.window_order(w).pairs()), closed=True)
    lex_grid = render_levels(ext)
    # monotone along both positive directions when extending the quadrant
    assert (np.diff(lex_grid, axis=1) > 0).all()
    assert (np.diff(lex_grid, axis=0) < 0).all()
    with pytest.raises(NotRectangular):
        render_levels(uniform_order(W2, 1))  # diamond, not a rectangle
    with pytest.raises(NotTotal):
        render_levels(OrderMatrix.from_pairs(w, [], closed=True))


def _axis(draw):
    """Distinct sorted ints holding 0: a run of consecutive ones, or one with gaps."""
    lo = draw(st.integers(-4, 0))
    run = list(range(lo, lo + draw(st.integers(1 - lo, 6))))
    if draw(st.booleans()):
        return run
    extra = draw(st.sets(st.integers(-9, 9), min_size=1, max_size=3))
    return sorted(set(run) | extra)


@st.composite
def level_orders(draw):
    """Orders on Z^2 windows the level grid may refuse: full rectangles,
    gapped ones, rectangles with cells dropped or added, diamonds, and
    windows of another group, in a shuffled payload order, total or not."""
    kind = draw(st.sampled_from(["rectangle", "gapped", "dropped", "added", "diamond", "z1"]))
    if kind == "z1":
        w = interval_window(-2, 3)
    elif kind == "diamond":
        w = ball(default_generators(zn(2)), draw(st.integers(1, 3)))
    else:
        xs, ys = _axis(draw), _axis(draw)
        if kind == "rectangle":
            xs, ys = list(range(xs[0], xs[0] + len(xs))), list(range(ys[0], ys[0] + len(ys)))
            if 0 not in xs or 0 not in ys:
                xs, ys = [x - xs[0] for x in xs], [y - ys[0] for y in ys]
        cells = [(x, y) for x in xs for y in ys]
        if kind == "dropped" and len(cells) > 1:
            cells.remove(draw(st.sampled_from([c for c in cells if c != (0, 0)])))
        if kind == "added":
            cells.append((max(xs) + draw(st.integers(1, 3)), draw(st.integers(-3, 3))))
        w = Window(zn(2), draw(st.permutations(cells)))
    perm = draw(st.permutations(range(len(w))))
    if draw(st.integers(0, 5)) == 5 and len(w) > 2:
        return OrderMatrix.from_pairs(w, [(perm[0], perm[1])], closed=True)
    return OrderMatrix.from_perm(w, perm)


def _grid_or_refusal(render, m):
    try:
        return render(m)
    except (NotRectangular, NotTotal) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(level_orders())
def test_render_levels_agrees_with_the_element_by_element_grid(m):
    assert _grid_or_refusal(render_levels, m) == _grid_or_refusal(oracles.render_levels_reference, m)


def test_reflexive_pair_rejected():
    w = interval_window(0, 3)
    with pytest.raises(ValueError):
        OrderMatrix.from_pairs(w, [(1, 1)])


def test_from_perm_lists_each_index_once():
    w = interval_window(-1, 2)
    for perm in ([0, 0, 2], [-1, 1, 2], [0, 1, 3], [0, 1], [0, 1, 2, 0]):
        with pytest.raises(ValueError, match="perm must be a permutation"):
            OrderMatrix.from_perm(w, perm)
    assert OrderMatrix.from_perm(w, [2, 0, 1]).ranks() == [1, 2, 0]


@st.composite
def near_permutations(draw):
    """n and a list that is mostly a permutation of 0..n-1, with entries
    made negative, out of range, duplicate, bool or float, or of the wrong
    length."""
    n = draw(st.integers(1, 6))
    values = list(draw(st.permutations(range(n))))
    entry = st.one_of(
        st.integers(-2, n + 1), st.sampled_from([True, False, 0.0, 1.0, float(n)])
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(values)))
        kind = draw(st.sampled_from(["set", "insert", "drop"]))
        if kind == "set" and at < len(values):
            values[at] = draw(entry)
        elif kind == "insert":
            values.insert(at, draw(entry))
        elif values:
            del values[min(at, len(values) - 1)]
    return n, values


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(near_permutations())
def test_perm_and_rank_checks_match_the_sorting_check(case):
    n, values = case
    w = interval_window(0, n)
    for build, what in ((OrderMatrix.from_perm, "perm"), (OrderMatrix.from_ranks, "ranks")):
        try:
            ref = oracles.sorted_permutation(values, n, what)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                build(w, values)
            assert str(got.value) == str(exc)
            continue
        m = build(w, values)
        other = sorted(range(n), key=ref.__getitem__)  # the inverse of ref
        perm, ranks = (ref, other) if what == "perm" else (other, ref)
        assert (m.perm(), m.ranks()) == (perm, ranks)


def test_indices_are_ints_not_bools_or_floats():
    w = interval_window(-1, 2)
    for values in ([True, False, 2], [1.0, 0, 2]):  # equal to [1, 0, 2] as numbers
        with pytest.raises(ValueError, match="perm must be a permutation"):
            OrderMatrix.from_perm(w, values)
        with pytest.raises(ValueError, match="ranks must be a permutation"):
            OrderMatrix.from_ranks(w, values)
    for pair in ((True, False), (0, True), (0.0, 1)):
        with pytest.raises(ValueError, match="out of range"):
            OrderMatrix.from_pairs(w, [pair])
    assert OrderMatrix.from_pairs(w, [(1, 0)]).has(1, 0)


@st.composite
def closed_relations(draw):
    """A relation on at most 6 elements marked closed whatever it is: a total
    order or nothing, with up to four pairs toggled (which can leave a pair
    undecided, break transitivity or close a cycle)."""
    n = draw(st.integers(1, 6))
    pairs = set()
    if draw(st.booleans()):
        hidden = draw(st.permutations(range(n)))
        pairs = {(hidden[a], hidden[b]) for a in range(n) for b in range(a + 1, n)}
    index = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=4)):
        if i != j:
            pairs ^= {(i, j)}
    return OrderMatrix.from_pairs(interval_window(0, n), sorted(pairs), closed=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_relations(), st.data())
def test_totality_rule_matches_the_pairwise_oracle(m, data):
    n = m.n
    total = oracles.is_strict_total(n, m.has)
    assert is_total(m) == total
    if total:
        assert m.ranks() == [sum(m.has(j, i) for j in range(n)) for i in range(n)]
    else:
        with pytest.raises(NotTotal):
            m.ranks()
    positions = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    k = len(positions)

    def has(a, b):
        return m.has(positions[a], positions[b])

    if oracles.is_strict_total(k, has):
        assert m.ranking(positions) == tuple(sum(has(b, a) for b in range(k)) for a in range(k))
    else:
        with pytest.raises(DomainNotCovered):
            m.ranking(positions)


@st.composite
def relations(draw):
    """A rank-vector order, a total order kept as rows, or a partial relation
    (closed or not), on a window of at most 13 elements."""
    w = draw(st.sampled_from([interval_window(0, 1), interval_window(-2, 4), W2]))
    n = len(w)
    kind = draw(st.sampled_from(["ranks", "rows", "partial"]))
    perm = draw(st.permutations(range(n)))
    if kind == "ranks":
        return kind, OrderMatrix.from_perm(w, perm)
    if kind == "rows":
        return kind, OrderMatrix.from_pairs(
            w, [(perm[a], perm[b]) for a in range(n) for b in range(a + 1, n)], closed=True
        )
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index).filter(lambda p: p[0] != p[1]), max_size=12))
    return kind, OrderMatrix.from_pairs(w, pairs, closed=draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(relations())
def test_pairs_are_the_decided_pairs_in_row_order(case):
    kind, m = case
    n = m.n
    pairs = list(m.pairs())
    assert pairs == [(i, j) for i in range(n) for j in range(n) if m.has(i, j)]
    if kind != "partial":
        assert pairs == sorted(oracles.perm_walk_pairs(m))


def test_rank_vector_pairs_are_capped_as_rows_are(monkeypatch):
    from grouporders import orders

    w = interval_window(0, 5)
    ranked = OrderMatrix.from_perm(w, [4, 2, 0, 1, 3])
    kept = OrderMatrix.from_pairs(w, oracles.perm_walk_pairs(ranked), closed=True)
    monkeypatch.setattr(orders, "MAX_DENSE_ELEMENTS", 4)
    for dense in (ranked.pairs, ranked.rows):
        with pytest.raises(SizeLimitExceeded, match="dense matrix for 5 elements exceeds the 4 cap"):
            list(dense())
    assert list(kept.pairs()) == sorted(oracles.perm_walk_pairs(ranked))
