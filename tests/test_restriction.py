"""OrderMatrix.induced / ranking and their callers against the pairwise
``has`` loops they replaced (tests/oracles.py), on small Z^2 balls."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import (
    CylinderSpec,
    DomainNotCovered,
    GeneratorSet,
    OrderMatrix,
    ball,
    default_generators,
    estimate_cylinder,
    interval_window,
    matches_cylinder,
    shadowing_report,
    stabilizer_check,
    translate_order,
    uniform_order,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders.stats import ranking_of

BALLS = [ball(default_generators(zn(2)), r) for r in range(4)]
KINDS = ("uniform", "rows_total", "closed", "acyclic")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def orders(draw, w=None):
    """A uniform order, a total order kept as rows, a closed partial order,
    or an unclosed acyclic relation on a Z^2 ball of radius <= 3."""
    if w is None:
        w = draw(st.sampled_from(BALLS))
    n = len(w)
    kind = draw(st.sampled_from(KINDS))
    if kind == "uniform":
        return uniform_order(w, draw(st.integers(0, (1 << 64) - 1)))
    hidden = draw(st.permutations(range(n)))  # every pair points up this list
    if kind == "rows_total":
        pairs = list(zip(hidden, hidden[1:]))
    else:
        index = st.integers(0, n - 1)
        picks = draw(st.lists(st.tuples(index, index), max_size=3 * n))
        pairs = [(hidden[min(a, b)], hidden[max(a, b)]) for a, b in picks if a != b]
    if kind == "acyclic":
        return OrderMatrix.from_pairs(w, pairs)
    return OrderMatrix(w, rows=oracles.closure_rows(n, pairs), closed=True)


@st.composite
def positions(draw, n, holes=True):
    """Distinct window positions, with up to two None entries."""
    picked = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 8)))
    if holes:
        for at in draw(st.lists(st.integers(0, len(picked)), max_size=2)):
            picked.insert(at, None)
    return picked


def outcome(f, *args):
    """Return value of f, or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared by type against the reference
        return type(exc)


@SETTINGS
@given(st.data())
def test_induced_and_ranking_match_pairwise(data):
    m = data.draw(orders())
    ps = data.draw(positions(m.n))
    assert m.induced(ps) == oracles.pairwise_induced(m, ps)
    assert m.rows() == oracles.pairwise_induced(m, range(m.n))
    live = [p for p in ps if p is not None]
    assert outcome(m.ranking, live) == outcome(oracles.pairwise_ranks_at, m, live)
    F = window_from_elements(m.window.group, [m.window.element(p) for p in live])
    ref = outcome(oracles.pairwise_ranks_at, m, m.window.positions(F))
    assert outcome(ranking_of, m, F) == ref


@SETTINGS
@given(st.data())
def test_matches_cylinder_matches_pairwise(data):
    m = data.draw(orders())
    live = data.draw(positions(m.n, holes=False))
    D = window_from_elements(m.window.group, [m.window.element(p) for p in live])
    where = m.window.positions(D)
    truth = outcome(oracles.pairwise_ranks_at, m, where)
    if truth is DomainNotCovered or data.draw(st.booleans()):
        ranks = data.draw(st.permutations(range(len(D))))
    else:
        ranks = truth
    c = CylinderSpec(D, OrderMatrix.from_ranks(D, ranks))
    got = outcome(matches_cylinder, m, c)
    ref = outcome(oracles.pairwise_matches_cylinder, m, c)
    if truth is DomainNotCovered:
        # an undecided pair now always raises; the pair loop could stop
        # earlier at a disagreeing pair and answer False
        assert got is DomainNotCovered and ref in (DomainNotCovered, False)
    else:
        assert got == ref == (truth == tuple(ranks))


@SETTINGS
@given(st.data())
def test_translate_order_matches_pairwise(data):
    m = data.draw(orders())
    coord = st.integers(-3, 3)
    g = data.draw(st.one_of(
        st.builds(zn_element, coord, coord),
        st.builds(zn_element, coord),  # another group
    ))
    got = outcome(translate_order, m, g)
    ref = outcome(oracles.pairwise_translate_order, m, g)
    if isinstance(ref, type):
        assert got is ref
    else:
        assert (got.rows(), got.closed, got.window) == (ref.rows(), ref.closed, ref.window)


@SETTINGS
@given(st.data())
def test_stabilizer_check_matches_pairwise(data):
    m = data.draw(orders())
    coord = st.integers(-2, 2)
    steps = data.draw(st.lists(
        st.tuples(coord, coord).filter(lambda t: t != (0, 0)), unique=True, max_size=4
    ))
    gens = GeneratorSet(zn(2), tuple(zn_element(*t) for t in steps))
    w = m.window
    assert stabilizer_check(m, w, gens) == oracles.pairwise_stabilizer_check(m, w, gens)


@SETTINGS
@given(st.data())
def test_shadowing_report_matches_pairwise(data):
    w = data.draw(st.sampled_from(BALLS[1:]))
    glued, m1, m2 = (data.draw(orders(w)) for _ in range(3))
    K = [w.element(p) for p in data.draw(positions(len(w), holes=False))]
    picked = data.draw(positions(len(w), holes=False))
    D = window_from_elements(w.group, [w.element(p) for p in picked[:3]])
    all_ok, rows = shadowing_report(glued, m1, m2, K, D)
    for g, side, ok in rows:
        pre = oracles.preimages(w, g, D)
        ref = m1 if side == "inside" else m2
        assert ok == oracles.pairs_agree(glued, pre, ref, pre)
    assert all_ok == all(ok for _, _, ok in rows)


def report_matches_pairwise(data, glued, m1, m2):
    """shadowing_report's rows on K and D drawn from the window, each
    compared with the pair-by-pair reference; returns the rows."""
    w = glued.window
    K = [w.element(p) for p in data.draw(positions(len(w), holes=False))]
    picked = data.draw(positions(len(w), holes=False))
    D = window_from_elements(w.group, [w.element(p) for p in picked[:3]])
    all_ok, rows = shadowing_report(glued, m1, m2, K, D)
    for g, side, ok in rows:
        pre = oracles.preimages(w, g, D)
        ref = m1 if side == "inside" else m2
        assert ok == oracles.pairs_agree(glued, pre, ref, pre)
    assert all_ok == all(ok for _, _, ok in rows)
    return rows


def as_rows(m):
    """The same relation, kept as row bitmasks."""
    return OrderMatrix(m.window, rows=m.rows(), closed=m.closed)


# few seeds, so that the glued order often equals a reference
FEW_SEEDS = st.integers(0, 3)


@SETTINGS
@given(st.data())
def test_shadowing_report_on_three_uniform_orders_matches_pairwise(data):
    w = data.draw(st.sampled_from(BALLS[1:]))
    glued, m1, m2 = (uniform_order(w, data.draw(FEW_SEEDS)) for _ in range(3))
    with pytest.MonkeyPatch.context() as mp:  # the ranks decide, no rows are built
        mp.setattr(OrderMatrix, "induced", None)
        report_matches_pairwise(data, glued, m1, m2)


@SETTINGS
@given(st.data())
def test_shadowing_report_on_perm_and_rows_orders_matches_pairwise(data):
    w = data.draw(st.sampled_from(BALLS[1:]))
    glued, m1, m2 = (uniform_order(w, data.draw(FEW_SEEDS)) for _ in range(3))
    if data.draw(st.booleans()):
        glued = as_rows(glued)
    else:
        m1, m2 = as_rows(m1), as_rows(m2)
    calls = []
    induced = OrderMatrix.induced
    with pytest.MonkeyPatch.context() as mp:  # each row compares two restrictions
        mp.setattr(OrderMatrix, "induced", lambda m, pos: calls.append(1) or induced(m, pos))
        rows = report_matches_pairwise(data, glued, m1, m2)
    assert len(calls) == 2 * len(rows)


def test_undecided_cylinder_pair_raises_like_estimate_cylinder():
    # 1 < 0 is decided, 0 ? 2 is not; the pattern 0 < 1 < 2 disagrees on
    # the first pair, before the undecided one
    w = interval_window(0, 3)
    m = OrderMatrix.from_pairs(w, [(1, 0)], closed=True)
    c = CylinderSpec(w, OrderMatrix.from_ranks(w, [0, 1, 2]))
    with pytest.raises(DomainNotCovered):
        estimate_cylinder(lambda seed: m, c, 1, 0)
    with pytest.raises(DomainNotCovered):
        matches_cylinder(m, c)


def test_ranking_rejects_a_cycle_on_the_positions():
    w = interval_window(0, 3)
    # 0 < 1, 0 < 2 and 1 < 0: the counts of elements above (2, 1, 0) look
    # like a total order's, yet 1 ? 2 is undecided
    m = OrderMatrix.from_pairs(w, [(0, 1), (0, 2), (1, 0)])
    with pytest.raises(DomainNotCovered):
        m.ranking([0, 1, 2])
    three_cycle = OrderMatrix.from_pairs(w, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(DomainNotCovered):
        three_cycle.ranking([0, 1, 2])
    assert m.ranking([2]) == (0,) and m.induced([None, 0, 2]) == [0, 0b100, 0]
