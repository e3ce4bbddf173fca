"""Window.preimages, its bulk form Window.preimage_table, and their callers
(glue and its shadowing report, the keyed and drawn invariance paths, the
coset lookup) against the element-by-element references in
tests/oracles.py, on balls of radius <= 3 over Z^1-Z^3, the Heisenberg group
and SL3(Z), with entries near both ends of the 64-bit range."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import (
    HEISENBERG,
    SL3Z,
    CylinderSpec,
    GeneratorSet,
    GroupElement,
    GroupId,
    GroupMismatch,
    InnerOrderIncomplete,
    IntegerOverflow,
    OrderMatrix,
    Window,
    ball,
    coset_sampler,
    default_generators,
    estimate_cylinder,
    invariance_test,
    make_element,
    rng,
    shadowing_report,
    specification_glue,
    stabilizer_check,
    uniform_order,
    uniformity_chisq,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import groups
from grouporders.groups import INT64_MAX, INT64_MIN
from grouporders.sampling import uniform_sampler

GROUPS = (zn(1), zn(2), zn(3), HEISENBERG, SL3Z)
BALLS = {group: [ball(default_generators(group), r) for r in range(4)] for group in GROUPS}
WINDOWS = st.sampled_from([w for balls in BALLS.values() for w in balls])
SMALL = st.sampled_from([w for balls in BALLS.values() for w in balls[1:3]])
ENTRY = st.one_of(
    st.integers(-4, 4),
    st.integers(INT64_MIN, INT64_MIN + 4),
    st.integers(INT64_MAX - 4, INT64_MAX),
)
OFF_DIAGONAL = [(r, c) for r in range(3) for c in range(3) if r != c]
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def outcome(f, *args):
    """Return value of f, or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared against the reference
        return type(exc), str(exc)


@st.composite
def element_of(draw, w):
    """An element of w's group: one of w's, a product of two of them (often
    outside w), or one with entries near the ends of the 64-bit range."""
    group = w.group
    how = draw(st.sampled_from(["inside", "product", "wide"]))
    if how == "inside":
        return draw(st.sampled_from(w.elements))
    if how == "product":
        a, b = (draw(st.sampled_from(w.elements)) for _ in range(2))
        return GroupElement(group, oracles.checked_multiply(group.kind, a.payload, b.payload))
    if group.kind == "sl3":
        r, c = draw(st.sampled_from(OFF_DIAGONAL))
        flat = list(oracles.IDENTITY3)
        flat[3 * r + c] = draw(ENTRY)
        return make_element(SL3Z, flat)
    size = len(w.element(0).payload)
    return make_element(group, draw(st.lists(ENTRY, min_size=size, max_size=size)))


@st.composite
def foreign_to(draw, w):
    """An element of another group, often with w's payload length (Z^3 and
    the Heisenberg group)."""
    group = draw(st.sampled_from([g for g in GROUPS if g != w.group]))
    return draw(element_of(BALLS[group][1]))


@st.composite
def shift_for(draw, w):
    """g: mostly of w's group, sometimes of another, sometimes an equal
    GroupId object that is not w's own."""
    how = draw(st.sampled_from(["own"] * 6 + ["foreign", "twin"]))
    if how == "foreign":
        return draw(foreign_to(w))
    g = draw(element_of(w))
    if how == "twin":
        return GroupElement(GroupId(w.group.kind, w.group.n), g.payload)
    return g


@st.composite
def translated(draw, w):
    """The elements to translate: w itself, another window of w's group, or
    a list, which may hold one foreign element."""
    how = draw(st.sampled_from(["window", "other window", "list", "foreign list"]))
    if how == "window":
        return w
    picked = draw(st.lists(element_of(w), max_size=5))
    if how == "other window":
        return window_from_elements(w.group, picked)
    if how == "foreign list":
        picked.insert(draw(st.integers(0, len(picked))), draw(foreign_to(w)))
    return picked


@SETTINGS
@given(st.data())
def test_preimages_match_the_reference(data):
    w = data.draw(WINDOWS)
    g = data.draw(shift_for(w))
    elements = data.draw(translated(w))
    assert outcome(w.preimages, g, elements) == outcome(oracles.preimages, w, g, elements)


@st.composite
def table_windows(draw):
    """A ball of radius 1 or 2 of any of the five groups, or up to 12 random
    points of Z^1-Z^3 with entries in -9..9."""
    if draw(st.booleans()):
        return draw(SMALL)
    group = zn(draw(st.integers(1, 3)))
    rows = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * group.n), max_size=12))
    return window_from_elements(group, [GroupElement(group, r) for r in rows])


@SETTINGS
@given(st.data())
def test_preimage_table_matches_preimages_and_the_reference(data):
    w = data.draw(table_windows())
    elements = data.draw(translated(w))
    got = outcome(w.preimage_table, elements)
    assert got == outcome(lambda: [w.preimages(g, elements) for g in w])
    assert got == outcome(lambda: [oracles.preimages(w, g, elements) for g in w])


def counted_zn_products(monkeypatch) -> list:
    """A list that gains an entry at each checked Z^n product from now on."""
    calls = []

    def counted(p, q):
        calls.append(1)
        return groups._zn_product(p, q)

    monkeypatch.setitem(groups._PRODUCT, groups.KIND_ZN, counted)
    return calls


@pytest.mark.parametrize(
    "rows, xs, on_codes",
    [  # bound = largest |window entry| + largest |entry of the xs|
        ([(0,), (INT64_MAX - 3,), (-5,)], [(3,), (-3,), (0,)], True),  # INT64_MAX
        ([(0, 0), (-(INT64_MAX - 7), 2), (4, -7)], [(7, -7), (0, 1)], True),  # INT64_MAX
        ([(0,), (INT64_MAX - 2,)], [(-3,), (1,)], False),  # INT64_MAX + 1, none leaves
        ([(0,), (-(INT64_MAX - 2),)], [(0,), (3,)], False),  # INT64_MAX + 1, 3 + M - 2 leaves
        ([(0, 0, 0)], [(INT64_MIN, 0, 0)], False),  # 2^63
        # bound 3, the window's own: (0, 3) and (1, -3) would share a code
        # in base 2 * bound
        ([(0, 0), (0, 3), (1, -3), (0, -3), (-1, 3)], [(0, 0)], True),
    ],
)
def test_preimage_table_takes_codes_while_no_translate_can_leave_the_range(
    monkeypatch, rows, xs, on_codes
):
    group = zn(len(rows[0]))
    w = Window(group, rows)
    elements = [GroupElement(group, x) for x in xs]
    ref = outcome(lambda: [oracles.preimages(w, g, elements) for g in w])
    calls = counted_zn_products(monkeypatch)
    assert outcome(w.preimage_table, elements) == ref
    assert (not calls) == on_codes


def test_shadowing_report_refuses_as_the_rowwise_lookup_does():
    # bound INT64_MAX + 1: the checked products raise at 3 - (2 - INT64_MAX)
    w = Window(zn(1), [(2 - INT64_MAX,), (0,)])
    m = OrderMatrix.from_perm(w, [0, 1])
    D = window_from_elements(zn(1), [zn_element(3)])
    with pytest.raises(IntegerOverflow, match=f"^entry {INT64_MAX + 1} leaves the 64-bit range$"):
        w.preimage_table(D)
    with pytest.raises(IntegerOverflow, match=f"^entry {INT64_MAX + 1} leaves the 64-bit range$"):
        shadowing_report(m, m, m, [], D)
    # a D of another group: with no K, the lookup names both groups; with
    # one, the (D D^-1) K products refuse first
    w3 = ball(default_generators(zn(3)), 1)
    m3 = uniform_order(w3, 1)
    heis = ball(default_generators(HEISENBERG), 1)
    with pytest.raises(GroupMismatch, match="^zn:3 vs heis$"):
        w3.preimage_table(heis)
    with pytest.raises(GroupMismatch, match="^zn:3 vs heis$"):
        shadowing_report(m3, m3, m3, [], heis)
    with pytest.raises(GroupMismatch, match="^heis vs zn:3$"):
        shadowing_report(m3, m3, m3, [zn_element(0, 0, 0)], heis)


def test_shadowing_report_takes_products_only_for_its_band(monkeypatch):
    w = Window(zn(2), [(x, y) for x in range(-15, 15) for y in range(-15, 15)])
    m1, m2 = uniform_order(w, 1), uniform_order(w, 2)
    K = [zn_element(0, 0), zn_element(1, 0)]
    D = window_from_elements(zn(2), [zn_element(1, 0), zn_element(0, 1), zn_element(1, 1)])
    glued = specification_glue(m1, m2, K, D)
    calls = counted_zn_products(monkeypatch)
    all_ok, rows = shadowing_report(glued, m1, m2, K, D)
    # d1 * d2^-1, then times k, for each of the |D|^2 |K| elements of
    # (D D^-1) K as it is listed; none for the 900 window elements
    assert len(calls) == 2 * len(D) ** 2 * len(K)
    # g^-1 D stays in w for g in [-13, 14]^2; the band (D D^-1) K is
    # [-1, 2] x [-1, 1], and K lies in it
    assert all_ok and len(rows) == 2 + 28 * 28 - 12
    assert sorted(g.payload for g, side, _ in rows if side == "inside") == [(0, 0), (1, 0)]


@SETTINGS
@given(st.data())
def test_glue_matches_the_reference(data):
    w = data.draw(SMALL)
    m1, m2 = (uniform_order(w, data.draw(st.integers(0, 99))) for _ in range(2))
    inside = st.sampled_from(w.elements)  # most K^-1 D stay in w
    K = data.draw(st.lists(st.one_of(inside, inside, shift_for(w)), max_size=3))
    picked = data.draw(st.lists(st.one_of(inside, inside, element_of(w)), max_size=2))
    group = w.group if data.draw(st.booleans()) else data.draw(foreign_to(w)).group
    D = window_from_elements(group, [x for x in picked if x.group == group])
    got = outcome(specification_glue, m1, m2, K, D)
    assert got == outcome(oracles.translate_glue, m1, m2, K, D)


# a subgroup per group kind: first coordinate 0, the centre, upper unitriangular
SUBGROUPS = {
    "zn": lambda g: g.payload[0] == 0,
    "heis": lambda g: g.payload[:2] == (0, 0),
    "sl3": lambda g: (g.payload[0], g.payload[3], g.payload[4]) == (1, 0, 1)
    and g.payload[6:] == (0, 0, 1),
}


@SETTINGS
@given(st.data())
def test_invariance_paths_match_the_reference(data):
    w = data.draw(SMALL)
    g = data.draw(shift_for(w))
    D = window_from_elements(w.group, data.draw(st.lists(element_of(w), max_size=3)))
    seed, N = data.draw(st.integers(0, 2**64 - 1)), 3
    orders = [uniform_order(w, rng.derive_seed(seed, "sample", i)) for i in range(N)]
    ref = outcome(oracles.translate_invariance_counts, orders, g, D)
    for sampler in (uniform_sampler(w), lambda s: uniform_order(w, s)):  # keyed, drawn
        got = outcome(invariance_test, sampler, g, D, N, seed)
        if not isinstance(got, tuple):
            got = (got.base_counts, got.translated_counts)
        assert got == ref
    # the coset sampler's keys give every statistic the report, or the
    # refusal, of its drawn orders
    member = SUBGROUPS[w.group.kind]
    needed = [GroupElement(w.group, p) for p in oracles.coset_translates(w, member)]
    inner = uniform_order(window_from_elements(w.group, needed), data.draw(st.integers(0, 99)))
    keyed = coset_sampler(w, member, inner)
    c = CylinderSpec(D, OrderMatrix.from_ranks(D, data.draw(st.permutations(range(len(D))))))
    for stat, *args in (
        (invariance_test, g, D, N, seed),
        (uniformity_chisq, D, N, seed),
        (estimate_cylinder, c, N, seed),
    ):
        assert outcome(stat, keyed, *args) == outcome(stat, lambda s: keyed(s), *args)


# Z^3 and the Heisenberg group share a payload length
TWINS = {zn(3): HEISENBERG, HEISENBERG: zn(3)}


@SETTINGS
@given(st.data())
def test_coset_lookup_matches_the_reference(data):
    w = data.draw(SMALL)
    member = SUBGROUPS[w.group.kind]
    needed = oracles.coset_translates(w, member)
    drop = data.draw(st.sampled_from([None, *needed]))
    group = w.group
    if w.group in TWINS and data.draw(st.booleans()):
        group = TWINS[w.group]
    kept = [GroupElement(group, p) for p in needed if p != drop]
    inner = uniform_order(window_from_elements(group, kept), data.draw(st.integers(0, 99)))
    seed = data.draw(st.integers(0, 2**64 - 1))
    ref = outcome(oracles.coset_inner_ranks, w, member, inner)
    if isinstance(ref, tuple):
        assert outcome(lambda: coset_sampler(w, member, inner)(seed)) == ref
        return
    ext = coset_sampler(w, member, inner)(seed)
    for i, (rep_i, rank_i) in enumerate(ref):
        for j, (rep_j, rank_j) in enumerate(ref):
            if i != j and rep_i == rep_j:  # within a coset the inner order decides
                assert ext.has(i, j) == (rank_i < rank_j)


def test_changed_group_errors():
    w = ball(default_generators(zn(3)), 1)
    x = make_element(HEISENBERG, (1, 0, 0))
    # g and the elements both of another group are refused
    with pytest.raises(GroupMismatch, match="translation element from a different group"):
        w.preimages(x, [x])
    with pytest.raises(GroupMismatch, match="^zn:3 vs heis$"):
        w.preimages(zn_element(1, 0, 0), [x])
    # a foreign generator in stabilizer_check is refused by the translation check
    gens = GeneratorSet(HEISENBERG, (x,))
    with pytest.raises(GroupMismatch, match="translation element from a different group"):
        stabilizer_check(uniform_order(w, 1), w, gens)
    # no elements: only the group of g is checked, g is not inverted
    assert w.preimages(zn_element(INT64_MIN, 0, 0), []) == []
    with pytest.raises(GroupMismatch):
        w.preimages(x, [])


def test_coset_sampler_refuses_an_inner_order_of_another_group():
    w = ball(default_generators(zn(3)), 1)
    # a Heisenberg window with the same payloads as w
    inner = uniform_order(ball(default_generators(HEISENBERG), 1), 4)
    with pytest.raises(GroupMismatch):
        coset_sampler(w, lambda g: g.payload[0] == 0, inner)
    # the incomplete-inner message still names the missing translate
    axis = window_from_elements(zn(3), [zn_element(0, 1, 0)])
    with pytest.raises(InnerOrderIncomplete, match=r"does not cover <zn:3\|0,-1,0>"):
        coset_sampler(w, lambda g: g.payload[0] == 0, uniform_order(axis, 1))
