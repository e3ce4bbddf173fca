import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import (
    HEISENBERG,
    SL3Z,
    ActionSpec,
    AveragingScheme,
    DomainNotCovered,
    InnerOrderIncomplete,
    OrderMatrix,
    Sqrt2Num,
    StabilizerCollision,
    Window,
    ball,
    bernoulli_action,
    box,
    cesaro,
    coset_extension,
    coset_sampler,
    default_generators,
    identity,
    interval_window,
    is_total,
    lex_functional,
    realize,
    reconstruct,
    rotation_action,
    shadowing_report,
    specification_glue,
    stabilizer_check,
    torus_action,
    uniform_order,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import rng, sampling
from grouporders.rng import unit_fraction

W2 = ball(default_generators(zn(2)), 2)
ALPHA = Sqrt2Num.of(-1, 1)  # sqrt(2) - 1


def test_uniform_order_deterministic_and_total():
    m1 = uniform_order(W2, 12345)
    m2 = uniform_order(W2, 12345)
    assert m1 == m2 and is_total(m1)
    assert uniform_order(W2, 54321) != m1


def test_uniform_order_pair_symmetry():
    n, hits = 4000, 0
    i, j = W2.position(zn_element(0, 0)), W2.position(zn_element(1, 1))
    for s in range(n):
        if uniform_order(W2, s).has(i, j):
            hits += 1
    se = math.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 4 * se


def test_uniform_order_window_inclusion_is_exact():
    big = ball(default_generators(zn(2)), 3)
    for seed in range(50):
        m_small = uniform_order(W2, seed)
        m_big = uniform_order(big, seed)
        pos = [big.position(g) for g in W2]
        for a in range(len(W2)):
            for b in range(len(W2)):
                if a != b:
                    assert m_small.has(a, b) == m_big.has(pos[a], pos[b])


def test_uniform_order_inclusion_survives_value_collisions(monkeypatch):
    # 2-bit draws tie constantly; equal values must break the same way in
    # every window
    u64_each = rng.u64_each
    monkeypatch.setattr(rng, "u64_each", lambda *a: [v & 3 for v in u64_each(*a)])
    big = interval_window(-1, 3)
    sub = interval_window(0, 2)
    pos = [big.position(g) for g in sub]
    collided = 0
    big_keys = sampling.uniform_keys(big.group, [g.payload for g in big])
    for seed in range(30):
        collided += len({v for v, _ in big_keys(seed)}) < len(big)
        ranks = uniform_order(big, seed).ranks()
        restricted = sorted(range(len(sub)), key=lambda a: ranks[pos[a]])
        assert restricted == uniform_order(sub, seed).perm()
    # the patch reaches the uniform keys: four elements on four values tie
    # in all but 24/256 of the seeds
    assert collided >= 20


@pytest.mark.parametrize("ties", [False, True])
def test_whole_window_uniform_draws_sort_the_uniform_keys(ties, monkeypatch):
    # the per-window table and the stable sort of the values give the order
    # of the (value, encoding) keys; values mod 3 tie on nearly every draw
    if ties:
        u64_each = rng.u64_each
        monkeypatch.setattr(rng, "u64_each", lambda *a: [v % 3 for v in u64_each(*a)])
    windows = [
        interval_window(-4, 5),
        W2,
        ball(default_generators(HEISENBERG), 2),
        ball(default_generators(SL3Z), 1),
    ]
    for w in windows:
        sampler = sampling.uniform_sampler(w)
        for seed in (0, 7, 2**64 - 1):
            drawn = sampler(seed)
            keyed = OrderMatrix.from_keys(w, sampler.keys(w.payloads)(seed))
            assert drawn == keyed == uniform_order(w, seed)
            assert drawn.perm() == keyed.perm() and drawn.ranks() == keyed.ranks()
            if ties:
                assert len({v for v, _ in sampler.keys(w.payloads)(seed)}) <= 3


def test_sorted_orders_keep_their_perm(monkeypatch):
    w = interval_window(0, 4)
    drawn = sampling.uniform_sampler(W2)(5)
    cases = [
        (OrderMatrix.from_keys(w, [3, 0, 2, 1]), [1, 3, 2, 0]),
        (OrderMatrix.from_perm(w, [1, 3, 2, 0]), [1, 3, 2, 0]),
        (drawn, sorted(range(len(W2)), key=drawn.ranks().__getitem__)),
    ]
    # perm() returns a copy of the perm the order sorted, without inverting its ranks
    monkeypatch.setattr(OrderMatrix, "ranks", lambda self: 1 // 0)
    for m, perm in cases:
        got = m.perm()
        assert got == perm
        got.reverse()
        assert m.perm() == perm


def test_coset_extension_whole_group_returns_inner():
    inner = uniform_order(W2, 9)
    ext = coset_extension(W2, lambda g: True, inner, 4)
    assert ext == inner


def test_coset_extension_trivial_subgroup_matches_uniform_law():
    # one element per coset: cross-coset labels alone decide, so each of the
    # 6 rankings of a 3-set should appear with frequency about 1/6
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0), zn_element(0, 1)])
    e = identity(zn(2))
    inner = OrderMatrix.from_ranks(window_from_elements(zn(2), []), [0])
    counts = [0] * 6
    n = 3000
    from grouporders.stats import permutation_rank, ranking_of

    for s in range(n):
        ext = coset_extension(W2, lambda g: g == e, inner, s)
        counts[permutation_rank(ranking_of(ext, D))] += 1
    expected = n / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 20.5  # 0.999 quantile for 5 dof


def test_coset_extension_z_in_z2():
    inner_w = window_from_elements(zn(2), [zn_element(k, 0) for k in range(-2, 3)])
    inner = lex_functional(2).window_order(inner_w)
    member = lambda g: g.payload[1] == 0
    for seed in range(100):
        ext = coset_extension(W2, member, inner, seed)
        assert is_total(ext)
        rows = {}
        for i, g in enumerate(W2):
            for j, h in enumerate(W2):
                if i == j:
                    continue
                if g.payload[1] == h.payload[1]:
                    assert ext.has(i, j) == (g.payload[0] < h.payload[0])
                else:
                    key = (g.payload[1], h.payload[1])
                    rows.setdefault(key, ext.has(i, j))
                    assert rows[key] == ext.has(i, j)  # constant per coset pair


def test_coset_sampler_draws_coset_extension():
    inner_w = window_from_elements(zn(2), [zn_element(k, 0) for k in range(-2, 3)])
    inner = lex_functional(2).window_order(inner_w)
    member = lambda g: g.payload[1] == 0
    sampler = coset_sampler(W2, member, inner)
    golden = {  # drawn by the per-seed coset_extension it replaces
        0: [5, 1, 0, 4, 12, 6, 2, 10, 7, 3, 11, 9, 8],
        1: [7, 3, 11, 8, 5, 1, 0, 4, 12, 9, 6, 2, 10],
        2**64 - 1: [6, 2, 10, 8, 7, 3, 11, 9, 5, 1, 0, 4, 12],
    }
    assert isinstance(sampler, sampling.ProjectiveSampler) and sampler.window is W2
    for s, perm in golden.items():
        assert sampler(s) == coset_extension(W2, member, inner, s)
        assert sampler(s).perm() == perm
        # the keys of the window's payloads sort them as the draw does
        keys = sampler.keys(W2.payloads)(s)
        assert sorted(range(len(W2)), key=keys.__getitem__) == perm


def test_coset_keys_hash_only_the_probed_cosets(monkeypatch):
    w = ball(default_generators(zn(2)), 5)
    inner_w = window_from_elements(zn(2), [zn_element(0, k) for k in range(-5, 6)])
    inner = lex_functional(2).window_order(inner_w)
    member = lambda g: g.payload[0] == 0  # 11 cosets, one per x
    # the set-up looks up each r^-1 g it found in the search, not by preimages
    with monkeypatch.context() as mp:
        mp.setattr(type(w), "preimages", lambda *a: 1 // 0)
        sampler = coset_sampler(w, member, inner)
    hashed = []
    u64_each = rng.u64_each

    def counting(seed, head, items, tail=()):
        hashed.append(len(items))
        return u64_each(seed, head, items, tail)

    monkeypatch.setattr(rng, "u64_each", counting)
    probe = [(0, 0), (0, 1), (2, 0), (2, -1)]  # 4 payloads in the cosets x = 0, 2
    whole = sampler.keys(w.payloads)(3)
    assert sampler.keys(probe)(3) == [whole[w.position(zn_element(*p))] for p in probe]
    assert hashed == [11, 2]


def test_coset_extension_incomplete_inner():
    inner_w = window_from_elements(zn(2), [zn_element(0, 0)])
    inner = OrderMatrix.from_ranks(inner_w, [0])
    with pytest.raises(InnerOrderIncomplete):
        coset_extension(W2, lambda g: g.payload[1] == 0, inner, 1)


def test_glue_trivial_cases():
    m1 = uniform_order(W2, 1)
    m2 = uniform_order(W2, 2)
    D = window_from_elements(zn(2), [zn_element(0, 0)])
    glued_empty = specification_glue(m1, m2, [], D)
    assert glued_empty == m2
    all_k = list(W2)
    big_d = window_from_elements(zn(2), [zn_element(0, 0)])
    # K^-1 D = whole window when K is the window and D = {e} (inverses of a
    # symmetric ball): every pair comes from m1
    glued_all = specification_glue(m1, m2, all_k, big_d)
    assert glued_all == m1


def test_glue_is_transitive_and_shadows():
    rnd = random.Random(6)
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
    w = ball(default_generators(zn(2)), 3)
    for trial in range(25):
        m1 = uniform_order(w, rnd.getrandbits(64))
        m2 = uniform_order(w, rnd.getrandbits(64))
        K = [zn_element(rnd.randint(-1, 1), rnd.randint(-1, 1))]
        glued = specification_glue(m1, m2, K, D)
        assert is_total(glued)
        assert oracles.closure_rows(len(w), glued.pairs()) == glued.rows()
        ok, rows = shadowing_report(glued, m1, m2, K, D)
        assert ok and rows


@pytest.mark.parametrize(
    "member, message",
    [
        (lambda g: False, "subgroup test rejects the identity"),
        (lambda g: g.payload[0] >= 0, "subgroup test not closed under inverse on the window"),
        (lambda g: abs(g.payload[0]) <= 1, "subgroup test not closed under products on the window"),
    ],
)
def test_a_subgroup_test_the_window_contradicts_is_refused(member, message):
    w = interval_window(-2, 3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        coset_sampler(w, member, uniform_order(w, 1))


@pytest.mark.parametrize(
    "args, message",
    [
        (("spiral", 1), "unknown action kind 'spiral'"),
        ((sampling.ROTATION, 2, (ALPHA, ALPHA)), "circle rotation acts through Z"),
        ((sampling.TORUS_ROTATION, 2, (ALPHA,)), "one angle per generator required"),
        ((sampling.ROTATION, 1, ()), "one angle per generator required"),
        ((sampling.TORUS_ROTATION, 2, (ALPHA, Sqrt2Num.of(Fraction(1, 2)))),
         "rotation angles must be irrational (root2 part nonzero)"),
    ],
)
def test_an_action_spec_refuses_what_it_cannot_act_by(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ActionSpec(*args)


def test_the_action_builders_refuse_a_rational_angle():
    message = r"^rotation angles must be irrational \(root2 part nonzero\)$"
    with pytest.raises(ValueError, match=message):
        rotation_action(Fraction(1, 2))
    with pytest.raises(ValueError, match=message):
        torus_action([ALPHA, 1])


@pytest.mark.parametrize(
    "args, message",
    [
        (("mean", 3), "unknown averaging scheme 'mean'"),
        ((sampling.CESARO_INTERVAL, 0), "scheme size must be positive"),
        ((sampling.BOX, -1), "scheme size must be positive"),
    ],
)
def test_an_averaging_scheme_refuses_an_unknown_kind_or_size(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        AveragingScheme(*args)


def test_specification_glue_refuses_orders_on_different_windows():
    other = ball(default_generators(zn(2)), 1)
    D = window_from_elements(zn(2), [])
    with pytest.raises(ValueError, match="^glue needs both orders on the same window$"):
        specification_glue(uniform_order(W2, 1), uniform_order(other, 2), [], D)


def test_glue_domain_error():
    m1 = uniform_order(W2, 1)
    m2 = uniform_order(W2, 2)
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(2, 0)])
    with pytest.raises(DomainNotCovered):
        specification_glue(m1, m2, [zn_element(0, 2)], D)


def test_realize_rotation_example_against_decimal_oracle():
    w = ball(default_generators(zn(1)), 2)
    m = realize(rotation_action(ALPHA), Fraction(0), w)
    ranks = m.ranks()
    by_rank = [w.element(i).payload[0] for i in sorted(range(5), key=ranks.__getitem__)]
    assert by_rank == [0, -2, 1, -1, 2]
    vals = {
        k: oracles.rotation_fraction_decimal(Fraction(0), k, -1, 1)
        for k in (-2, -1, 0, 1, 2)
    }
    assert by_rank == sorted(vals, key=vals.__getitem__)


def test_realize_singleton_and_bernoulli():
    w = window_from_elements(zn(1), [])
    m = realize(rotation_action(ALPHA), Fraction(1, 3), w)
    assert m.n == 1
    w7 = interval_window(-3, 4)
    mb = realize(bernoulli_action(1), 421, w7)
    assert is_total(mb)
    assert realize(bernoulli_action(1), 421, w7) == mb  # same point, same order
    for point in (Fraction(7, 2), 3.9, True):  # a Bernoulli point is an int seed, not 3 or 1
        with pytest.raises(ValueError, match="seed"):
            realize(bernoulli_action(1), point, w7)


def test_realize_matches_translated_point():
    # order at x of the shifted window equals order at shifted x: sanity of
    # exact value computation across integer parts
    act = rotation_action(ALPHA)
    w = interval_window(-5, 6)
    x = Fraction(3, 7)
    m = realize(act, x, w)
    assert is_total(m)
    vals = [
        oracles.rotation_fraction_decimal(x, g.payload[0], -1, 1) for g in w
    ]
    order = sorted(range(len(w)), key=lambda i: vals[i])
    ranks = m.ranks()
    assert order == sorted(range(len(w)), key=ranks.__getitem__)


def test_realize_bernoulli_rejects_equal_draws(monkeypatch):
    w = interval_window(-3, 4)
    u64_each = rng.u64_each
    # distinct draws order the sites; 1-bit draws must collide on 7 sites
    monkeypatch.setattr(rng, "u64_each", lambda *a: list(range(len(a[2]), 0, -1)))
    assert realize(bernoulli_action(1), 421, w).perm() == list(range(len(w)))[::-1]
    monkeypatch.setattr(rng, "u64_each", lambda *a: [v & 1 for v in u64_each(*a)])
    with pytest.raises(StabilizerCollision):
        realize(bernoulli_action(1), 421, w)


def test_projective_samplers_draw_the_order_of_their_keys():
    wz = interval_window(-20, 21)
    rot = rotation_action(ALPHA)
    tor = torus_action([ALPHA, Sqrt2Num.of(Fraction(1, 3), 2)])
    point = (Fraction(1, 7), Fraction(2, 5))
    torus = sampling.ProjectiveSampler(
        W2, lambda ps: lambda s: sampling.orbit_keys(tor, point, W2.group, ps)
    )
    drawn = {
        "uniform": lambda s: uniform_order(W2, s),
        "rotation": lambda s: realize(rot, rng.unit_fraction(s, "point"), wz),
        "torus": lambda s: realize(tor, point, W2),
    }
    samplers = {
        "uniform": sampling.uniform_sampler(W2),
        "rotation": sampling.rotation_sampler(rot, wz),
        "torus": torus,
    }
    for name, sampler in samplers.items():
        w = sampler.window
        for seed in (0, 1, 2**64 - 1):
            m = sampler(seed)
            assert m == drawn[name](seed)
            # keys of any elements order them as the drawn order does
            sub = [w.element(i) for i in range(0, len(w), 3)][::-1]
            keys = sampler.keys([g.payload for g in sub])(seed)
            pos = [w.position(x) for x in sub]
            for a in range(len(sub)):
                for b in range(len(sub)):
                    assert (keys[a] < keys[b]) == m.has(pos[a], pos[b])


def test_orbit_keys_checks_the_action():
    rot = rotation_action(ALPHA)
    with pytest.raises(ValueError, match="Z\\^1"):
        sampling.orbit_keys(rot, Fraction(1, 3), W2.group, [g.payload for g in W2])
    # the window's group decides, even when the window is empty
    empty = window_from_elements(zn(2), [])
    for w in (W2, empty):
        with pytest.raises(ValueError, match="Z\\^1"):
            realize(rot, Fraction(1, 3), w)
        with pytest.raises(ValueError, match="Z\\^1"):
            sampling.rotation_sampler(rot, w)
    w1 = interval_window(0, 3)
    with pytest.raises(ValueError, match="Bernoulli"):
        sampling.orbit_keys(bernoulli_action(1), 5, w1.group, [g.payload for g in w1])


def test_realize_torus_lexicographic():
    act = torus_action([ALPHA, Sqrt2Num.of(0, 2)])
    x = (Fraction(1, 5), Fraction(2, 5))
    m = realize(act, x, W2)
    assert is_total(m)
    # the exact values decide the lexicographic order
    w = window_from_elements(
        zn(2), [zn_element(a, b) for a in range(-6, 7) for b in range(-6, 7)]
    )
    exact = [
        tuple(
            oracles.frac(Sqrt2Num.of(xc) + alpha * k)
            for xc, alpha, k in zip(x, act.alphas, g.payload)
        )
        for g in w
    ]
    expected = sorted(range(len(w)), key=exact.__getitem__)
    # the circle rotation is the one-dimensional case of the same path
    rot, wz, xz = rotation_action(ALPHA), interval_window(-40, 41), Fraction(1, 5)
    exact_z = [oracles.frac(Sqrt2Num.of(xz) + ALPHA * g.payload[0]) for g in wz]
    expected_z = sorted(range(len(wz)), key=exact_z.__getitem__)
    assert realize(act, x, w).perm() == expected
    assert realize(rot, xz, wz).perm() == expected_z


def test_sparse_coordinates_take_the_key_path(monkeypatch):
    # hulls far wider than twice the number of values are sorted by keys,
    # which must order them as the exact values do
    def no_walk(*args):
        raise AssertionError("a sparse value set took the hull walk")

    act = torus_action([ALPHA, Sqrt2Num.of(Fraction(-5, 3), 2)])
    x = (Fraction(1, 5), Sqrt2Num.of(Fraction(2, 5), Fraction(-1, 7)))
    w = window_from_elements(
        zn(2), [zn_element(7 * a, 10**12 * (b % 2) + 5 * b) for a in range(-6, 7) for b in range(-6, 7)]
    )
    exact = [
        tuple(oracles.frac(alpha * k + xc) for xc, alpha, k in zip(x, act.alphas, g.payload)) for g in w
    ]
    expected = sorted(range(len(w)), key=exact.__getitem__)
    rot, xz = rotation_action(ALPHA), Fraction(1, 5)
    wz = window_from_elements(zn(1), [zn_element(3 * k) for k in range(-40, 41)])
    exact_z = [oracles.frac(Sqrt2Num.of(xz) + ALPHA * g.payload[0]) for g in wz]
    expected_z = sorted(range(len(wz)), key=exact_z.__getitem__)
    monkeypatch.setattr(sampling, "_hull_walk", no_walk)
    assert realize(act, x, w).perm() == expected
    assert realize(rot, xz, wz).perm() == expected_z


def test_orbit_values_closer_than_2_to_the_minus_64_are_ordered_exactly():
    # frac(1/3 - k * 2^-70 * sqrt2) falls with k, and all four values share
    # one 64-bit cell: 64-bit keys alone would tie them all
    alpha, x, ks = Sqrt2Num.of(0, Fraction(-1, 2**70)), Sqrt2Num.of(Fraction(1, 3)), [0, 1, 2, 7]
    values = [x + alpha * k for k in ks]
    assert len({v.scaled_floor(64) for v in values}) == 1
    assert all(v.floor() == 0 for v in values)
    assert sampling._circle_order(x, alpha, ks) == oracles.circle_order_reference(x, alpha, ks)
    assert sampling._circle_order(x, alpha, ks) == [3, 2, 1, 0]


def test_the_switch_rule_between_walk_and_sort(monkeypatch):
    calls = []
    for name in ("_hull_walk", "_circle_order"):
        real = getattr(sampling, name)
        monkeypatch.setattr(sampling, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    # the hull [lo, hi] is walked while hi - lo + 1 <= 2 * (number of values)
    for values, path in (
        ([0, 1, 3, 5], "_hull_walk"),  # hull 6, 4 values
        ([0, 1, 5], "_hull_walk"),  # hull 6, 3 values
        ([0, 1, 6], "_circle_order"),  # hull 7, 3 values
        ([0, 10**12], "_circle_order"),
        ([-(10**12)], "_hull_walk"),
    ):
        calls.clear()
        rot, payloads = rotation_action(ALPHA), [(v,) for v in values]
        keys = sampling.orbit_keys(rot, Fraction(1, 3), zn(1), payloads)
        assert calls == [path]
        assert keys == oracles.orbit_keys(rot, Fraction(1, 3), [zn_element(v) for v in values])


def _fractions(bound, den):
    return st.builds(Fraction, st.integers(-bound * den, bound * den), st.integers(1, den))


# angles with negative parts and rational parts beyond 1; points with a
# 2^64 denominator (as the rotation sampler draws them) or with sqrt2 parts
CIRCLE_ANGLES = st.builds(Sqrt2Num.of, _fractions(7, 40), _fractions(3, 40).filter(bool))
CIRCLE_POINTS = st.one_of(
    st.integers(0, (1 << 64) - 1).map(lambda v: Sqrt2Num.of(Fraction(v, 1 << 64))),
    st.builds(Sqrt2Num.of, _fractions(3, 50), _fractions(2, 50)),
)
CIRCLE_OFFSETS = st.one_of(st.sampled_from([0, 10**12, -(10**12)]), st.integers(-300, 300))
CIRCLE_SIZES = st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 80))
SEEDS = st.integers(0, 2**32)


@st.composite
def circle_values(draw):
    """Sorted distinct values spanning a hull of 1 to 80 points, at offset
    0, +-10^12 or a small one, with any number of values or about half the
    hull (either side of the switch rule)."""
    lo, size = draw(CIRCLE_OFFSETS), draw(CIRCLE_SIZES)
    near_half = draw(st.sampled_from([None, -1, 0, 1]))
    rnd = random.Random(draw(SEEDS))
    count = rnd.randint(1, size) if near_half is None else (size + 1) // 2 + near_half
    inner = rnd.sample(range(1, size - 1), min(max(count - 2, 0), max(size - 2, 0)))
    return [lo + k for k in sorted({0, size - 1, *inner})]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(circle_values(), CIRCLE_ANGLES, CIRCLE_POINTS, SEEDS)
def test_walk_sort_and_exact_reference_give_one_circle_order(ks, alpha, x, seed):
    ref = oracles.circle_order_reference(x, alpha, ks)
    assert sampling._circle_order(x, alpha, ks) == ref
    lo, size = ks[0], ks[-1] - ks[0] + 1
    position = {k - lo: i for i, k in enumerate(ks)}
    hull = sampling._circle_sorter(alpha, list(range(lo, lo + size)))(x)
    walked = [position[j] for j in hull if j in position]
    assert walked == ref
    # either path of orbit_keys ranks a shuffled column with repeats alike
    rnd = random.Random(seed)
    col = ks + rnd.sample(ks, len(ks) // 2)
    rnd.shuffle(col)
    rank = {ks[i]: r for r, i in enumerate(ref)}
    base, ranks = sampling._circle_ranker(alpha, col)
    assert (base, ranks(x)) == (len(ks), [rank[k] for k in col])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data(), CIRCLE_ANGLES, CIRCLE_POINTS)
def test_realize_moves_with_the_rotation(data, alpha, x):
    # frac((x + alpha) + k*alpha) = frac(x + (k + 1)*alpha): the order at
    # x + alpha on W is the order at x on W + 1, moved back by one; windows
    # dense in their hull take the walk, sparse ones the sort
    spread = data.draw(st.sampled_from([30, 10**6]))
    ks = data.draw(st.lists(st.integers(-spread, spread), max_size=40))
    w = window_from_elements(zn(1), [zn_element(k) for k in [-1, *ks]])
    moved = Window(zn(1), [(k + 1,) for k, in w.payloads])
    act = rotation_action(alpha)
    assert realize(act, x + alpha, w).perm() == realize(act, x, moved).perm()


def test_an_orbit_value_on_zero_comes_first():
    # frac(x + k0*alpha) == 0 exactly: the cut lands on k0 itself
    ks = list(range(-10, 11))
    for alpha in (ALPHA, Sqrt2Num.of(Fraction(-9, 4), Fraction(2, 3))):
        for k0 in (-10, -7, 0, 5, 10):
            x = 2 - alpha * k0
            ref = oracles.circle_order_reference(x, alpha, ks)
            assert ks[ref[0]] == k0
            assert sampling._circle_sorter(alpha, ks)(x) == ref == sampling._circle_order(x, alpha, ks)


# dense Z value sets, listed out of order: the full hull, a hull with holes
# (41 of 61 values) and a half-dense one (21 of 41, the walk's limit)
DENSE_SETS = {
    "full": [*range(0, 21), *range(-20, 0)],
    "gapped": [k for k in range(30, -31, -1) if k % 3],
    "half": list(range(-20, 21, 2))[::-1],
}


def _hull_reference(x, alpha, ks):
    """The positions of ks in the order of the walk cut for x alone."""
    lo, hi = min(ks), max(ks)
    position = {k - lo: i for i, k in enumerate(ks)}
    return [position[j] for j in oracles.hull_order(x, alpha, lo, hi - lo + 1) if j in position]


def test_the_walk_built_once_cuts_at_x_zero_and_at_orbit_points():
    for alpha in (ALPHA, Sqrt2Num.of(Fraction(-9, 4), Fraction(2, 3))):
        for name, ks in DENSE_SETS.items():
            sorter = sampling._circle_sorter(alpha, ks)
            lo, hi = min(ks), max(ks)
            # x on the orbit point of a value, of a hole and of each end
            points = [Sqrt2Num.of(0)] + [2 - alpha * k0 for k0 in (lo, hi, ks[5], lo + 1, 0)]
            for x in points:
                assert sorter(x) == _hull_reference(x, alpha, ks), (name, x)
                assert sorter(x) == oracles.circle_order_reference(x, alpha, ks), (name, x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(CIRCLE_ANGLES, st.lists(CIRCLE_POINTS, min_size=1, max_size=4))
def test_the_walk_built_once_cuts_as_the_walk_built_per_point(alpha, xs):
    for ks in DENSE_SETS.values():
        sorter = sampling._circle_sorter(alpha, ks)
        for x in xs:
            assert sorter(x) == _hull_reference(x, alpha, ks)


def test_rotation_sampler_refuses_a_torus_action():
    w1, w2 = interval_window(-3, 4), W2
    for action, w in ((torus_action([ALPHA]), w1), (torus_action([ALPHA, ALPHA]), w2)):
        with pytest.raises(ValueError, match="torus_rotation"):
            sampling.rotation_sampler(action, w)


def test_rotation_sampler_refuses_a_bernoulli_action():
    for dim, w in ((1, interval_window(-3, 4)), (2, W2)):
        with pytest.raises(ValueError, match="bernoulli_shift"):
            sampling.rotation_sampler(bernoulli_action(dim), w)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_sample_seeds_are_the_derived_seeds(seed):
    chunk = sampling.SEED_CHUNK
    for n in (0, 1, chunk - 1, chunk, chunk + 1):
        assert list(sampling.sample_seeds(seed, n)) == [rng.derive_seed(seed, "sample", i) for i in range(n)]


def test_bound_keys_equal_the_keys_of_each_seed():
    # one binding serves every seed, and gives each seed the keys of the
    # element-keyed references
    wz = interval_window(-8, 9)
    rot = rotation_action(ALPHA)
    inner_w = window_from_elements(zn(2), [zn_element(k, 0) for k in range(-2, 3)])
    inner = lex_functional(2).window_order(inner_w)
    member = lambda g: g.payload[1] == 0
    coset_rows = oracles.coset_inner_ranks(W2, member, inner)

    def coset_reference(seed, elements):
        rows = [coset_rows[W2.position(g)] for g in elements]
        return [(rng.u64(seed, "coset", oracles.element_key(r), 0), oracles.element_key(r), rank)
                for r, rank in rows]

    cases = [
        (sampling.uniform_sampler(W2), oracles.uniform_keys),
        (sampling.rotation_sampler(rot, wz),
         lambda s, els: oracles.orbit_keys(rot, rng.unit_fraction(s, "point"), els)),
        (coset_sampler(W2, member, inner), coset_reference),
    ]
    for sampler, reference in cases:
        w = sampler.window
        for elements in (list(w), [w.element(i) for i in (4, 0, 4, len(w) - 1)]):
            keys_of = sampler.keys([g.payload for g in elements])
            for seed in (0, 1, 7, 2**64 - 1):
                assert keys_of(seed) == reference(seed, elements)


def test_reconstruct_examples():
    w = interval_window(0, 4)
    m = realize(rotation_action(ALPHA), Fraction(3, 10), w)
    assert reconstruct(m, cesaro(1)) == 0
    est = reconstruct(m, cesaro(4))
    assert 0 <= est <= 1
    with pytest.raises(DomainNotCovered):
        reconstruct(m, cesaro(10))


def test_reconstruct_depends_only_on_order():
    w = interval_window(0, 16)
    m = realize(rotation_action(ALPHA), Fraction(1, 3), w)
    relabeled = OrderMatrix.from_ranks(w, m.ranks())
    for n in (1, 4, 16):
        assert reconstruct(m, cesaro(n)) == reconstruct(relabeled, cesaro(n))


def test_reconstruct_box_scheme():
    m = realize(torus_action([ALPHA, Sqrt2Num.of(0, 3)]), (Fraction(1, 3), Fraction(1, 7)), W2)
    est = reconstruct(m, box(1))
    assert est == 0  # support {origin} only


def test_rotation_error_bound():
    act = rotation_action(ALPHA)
    n = 1000
    w = interval_window(0, n)
    bound = 10 * math.log(n) / n
    for i in range(20):
        x = unit_fraction(1000 + i, "x")
        m = realize(act, x, w)
        est = reconstruct(m, cesaro(n))
        assert abs(est - x) < bound


def test_stabilizer_checks():
    lex = lex_functional(2).window_order(W2)
    gens = default_generators(zn(2))
    assert stabilizer_check(lex, W2, gens) == gens.generators
    exceptions = 0
    w = ball(default_generators(zn(2)), 3)
    for seed in range(200):
        m = uniform_order(w, seed)
        if stabilizer_check(m, w, gens):
            exceptions += 1
    assert exceptions == 0


def test_uniform_translation_invariance_cylinder_frequencies():
    # each ranking of a 3-set under the translated samples stays within
    # 4 sigma of 1/6 over N = 10000 draws
    from grouporders.orders import translate_order
    from grouporders.stats import permutation_rank, ranking_of

    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0), zn_element(0, 1)])
    g = zn_element(1, 0)
    n = 10_000
    counts = [0] * 6
    for s in range(n):
        m = uniform_order(W2, s)
        counts[permutation_rank(ranking_of(translate_order(m, g), D))] += 1
    p = 1 / 6
    se = math.sqrt(p * (1 - p) / n)
    for c in counts:
        assert abs(c / n - p) < 4 * se


def test_coset_sampler_reports_only_a_non_total_inner_order(monkeypatch):
    member = lambda g: g.payload[0] == 0
    with pytest.raises(InnerOrderIncomplete):
        coset_sampler(W2, member, OrderMatrix.from_pairs(W2, [], closed=True))
    # any other failure while ranking the inner order is not an input error
    monkeypatch.setattr(OrderMatrix, "ranks", lambda self: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        coset_sampler(W2, member, uniform_order(W2, 1))
