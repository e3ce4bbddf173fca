import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import (
    HEISENBERG,
    SL3Z,
    DomainNotCovered,
    ElementNotInWindow,
    GeneratorSet,
    GroupElement,
    GroupId,
    GroupMismatch,
    IntegerOverflow,
    SizeLimitExceeded,
    ball,
    commutator,
    default_generators,
    heisenberg_element,
    identity,
    inverse,
    make_element,
    multiply,
    power,
    sl3_unipotent,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders.groups import INT64_MAX, INT64_MIN, Window, interval_window

X = heisenberg_element(1, 0, 0)
Y = heisenberg_element(0, 1, 0)
Z = heisenberg_element(0, 0, 1)
A = {i: sl3_unipotent(i) for i in range(1, 7)}


def cyc(i):
    return ((i - 1) % 6) + 1


def test_identities():
    assert identity(zn(2)).payload == (0, 0)
    assert identity(HEISENBERG).payload == (0, 0, 0)
    assert identity(SL3Z).payload == (1, 0, 0, 0, 1, 0, 0, 0, 1)


def test_multiply_examples_against_matrix_oracle():
    prod = multiply(X, Y)
    assert prod.payload == (1, 1, 1)
    assert oracles.heis_to_matrix(prod.payload) == oracles.mat_mul(
        oracles.heis_to_matrix(X.payload), oracles.heis_to_matrix(Y.payload)
    )
    assert multiply(zn_element(1, 2), zn_element(3, -1)).payload == (4, 1)
    m = multiply(A[6], A[2])
    assert m.payload == oracles.mat_mul(A[6].payload, A[2].payload)
    assert m.payload == (1, 0, 1, 0, 1, 0, 0, 1, 1)


def test_inverse_examples():
    g = heisenberg_element(1, 1, 1)
    assert inverse(g).payload == (-1, -1, 0)
    assert multiply(g, inverse(g)) == identity(HEISENBERG)
    assert inverse(zn_element(4, 1)).payload == (-4, -1)
    a1inv = inverse(A[1])
    assert multiply(A[1], a1inv) == identity(SL3Z)
    assert a1inv.payload == (1, -1, 0, 0, 1, 0, 0, 0, 1)


def test_commutator_examples():
    assert commutator(X, Y) == Z
    assert commutator(power(X, 2), power(Y, 3)) == power(Z, 6)
    assert commutator(A[2], A[6]) == A[1]


def test_heisenberg_commutator_grid():
    for k in range(-20, 21):
        for l in range(-20, 21):
            assert commutator(power(X, k), power(Y, l)) == power(Z, k * l)


def test_power_examples():
    a15 = power(A[1], 5)
    assert a15.payload == oracles.mat_pow(A[1].payload, 5)
    assert a15.payload[1] == 5
    assert power(A[3], 0) == identity(SL3Z)
    assert power(heisenberg_element(1, 1, 0), 2).payload == (2, 2, 1)
    assert power(A[4], -3).payload == oracles.mat_pow(A[4].payload, -3)


def test_associativity_spot_check():
    rnd = random.Random(101)
    for group, make in (
        (zn(3), lambda: zn_element(*(rnd.randint(-5, 5) for _ in range(3)))),
        (HEISENBERG, lambda: heisenberg_element(*(rnd.randint(-5, 5) for _ in range(3)))),
    ):
        for _ in range(1000):
            g, h, k = make(), make(), make()
            assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))
    # SL3: random short words in the generators stay in the group
    gens = [A[i] for i in range(1, 7)] + [inverse(A[i]) for i in range(1, 7)]
    for _ in range(1000):
        g, h, k = (rnd.choice(gens) for _ in range(3))
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))


def test_heisenberg_matrix_agreement():
    rnd = random.Random(7)
    for _ in range(1000):
        t1 = tuple(rnd.randint(-10, 10) for _ in range(3))
        t2 = tuple(rnd.randint(-10, 10) for _ in range(3))
        prod = multiply(heisenberg_element(*t1), heisenberg_element(*t2))
        assert oracles.heis_to_matrix(prod.payload) == oracles.mat_mul(
            oracles.heis_to_matrix(t1), oracles.heis_to_matrix(t2)
        )


def test_sheared_cone_product_form():
    rnd = random.Random(11)
    for _ in range(200):
        Ab, Bb, Cb = (rnd.randint(-8, 8) for _ in range(3))
        a, b, c = (rnd.randint(0, 8) for _ in range(3))
        prod = multiply(heisenberg_element(Ab, Bb, Cb), heisenberg_element(a, b, c))
        assert prod.payload == (Ab + a, Bb + b, Cb + c + Ab * b)


def test_hexagon_adjacent_generators_commute():
    for i in range(1, 7):
        assert commutator(A[i], A[cyc(i + 1)]) == identity(SL3Z)


def test_hexagon_orientation_alternates():
    # [a_{i-1}, a_{i+1}] is a_i for even i and a_i^-1 for odd i; the
    # orientation is a fact of the matrices, not of any convention.
    for i in range(1, 7):
        c = commutator(A[cyc(i - 1)], A[cyc(i + 1)])
        expected = A[i] if i % 2 == 0 else inverse(A[i])
        assert c == expected
        assert c.payload == oracles.mat_mul(
            oracles.mat_mul(A[cyc(i - 1)].payload, A[cyc(i + 1)].payload),
            oracles.mat_mul(
                oracles.mat_inv(A[cyc(i - 1)].payload),
                oracles.mat_inv(A[cyc(i + 1)].payload),
            ),
        )


def test_unipotent_shift_identity_orientation():
    # a_i^-k a_{i+1}^(Mk) a_{i+2}^q a_i^k equals a_{i+1}^((M -/+ q)k) a_{i+2}^q,
    # with the minus sign exactly for odd i.
    for i in range(1, 7):
        for k in range(1, 7):
            for M in range(1, 4):
                for q in range(1, 7):
                    lhs = multiply(
                        multiply(
                            multiply(power(A[i], -k), power(A[cyc(i + 1)], M * k)),
                            power(A[cyc(i + 2)], q),
                        ),
                        power(A[i], k),
                    )
                    sign = -1 if i % 2 == 1 else 1
                    rhs = multiply(
                        power(A[cyc(i + 1)], (M + sign * q) * k),
                        power(A[cyc(i + 2)], q),
                    )
                    assert lhs == rhs


def test_conjugation_push_identity_orientation():
    # a_{i-1}^-2 a_{i+1}^-n = a_i^(±2n) a_{i+1}^-n a_{i-1}^-2, plus for even i.
    for i in range(1, 7):
        for n in range(1, 6):
            lhs = multiply(power(A[cyc(i - 1)], -2), power(A[cyc(i + 1)], -n))
            sign = 1 if i % 2 == 0 else -1
            rhs = multiply(
                multiply(power(A[i], sign * 2 * n), power(A[cyc(i + 1)], -n)),
                power(A[cyc(i - 1)], -2),
            )
            assert lhs == rhs


def test_group_mismatch_and_overflow():
    with pytest.raises(GroupMismatch):
        multiply(X, zn_element(1))
    big = zn_element(1 << 62)
    with pytest.raises(IntegerOverflow):
        multiply(multiply(big, big), multiply(big, big))
    with pytest.raises(IntegerOverflow):
        power(heisenberg_element(1 << 32, 1 << 32, 0), 2)


def test_sl3_constructor_checks_determinant():
    with pytest.raises(ValueError):
        make_element(SL3Z, (1, 0, 0, 0, 1, 0, 0, 0, 2))


def test_make_element_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        make_element(zn(1), [3.7])
    with pytest.raises(TypeError):
        make_element(zn(2), ["4", 1])
    with pytest.raises(TypeError):
        make_element(zn(1), [2.0])  # an integral float is still not an int
    assert make_element(zn(2), [-4, 1 << 40]).payload == (-4, 1 << 40)


def test_ball_sizes_against_enumeration_oracle():
    gens2 = default_generators(zn(2))

    def zn_mul(p, q):
        return tuple(a + b for a, b in zip(p, q))

    steps = [g.payload for g in gens2.generators] + [
        inverse(g).payload for g in gens2.generators
    ]
    for radius, expected in ((0, 1), (1, 5), (2, 13), (3, 25)):
        w = ball(gens2, radius)
        oracle = oracles.enumerate_ball(zn_mul, (0, 0), steps, radius)
        assert len(w) == len(oracle) == expected
        assert {g.payload for g in w} == oracle

    heis_gens = default_generators(HEISENBERG)

    def heis_mul(p, q):
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    hsteps = [g.payload for g in heis_gens.generators] + [
        inverse(g).payload for g in heis_gens.generators
    ]
    for radius in (1, 2):
        w = ball(heis_gens, radius)
        assert {g.payload for g in w} == oracles.enumerate_ball(
            heis_mul, (0, 0, 0), hsteps, radius
        )


def test_ball_deterministic_and_monotone():
    gens = default_generators(zn(2))
    w2a = ball(gens, 2)
    w2b = ball(gens, 2)
    assert w2a.elements == w2b.elements
    w3 = ball(gens, 3)
    assert set(g.payload for g in w2a) <= set(g.payload for g in w3)
    with pytest.raises(SizeLimitExceeded):
        ball(gens, 5, size_limit=10)


def test_ball_counts_the_identity_against_the_cap():
    gens = default_generators(zn(1))
    assert len(ball(gens, 0, size_limit=1)) == 1
    for radius in (0, 1):
        with pytest.raises(SizeLimitExceeded, match="0-element cap"):
            ball(gens, radius, size_limit=0)


def test_window_lookup_checks_the_group():
    w = ball(default_generators(HEISENBERG), 1)
    x = heisenberg_element(1, 0, 0)
    z3 = make_element(zn(3), [1, 0, 0])  # same payload, another group
    assert x in w and z3 not in w
    assert w.find(z3) is None
    with pytest.raises(ElementNotInWindow):
        w.position(z3)
    # an equal group object that is not the window's own still matches
    assert w.find(GroupElement(GroupId("heis"), (1, 0, 0))) == w.position(x)
    assert w.positions([x, identity(HEISENBERG)]) == [w.position(x), 0]
    with pytest.raises(DomainNotCovered, match="not in window"):
        w.positions([x, z3], DomainNotCovered)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(zn(2), (identity(zn(2)),))
    with pytest.raises(ValueError):
        GeneratorSet(zn(2), (zn_element(1, 0), zn_element(1, 0)))
    with pytest.raises(ValueError):
        GeneratorSet(zn(2), (zn_element(1, 0),), symmetric=True)
    GeneratorSet(zn(2), (zn_element(1, 0), zn_element(-1, 0)), symmetric=True)
    with pytest.raises(TypeError, match="true or false"):
        GeneratorSet(zn(2), (zn_element(1, 0),), symmetric="false")


# -- straight-line arithmetic against the entry-by-entry checked reference --

ENTRIES = st.one_of(
    st.integers(-4, 4),
    st.integers(INT64_MIN, INT64_MAX),
    st.integers(INT64_MAX - 3, INT64_MAX),
    st.integers(INT64_MIN, INT64_MIN + 3),
    st.integers(3_037_000_490, 3_037_000_510),  # squares near 2^63
    st.integers(-3_037_000_510, -3_037_000_490),
)


@st.composite
def _zn_pairs(draw):
    n = draw(st.integers(1, 4))
    p, q = (tuple(draw(st.lists(ENTRIES, min_size=n, max_size=n))) for _ in range(2))
    return GroupElement(zn(n), p), GroupElement(zn(n), q)


@st.composite
def _heis_pairs(draw):
    p, q = (tuple(draw(st.lists(ENTRIES, min_size=3, max_size=3))) for _ in range(2))
    return GroupElement(HEISENBERG, p), GroupElement(HEISENBERG, q)


@st.composite
def _sl3_elements(draw):
    """A product of elementary unipotents E_rc(k); a factor that would take
    an entry out of the 64-bit range is left out, so the determinant is 1
    and every entry fits."""
    p = oracles.IDENTITY3
    off_diagonal = st.sampled_from((1, 2, 3, 5, 6, 7))
    for at, k in draw(st.lists(st.tuples(off_diagonal, ENTRIES), max_size=5)):
        e = list(oracles.IDENTITY3)
        e[at] = k
        q = oracles.mat_mul(p, tuple(e))
        if all(INT64_MIN <= v <= INT64_MAX for v in q):
            p = q
    return GroupElement(SL3Z, p)


_PAIRS = st.one_of(_zn_pairs(), _heis_pairs(), st.tuples(_sl3_elements(), _sl3_elements()))


def _same_as_reference(call, reference):
    """call() gives the element whose payload reference() computes, or
    raises IntegerOverflow with the same message."""
    try:
        want = reference()
    except IntegerOverflow as err:
        with pytest.raises(IntegerOverflow) as got:
            call()
        assert str(got.value) == str(err)
    else:
        assert call().payload == want


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pair=_PAIRS)
def test_multiply_and_inverse_match_checked_reference(pair):
    g, h = pair
    kind = g.group.kind
    _same_as_reference(
        lambda: multiply(g, h), lambda: oracles.checked_multiply(kind, g.payload, h.payload)
    )
    for x in (g, h):
        _same_as_reference(lambda: inverse(x), lambda: oracles.checked_inverse(kind, x.payload))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair=_PAIRS, k=st.one_of(st.integers(-3, 3), st.integers(-70, 70)))
def test_power_matches_checked_reference(pair, k):
    g = pair[0]
    e = identity(g.group).payload
    _same_as_reference(
        lambda: power(g, k), lambda: oracles.checked_power(g.group.kind, e, g.payload, k)
    )


def test_fast_paths_accept_an_equal_group_object():
    twin = GroupId("zn", 2)  # equal to zn(2), not the same object
    assert twin == zn(2) and twin is not zn(2)
    a, b = make_element(twin, [1, 2]), zn_element(3, 4)
    assert multiply(a, b).payload == multiply(b, a).payload == (4, 6)
    w = window_from_elements(zn(2), [a])
    assert w.position(GroupElement(zn(2), (1, 2))) == 1
    assert Window(twin, [(0, 0)]).find(identity(twin)) == 0
    # another group, even with the same payload length, is still refused
    with pytest.raises(GroupMismatch, match="heis vs zn:3"):
        multiply(X, zn_element(1, 2, 3))
    with pytest.raises(GroupMismatch, match="zn:2 vs zn:3"):
        multiply(a, zn_element(1, 2, 3))
    with pytest.raises(GroupMismatch):
        window_from_elements(zn(3), [identity(zn(3)), X])


def test_window_takes_payload_rows_and_checks_each_one():
    e = identity(zn(2))
    # a GroupElement is not a payload row, so its payload is never
    # left unchecked (the short one here could not be read back)
    with pytest.raises(TypeError):
        Window(zn(2), [e, GroupElement(zn(2), (1,))])
    with pytest.raises(TypeError):
        Window(zn(2), [e, zn_element(1, 2)])
    with pytest.raises(ValueError, match="zn:2 payload needs 2 entries"):
        Window(zn(2), [(0, 0), (1,)])
    with pytest.raises(IntegerOverflow):
        Window(zn(1), [(0,), (2**70,)])
    with pytest.raises(ValueError, match="determinant 1"):
        Window(SL3Z, [identity(SL3Z).payload, (2, 0, 0, 0, 1, 0, 0, 0, 1)])
    w = Window(zn(2), [(1, 2), [0, 0]])
    assert w.payloads == ((1, 2), (0, 0)) and w.element(0) == zn_element(1, 2)


def test_overflow_names_the_first_entry_out_of_range():
    with pytest.raises(IntegerOverflow, match=f"^entry {-INT64_MIN} leaves"):
        inverse(make_element(zn(1), [INT64_MIN]))
    big = 1 << 62
    # upper unitriangular: the product's entries 1 and 2 both leave the
    # range, entry 0 stays 1; the message names entry 1
    g = make_element(SL3Z, [1, big, -big - 1, 0, 1, 0, 0, 0, 1])
    with pytest.raises(IntegerOverflow, match=f"^entry {2 * big} leaves"):
        multiply(g, g)
    # only entry 2 leaves the range, below INT64_MIN
    h = make_element(SL3Z, [1, 0, -big - 1, 0, 1, 0, 0, 0, 1])
    with pytest.raises(IntegerOverflow, match=f"^entry {-2 * big - 2} leaves"):
        multiply(h, h)
    with pytest.raises(IntegerOverflow, match=f"^entry {INT64_MAX + 1} leaves"):
        inverse(make_element(SL3Z, [1, 1, INT64_MIN + 1, 0, 1, 1, 0, 0, 1]))


def test_preimages_are_window_positions_of_the_translates():
    w = interval_window(-3, 4)
    g = zn_element(2)
    assert w.preimages(g, w) == [None, None, 0, 1, 2, 3, 4]
    assert w.preimages(g, [zn_element(5), zn_element(9)]) == [6, None]
    with pytest.raises(GroupMismatch):
        w.preimages(X, w)
