import random

import pytest

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
    window_closure,
    window_from_elements,
    zn,
    zn_element,
)

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


def test_window_closure_examples():
    w0 = window_from_elements(SL3Z, [])
    assert len(window_closure(w0, [A[1]])) == 2
    w1 = ball(default_generators(zn(2)), 1)
    w1c = window_closure(w1, [zn_element(1, 0)])
    assert len(w1c) == 8
    assert {g.payload for g in w1c} - {g.payload for g in w1} == {
        (2, 0),
        (1, 1),
        (1, -1),
    }
    assert window_closure(w1, []) == w1
    # original element order is preserved as a prefix
    assert w1c.elements[: len(w1)] == w1.elements


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(zn(2), (identity(zn(2)),))
    with pytest.raises(ValueError):
        GeneratorSet(zn(2), (zn_element(1, 0), zn_element(1, 0)))
    with pytest.raises(ValueError):
        GeneratorSet(zn(2), (zn_element(1, 0),), symmetric=True)
    GeneratorSet(zn(2), (zn_element(1, 0), zn_element(-1, 0)), symmetric=True)
