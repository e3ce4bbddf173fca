import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from grouporders import (
    Comparison,
    ConstraintSystem,
    LinearFunctionalOrder,
    SemigroupSpec,
    Sqrt2Num,
    ball,
    build_extension_system,
    cone_contains,
    default_generators,
    extends_quadrant,
    heisenberg_positive_order,
    identity,
    is_total,
    lex_functional,
    multiply,
    quadrant_order,
    sl3_positive_order,
    sl3_unipotent,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders.constraints import invariance_atoms
from grouporders.errors import GroupMismatch, IntegerOverflow
from grouporders.groups import HEISENBERG, INT64_MAX, INT64_MIN, SL3Z, Window, make_element


def test_quadrant_order_generators():
    assert [g.payload for g in quadrant_order(2).positive_generators] == [
        (1, 0),
        (0, 1),
    ]
    assert [g.payload for g in quadrant_order(1).positive_generators] == [(1,)]
    assert len(quadrant_order(3).positive_generators) == 3


def test_sl3_positive_order():
    spec = sl3_positive_order()
    assert len(spec.positive_generators) == 6
    assert spec.positive_generators[0].payload[1] == 1  # entry (1,2) of a_1
    assert identity(spec.group) not in spec.positive_generators
    assert not cone_contains(spec, identity(spec.group))
    assert cone_contains(spec, multiply(sl3_unipotent(1), sl3_unipotent(4)))


def test_heisenberg_positive_order():
    spec = heisenberg_positive_order()
    assert [g.payload for g in spec.positive_generators] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    assert not cone_contains(spec, identity(HEISENBERG))


def test_identity_exclusion_check():
    with pytest.raises(ValueError):
        SemigroupSpec(zn(1), (zn_element(1), zn_element(-1)))
    with pytest.raises(ValueError):
        SemigroupSpec(zn(1), (identity(zn(1)),))


def test_build_extension_system_ball1():
    w = ball(default_generators(zn(2)), 1)
    cs = build_extension_system(w, quadrant_order(2))
    named = {
        (w.element(i).payload, w.element(j).payload) for i, j in cs.atoms
    }
    assert named == {
        ((0, 0), (1, 0)),
        ((0, 0), (0, 1)),
        ((-1, 0), (0, 0)),
        ((0, -1), (0, 0)),
    }


def test_build_extension_system_trivial_and_dedup():
    w = window_from_elements(zn(2), [])
    assert build_extension_system(w, quadrant_order(2)).atoms == ()
    w1 = ball(default_generators(zn(2)), 1)
    e, ex = zn_element(0, 0), zn_element(1, 0)
    cs = build_extension_system(w1, quadrant_order(2), [(e, ex)])
    assert len(cs.atoms) == 4  # duplicate of a rule is absorbed


def test_atoms_are_pairs_of_int_indices():
    w = window_from_elements(zn(1), [zn_element(1)])
    assert ConstraintSystem(w, ((0, 1),)).atoms == ((0, 1),)
    for atom in ((True, False), (0, True), (0, 1.0), (0, 2), (1, 1)):
        with pytest.raises(ValueError, match="invalid atom"):
            ConstraintSystem(w, (atom,))


def test_extension_system_invariant_under_reordering():
    w = ball(default_generators(zn(2)), 1)
    permuted = Window(zn(2), [w.payloads[i] for i in (2, 0, 4, 1, 3)])
    cs1 = build_extension_system(w, quadrant_order(2))
    cs2 = build_extension_system(permuted, quadrant_order(2))
    named1 = {(w.element(i).payload, w.element(j).payload) for i, j in cs1.atoms}
    named2 = {
        (permuted.element(i).payload, permuted.element(j).payload)
        for i, j in cs2.atoms
    }
    assert named1 == named2


def test_functional_compare_examples():
    lex = LinearFunctionalOrder.of(
        (1, 0), LinearFunctionalOrder.of((0, 1))
    )
    assert lex.compare(zn_element(0, 5), zn_element(1, -100)) is Comparison.LESS
    f = LinearFunctionalOrder.of((1, Sqrt2Num.of(0, 1)))
    assert f.compare(zn_element(1, 0), zn_element(0, 1)) is Comparison.LESS  # 1 < sqrt2
    with pytest.raises(ValueError):
        f.compare(zn_element(1, 0), zn_element(1, 0))


def test_extends_quadrant():
    assert extends_quadrant(lex_functional(2))
    rev = LinearFunctionalOrder.of((-1, 0), LinearFunctionalOrder.of((0, -1)))
    assert not extends_quadrant(rev)
    diag = LinearFunctionalOrder.of((1, 1), lex_functional(2))
    assert extends_quadrant(diag)


def test_functional_orders_are_total_and_consistent():
    w = ball(default_generators(zn(2)), 2)
    rnd = random.Random(2)
    for _ in range(20):
        coeffs = (
            Sqrt2Num.of(rnd.randint(-3, 3), rnd.randint(-3, 3)),
            Sqrt2Num.of(rnd.randint(-3, 3), rnd.randint(-3, 3)),
        )
        f = LinearFunctionalOrder.of(coeffs)
        m = f.window_order(w)
        assert is_total(m) and m.closed
        assert oracles.closure_rows(len(w), m.pairs()) == m.rows()


def test_functional_left_invariance():
    w = ball(default_generators(zn(2)), 2)
    f = LinearFunctionalOrder.of((Sqrt2Num.of(1, 1), Sqrt2Num.of(2, 0)))
    shift = zn_element(3, -2)
    for x in w:
        for y in w:
            if x.payload == y.payload:
                continue
            assert f.compare(x, y) == f.compare(multiply(x, shift), multiply(y, shift))


def test_extends_quadrant_matches_atom_satisfaction():
    rnd = random.Random(8)
    w = ball(default_generators(zn(2)), 2)
    cs = build_extension_system(w, quadrant_order(2))
    for _ in range(30):
        f = LinearFunctionalOrder.of(
            (
                Sqrt2Num.of(rnd.randint(-2, 2), rnd.randint(-2, 2)),
                Sqrt2Num.of(rnd.randint(-2, 2), rnd.randint(-2, 2)),
            ),
            lex_functional(2),
        )
        ranks = f.window_order(w).ranks()
        satisfies = all(ranks[i] < ranks[j] for i, j in cs.atoms)
        assert satisfies == extends_quadrant(f)


COEFFICIENTS = st.one_of(
    st.just(Sqrt2Num.of(0)),
    st.builds(Sqrt2Num.of, st.fractions(-2, 2, max_denominator=2)),
    st.builds(Sqrt2Num.of, st.integers(-2, 2), st.integers(-2, 2)),
)


@st.composite
def functional_windows(draw):
    """A cascade 1-3 deep on Z^1..Z^3 with zero, rational and sqrt(2)
    coefficients, and a window of small points, so that values tie."""
    d = draw(st.integers(1, 3))
    f = None
    for _ in range(draw(st.integers(1, 3))):
        f = LinearFunctionalOrder.of(draw(st.lists(COEFFICIENTS, min_size=d, max_size=d)), f)
    points = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=30))
    return f, window_from_elements(zn(d), [zn_element(*p) for p in points])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(functional_windows(), st.data())
def test_functional_keys_match_the_sign_cascade(fw, data):
    f, w = fw
    assert f.window_order(w).perm() == oracles.cascade_perm(f, w)
    index = st.integers(0, len(w) - 1)
    for _ in range(5):
        x, y = w.element(data.draw(index)), w.element(data.draw(index))
        if x != y:
            assert f.compare(x, y) is oracles.cascade_compare(f, x, y)


CONES = {zn(2): quadrant_order(2), HEISENBERG: heisenberg_positive_order(), SL3Z: sl3_positive_order()}
RADII = {zn(2): 4, HEISENBERG: 3, SL3Z: 2}
CONE_BALLS = [ball(default_generators(g), r) for g in CONES for r in range(RADII[g] + 1)]
WIDE = st.one_of(st.integers(INT64_MIN, INT64_MIN + 2), st.integers(INT64_MAX - 2, INT64_MAX))


@st.composite
def cone_windows(draw):
    """A Z^2, Heisenberg or SL3 ball, or a shuffled sub-window of one (where
    many g*s leave the window), with a few elements whose entries sit at
    the ends of the 64-bit range (where g*s overflows)."""
    w = draw(st.sampled_from(CONE_BALLS))
    if draw(st.booleans()):
        return w
    group = w.group
    picked = draw(st.lists(st.sampled_from(w.payloads), unique=True, max_size=len(w)))
    rows = [identity(group).payload, *picked]
    for _ in range(draw(st.integers(0, 2))):
        if group == SL3Z:
            flat = [1, 0, 0, 0, 1, 0, 0, 0, 1]
            flat[draw(st.sampled_from([1, 2, 3, 5, 6, 7]))] = draw(WIDE)
            rows.append(make_element(group, flat).payload)
        else:
            size = len(identity(group).payload)
            rows.append(tuple(draw(st.lists(st.one_of(WIDE, st.integers(-2, 2)), min_size=size, max_size=size))))
    return Window(group, dict.fromkeys(rows))


def outcome(f, *args):
    """Return value of f, or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # compared against the reference
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cone_windows())
def test_invariance_atoms_match_the_brute_force(w):
    spec = CONES[w.group]
    assert outcome(invariance_atoms, w, spec) == outcome(oracles.invariance_atoms, w, spec)


def test_invariance_atoms_refuse_another_group_and_overflow():
    w = ball(default_generators(zn(2)), 2)
    with pytest.raises(GroupMismatch, match="^zn:2 vs heis$"):
        invariance_atoms(w, heisenberg_positive_order())
    with pytest.raises(GroupMismatch, match="^zn:2 vs zn:3$"):
        invariance_atoms(w, quadrant_order(3))
    edge = Window(zn(1), [(0,), (INT64_MAX,)])
    with pytest.raises(IntegerOverflow, match=f"^entry {INT64_MAX + 1} leaves the 64-bit range$"):
        invariance_atoms(edge, quadrant_order(1))
