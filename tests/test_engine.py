import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from grouporders import (
    HEISENBERG,
    Certificate,
    ConstraintSystem,
    OrderMatrix,
    SL3Instance,
    Window,
    ball,
    build_extension_system,
    build_sl3_instance,
    default_generators,
    interval_window,
    lex_functional,
    power,
    propagate_only,
    quadrant_order,
    sl3_positive_order,
    sl3_unipotent,
    solve,
    verify_certificate,
    zn,
)
from grouporders.engine import TraceStep, _propagate
from grouporders.serialize import canonical_dumps, certificate_to_json

A = {i: sl3_unipotent(i) for i in range(1, 7)}


def cyc(i):
    return ((i - 1) % 6) + 1


def random_system(rnd: random.Random, max_elems: int = 6) -> ConstraintSystem:
    n = rnd.randint(2, max_elems)
    w = interval_window(0, n)
    count = rnd.randint(0, 2 * n)
    atoms = set()
    for _ in range(count):
        i, j = rnd.randrange(n), rnd.randrange(n)
        if i != j:
            atoms.add((i, j))
    return ConstraintSystem(w, tuple(sorted(atoms)))


@st.composite
def pair_systems(draw):
    """Atoms oriented by a hidden permutation, plus a few random ones that
    may close cycles."""
    n = draw(st.integers(1, 40))
    hidden = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    atoms = {
        (i, j) if hidden[i] < hidden[j] else (j, i)
        for i, j in draw(st.lists(pair, max_size=3 * n))
        if i != j
    }
    atoms |= {(i, j) for i, j in draw(st.lists(pair, max_size=3)) if i != j}
    return ConstraintSystem(interval_window(0, n), tuple(sorted(atoms)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair_systems())
def test_solve_matches_closure_branching_reference(cs):
    cert = solve(cs)
    assert verify_certificate(cs, cert)
    expected = oracles.solve_by_closure_branching(len(cs.window), cs.atoms)
    if expected is None:
        assert cert.verdict == "unsat"
    else:
        assert cert.verdict == "sat" and cert.witness.ranks() == expected


@st.composite
def propagation_systems(draw):
    """Atoms in drawn order (the successor lists follow it): mostly oriented
    by a hidden permutation, so often inconclusive, plus a few random ones
    that may close 2-cycles among the atoms or longer ones in later rounds."""
    n = draw(st.integers(2, 12))
    hidden = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    atoms = [
        (i, j) if hidden[i] < hidden[j] else (j, i)
        for i, j in draw(st.lists(pair, max_size=3 * n))
        if i != j
    ]
    atoms += [(i, j) for i, j in draw(st.lists(pair, max_size=2)) if i != j]
    atoms = draw(st.permutations(list(dict.fromkeys(atoms))))
    return ConstraintSystem(interval_window(0, n), tuple(atoms))


def propagations_agree(cs):
    """`_propagate` and the loop it replaced give equal certificates (every
    trace step and the cycle) or both None, checking the deadline as often;
    each check names its round."""
    new, old = [], []
    cert = _propagate(cs, new.append)
    assert cert == oracles.traced_propagation(cs, lambda: old.append(None))
    assert len(new) == len(old) >= 1
    assert new == [f"propagation round {k}" for k in range(1, len(new) + 1)]
    return cert


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(propagation_systems())
@example(ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 1))))  # 2-cycle among the atoms
@example(ConstraintSystem(interval_window(0, 4), ((0, 2), (1, 0), (2, 3), (3, 1))))  # the inc branch closes it
@example(ConstraintSystem(interval_window(0, 5), ((3, 4), (0, 1), (2, 3), (1, 2))))  # inconclusive
def test_propagate_matches_the_traced_loop_it_replaced(cs):
    cert = propagations_agree(cs)
    if cert is not None:
        assert verify_certificate(cs, cert)


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("convention", ["plain_left", "inverse_left"])
def test_propagate_matches_the_traced_loop_on_sl3_instances(q, convention):
    ns = [q + 1, q + 1, q + 2, q + 2, q + 3, q + 3]
    random.Random(q).shuffle(ns)
    cs = build_sl3_instance(SL3Instance(q, tuple(ns), q + 4, convention))
    propagations_agree(cs)


def test_solve_quadrant_system_sat_with_lex_witness():
    w = ball(default_generators(zn(2)), 3)
    cs = build_extension_system(w, quadrant_order(2))
    cert = solve(cs)
    assert cert.verdict == "sat"
    assert verify_certificate(cs, cert)
    lex_ranks = lex_functional(2).window_order(w).ranks()
    assert all(lex_ranks[i] < lex_ranks[j] for i, j in cs.atoms)


def test_solve_direct_contradiction():
    w = interval_window(0, 2)
    cs = ConstraintSystem(w, ((0, 1), (1, 0)))
    cert = solve(cs)
    assert cert.verdict == "unsat"
    assert len(cert.trace) == 2
    assert cert.cycle in ((0, 1, 0), (1, 0, 1))
    assert verify_certificate(cs, cert)


def test_solve_empty_atoms_gives_canonical_index_order():
    w = interval_window(0, 4)
    cert = solve(ConstraintSystem(w, ()))
    assert cert.verdict == "sat"
    assert cert.witness.ranks() == [0, 1, 2, 3]


def test_propagate_only_examples():
    w = interval_window(0, 4)
    assert propagate_only(ConstraintSystem(w, ((0, 1),))) is None
    cert = propagate_only(ConstraintSystem(w, ((0, 1), (1, 2), (2, 0))))
    assert cert is not None and cert.verdict == "unsat"
    assert verify_certificate(ConstraintSystem(w, ((0, 1), (1, 2), (2, 0))), cert)


def test_oracle_equivalence_and_soundness_small():
    rnd = random.Random(911)
    for _ in range(1500):
        cs = random_system(rnd)
        cert = solve(cs)
        assert verify_certificate(cs, cert)
        expected = oracles.satisfiable_by_enumeration(len(cs.window), cs.atoms)
        assert (cert.verdict == "sat") == expected
        prop = propagate_only(cs)
        if prop is not None:
            assert cert.verdict == "unsat"


def test_soundness_on_larger_windows():
    rnd = random.Random(404)
    for _ in range(10_000):
        cs = random_system(rnd, max_elems=8)
        cert = solve(cs)
        assert verify_certificate(cs, cert)


def test_adding_atoms_never_rescues_unsat():
    rnd = random.Random(77)
    found = 0
    while found < 50:
        cs = random_system(rnd)
        if solve(cs).verdict != "unsat":
            continue
        found += 1
        i, j = rnd.randrange(len(cs.window)), rnd.randrange(len(cs.window))
        if i == j or (i, j) in cs.atoms:
            continue
        bigger = ConstraintSystem(cs.window, tuple(sorted(set(cs.atoms) | {(i, j)})))
        assert solve(bigger).verdict == "unsat"


def test_certificates_are_deterministic():
    rnd = random.Random(3)
    for _ in range(20):
        cs = random_system(rnd)
        a = canonical_dumps(certificate_to_json(solve(cs)))
        b = canonical_dumps(certificate_to_json(solve(cs)))
        assert a == b


def test_verify_rejects_tampering():
    w = interval_window(0, 3)
    cs = ConstraintSystem(w, ((0, 1), (1, 2), (2, 0)))
    cert = propagate_only(cs)
    assert verify_certificate(cs, cert)
    # truncating the trace removes the cycle
    from grouporders.engine import Certificate

    broken = Certificate("unsat", None, cert.trace[:-1], cert.cycle)
    assert not verify_certificate(cs, broken)
    # a trace step citing an underived pair
    from grouporders.engine import TraceStep

    bogus = Certificate(
        "unsat",
        None,
        (TraceStep((0, 2), ("trans", 0, 1, 2)),) + cert.trace,
        cert.cycle,
    )
    assert not verify_certificate(cs, bogus)


def test_verify_refuses_malformed_steps():
    w = interval_window(0, 3)
    cs = ConstraintSystem(w, ((0, 1), (1, 2), (2, 0)))
    cert = propagate_only(cs)
    assert verify_certificate(cs, cert) and cert.trace[0] == TraceStep((0, 1), ("atom", 0))

    def with_first_step(pair, rule):
        trace = (TraceStep(pair, rule),) + cert.trace[1:]
        return Certificate("unsat", None, trace, cert.cycle)

    for rule in (
        ("trans", 0, 1),
        ("atom",),
        (),
        ("atom", 0, 1),
        ("atom", True),
        ("atom", 0.0),
        ["atom", 0],
        ("trans", 0, 1, 2, 3),
        ("other", 0),
    ):
        assert not verify_certificate(cs, with_first_step((0, 1), rule)), rule
    for pair in ((0,), (0, 1, 2), (0.0, 1), (False, 1), [0, 1], "01"):
        assert not verify_certificate(cs, with_first_step(pair, ("atom", 0))), pair
    # the closing "trans" step with one index that is not an int
    *steps, (pair, (_, a, b, c)) = cert.trace
    for bad in ((float(a), b, c), (a, float(b), c), (a, b, float(c))):
        trace = (*steps, TraceStep(pair, ("trans", *bad)))
        assert not verify_certificate(cs, Certificate("unsat", None, trace, cert.cycle)), bad


def test_verify_refuses_a_missing_foreign_or_open_witness():
    w = Window(zn(3), [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    cs = ConstraintSystem(w, ((0, 1),))
    cert = solve(cs)
    ranks = cert.witness.ranks()
    assert cert.verdict == "sat" and verify_certificate(cs, cert)
    pairs = list(cert.witness.pairs())
    assert verify_certificate(cs, Certificate("sat", OrderMatrix.from_pairs(w, pairs, closed=True)))
    for witness in (
        None,
        OrderMatrix.from_ranks(Window(HEISENBERG, w.payloads), ranks),  # same rows, another group
        OrderMatrix.from_ranks(Window(zn(3), [[0, 0, 0], [0, 1, 0], [1, 0, 0]]), ranks),  # same set
        OrderMatrix.from_pairs(w, pairs, closed=False),  # the same relation, not closed
    ):
        assert not verify_certificate(cs, Certificate("sat", witness)), witness


def test_solve_budget_errors():
    from grouporders import SizeLimitExceeded, SolveTimeout

    w = interval_window(0, 30)
    cs = ConstraintSystem(w, ((0, 1),))
    with pytest.raises(SolveTimeout, match=r"^solve exceeded -1\.0 s in the sort, after \d+\.\d{3} s$"):
        solve(cs, timeout=-1.0)
    with pytest.raises(SizeLimitExceeded, match="^window of 30 elements exceeds the 10-element cap$"):
        solve(cs, size_limit=10)


def test_solve_refuses_a_nan_timeout_and_takes_infinity_as_none():
    for atoms in (((0, 1),), ((0, 1), (1, 2), (2, 0))):
        cs = ConstraintSystem(interval_window(0, 3), atoms)
        with pytest.raises(ValueError, match="NaN"):
            solve(cs, timeout=float("nan"))
        assert verify_certificate(cs, solve(cs, timeout=float("inf")))


def test_solve_deadline_holds_on_the_unsat_path():
    from grouporders import SolveTimeout

    # a 3-cycle (closed in a propagation round) and a 2-cycle (closed by
    # the atoms themselves): no index is free, so the topological sort
    # never starts and the deadline must be checked while propagating
    for hi, atoms in ((3, ((0, 1), (1, 2), (2, 0))), (2, ((0, 1), (1, 0)))):
        cs = ConstraintSystem(interval_window(0, hi), atoms)
        with pytest.raises(SolveTimeout, match=r" s in propagation round 1, after \d+\.\d{3} s$"):
            solve(cs, timeout=-1.0)
        assert solve(cs).verdict == "unsat"
        assert propagate_only(cs) is not None


def test_sl3_instance_validation():
    with pytest.raises(ValueError):
        SL3Instance(1, (1, 2, 2, 2, 2, 2), 3, "plain_left")
    with pytest.raises(ValueError):
        SL3Instance(1, (2, 2, 2, 2, 2, 2), 1, "plain_left")
    with pytest.raises(ValueError):
        SL3Instance(0, (2, 2, 2, 2, 2, 2), 3, "plain_left")
    # a bool, float or string count names its field, before any arithmetic
    for args, field in [
        ((True, (2,) * 6, 3), "q"),
        ((1.0, (2,) * 6, 3), "q"),
        (("1", (2,) * 6, 3), "q"),
        ((1, (2.5,) * 6, 3), "n_i"),
        ((1, (2, 2, 2, 2, 2, True), 3), "n_i"),
        ((1, (2, "2", 2, 2, 2, 2), 3), "n_i"),
        ((1, (2,) * 6, 3.0), "trunc"),
        ((1, (2,) * 6, False), "trunc"),
        ((1, (2,) * 6, "3"), "trunc"),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
            SL3Instance(*args, "plain_left")


def test_sl3_instance_construction_matches_enumeration():
    inst = SL3Instance(1, (2, 2, 2, 2, 2, 2), 3, "plain_left")
    cs = build_sl3_instance(inst)
    # expected window, enumerated independently from the definition
    expected = {oracles.IDENTITY3}
    for i in range(1, 7):
        prev = A[cyc(i - 1)].payload
        cur = A[i].payload
        for m in range(1, 3):
            expected.add(oracles.mat_pow(prev, m))
        shift = oracles.mat_pow(prev, 2)
        for n in range(1, 4):
            expected.add(
                oracles.mat_mul(
                    shift, oracles.mat_mul(cur, oracles.mat_pow(prev, -n))
                )
            )
    assert {g.payload for g in cs.window} == expected
    assert len(cs.window) == 25
    assert len(cs.atoms) == 48


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sl3_instance_matches_matrix_products(data):
    """The window payloads, atoms and convention of build_sl3_instance equal
    the instance rebuilt from 3x3 matrix powers and brute-force atoms."""
    q = data.draw(st.integers(1, 3))
    n = tuple(data.draw(st.lists(st.integers(q + 1, q + 4), min_size=6, max_size=6)))
    trunc = data.draw(st.integers(max(n), max(n) + 2))
    convention = data.draw(st.sampled_from(["plain_left", "inverse_left"]))
    cs = build_sl3_instance(SL3Instance(q, n, trunc, convention))
    payloads, atoms = oracles.sl3_instance(q, n, trunc, convention, sl3_positive_order())
    assert (cs.window.payloads, cs.atoms, cs.convention) == (payloads, atoms, convention)


def test_sl3_unsat_under_matching_convention():
    inst = SL3Instance(2, (3, 3, 3, 3, 3, 3), 4, "plain_left")
    cs = build_sl3_instance(inst)
    cert = propagate_only(cs)
    assert cert is not None and cert.verdict == "unsat"
    assert verify_certificate(cs, cert)
    pairs = {s.pair for s in cert.trace}
    pos = {i: cs.window.position(power(A[i], 2)) for i in range(1, 7)}
    for i in range(1, 7):
        assert (pos[i], pos[cyc(i + 1)]) in pairs
    other = build_sl3_instance(SL3Instance(2, (3,) * 6, 4, "inverse_left"))
    assert propagate_only(other) is None
    sat = solve(other)
    assert sat.verdict == "sat" and verify_certificate(other, sat)
