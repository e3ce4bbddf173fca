"""The certificate replay on per-element rows against the tuple-set replay it
replaced, and the sort deciding acyclicity for `propagate_only`."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from grouporders import SL3Instance, build_sl3_instance, propagate_only, solve, verify_certificate
from grouporders import engine
from grouporders.engine import Certificate, TraceStep
from test_engine import propagation_systems


def sl3_system(q, convention):
    ns = [q + 1, q + 1, q + 2, q + 2, q + 3, q + 3]
    random.Random(q).shuffle(ns)
    return build_sl3_instance(SL3Instance(q, tuple(ns), q + 4, convention))


SL3 = [(q, c) for q in (1, 2, 3) for c in ("plain_left", "inverse_left")]


def mutants(cs, cert, i, j):
    """UNSAT certificates that each differ from ``cert`` in one place: at
    trace step i, at cycle entry j, or by a cut trace or cycle."""
    n, trace, cyc = len(cs.window), cert.trace, cert.cycle
    (u, v), rule = trace[i]

    def step(pair, rule):
        return Certificate("unsat", None, trace[:i] + (TraceStep(pair, rule),) + trace[i + 1:], cyc)

    def entry(x):
        return Certificate("unsat", None, trace, cyc[:j] + (x,) + cyc[j + 1:])

    out = [step((v, u), rule)]  # a swapped pair
    for bad in (-1, u - n, u + n, n, float(u), True, str(u)):
        out += [step((bad, v), rule), step((u, bad), rule)]
    if rule[0] == "atom":
        k = rule[1]
        out += [step((u, v), ("atom", bad)) for bad in (k + 1, k - 1, -1, len(cs.atoms), float(k))]
    else:
        _, a, b, c = rule
        out += [step((u, v), ("trans", a, bad, c)) for bad in (-1, b - n, b + n, n, a, c, float(b), None)]
    for x in (-1, cyc[j] - n, cyc[j] + n, n, float(cyc[j]), True, None, str(cyc[j])):
        # a bad inner entry already fails as the end of the link before it;
        # replacing both ends makes the first link start at a bad entry
        out += [entry(x), Certificate("unsat", None, trace, (x,) + cyc[1:-1] + (x,))]
    out += [Certificate("unsat", None, t, cyc) for t in (trace[:-1], trace[:i])]  # truncated traces
    out += [Certificate("unsat", None, trace, c) for c in (cyc[:-1], cyc + (cyc[1],))]  # open cycles
    return out


def replays_agree(cs, cert, positions):
    assert verify_certificate(cs, cert) and oracles.replay_reference(cs, cert)
    if cert.verdict == "unsat":
        for i, j in positions:
            for bad in mutants(cs, cert, i, j):
                assert verify_certificate(cs, bad) == oracles.replay_reference(cs, bad), (i, j, bad)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(propagation_systems(), st.data())
def test_replay_matches_the_tuple_set_replay(cs, data):
    cert = solve(cs)
    positions = []
    if cert.verdict == "unsat":
        i = data.draw(st.integers(0, len(cert.trace) - 1))
        j = data.draw(st.integers(0, len(cert.cycle) - 1))
        positions = [(i, j), (len(cert.trace) - 1, 1)]
    replays_agree(cs, cert, positions)


@pytest.mark.parametrize("q, convention", SL3)
def test_replay_matches_the_tuple_set_replay_on_sl3_instances(q, convention):
    cs = sl3_system(q, convention)
    cert = solve(cs)
    assert cert.verdict == ("unsat" if convention == "plain_left" else "sat")
    last, mid = len(cert.trace) - 1, len(cert.cycle) // 2
    replays_agree(cs, cert, [(0, 1), (last // 2, mid), (last, len(cert.cycle) - 2)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(propagation_systems())
def test_propagate_only_is_none_exactly_when_solve_is_sat(cs):
    assert (propagate_only(cs) is None) == (solve(cs).verdict == "sat")


@pytest.mark.parametrize("q, convention", SL3)
def test_propagate_only_is_none_exactly_when_solve_is_sat_on_sl3_instances(q, convention):
    cs = sl3_system(q, convention)
    assert (propagate_only(cs) is None) == (solve(cs).verdict == "sat")


def test_acyclic_atoms_never_reach_the_closure(monkeypatch):
    def closure(cs, check):
        raise AssertionError("the closure ran on acyclic atoms")

    monkeypatch.setattr(engine, "_propagate", closure)
    for q in (1, 2, 3):
        assert propagate_only(sl3_system(q, "inverse_left")) is None
