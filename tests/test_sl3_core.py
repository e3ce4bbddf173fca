"""The core of the SL3(Z) obstruction: on top of the positive cone's atoms,
six chain atoms, one per generator, are unsatisfiable together, and each
of them is needed.

Write (i, m) for the chain atom shift < shift * a_i^q * a_{i-1}^{-m}, with
shift = a_{i-1}^{n_i} (plain-left) or a_{i-1}^{-n_i} (inverse-left).  The
cone atoms g < g * a_k and the chain atoms are found here from 3x3 integer
products, a_k^m = I + m E_k, not from the instance builder's walk.  Besides
the golden and demo instances, a fixed sweep of 90 parameter sets drawn from
a seeded generator must show the same five facts.

The 92 plain-left systems also share one shortest cycle of atoms, of
L = 6 + sum(n_i - q) links.  Cyclically adjacent generators commute, so
(i, n_i) reads a_{i-1}^{n_i} < a_i^q, and n_{i+1} - q cone steps by a_i
climb to the next shift a_i^{n_{i+1}}.
"""

import math
import random

import pytest

import oracles
from grouporders import (
    ConstraintSystem,
    SL3Instance,
    build_sl3_instance,
    solve,
    verify_certificate,
)

# a_1..a_6: the elementary unipotents, as (row, column) of their off-diagonal 1
POSITIONS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))

INSTANCES = [
    (1, (2, 2, 2, 2, 2, 2), 3),  # the golden and README instance
    (2, (3, 4, 3, 5, 3, 4), 5),  # demo 04
]


def a(k, m):
    """a_k^m = I + m E_k, for k in 1..6 cyclically."""
    r, c = POSITIONS[(k - 1) % 6]
    flat = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    flat[3 * r + c] = m
    return tuple(flat)


def unit(k):
    """E_k: the off-diagonal matrix unit of a_k, for k in 1..6 cyclically."""
    r, c = POSITIONS[(k - 1) % 6]
    return tuple(int(j == 3 * r + c) for j in range(9))


def split_atoms(q, n, trunc, convention):
    """The instance's system, its cone atoms, and its chain atoms by (i, m)."""
    cs = build_sl3_instance(SL3Instance(q, n, trunc, convention))
    at = {p: j for j, p in enumerate(cs.window.payloads)}
    cone = {
        (j, at[y])
        for j, p in enumerate(cs.window.payloads)
        for k in range(1, 7)
        if (y := oracles.mat_mul(p, a(k, 1))) in at
    }
    sign = 1 if convention == "plain_left" else -1
    chain = {}
    for i in range(1, 7):
        shift = a(i - 1, sign * n[i - 1])
        for m in range(1, trunc + 1):
            side = oracles.mat_mul(oracles.mat_mul(shift, a(i, q)), a(i - 1, -m))
            chain[i, m] = (at[shift], at[side])
    assert set(cs.atoms) == cone | set(chain.values())
    return cs, cone, chain


def sweep(count=90, seed=16):
    """(q, n, trunc) sets: q in 1..3, each n_i in q+1..q+3, and trunc from
    max n_i to max n_i + 2."""
    rnd = random.Random(seed)
    for _ in range(count):
        q = rnd.randint(1, 3)
        n = tuple(rnd.randint(q + 1, q + 3) for _ in range(6))
        yield q, n, rnd.randint(max(n), max(n) + 2)


SWEEP = list(sweep())


def decide(cs, atoms):
    """The verdict on atoms over cs's window, its certificate replayed."""
    sub = ConstraintSystem(cs.window, tuple(sorted(atoms)), cs.convention)
    cert = solve(sub)
    assert verify_certificate(sub, cert), cert.verdict
    return cert.verdict


def check_core(q, n, trunc):
    """The full plain-left system and the cone atoms with the six (i, n_i)
    are UNSAT; dropping any one of the six, or taking every (i, m) with
    m < n_i instead, is SAT."""
    cs, cone, chain = split_atoms(q, n, trunc, "plain_left")
    assert decide(cs, cs.atoms) == "unsat"
    core = [chain[i, n[i - 1]] for i in range(1, 7)]
    assert decide(cs, cone | set(core)) == "unsat"
    for dropped in core:
        assert decide(cs, cone | set(core) - {dropped}) == "sat"
    shorter = {atom for (i, m), atom in chain.items() if m < n[i - 1]}
    assert decide(cs, cone | shorter) == "sat"


def check_inverse_left(q, n, trunc):
    """The inverse-left system is SAT, its witness replayed."""
    cs, _, _ = split_atoms(q, n, trunc, "inverse_left")
    assert decide(cs, cs.atoms) == "sat"


def shortest_cycle(size, atoms):
    """Links in a shortest cycle of the atoms, by a BFS from every element."""
    succ = [set() for _ in range(size)]
    for u, v in atoms:
        succ[u].add(v)
    best = math.inf
    for s in range(size):
        seen, layer, links = {s}, {s}, 0
        while layer and links < best:
            links += 1
            if any(s in succ[u] for u in layer):
                best = links
            layer = {v for u in layer for v in succ[u]} - seen
            seen |= layer
    return best


def explicit_cycle(q, n):
    """a_0^{n_1} -> a_1^q -> a_1^{q+1} -> ... -> a_1^{n_2} -> a_2^q -> ...
    -> a_6^{n_1} = a_0^{n_1}, as payloads."""
    cycle = [a(0, n[0])]
    for i in range(1, 7):
        cycle += [a(i, m) for m in range(q, n[i % 6] + 1)]
    return cycle


def check_cycle(q, n, trunc):
    """The plain-left atoms' shortest cycle has L = 6 + sum(n_i - q) links;
    the explicit cycle has L, each an atom: the six (i, n_i) and the rest
    cone atoms; and the engine's cycle has at least L."""
    cs = build_sl3_instance(SL3Instance(q, n, trunc, "plain_left"))
    length = 6 + sum(m - q for m in n)
    assert shortest_cycle(len(cs.window), cs.atoms) == length
    at = {p: j for j, p in enumerate(cs.window.payloads)}
    path = [at[p] for p in explicit_cycle(q, n)]
    links = list(zip(path, path[1:]))
    assert path[0] == path[-1] and len(links) == length
    _, cone, chain = split_atoms(q, n, trunc, "plain_left")
    assert set(links) <= cone | set(chain.values())
    assert [link for link in links if link not in cone] == [chain[i, n[i - 1]] for i in range(1, 7)]
    cert = solve(cs)
    assert verify_certificate(cs, cert) and len(cert.cycle) - 1 >= length


def test_cyclically_adjacent_generators_commute():
    # E_k E_{k+1} = E_{k+1} E_k = 0, so a_k^m a_{k+1}^p = a_{k+1}^p a_k^m
    for k in range(1, 7):
        e, f = unit(k), unit(k + 1)
        assert oracles.mat_mul(e, f) == oracles.mat_mul(f, e) == (0,) * 9


@pytest.mark.parametrize("q, n, trunc", INSTANCES)
def test_six_chain_atoms_on_the_cone_are_the_core(q, n, trunc):
    check_core(q, n, trunc)


@pytest.mark.parametrize("q, n, trunc", INSTANCES)
def test_the_shortest_cycle_has_six_plus_the_climbs_links(q, n, trunc):
    check_cycle(q, n, trunc)


@pytest.mark.parametrize("q, n, trunc", INSTANCES)
def test_the_inverse_left_system_is_satisfiable(q, n, trunc):
    check_inverse_left(q, n, trunc)


def test_the_sweep_shows_the_same_core():
    assert len(SWEEP) == 90 and {q for q, _, _ in SWEEP} == {1, 2, 3}
    for params in SWEEP:
        try:
            check_core(*params)
            check_cycle(*params)
            check_inverse_left(*params)
        except (AssertionError, KeyError) as exc:  # a KeyError: an atom's side is not in the window
            raise AssertionError(f"sweep set {params}") from exc
