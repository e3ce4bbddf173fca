"""Satisfiability of order-extension constraint systems, with replayable
certificates.

Unit propagation is transitive closure of the decided pairs.  An UNSAT
answer carries a propagation trace: every step derives one pair, justified
either by an atom or by transitivity over two earlier pairs, and the final
step closes a cycle.  Propagation runs in synchronous rounds (path length
doubles per round), so short consequences always enter the trace before any
long cycle can close it.  The trace is written in one pass over a per-element
step table (row u maps v to the step deriving (u, v)): each candidate is
tested by a lookup in its row as it is generated, in round order, and the
trace steps are built only once a cycle closes.

A SAT answer carries a total closed witness: the linear extension that
places index 0 as low as the atoms allow, then index 1, and so on.  It is
built from the top down, giving the next-highest rank to the largest index
with nothing left above it (Kahn's topological sort with a max-heap); the
atoms are cyclic exactly when that sort runs out of candidates early, and
`solve` and `propagate_only` both decide acyclicity by it.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

from .constraints import (
    CONVENTIONS,
    PLAIN_LEFT,
    ConstraintSystem,
    build_extension_system,
    sl3_positive_order,
)
from .errors import SizeLimitExceeded, SolveTimeout
from .groups import (
    DEFAULT_SIZE_LIMIT,
    _PRODUCT,
    GroupElement,
    SL3Z,
    inverse,
    sl3_unipotent,
    window_from_elements,
)
from .orders import OrderMatrix

DEFAULT_TIMEOUT = 10.0


class TraceStep(NamedTuple):
    pair: tuple[int, int]
    rule: tuple  # ("atom", k) or ("trans", u, v, w): (u,v) and (v,w) give (u,w)


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "sat" | "unsat"
    witness: Optional[OrderMatrix]
    trace: tuple[TraceStep, ...] = ()
    cycle: tuple[int, ...] = ()


def propagate_only(cs: ConstraintSystem) -> Optional[Certificate]:
    """Forward closure of the atoms alone; never branches.

    Returns an UNSAT certificate when the closure forces a cycle, or None
    when the sort finds the atoms acyclic (then the closure never runs).
    """
    if _sort_ranks(cs, lambda phase: None) is not None:
        return None
    return _propagate(cs, lambda phase: None)


def _propagate(cs: ConstraintSystem, check: Callable[[str], None]) -> Optional[Certificate]:
    """The closure of the atoms, calling ``check`` with the round before
    each round (the atoms are round 1).

    Step i derives ``pairs[i]`` by ``rules[i]``; ``step_of[u]`` maps v to
    the step deriving (u, v).  A round tests each candidate as it is
    generated, from the successor and predecessor lists as they stood when
    the round began.  A pair and its reverse are never both recorded (the
    second one ends the run), so no (i, i) is ever generated.
    """
    check("propagation round 1")
    n = len(cs.window)
    step_of: list[dict[int, int]] = [{} for _ in range(n)]
    pairs: list[tuple[int, int]] = []
    rules: list[tuple] = []
    # atoms are distinct and never (i, i) (ConstraintSystem checks), so
    # atom k is step k, and only its reverse can close a cycle
    for k, (u, v) in enumerate(cs.atoms):
        step_of[u][v] = k
        pairs.append((u, v))
        rules.append(("atom", k))
        if u in step_of[v]:
            return _unsat(step_of, pairs, rules, u, v)
    out: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    start = 0
    delta = sorted(pairs)
    rounds = 1
    while delta:
        rounds += 1
        check(f"propagation round {rounds}")
        for u, v in pairs[start:]:
            out[u].append(v)
            inc[v].append(u)
        start = len(pairs)
        for u, v in delta:
            row = step_of[u]
            for w in out[v]:
                if w not in row:
                    row[w] = len(pairs)
                    pairs.append((u, w))
                    rules.append(("trans", u, v, w))
                    if u in step_of[w]:
                        return _unsat(step_of, pairs, rules, u, w)
            for t in inc[u]:
                if v not in step_of[t]:
                    step_of[t][v] = len(pairs)
                    pairs.append((t, v))
                    rules.append(("trans", t, u, v))
                    if t in step_of[v]:
                        return _unsat(step_of, pairs, rules, t, v)
        delta = pairs[start:]
    return None


def _unsat(step_of, pairs, rules, u, v) -> Certificate:
    """The certificate whose trace ends at (u, v), which closes a cycle
    with the earlier reverse pair."""
    cycle = _path(step_of, rules, u, v) + _path(step_of, rules, v, u)[1:]
    trace = tuple(map(tuple.__new__, repeat(TraceStep), zip(pairs, rules)))
    return Certificate("unsat", None, trace, tuple(cycle))


def _path(step_of, rules, u, v) -> list[int]:
    """Element path realizing the derived pair (u, v) through atom steps."""
    rule = rules[step_of[u][v]]
    if rule[0] == "atom":
        return [u, v]
    _, u, v, w = rule
    return _path(step_of, rules, u, v) + _path(step_of, rules, v, w)[1:]


def _sort_ranks(cs: ConstraintSystem, check: Callable[[str], None]) -> Optional[list[int]]:
    """The witness ranks by the sort, calling ``check`` per step; None on cyclic atoms."""
    n = len(cs.window)
    below: list[list[int]] = [[] for _ in range(n)]
    above = [0] * n
    for i, j in cs.atoms:
        below[j].append(i)
        above[i] += 1
    heap = [-i for i in range(n) if not above[i]]
    heapq.heapify(heap)
    ranks = [0] * n
    rank = n
    while heap:
        check("the sort")
        j = -heapq.heappop(heap)
        rank -= 1
        ranks[j] = rank
        for i in below[j]:
            above[i] -= 1
            if not above[i]:
                heapq.heappush(heap, -i)
    return None if rank else ranks


def solve(
    cs: ConstraintSystem,
    timeout: float = DEFAULT_TIMEOUT,
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> Certificate:
    """Decide the system: a topological-sort witness, or the propagation
    trace of a cycle.  The deadline is checked at every step of the sort
    and every propagation round, and a timeout names that phase and the
    time spent; an infinite timeout sets none, and a NaN one is refused."""
    n = len(cs.window)
    if n > size_limit:
        raise SizeLimitExceeded(f"window of {n} elements exceeds the {size_limit}-element cap")
    if timeout != timeout:
        raise ValueError("the timeout is NaN")
    start = time.monotonic()
    deadline = start + timeout

    def check(phase: str):
        now = time.monotonic()
        if now > deadline:
            raise SolveTimeout(f"solve exceeded {timeout} s in {phase}, after {now - start:.3f} s")

    ranks = _sort_ranks(cs, check)
    if ranks is not None:
        return Certificate("sat", OrderMatrix.from_ranks(cs.window, ranks))
    cert = _propagate(cs, check)
    if cert is None:
        raise AssertionError("topological sort and tracer disagree on UNSAT")
    return cert


def verify_certificate(cs: ConstraintSystem, cert: Certificate) -> bool:
    """Independent replay; returns False on any mismatch."""
    n = len(cs.window)
    if cert.verdict == "sat":
        w = cert.witness
        if w is None or w.window != cs.window or not w.closed:
            return False
        try:
            ranks = w.ranks()
        except Exception:
            return False
        if sorted(ranks) != list(range(n)):
            return False
        return all(ranks[i] < ranks[j] for i, j in cs.atoms)
    if cert.verdict != "unsat" or cert.witness is not None:
        return False
    if not cert.trace:
        return False
    derived: list[set[int]] = [set() for _ in range(n)]  # v of each replayed (u, v), in range
    for pair, rule in cert.trace:
        # only a pair of two ints, ("atom", k) or ("trans", a, b, c)
        if type(pair) is not tuple or len(pair) != 2 or type(rule) is not tuple:
            return False
        u, v = pair
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            return False
        if len(rule) == 2 and rule[0] == "atom":
            k = rule[1]
            if type(k) is not int or not (0 <= k < len(cs.atoms)) or cs.atoms[k] != pair:
                return False
        elif len(rule) == 4 and rule[0] == "trans":
            _, a, b, c = rule
            if type(a) is not int or type(b) is not int or type(c) is not int:
                return False
            if a != u or c != v or b not in derived[u] or v not in derived[b]:
                return False
        else:
            return False
        derived[u].add(v)
    if u not in derived[v]:  # the last step's reverse was derived, or it is (u, u)
        return False
    cyc = cert.cycle
    if len(cyc) < 3 or cyc[0] != cyc[-1]:
        return False
    for a, b in zip(cyc, cyc[1:]):
        # a -1 would read the last row; range(n) holds what equals an index
        if a not in range(n) or b not in derived[int(a)]:
            return False
    return True


@dataclass(frozen=True)
class SL3Instance:
    """Finite witness parameters for the non-extendability of the positive
    cone on SL3(Z).

    For each cyclic index i the instance encodes the translated chain
    constraints 'identity < a_i^q * a_{i-1}^{-n}' for n = 1..trunc, shifted
    by a_{i-1}^{n_i} (plain-left) or a_{i-1}^{-n_i} (inverse-left), on top
    of the positive-cone invariance rules.
    """

    q: int
    n: tuple[int, int, int, int, int, int]
    trunc: int
    convention: str

    def __post_init__(self):
        for field, values in (("q", (self.q,)), ("n_i", self.n), ("trunc", (self.trunc,))):
            for v in values:
                if type(v) is not int:  # True, 2.0 and "2" are not counts
                    raise ValueError(f"{field} must be an int, got {v!r}")
        if self.q < 1:
            raise ValueError("q must be positive")
        if len(self.n) != 6 or any(v <= self.q for v in self.n):
            raise ValueError("every n_i must exceed q")
        if self.trunc < max(self.n):
            raise ValueError("truncation must reach max(n_i)")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


def build_sl3_instance(inst: SL3Instance) -> ConstraintSystem:
    """The instance's system over the window of its powers and chain sides.
    Each list is walked on payloads, one checked product per step from the
    one before: a_{i-1}^{+-m} for m = 1..n_i (the last is the shift), a_i^q,
    and shift * a_i^q * a_{i-1}^{-n} for n = 1..trunc."""
    product = _PRODUCT[SL3Z.kind]
    plain = inst.convention == PLAIN_LEFT
    elements: list[GroupElement] = []
    shifted_atoms: list[tuple[GroupElement, GroupElement]] = []
    for i in range(1, 7):
        prev = sl3_unipotent(i - 1)  # a_{i-1}, cyclically
        back = inverse(prev).payload
        step = x = prev.payload if plain else back
        elements.append(GroupElement(SL3Z, x))
        for _ in range(inst.n[i - 1] - 1):
            x = product(x, step)
            elements.append(GroupElement(SL3Z, x))
        shift = elements[-1]
        cur = base = sl3_unipotent(i).payload
        for _ in range(inst.q - 1):
            base = product(base, cur)
        rhs = product(shift.payload, base)
        for _ in range(inst.trunc):
            rhs = product(rhs, back)
            g = GroupElement(SL3Z, rhs)
            elements.append(g)
            shifted_atoms.append((shift, g))
    window = window_from_elements(SL3Z, elements)
    return build_extension_system(window, sl3_positive_order(), shifted_atoms, inst.convention)
