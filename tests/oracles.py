"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: plain-loop 3x3 matrix
products, word enumeration for balls, permutation scans and a bitset
closure with branching for satisfiability, high-precision decimal
arithmetic for rotation values, the entry-by-entry checked group
arithmetic that the straight-line `multiply`/`inverse` replaced, the
pair-by-pair ``has`` loops that `OrderMatrix.induced` replaced, the walk
over ``perm()`` that listed a rank vector's pairs, the recursive sign
cascade that `LinearFunctionalOrder.key` replaced, a pair-by-pair test of
strict total orders, and the element-by-element window
builders (row decode, ball, `has`-loop reconstruct) that the
bulk payload check and the payload products replaced, translated window
lookups (`Window.preimages` and its callers) and invariance atoms through
that checked arithmetic and a payload dict, SL3 instances from powers
taken as repeated matrix products, the sort-based permutation check that the
check by inverting replaced, the element-based uniform and orbit keys
that the payload-based ones replaced, the circle order of a rotation
sorted by exact `Sqrt2Num` fractional parts and the three-distance walk
of a hull built and cut for each point, the propagation loop
that listed every round's candidates before recording them through a
tracer object, the certificate replay over one set of pair tuples that
the per-element rows replaced, the certificate dict built through a
per-rule helper, the canonical JSON encoder with its cycle check on, and
the level grid filled element by element with a range test per element
that the O(1) contiguity test and one bulk lookup replaced.
"""

import functools
import itertools
import json
import math
from decimal import Decimal, getcontext
from fractions import Fraction

from grouporders.errors import (
    DomainNotCovered,
    GroupMismatch,
    InnerOrderIncomplete,
    IntegerOverflow,
    NotRectangular,
    SizeLimitExceeded,
)
from grouporders.constraints import Comparison
from grouporders.engine import Certificate, TraceStep
from grouporders.groups import (
    DEFAULT_SIZE_LIMIT,
    GroupElement,
    Window,
    identity,
    inverse,
    make_element,
    multiply,
)
from grouporders import rng
from grouporders.exactnum import Sqrt2Num, _coerce, _floor_ratio, _sign_int_pair, int_form
from grouporders.sampling import BERNOULLI_SHIFT, ROTATION, _check_orbit_group, _farey_steps
from grouporders.orders import MAX_DENSE_ELEMENTS, OrderMatrix
from grouporders.serialize import order_to_json

getcontext().prec = 60
SQRT2_DEC = Decimal(2).sqrt()

IDENTITY3 = (1, 0, 0, 0, 1, 0, 0, 0, 1)


def mat_mul(a, b):
    return tuple(
        sum(a[3 * i + t] * b[3 * t + j] for t in range(3))
        for i in range(3)
        for j in range(3)
    )


def mat_inv(a):
    m = [[a[0], a[1], a[2]], [a[3], a[4], a[5]], [a[6], a[7], a[8]]]

    def cof(i, j):
        return (
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
        )

    return tuple(cof(j, i) for i in range(3) for j in range(3))


def mat_pow(a, k):
    if k < 0:
        a, k = mat_inv(a), -k
    out = IDENTITY3
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def _ck(v):
    if v < -(1 << 63) or v > (1 << 63) - 1:
        raise IntegerOverflow(f"entry {v} leaves the 64-bit range")
    return v


def checked_multiply(kind, p, q):
    """Payload of p*q for group kind "zn", "heis" or "sl3", each entry
    range-checked as it is computed, so the first bad entry raises."""
    if kind == "zn":
        return tuple(_ck(a + b) for a, b in zip(p, q))
    if kind == "heis":
        return (_ck(p[0] + q[0]), _ck(p[1] + q[1]), _ck(p[2] + q[2] + p[0] * q[1]))
    return tuple(
        _ck(sum(p[3 * i + t] * q[3 * t + j] for t in range(3)))
        for i in range(3)
        for j in range(3)
    )


def checked_inverse(kind, p):
    """Payload of p^-1, checked entry by entry like `checked_multiply`."""
    if kind == "zn":
        return tuple(_ck(-v) for v in p)
    if kind == "heis":
        return (_ck(-p[0]), _ck(-p[1]), _ck(p[0] * p[1] - p[2]))
    return tuple(_ck(v) for v in mat_inv(p))


def checked_power(kind, identity_payload, p, k):
    """Payload of p^k by the same square-and-multiply steps as `power`, so
    an overflow raises at the same product."""
    if k < 0:
        p, k = checked_inverse(kind, p), -k
    result, base = identity_payload, p
    while k:
        if k & 1:
            result = checked_multiply(kind, result, base)
        k >>= 1
        if k:
            base = checked_multiply(kind, base, base)
    return result


def heis_to_matrix(t):
    a, b, c = t
    return (1, a, c, 0, 1, b, 0, 0, 1)


def matrix_to_heis(m):
    assert (m[0], m[3], m[4], m[6], m[7], m[8]) == (1, 0, 1, 0, 0, 1)
    return (m[1], m[5], m[2])


def enumerate_ball(payload_mul, identity_payload, generator_payloads, radius):
    """All products of at most `radius` generator steps, by raw enumeration."""
    reached = {identity_payload}
    frontier = {identity_payload}
    for _ in range(radius):
        nxt = set()
        for p in frontier:
            for s in generator_payloads:
                q = payload_mul(p, s)
                if q not in reached:
                    nxt.add(q)
        reached |= nxt
        frontier = nxt
    return reached


def satisfiable_by_enumeration(n, atoms):
    """Scan all n! rank assignments for one satisfying every atom."""
    for ranks in itertools.permutations(range(n)):
        if all(ranks[i] < ranks[j] for i, j in atoms):
            return True
    return False


def closure_rows(n, pairs):
    """Row bitmasks of the transitive closure of the pairs on 0..n-1, by
    Warshall's loop; a cycle leaves a self-loop on each of its elements."""
    rows = [0] * n
    for i, j in pairs:
        rows[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
    return rows


def solve_by_closure_branching(n, atoms):
    """Witness ranks of the bitset closure-and-branching solver, or None when
    the atoms are cyclic.

    After closing the atoms it visits index pairs in order, lowest first, and
    asserts i < j for each pair still undecided; adding an undecided pair to a
    closed acyclic relation never creates a cycle, so it never backtracks.
    """
    rows = closure_rows(n, atoms)
    if any(rows[i] >> i & 1 for i in range(n)):
        return None
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i] >> j & 1 or rows[j] >> i & 1:
                continue
            reach = rows[j] | 1 << j
            for t in range(n):
                if t == i or rows[t] >> i & 1:
                    rows[t] |= reach
    return [n - 1 - rows[i].bit_count() for i in range(n)]


class _Tracer:
    """Incremental pair derivation with justification bookkeeping."""

    def __init__(self):
        self.step_of: dict[tuple[int, int], int] = {}
        self.trace: list[TraceStep] = []

    def add(self, pair: tuple[int, int], rule: tuple) -> bool:
        """Record a new pair; returns True when it closes a cycle."""
        if pair in self.step_of:
            return False
        self.step_of[pair] = len(self.trace)
        self.trace.append(TraceStep(pair, rule))
        u, v = pair
        return u == v or (v, u) in self.step_of

    def expand(self, pair: tuple[int, int]) -> list[int]:
        """Element path realizing a derived pair through atom steps."""
        step = self.trace[self.step_of[pair]]
        if step.rule[0] == "atom":
            return [pair[0], pair[1]]
        _, u, v, w = step.rule
        left = self.expand((u, v))
        right = self.expand((v, w))
        return left + right[1:]

    def cycle_from(self, pair: tuple[int, int]) -> tuple[int, ...]:
        u, v = pair
        if u == v:
            return tuple(self.expand(pair))
        fwd = self.expand(pair)
        back = self.expand((v, u))
        return tuple(fwd + back[1:])


def traced_propagation(cs, check):
    """The propagation loop that `engine._propagate` replaced: every round
    lists all its candidate pairs first, then records each new one through
    a `_Tracer`."""
    check()
    tracer = _Tracer()
    for k, pair in enumerate(cs.atoms):
        if tracer.add(pair, ("atom", k)):
            return Certificate(
                "unsat", None, tuple(tracer.trace), tracer.cycle_from(pair)
            )
    out: dict[int, list[int]] = {}
    inc: dict[int, list[int]] = {}
    for u, v in cs.atoms:
        out.setdefault(u, []).append(v)
        inc.setdefault(v, []).append(u)
    delta = sorted(tracer.step_of)
    while delta:
        check()
        fresh: list[tuple[tuple[int, int], tuple]] = []
        for u, v in delta:
            for w in out.get(v, ()):
                fresh.append(((u, w), ("trans", u, v, w)))
            for t in inc.get(u, ()):
                fresh.append(((t, v), ("trans", t, u, v)))
        added = []
        for pair, rule in fresh:
            if pair in tracer.step_of:
                continue
            closed_cycle = tracer.add(pair, rule)
            if closed_cycle:
                return Certificate(
                    "unsat", None, tuple(tracer.trace), tracer.cycle_from(pair)
                )
            added.append(pair)
            out.setdefault(pair[0], []).append(pair[1])
            inc.setdefault(pair[1], []).append(pair[0])
        delta = added
    return None


def replay_reference(cs, cert):
    """The certificate replay that `engine.verify_certificate`'s per-element
    rows replaced: one set of derived (u, v) tuples."""
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
    derived: set[tuple[int, int]] = set()
    for pos, (pair, rule) in enumerate(cert.trace):
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
            if (a, c) != pair or (a, b) not in derived or (b, c) not in derived:
                return False
        else:
            return False
        if pos == len(cert.trace) - 1 and not (u == v or (v, u) in derived):
            return False
        derived.add(pair)
    cyc = cert.cycle
    if len(cyc) < 3 or cyc[0] != cyc[-1]:
        return False
    for a, b in zip(cyc, cyc[1:]):
        if (a, b) not in derived:
            return False
    return True


def _rule_to_json(rule):
    if rule[0] == "atom":
        return {"atom": rule[1]}
    return {"trans": [rule[1], rule[2], rule[3]]}


def certificate_to_json_reference(cert):
    """The certificate dict as `serialize.certificate_to_json` built it
    through a per-rule helper."""
    return {
        "format": 1,
        "verdict": cert.verdict,
        "witness": None if cert.witness is None else order_to_json(cert.witness),
        "trace": [
            {"pair": list(step.pair), "rule": _rule_to_json(step.rule)}
            for step in cert.trace
        ],
        "cycle": list(cert.cycle),
    }


def canonical_dumps_reference(obj):
    """`serialize.canonical_dumps` as it was with the encoder's cycle check on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def frac(v):
    """The fractional part v - floor(v) of a Sqrt2Num, in [0, 1)."""
    return v - v.floor()


def circle_order_reference(x, alpha, ks):
    """Positions of ks sorted by the exact value frac(x + alpha*k)."""
    x, alpha = _coerce(x), _coerce(alpha)
    return sorted(range(len(ks)), key=lambda i: frac(x + alpha * ks[i]))


def hull_order(x, alpha, lo, size):
    """Offsets j in range(size) sorted by frac(x + (lo + j)*alpha): the
    three-distance walk of the hull, built for this x and cut at the first
    walk position whose sum with frac(x + lo*alpha) reaches 1."""
    ax, cx, aa, ca, L = int_form(x, alpha)
    aa -= _floor_ratio(aa, ca, L) * L  # frac(alpha) orders the same points
    ax, cx = ax + lo * aa, cx + lo * ca
    ax -= _floor_ratio(ax, cx, L) * L + L  # frac(x + lo*alpha) - 1
    q, r = _farey_steps(aa, ca, L, size - 1)
    walk, j = [], 0
    for _ in range(size):
        walk.append(j)
        if j + q < size:
            j += q
        elif j >= r:
            j -= r
        else:
            j += q - r
    first, last = 0, size
    while first < last:
        mid = (first + last) // 2
        j = walk[mid]
        a, c = j * aa, j * ca
        if _sign_int_pair(a - _floor_ratio(a, c, L) * L + ax, c + cx) >= 0:
            last = mid
        else:
            first = mid + 1
    return walk[first:] + walk[:first]


def rotation_fraction_decimal(x, k, alpha_rat, alpha_root2):
    """frac(x + k*alpha) via 60-digit decimals (values far from ties only)."""
    v = Decimal(x.numerator) / Decimal(x.denominator)
    v += k * (Decimal(alpha_rat) + Decimal(alpha_root2) * SQRT2_DEC)
    return v - int(v.to_integral_value(rounding="ROUND_FLOOR"))


# -- translated lookups, element by element ---------------------------------


def translate(g, x):
    """g^-1 x by the entry-checked reference arithmetic."""
    kind = g.group.kind
    return GroupElement(g.group, checked_multiply(kind, checked_inverse(kind, g.payload), x.payload))


def preimages(w, g, elements):
    """Window positions of g^-1 x for each x of elements, None outside w,
    from a payload dict of w's elements.  g and every element must be of
    w's group; g is not inverted when there are no elements."""
    group, kind = w.group, w.group.kind
    if g.group != group:
        raise GroupMismatch("translation element from a different group")
    elements = list(elements)
    if not elements:
        return []
    ginv = checked_inverse(kind, g.payload)
    index = {x.payload: i for i, x in enumerate(w.elements)}
    out = []
    for x in elements:
        if x.group != group:
            raise GroupMismatch(f"{group} vs {x.group}")
        out.append(index.get(checked_multiply(kind, ginv, x.payload)))
    return out


def covered_preimages(w, g, elements):
    """preimages(w, g, elements), where the first translate outside w
    raises DomainNotCovered naming it."""
    pre = preimages(w, g, elements)
    for x, p in zip(elements, pre):
        if p is None:
            raise DomainNotCovered(f"{translate(g, x)!r} not in window")
    return pre


def translate_glue(m1, m2, K, D):
    """specification_glue with K^-1 D looked up translate by translate."""
    w = m1.window
    if m2.window != w:
        raise ValueError("glue needs both orders on the same window")
    inside = set()
    for k in K:
        inside.update(covered_preimages(w, k, D))
    r1, r2 = m1.ranks(), m2.ranks()
    perm = sorted(range(len(w)), key=lambda i: (0, r1[i]) if i in inside else (1, r2[i]))
    return OrderMatrix.from_perm(w, perm)


def translate_invariance_counts(orders, g, D):
    """(base, translated) pattern counts of invariance_test over the given
    sample orders, each ranked pair by pair on D and on g^-1 D."""
    w = orders[0].window
    where = w.positions(D)
    if len(D) > 1:
        shifted = covered_preimages(w, g, D)
    else:  # a single element ranks first wherever its preimage lies
        preimages(w, g, [])  # the shift's group is checked all the same
        shifted = where
    k = math.factorial(len(D))
    base, translated = [0] * k, [0] * k
    for m in orders:
        base[permutation_rank(pairwise_ranks_at(m, where))] += 1
        translated[permutation_rank(pairwise_ranks_at(m, shifted))] += 1
    return tuple(base), tuple(translated)


def coset_representatives(w, member):
    """The representative coset_sampler gives each element of w: the
    identity on the subgroup, else the first element of w in its coset."""
    e = identity(w.group)
    firsts, reps = [], []
    for g in w.elements:
        if member(g):
            reps.append(e)
            continue
        r = next((h for h in firsts if member(translate(h, g))), g)
        if r is g:
            firsts.append(g)
        reps.append(r)
    return reps


def coset_translates(w, member):
    """The distinct payloads of r^-1 g over w, r the representative of g."""
    reps = coset_representatives(w, member)
    return list(dict.fromkeys(translate(r, g).payload for g, r in zip(w.elements, reps)))


def coset_inner_ranks(w, member, inner):
    """(representative, inner rank of r^-1 g) for each g of w, looked up
    translate by translate; the first translate the inner order misses
    raises InnerOrderIncomplete naming it."""
    ranks = inner.ranks()
    out = []
    for g, r in zip(w.elements, coset_representatives(w, member)):
        (p,) = preimages(inner.window, r, [g])
        if p is None:
            raise InnerOrderIncomplete(f"inner order does not cover {translate(r, g)!r}")
        out.append((r, ranks[p]))
    return out


def permutation_rank(perm):
    """Lexicographic rank of a permutation, by listing all of them."""
    return sorted(itertools.permutations(range(len(perm)))).index(tuple(perm))


# -- restriction of an order, one ``has`` call per pair ---------------------


def pairwise_induced(m, positions):
    """Row bitmasks of m on positions (None related to nothing), pair by pair."""
    k = len(positions)
    rows = [0] * k
    for a in range(k):
        for b in range(k):
            pa, pb = positions[a], positions[b]
            if pa is not None and pb is not None and m.has(pa, pb):
                rows[a] |= 1 << b
    return rows


def perm_walk_pairs(m):
    """The pairs (perm[a], perm[b]), a < b, of a total closed order: the
    double loop over ``perm()`` that ``OrderMatrix.pairs`` ran on rank
    vectors before it read ``rows()``."""
    order = m.perm()
    return [(order[a], order[b]) for a in range(len(order)) for b in range(a + 1, len(order))]


def pairwise_translate_order(m, g):
    if m.n > MAX_DENSE_ELEMENTS:
        raise SizeLimitExceeded(
            f"translating a {m.n}-element order needs a dense matrix"
        )
    pre = preimages(m.window, g, m.window)
    n = m.n
    rows = [0] * n
    for i in range(n):
        ti = pre[i]
        if ti is None:
            continue
        for j in range(n):
            tj = pre[j]
            if tj is not None and m.has(ti, tj):
                rows[i] |= 1 << j
    return OrderMatrix(m.window, rows=rows, closed=m.closed)


def pairwise_matches_cylinder(m, c):
    """Stops at the first pair in order that is undecided (raises) or
    disagrees with the pattern (False)."""
    positions = m.window.positions(c.window, DomainNotCovered)
    k = len(positions)
    for a in range(k):
        for b in range(a + 1, k):
            i, j = positions[a], positions[b]
            if not m.decided(i, j):
                raise DomainNotCovered("order undecided on a cylinder pair")
            if m.has(i, j) != c.pattern.has(a, b):
                return False
    return True


def pairwise_ranks_at(m, positions):
    k = len(positions)
    ranks = []
    for a in range(k):
        below = 0
        for b in range(k):
            if a != b:
                if not m.decided(positions[a], positions[b]):
                    raise DomainNotCovered("order undecided on the probe set")
                if m.has(positions[b], positions[a]):
                    below += 1
        ranks.append(below)
    return tuple(ranks)


def pairs_agree(m1, pos1, m2, pos2):
    """m1 on pos1 and m2 on pos2 order every pair of local indices alike (the
    comparison of the shadowing report and the stabilizer check)."""
    return all(
        m1.has(pos1[a], pos1[b]) == m2.has(pos2[a], pos2[b])
        for a in range(len(pos1))
        for b in range(len(pos1))
        if a != b
    )


def pairwise_stabilizer_check(m, w, gens):
    if w != m.window:
        raise ValueError("stabilizer check needs the order's own window")
    fixed = []
    for g in gens.generators:
        pre = preimages(w, g, w)
        overlap = [i for i, p in enumerate(pre) if p is not None]
        if pairs_agree(m, overlap, m, [pre[i] for i in overlap]):
            fixed.append(g)
    return tuple(fixed)


# -- linear-functional orders by a recursive sign cascade --------------------


def _value_sign(f, diff):
    total = Sqrt2Num.of(0)
    for c, d in zip(f.coefficients, diff):
        if d:
            total = total + c * d
    return total.sign()


def cascade_compare(f, x, y):
    """Sign of f(x-y), then the tie-breaker's, then the first nonzero
    coordinate of x-y."""
    if x.payload == y.payload:
        raise ValueError("compare needs distinct elements")
    diff = tuple(a - b for a, b in zip(x.payload, y.payload))
    s = _value_sign(f, diff)
    if s < 0:
        return Comparison.LESS
    if s > 0:
        return Comparison.GREATER
    if f.tie_breaker is not None:
        return cascade_compare(f.tie_breaker, x, y)
    for d in diff:
        if d:
            return Comparison.LESS if d < 0 else Comparison.GREATER
    raise AssertionError("unreachable: distinct payloads")


def cascade_perm(f, window):
    """Window indices sorted by ``cascade_compare``, smallest first."""
    def cmp(i, j):
        less = cascade_compare(f, window.element(i), window.element(j)) is Comparison.LESS
        return -1 if less else 1

    return sorted(range(len(window)), key=functools.cmp_to_key(cmp))


def sorted_permutation(values, n, what):
    """The values as a list, checked by sorting to hold each of 0..n-1 once."""
    out = list(values)
    if not set(map(type, out)) <= {int} or sorted(out) != list(range(n)):  # JSON true is not 1
        raise ValueError(f"{what} must be a permutation of 0..n-1")
    return out


# -- strict total orders, pair by pair --------------------------------------


def is_strict_total(n, has):
    """Irreflexive, transitive, and every pair of distinct indices decided."""
    r = range(n)
    return (
        not any(has(i, i) for i in r)
        and all(has(i, k) for i in r for j in r for k in r if has(i, j) and has(j, k))
        and all(has(i, j) or has(j, i) for i in r for j in r if i != j)
    )


# -- invariance atoms and SL3 instances, product by product -----------------


def invariance_atoms(w, spec):
    """Atoms (i, j) with x_j = x_i * s, one checked_multiply per window
    element and positive generator s, looked up in a payload dict; a
    generator of another group raises GroupMismatch first."""
    for s in spec.positive_generators:
        if s.group != w.group:
            raise GroupMismatch(f"{w.group} vs {s.group}")
    index = {p: i for i, p in enumerate(w.payloads)}
    out = set()
    for i, p in enumerate(w.payloads):
        for s in spec.positive_generators:
            j = index.get(checked_multiply(w.group.kind, p, s.payload))
            if j is not None:
                out.add((i, j))
    return sorted(out)


def sl3_instance(q, n, trunc, convention, spec):
    """(window payloads, atoms) of an SL3 instance from 3x3 matrix products:
    the identity, a_{i-1}^{+-m} for m = 1..n_i and the chain sides
    a_{i-1}^{+-n_i} a_i^q a_{i-1}^{-k} for k = 1..trunc, sorted; the atoms
    are spec's invariance atoms and each (shift, chain side)."""
    a = [g.payload for g in spec.positive_generators]  # a_1..a_6
    sign = 1 if convention == "plain_left" else -1
    elements, chain = {IDENTITY3}, []
    for i in range(6):
        prev, cur = a[i - 1], a[i]
        shift = mat_pow(prev, sign * n[i])
        elements.update(mat_pow(prev, sign * m) for m in range(1, n[i] + 1))
        for k in range(1, trunc + 1):
            rhs = mat_mul(mat_mul(shift, mat_pow(cur, q)), mat_pow(prev, -k))
            elements.add(rhs)
            chain.append((shift, rhs))
    payloads = tuple(sorted(elements))
    w = Window(spec.group, payloads)
    at = {p: i for i, p in enumerate(payloads)}
    atoms = set(invariance_atoms(w, spec)) | {(at[x], at[y]) for x, y in chain}
    return payloads, tuple(sorted(atoms))


# -- element-by-element window builders -------------------------------------


def rowwise_elements(group, rows):
    """Each row through make_element, in order."""
    return [make_element(group, data) for data in rows]


def rowwise_window(group, rows):
    """The window of the rows, decoded one make_element at a time."""
    return Window(group, [g.payload for g in rowwise_elements(group, rows)])


def elementwise_ball(gens, radius, size_limit=DEFAULT_SIZE_LIMIT):
    """Breadth-first ball built from GroupElements, one multiply per step."""
    if not gens.generators:
        raise ValueError("ball needs a nonempty generator set")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    steps = list(gens.generators)
    for g in gens.generators:
        inv = inverse(g)
        if all(inv.payload != s.payload for s in steps):
            steps.append(inv)
    steps.sort(key=lambda g: g.payload)

    e = identity(gens.group)
    seen = {e.payload}
    ordered = [e]
    frontier = [e]
    for _ in range(radius):
        layer = []
        for g in frontier:
            for s in steps:
                h = multiply(g, s)
                if h.payload not in seen:
                    seen.add(h.payload)
                    layer.append(h)
                    if len(seen) > size_limit:
                        raise SizeLimitExceeded(
                            f"ball exceeds the {size_limit}-element cap"
                        )
        layer.sort(key=lambda g: g.payload)
        ordered.extend(layer)
        frontier = layer
        if not layer:
            break
    return Window(gens.group, [g.payload for g in ordered])


def elementwise_window_from_elements(group, elements):
    pool = {identity(group).payload: identity(group)}
    for g in elements:
        if g.group != group:
            raise GroupMismatch("element from a different group")
        pool[g.payload] = g
    return Window(group, sorted(pool))


def has_loop_reconstruct(m, scheme):
    """Share of the scheme's support below the identity, one ``has`` per
    support element (an undecided pair counts as not below)."""
    w = m.window
    group = w.group
    if group.kind != "zn":
        raise DomainNotCovered("averaging schemes act on Z^n windows")
    if scheme.kind == "cesaro_interval":
        if group.n != 1:
            raise DomainNotCovered("interval averaging needs Z")
        support = [GroupElement(group, (k,)) for k in range(scheme.n)]
    else:
        support = [
            GroupElement(group, c)
            for c in itertools.product(range(scheme.n), repeat=group.n)
        ]
    e_pos = w.position(identity(group))
    count = sum(m.has(p, e_pos) for p in w.positions(support, DomainNotCovered))
    return Fraction(count, len(support))


# -- element-based keys --------------------------------------------------------


def element_key(g):
    """The canonical encoding as first written: one f-string per element."""
    return f"{g.group}:{','.join(map(str, g.payload))}".encode("ascii")


def uniform_keys(seed, elements):
    """(uniform 64-bit value, encoding) per element, keyed element by element."""
    eks = [element_key(g) for g in elements]
    return list(zip(rng.u64_each(seed, ("elem",), eks, (0,)), eks))


def orbit_keys(action, point, elements):
    """Orbit keys read from the elements, each element's group checked."""
    if action.kind == BERNOULLI_SHIFT:
        raise ValueError("a Bernoulli shift has no orbit keys")
    for group in {g.group for g in elements}:
        _check_orbit_group(action, group)
    xs = [_coerce(point)] if action.kind == ROTATION else [_coerce(c) for c in point]
    if len(xs) != action.dim:
        raise ValueError("point dimension mismatch")
    keys = [0] * len(elements)
    for c, (x, alpha) in enumerate(zip(xs, action.alphas)):
        ks = sorted({g.payload[c] for g in elements})
        rank_of = {ks[i]: r for r, i in enumerate(circle_order_reference(x, alpha, ks))}
        base = len(ks)
        keys = [key * base + rank_of[g.payload[c]] for key, g in zip(keys, elements)]
    return keys


def render_levels_reference(m):
    """`orders.render_levels` as it was: each element range-tested and
    scattered into the grid in window order."""
    group = m.window.group
    if group.kind != "zn" or group.n != 2:
        raise NotRectangular("level rendering needs a Z^2 window")
    ranks = m.ranks()
    xs = sorted({p[0] for p in m.window.payloads})
    ys = sorted({p[1] for p in m.window.payloads})
    if len(xs) * len(ys) != m.n:
        raise NotRectangular("window is not a full rectangle")
    grid = [[0] * len(xs) for _ in ys]
    x0, y0 = xs[0], ys[0]
    for i, (x, y) in enumerate(m.window.payloads):
        if x - x0 not in range(len(xs)) or y - y0 not in range(len(ys)):
            raise NotRectangular("window is not a contiguous rectangle")
        grid[len(ys) - 1 - (y - y0)][x - x0] = ranks[i]
    return grid
