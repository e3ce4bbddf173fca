"""Independent reference implementations used only by the tests.

These deliberately avoid the library's code paths: plain-loop 3x3 matrix
products, word enumeration for balls, permutation scans and a bitset
closure with branching for satisfiability, high-precision decimal
arithmetic for rotation values, and the entry-by-entry checked group
arithmetic that the straight-line `multiply`/`inverse` replaced.
"""

import itertools
from decimal import Decimal, getcontext

from grouporders.errors import IntegerOverflow

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


def solve_by_closure_branching(n, atoms):
    """Witness ranks of the bitset closure-and-branching solver, or None when
    the atoms are cyclic.

    After closing the atoms it visits index pairs in order, lowest first, and
    asserts i < j for each pair still undecided; adding an undecided pair to a
    closed acyclic relation never creates a cycle, so it never backtracks.
    """
    rows = [0] * n
    for i, j in atoms:
        rows[i] |= 1 << j
    for k in range(n):
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rows[k]
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


def rotation_fraction_decimal(x, k, alpha_rat, alpha_root2):
    """frac(x + k*alpha) via 60-digit decimals (values far from ties only)."""
    v = Decimal(x.numerator) / Decimal(x.denominator)
    v += k * (Decimal(alpha_rat) + Decimal(alpha_root2) * SQRT2_DEC)
    return v - int(v.to_integral_value(rounding="ROUND_FLOOR"))
