"""Window-level samplers and constructions for invariant random orders.

The uniform order draws one 64-bit value per element from a counter-based
stream keyed by the element's canonical encoding, so restricting a larger
window reproduces the smaller window's order exactly.  The uniform and
rotation samplers are projective: ``uniform_keys`` and ``orbit_keys`` key any
payloads of a group, and a ``ProjectiveSampler`` lets statistics rank a probe
set without drawing the whole window.  Coset extension, gluing, and the
dynamical realization map are deterministic given their inputs; orbit values
of rotations are compared with exact quadratic-irrational arithmetic, never
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Callable, Iterable, Sequence, Union

from . import rng
from .exactnum import Sqrt2Num, _coerce, _floor_ratio, _sign_int_pair, int_form
from .errors import (
    DomainNotCovered,
    InnerOrderIncomplete,
    NotTotal,
    StabilizerCollision,
)
from .groups import (
    GeneratorSet,
    GroupElement,
    GroupId,
    Window,
    identity,
    inverse,
    missing_translate,
    multiply,
    payload_keys,
)
from .orders import OrderMatrix

def sample_seed(seed: int, i: int) -> int:
    """Seed of the i-th sample of a batch drawn from seed."""
    return rng.derive_seed(seed, "sample", i)


def uniform_keys(seed: int, group: GroupId, payloads: Iterable[tuple]) -> list[tuple[int, bytes]]:
    """One (iid uniform 64-bit value, canonical encoding) key per payload of
    group; equal values fall back to the encodings."""
    eks = payload_keys(group, payloads)
    return list(zip(rng.u64_each(seed, ("elem",), eks, (0,)), eks))


def uniform_order(w: Window, seed: int) -> OrderMatrix:
    """Total order from iid uniform values, one per window element."""
    return OrderMatrix.from_keys(w, uniform_keys(seed, w.group, w.payloads))


@dataclass(frozen=True)
class ProjectiveSampler:
    """A sampler whose draw on any elements of its window's group depends
    only on the seed and those elements.

    ``keys(seed, payloads)`` returns one key per payload; sorting the
    elements by their keys orders them as the sample drawn from ``seed``
    does.  Keys compare only with keys of the same call.  Calling the sampler
    draws the whole-window order.
    """

    window: Window
    keys: Callable[[int, Sequence[tuple]], list]

    def __call__(self, seed: int) -> OrderMatrix:
        return OrderMatrix.from_keys(self.window, self.keys(seed, self.window.payloads))


def uniform_sampler(w: Window) -> ProjectiveSampler:
    return ProjectiveSampler(w, lambda s, payloads: uniform_keys(s, w.group, payloads))


def rotation_sampler(action: ActionSpec, w: Window) -> ProjectiveSampler:
    """Realizations of the action at the point ``unit_fraction(seed, "point")``."""
    _check_orbit_group(action, w.group)
    return ProjectiveSampler(
        w, lambda s, payloads: orbit_keys(action, rng.unit_fraction(s, "point"), w.group, payloads)
    )


# the subgroup spot check multiplies at most this many pairs of members
SUBGROUP_PRODUCT_CHECKS = 2000


def _spot_check_subgroup(w: Window, member: Callable[[GroupElement], bool]):
    e = identity(w.group)
    if not member(e):
        raise ValueError("subgroup test rejects the identity")
    inside = [g for g in w if member(g)]
    for g in inside:
        gi = inverse(g)
        if gi in w and not member(gi):
            raise ValueError("subgroup test not closed under inverse on the window")
    for g, h in islice(product(inside, inside), SUBGROUP_PRODUCT_CHECKS):
        gh = multiply(g, h)
        if gh in w and not member(gh):
            raise ValueError("subgroup test not closed under products on the window")


def coset_sampler(
    w: Window,
    subgroup_test: Callable[[GroupElement], bool],
    inner: OrderMatrix,
) -> Callable[[int], OrderMatrix]:
    """Coset extension sampler on w: seed -> total order in which iid labels
    order the cosets and the inner order decides within each coset
    (transported by the coset representative).

    The subgroup check and the cosets are worked out once, here; each seed
    then draws only the coset labels.  The representative of the subgroup's
    own coset is the identity, so the restriction to subgroup pairs
    reproduces the inner order exactly.
    """
    _spot_check_subgroup(w, subgroup_test)
    try:
        inner_ranks = inner.ranks()
    except NotTotal as exc:
        raise InnerOrderIncomplete("inner order must be total and closed") from exc

    reps = {identity(w.group): (0, identity(w.group))}  # representative -> (coset index, inverse)
    within: list[tuple[int, int]] = []  # (coset index, inner rank) per element
    for g in w:
        # the first representative of g's coset, else g itself
        target = next((r for r, (_, rinv) in reps.items() if subgroup_test(multiply(rinv, g))), g)
        if target not in reps:
            reps[target] = (len(reps), inverse(target))
        coset = reps[target][0]
        (p,) = pre = inner.window.preimages(target, (g,))
        if p is None:
            t = missing_translate(target, (g,), pre)
            raise InnerOrderIncomplete(f"inner order does not cover {t!r}")
        within.append((coset, inner_ranks[p]))

    # equal labels fall back to the representatives' canonical encodings
    eks = payload_keys(w.group, [r.payload for r in reps])

    def draw(seed: int) -> OrderMatrix:
        labels = list(zip(rng.u64_each(seed, ("coset",), eks, (0,)), eks))
        return OrderMatrix.from_keys(w, [(*labels[c], r) for c, r in within])

    return draw


def coset_extension(
    w: Window,
    subgroup_test: Callable[[GroupElement], bool],
    inner: OrderMatrix,
    seed: int,
) -> OrderMatrix:
    """One draw of ``coset_sampler(w, subgroup_test, inner)``."""
    return coset_sampler(w, subgroup_test, inner)(seed)


def specification_glue(
    m1: OrderMatrix,
    m2: OrderMatrix,
    K: Iterable[GroupElement],
    D: Window,
) -> OrderMatrix:
    """Glue two total orders: inside K^-1 D follow the first order, outside
    follow the second, and place the inside block below the outside block."""
    w = m1.window
    if m2.window != w:
        raise ValueError("glue needs both orders on the same window")
    inside = set()
    for k in K:
        pre = w.preimages(k, D)
        if None in pre:
            raise DomainNotCovered(f"{missing_translate(k, D, pre)!r} not in window")
        inside.update(pre)
    r1, r2 = m1.ranks(), m2.ranks()
    keys = [(0, r1[i]) if i in inside else (1, r2[i]) for i in range(len(w))]
    return OrderMatrix.from_keys(w, keys)


def shadowing_report(
    glued: OrderMatrix,
    m1: OrderMatrix,
    m2: OrderMatrix,
    K: Iterable[GroupElement],
    D: Window,
):
    """Check the gluing contract element by element.

    For g in K the glued order must look like the first order through the
    lens of D; for window elements outside (D D^-1) K it must look like the
    second.  Elements whose D-preimage leaves the window are skipped, as are
    the separation-band elements in between.  Returns (all_ok, rows).
    """
    w = glued.window
    K = list(K)
    k_set = {k.payload for k in K}
    fk_set = {
        multiply(multiply(d1, inverse(d2)), k).payload for d1 in D for d2 in D for k in K
    }
    rows = []
    all_ok = True
    for g in w:
        pre = w.preimages(g, D)
        if any(p is None for p in pre):
            continue
        if g.payload in k_set:
            ref, side = m1, "inside"
        elif g.payload not in fk_set:
            ref, side = m2, "outside"
        else:
            continue
        ok = glued.induced(pre) == ref.induced(pre)
        all_ok = all_ok and ok
        rows.append((g, side, ok))
    return all_ok, rows


# -- dynamical realization -----------------------------------------------

ROTATION = "rotation"
TORUS_ROTATION = "torus_rotation"
BERNOULLI_SHIFT = "bernoulli_shift"


@dataclass(frozen=True)
class ActionSpec:
    kind: str
    dim: int
    alphas: tuple[Sqrt2Num, ...] = ()

    def __post_init__(self):
        if self.kind not in (ROTATION, TORUS_ROTATION, BERNOULLI_SHIFT):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == ROTATION and self.dim != 1:
            raise ValueError("circle rotation acts through Z")
        if self.kind in (ROTATION, TORUS_ROTATION):
            if len(self.alphas) != self.dim:
                raise ValueError("one angle per generator required")
            for a in self.alphas:
                if a.root2 == 0:
                    raise ValueError("rotation angles must be irrational (root2 part nonzero)")


def rotation_action(alpha: Union[Sqrt2Num, Fraction, int]) -> ActionSpec:
    return ActionSpec(ROTATION, 1, (_coerce(alpha),))


def torus_action(alphas: Sequence[Union[Sqrt2Num, Fraction, int]]) -> ActionSpec:
    return ActionSpec(TORUS_ROTATION, len(alphas), tuple(_coerce(a) for a in alphas))


def bernoulli_action(dim: int) -> ActionSpec:
    return ActionSpec(BERNOULLI_SHIFT, dim)


def _circle_order(x: Sqrt2Num, alpha: Sqrt2Num, ks: list[int]) -> list[int]:
    """Positions of the distinct ks sorted by frac(x + k*alpha), decided
    exactly by one sort of the top ``bits`` bits of each fractional part;
    for sparse ks, where the ``_hull_order`` walk would visit far more points.

    No two keys tie.  Over one denominator L, two orbit values differ by
    (a + c*sqrt2)/L with |a + c*sqrt2| < L and 0 < |c| <= span*|cstep|
    (cstep the sqrt2 part of alpha, span = max(ks) - min(ks)), so
    |a - c*sqrt2| < L + 2*sqrt2*|c| < L + 3|c|.  As a^2 - 2c^2 is a nonzero
    integer, |a + c*sqrt2| = |a^2 - 2c^2| / |a - c*sqrt2| > 1/(L + 3|c|): the
    values lie more than 1/(L*(L + 3*span*|cstep|)) > 2**-bits apart.
    """
    # the orbit value at k is ((ax0 + k*astep) + (cx0 + k*cstep) * sqrt2) / L
    ax0, cx0, astep, cstep, L = int_form(x, alpha)
    bits = (L * (L + 3 * (max(ks) - min(ks)) * abs(cstep))).bit_length()
    ax0, cx0, astep, cstep = (v << bits for v in (ax0, cx0, astep, cstep))
    mask = (1 << bits) - 1
    keys = [_floor_ratio(ax0 + k * astep, cx0 + k * cstep, L) & mask for k in ks]
    return sorted(range(len(ks)), key=keys.__getitem__)


def _gallop(ok: Callable[[int], bool]) -> int:
    """Largest t with ok(t), for ok true at 1 and monotone (true, then false)."""
    lo, hi = 1, 2
    while ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _farey_steps(a: int, c: int, L: int, n: int) -> tuple[int, int]:
    """Denominators (q, r) of the neighbours p/q < alpha < s/r of
    alpha = (a + c*sqrt2)/L, irrational in (0, 1), in the Farey sequence of
    order n.

    A Stern-Brocot descent from 0/1 and 1/1 that takes each partial quotient
    in one gallop; every comparison is the sign of one integer pair.
    """

    def below(p, q):  # p/q < alpha
        return _sign_int_pair(a * q - L * p, c * q) > 0

    p0, q0, p1, q1 = 0, 1, 1, 1
    while q0 + q1 <= n:
        if below(p0 + p1, q0 + q1):
            t = _gallop(lambda t: q0 + t * q1 <= n and below(p0 + t * p1, q0 + t * q1))
            p0, q0 = p0 + t * p1, q0 + t * q1
        else:
            t = _gallop(lambda t: q1 + t * q0 <= n and not below(p1 + t * p0, q1 + t * q0))
            p1, q1 = p1 + t * p0, q1 + t * q0
    return q0, q1


def _hull_order(x: Sqrt2Num, alpha: Sqrt2Num, lo: int, size: int) -> list[int]:
    """Offsets j in range(size) sorted by frac(x + (lo + j)*alpha), decided
    exactly, in O(size) integer steps and O(log size) exact comparisons.

    By the three-distance theorem (Sos 1958, Swierczkowski 1959; Slater
    1967) the points frac(j*alpha), j < size, go round the circle from 0 by
    the successor rule j -> j+q if j+q < size, else j-r if j >= r, else
    j+q-r, where q and r are the denominators of alpha's Farey neighbours
    of order size-1.  The offset x + lo*alpha only rotates that circular
    order: it starts at the first point whose sum with frac(x + lo*alpha)
    reaches 1, found by binary search.
    """
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
    # the first walk position with frac(j*alpha) + frac(x + lo*alpha) >= 1
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


def _circle_ranks(x: Sqrt2Num, alpha: Sqrt2Num, col: list[int]) -> tuple[int, list[int]]:
    """(number of distinct values in col, rank of each entry among them by
    frac(x + k*alpha)), decided exactly.

    A value set dense in its hull [lo, hi] (hi - lo + 1 <= 2 * count, as in
    every ball and rectangle) is ranked by the linear ``_hull_order`` walk
    and read back by index k - lo; a sparser set is sorted once by the
    tie-free keys of ``_circle_order``.
    """
    ks = set(col)
    lo, hi = min(ks), max(ks)
    size = hi - lo + 1
    if size <= 2 * len(ks):
        order = _hull_order(x, alpha, lo, size)
        if size > len(ks):
            order = [j for j in order if lo + j in ks]
        at = [0] * size
        for rank, j in enumerate(order):
            at[j] = rank
        return len(ks), [at[k - lo] for k in col]
    ks = sorted(ks)
    rank_of = {ks[i]: r for r, i in enumerate(_circle_order(x, alpha, ks))}
    return len(ks), [rank_of[k] for k in col]


def _check_orbit_group(action: ActionSpec, group) -> None:
    if group.kind != "zn" or group.n != action.dim:
        raise ValueError(f"action needs a Z^{action.dim} window")


def orbit_keys(action: ActionSpec, point, group: GroupId, payloads: Sequence[tuple]) -> list[int]:
    """One integer key per payload of group, which must be Z^d: sorting by
    key orders the elements by their exact orbit values under the rotation
    action.

    A torus rotation compares orbit values lexicographically, one circle per
    coordinate; the circle rotation is its one-dimensional case.  Each
    coordinate is ranked by ``_circle_ranks``: linear time on the
    contiguous coordinates of balls and rectangles, a sort on sparse ones.
    """
    if action.kind == BERNOULLI_SHIFT:
        raise ValueError("a Bernoulli shift has no orbit keys")
    _check_orbit_group(action, group)
    xs = [_coerce(point)] if action.kind == ROTATION else [_coerce(c) for c in point]
    if len(xs) != action.dim:
        raise ValueError("point dimension mismatch")
    if not payloads:
        return []
    keys = None
    for c, (x, alpha) in enumerate(zip(xs, action.alphas)):
        base, ranks = _circle_ranks(x, alpha, [p[c] for p in payloads])
        keys = ranks if keys is None else [key * base + rank for key, rank in zip(keys, ranks)]
    return keys


def realize(action: ActionSpec, point, w: Window) -> OrderMatrix:
    """Order the window by exact orbit values: g comes before h when the
    g-image of the point precedes the h-image."""
    if action.kind == BERNOULLI_SHIFT:
        seed = rng.check_seed(int(point))
        keys = rng.u64_each(seed, ("site",), payload_keys(w.group, w.payloads))
        if len(set(keys)) < len(keys):
            raise StabilizerCollision("Bernoulli site draws collide")
        return OrderMatrix.from_keys(w, keys)
    return OrderMatrix.from_keys(w, orbit_keys(action, point, w.group, w.payloads))


CESARO_INTERVAL = "cesaro_interval"
BOX = "box"


@dataclass(frozen=True)
class AveragingScheme:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in (CESARO_INTERVAL, BOX):
            raise ValueError(f"unknown averaging scheme {self.kind!r}")
        if self.n < 1:
            raise ValueError("scheme size must be positive")


def cesaro(n: int) -> AveragingScheme:
    return AveragingScheme(CESARO_INTERVAL, n)


def box(n: int) -> AveragingScheme:
    return AveragingScheme(BOX, n)


def _scheme_support(scheme: AveragingScheme, w: Window) -> list[tuple[int, ...]]:
    group = w.group
    if group.kind != "zn":
        raise DomainNotCovered("averaging schemes act on Z^n windows")
    if scheme.kind == CESARO_INTERVAL:
        if group.n != 1:
            raise DomainNotCovered("interval averaging needs Z")
        return [(k,) for k in range(scheme.n)]
    return list(product(range(scheme.n), repeat=group.n))


def reconstruct(m: OrderMatrix, scheme: AveragingScheme) -> Fraction:
    """Measure, under the scheme, of the window elements below the identity.

    This is the finite-stage value of the coordinate-recovery average; no
    limit is claimed.  The order must be total and closed (NotTotal
    otherwise).
    """
    w = m.window
    support = _scheme_support(scheme, w)
    positions = w.payload_positions(support)
    if None in positions:
        g = GroupElement(w.group, support[positions.index(None)])
        raise DomainNotCovered(f"{g!r} not in window")
    ranks = m.ranks()
    below = ranks[w.position(identity(w.group))]
    return Fraction(sum(ranks[p] < below for p in positions), len(positions))


def stabilizer_check(m: OrderMatrix, w: Window, gens: GeneratorSet) -> tuple[GroupElement, ...]:
    """Generators whose translate leaves the order unchanged on the overlap."""
    if w != m.window:
        raise ValueError("stabilizer check needs the order's own window")
    fixed = []
    for g in gens.generators:
        pre = w.preimages(g, w)
        overlap = [None if p is None else i for i, p in enumerate(pre)]
        if m.induced(overlap) == m.induced(pre):
            fixed.append(g)
    return tuple(fixed)
