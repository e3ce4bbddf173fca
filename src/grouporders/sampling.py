"""Window-level samplers and constructions for invariant random orders.

The uniform order draws one 64-bit value per element from a counter-based
stream keyed by the element's canonical encoding, so restricting a larger
window reproduces the smaller window's order exactly.  Sample i of a batch
is drawn from ``rng.derive_seed(seed, "sample", i)`` (``sample_seeds``).
The uniform, rotation and coset samplers are ``ProjectiveSampler``s: their
keys, bound once to a probe set of the window, rank it for each seed as
the draw does.  A whole-window uniform draw hashes each element once and
sorts the window by the values alone, from a per-window table built on the
first draw; rotation and coset draws list the window in an order they
already know, with no sort, the rotation draw by cutting a three-distance
walk built on the first draw.  Uniform and rotation keys (``uniform_keys``,
``orbit_keys``) also key any payload of the group.  Coset
extension, gluing, and the dynamical realization map are deterministic given
their inputs; orbit values of rotations are compared with exact
quadratic-irrational arithmetic, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import rng
from .exactnum import Sqrt2Num, _coerce, _floor_ratio, _sign_int_pair, int_form
from .errors import (
    DomainNotCovered,
    GroupMismatch,
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

# sample_seeds hashes this many seeds per keyed prefix
SEED_CHUNK = 1024


def sample_seeds(seed: int, n: int) -> Iterator[int]:
    """The seeds of samples 0..n-1 of a batch drawn from seed: sample i's is
    ``rng.derive_seed(seed, "sample", i)``, hashed ``SEED_CHUNK`` at a time
    from one absorbed head."""
    for start in range(0, n, SEED_CHUNK):
        counters = [b"%d" % i for i in range(start, min(start + SEED_CHUNK, n))]
        yield from rng.u64_each(seed, (b"subseed", "sample"), counters)


def uniform_keys(group: GroupId, payloads: Iterable[tuple]) -> Callable[[int], list]:
    """Binds payloads of group, encoded here once, to seed -> one (iid
    uniform 64-bit value, canonical encoding) key per payload; equal values
    fall back to the encodings."""
    eks = payload_keys(group, payloads)
    return lambda seed: list(zip(rng.u64_each(seed, ("elem",), eks, (0,)), eks))


def uniform_order(w: Window, seed: int) -> OrderMatrix:
    """Total order from iid uniform values, one per window element: one
    whole-window draw of ``uniform_sampler(w)``."""
    return uniform_sampler(w)(seed)


@dataclass(frozen=True)
class ProjectiveSampler:
    """A sampler that keys the elements of its window one by one.

    ``keys(payloads)`` binds payloads of window elements, doing once what
    does not depend on the seed, and returns ``seed -> keys``: one key per
    payload, and sorting those elements by their keys ranks them as the
    order drawn from ``seed`` does.  Keys compare only with keys for the
    same seed and binding.  Calling the sampler draws the whole-window
    order: by ``draw`` where the sampler has one, else by sorting the
    window's keys.  Uniform and rotation keys also accept any payload of the
    group and do not depend on the window.
    """

    window: Window
    keys: Callable[[Sequence[tuple]], Callable[[int], list]]
    draw: Optional[Callable[[int], OrderMatrix]] = None

    def __call__(self, seed: int) -> OrderMatrix:
        if self.draw is not None:
            return self.draw(seed)
        return OrderMatrix.from_keys(self.window, self.keys(self.window.payloads)(seed))


def _uniform_table(w: Window) -> tuple[list[bytes], list[int]]:
    """The encodings of w's elements, and w's indices sorted by encoding."""
    eks = payload_keys(w.group, w.payloads)
    return eks, sorted(range(len(eks)), key=eks.__getitem__)


def uniform_sampler(w: Window) -> ProjectiveSampler:
    """Uniform keys; the first whole-window draw builds ``_uniform_table(w)``."""
    table = cache(lambda: _uniform_table(w))

    def draw(seed: int) -> OrderMatrix:
        eks, by_encoding = table()
        values = rng.u64_each(seed, ("elem",), eks, (0,))
        # the stable sort leaves equal values in encoding order, which is the
        # (value, encoding) order of uniform_keys
        return OrderMatrix.from_sorted(w, sorted(by_encoding, key=values.__getitem__))

    return ProjectiveSampler(w, partial(uniform_keys, w.group), draw)


def rotation_sampler(action: ActionSpec, w: Window) -> ProjectiveSampler:
    """Realizations of the circle rotation at the point
    ``unit_fraction(seed, "point")``; the first whole-window draw builds the
    window's ``_circle_sorter``, and each draw only cuts it at the point."""
    if action.kind != ROTATION:
        raise ValueError(f"the rotation sampler needs a circle rotation, not {action.kind}")
    _check_orbit_group(action, w.group)
    sorter = cache(lambda: _circle_sorter(action.alphas[0], [k for k, in w.payloads]))

    def keys(payloads: Sequence[tuple]) -> Callable[[int], list[int]]:
        keyed = _orbit_keyer(action, w.group, payloads)
        return lambda s: keyed(rng.unit_fraction(s, "point"))

    def draw(seed: int) -> OrderMatrix:
        return OrderMatrix.from_sorted(w, sorter()(_coerce(rng.unit_fraction(seed, "point"))))

    return ProjectiveSampler(w, keys, draw)


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
) -> ProjectiveSampler:
    """Coset extension sampler on w: iid labels order the cosets and the
    inner order decides within each coset (transported by the coset
    representative).

    The subgroup check and a (coset index, inner rank) table of the window's
    payloads are made once, here; ``keys`` looks its payloads up in that
    table once per binding and draws only the labels of the cosets among
    them, and ``draw`` lists the cosets by label and each coset by inner
    rank.  The identity represents the subgroup's own coset,
    so the restriction to subgroup pairs reproduces the inner order exactly.
    """
    _spot_check_subgroup(w, subgroup_test)
    try:
        inner_ranks = inner.ranks()
    except NotTotal as exc:
        raise InnerOrderIncomplete("inner order must be total") from exc
    if inner.window.group != w.group:
        raise GroupMismatch("translation element from a different group")

    e = identity(w.group)
    reps, rinvs = [e], [e]  # coset representatives and their inverses
    table: dict[tuple, tuple[int, int]] = {}  # payload -> (coset index, inner rank)
    for g in w:
        # the first representative r of g's coset, with h = r^-1 g; else g itself
        for coset, rinv in enumerate(rinvs):
            h = multiply(rinv, g)
            if subgroup_test(h):
                break
        else:
            coset, h = len(reps), e
            reps.append(g)
            rinvs.append(inverse(g))
        p = inner.window.find(h)
        if p is None:
            raise InnerOrderIncomplete(f"inner order does not cover {h!r}")
        table[g.payload] = (coset, inner_ranks[p])

    # equal labels fall back to the representatives' canonical encodings
    eks = payload_keys(w.group, [r.payload for r in reps])
    by_encoding = sorted(range(len(reps)), key=eks.__getitem__)
    members = [[] for _ in reps]  # each coset's window indices by inner rank
    for (coset, _), i in sorted(zip(table.values(), range(len(table)))):
        members[coset].append(i)

    def keys(payloads: Sequence[tuple]) -> Callable[[int], list[tuple[int, bytes, int]]]:
        rows = list(map(table.__getitem__, payloads))
        cosets = list({c for c, _ in rows})  # only the cosets among the payloads are hashed
        named = [eks[c] for c in cosets]

        def keyed(seed: int) -> list[tuple[int, bytes, int]]:
            labels = dict(zip(cosets, zip(rng.u64_each(seed, ("coset",), named, (0,)), named)))
            return [(*labels[c], r) for c, r in rows]

        return keyed

    def draw(seed: int) -> OrderMatrix:
        labels = rng.u64_each(seed, ("coset",), eks, (0,))
        # the stable sort leaves equal labels in encoding order, as keys does
        cosets = sorted(by_encoding, key=labels.__getitem__)
        return OrderMatrix.from_sorted(w, [i for c in cosets for i in members[c]])

    return ProjectiveSampler(w, keys, draw)


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
    perm = [i for i in m1.perm() if i in inside] + [i for i in m2.perm() if i not in inside]
    return OrderMatrix.from_perm(w, perm)


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
    the separation-band elements in between.  The preimages come from one
    ``Window.preimage_table``.  Returns (all_ok, rows).
    """
    w = glued.window
    K = list(K)
    k_set = {k.payload for k in K}
    fk_set = {
        multiply(multiply(d1, inverse(d2)), k).payload for d1 in D for d2 in D for k in K
    }
    rows = []
    all_ok = True
    for p, pre in zip(w.payloads, w.preimage_table(D)):
        if None in pre:
            continue
        if p in k_set:
            ref, side = m1, "inside"
        elif p not in fk_set:
            ref, side = m2, "outside"
        else:
            continue
        ok = glued.agrees_on(ref, pre)
        all_ok = all_ok and ok
        rows.append((GroupElement(w.group, p), side, ok))
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
    for sparse ks, where the ``_hull_walk`` would visit far more points.

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


def _hull_walk(alpha: Sqrt2Num, size: int) -> list[int]:
    """Offsets j in range(size) in the circular order of frac(j*alpha), from
    j = 0, in O(size) integer steps and O(log size) exact comparisons.

    By the three-distance theorem (Sos 1958, Swierczkowski 1959; Slater
    1967) the points frac(j*alpha), j < size, go round the circle from 0 by
    the successor rule j -> j+q if j+q < size, else j-r if j >= r, else
    j+q-r, where q and r are the denominators of alpha's Farey neighbours
    of order size-1.
    """
    aa, ca, L = int_form(alpha)
    q, r = _farey_steps(aa - _floor_ratio(aa, ca, L) * L, ca, L, size - 1)
    walk, j = [], 0
    for _ in range(size):
        walk.append(j)
        if j + q < size:
            j += q
        elif j >= r:
            j -= r
        else:
            j += q - r
    return walk


def _circle_sorter(alpha: Sqrt2Num, ks: list[int]) -> Callable[[Sqrt2Num], list[int]]:
    """x -> positions of the distinct ks sorted by frac(x + k*alpha), decided
    exactly.

    For a set dense in its hull [lo, hi] (hi - lo + 1 <= 2 * len(ks), as in
    every ball and rectangle) the ``_hull_walk`` of the hull, restricted to
    the ks and mapped to positions, is built here once: x only rotates that
    circular order, which starts at the first walked offset j = k - lo with
    frac(j*alpha) + frac(x + lo*alpha) >= 1, found by binary search.  A
    sparser set is sorted by ``_circle_order`` for each x.
    """
    lo, hi = min(ks), max(ks)
    size = hi - lo + 1
    if size > 2 * len(ks):
        return lambda x: _circle_order(x, alpha, ks)
    at = [-1] * size
    for i, k in enumerate(ks):
        at[k - lo] = i
    walk = _hull_walk(alpha, size)
    if size > len(ks):
        walk = [j for j in walk if at[j] >= 0]
    perm = list(map(at.__getitem__, walk))

    def cut(x: Sqrt2Num) -> list[int]:
        ax, cx, aa, ca, L = int_form(x, alpha)
        aa -= _floor_ratio(aa, ca, L) * L  # frac(alpha) orders the same points
        ax, cx = ax + lo * aa, cx + lo * ca
        ax -= _floor_ratio(ax, cx, L) * L + L  # frac(x + lo*alpha) - 1
        first, last = 0, len(walk)
        while first < last:
            mid = (first + last) // 2
            a, c = walk[mid] * aa, walk[mid] * ca
            if _sign_int_pair(a - _floor_ratio(a, c, L) * L + ax, c + cx) >= 0:
                last = mid
            else:
                first = mid + 1
        return perm[first:] + perm[:first]

    return cut


def _circle_ranker(alpha: Sqrt2Num, col: list[int]) -> tuple[int, Callable]:
    """(number of distinct values in col, x -> rank of each entry among them
    by frac(x + k*alpha)), the ranks decided exactly by one
    ``_circle_sorter`` of the values, built here."""
    ks = list(set(col))
    sorter = _circle_sorter(alpha, ks)

    def ranks(x: Sqrt2Num) -> list[int]:
        rank_of = dict(zip(map(ks.__getitem__, sorter(x)), range(len(ks))))
        return [rank_of[k] for k in col]

    return len(ks), ranks


def _check_orbit_group(action: ActionSpec, group) -> None:
    if group.kind != "zn" or group.n != action.dim:
        raise ValueError(f"action needs a Z^{action.dim} window")


def _orbit_keyer(action: ActionSpec, group: GroupId, payloads: Sequence[tuple]) -> Callable:
    """point -> ``orbit_keys(action, point, group, payloads)``, with each
    coordinate's ``_circle_ranker`` built once, here."""
    if action.kind == BERNOULLI_SHIFT:
        raise ValueError("a Bernoulli shift has no orbit keys")
    _check_orbit_group(action, group)
    columns = enumerate(action.alphas) if payloads else ()
    rankers = [_circle_ranker(alpha, [p[c] for p in payloads]) for c, alpha in columns]

    def keys(point) -> list[int]:
        xs = [_coerce(point)] if action.kind == ROTATION else [_coerce(c) for c in point]
        if len(xs) != action.dim:
            raise ValueError("point dimension mismatch")
        if not payloads:
            return []
        keys = None
        for x, (base, ranks) in zip(xs, rankers):
            col = ranks(x)
            keys = col if keys is None else [key * base + rank for key, rank in zip(keys, col)]
        return keys

    return keys


def orbit_keys(action: ActionSpec, point, group: GroupId, payloads: Sequence[tuple]) -> list[int]:
    """One integer key per payload of group, which must be Z^d: sorting by
    key orders the elements by their exact orbit values under the rotation
    action.

    A torus rotation compares orbit values lexicographically, one circle per
    coordinate; the circle rotation is its one-dimensional case.  Each
    coordinate is ranked by a ``_circle_ranker``: linear time on the
    contiguous coordinates of balls and rectangles, a sort on sparse ones.
    """
    return _orbit_keyer(action, group, payloads)(point)


def realize(action: ActionSpec, point, w: Window) -> OrderMatrix:
    """Order the window by exact orbit values: g comes before h when the
    g-image of the point precedes the h-image."""
    if action.kind == BERNOULLI_SHIFT:
        seed = rng.check_seed(point)
        keys = rng.u64_each(seed, ("site",), payload_keys(w.group, w.payloads))
        if len(set(keys)) < len(keys):
            raise StabilizerCollision("Bernoulli site draws collide")
        return OrderMatrix.from_keys(w, keys)
    if action.kind == ROTATION:
        _check_orbit_group(action, w.group)
        ks = [k for k, in w.payloads]
        return OrderMatrix.from_sorted(w, _circle_sorter(action.alphas[0], ks)(_coerce(point)))
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
    limit is claimed.  The order must be total (NotTotal otherwise).
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
