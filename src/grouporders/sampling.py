"""Window-level samplers and constructions for invariant random orders.

The uniform order draws one 64-bit value per element from a counter-based
stream keyed by the element's canonical encoding, so restricting a larger
window reproduces the smaller window's order exactly.  The uniform and
rotation samplers are projective: ``uniform_keys`` and ``orbit_keys`` key any
elements, and a ``ProjectiveSampler`` lets statistics rank a probe set
without drawing the whole window.  Coset extension, gluing, and the
dynamical realization map are deterministic given their inputs; orbit values
of rotations are compared with exact quadratic-irrational arithmetic, never
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from typing import Callable, Iterable, Sequence, Union

from . import rng
from .exactnum import Sqrt2Num, _coerce, _floor_ratio
from .errors import (
    DomainNotCovered,
    InnerOrderIncomplete,
    StabilizerCollision,
)
from .groups import (
    GeneratorSet,
    GroupElement,
    Window,
    element_key,
    identity,
    inverse,
    multiply,
)
from .orders import OrderMatrix

KEY_BITS = 64
_MASK = (1 << KEY_BITS) - 1


def uniform_keys(seed: int, elements: Iterable[GroupElement]) -> list[tuple[int, bytes]]:
    """One (iid uniform 64-bit value, canonical encoding) key per element;
    equal values fall back to the encodings."""
    eks = [element_key(g) for g in elements]
    return list(zip(rng.u64_each(seed, ("elem",), eks, (0,)), eks))


def uniform_order(w: Window, seed: int) -> OrderMatrix:
    """Total order from iid uniform values, one per window element."""
    return OrderMatrix.from_keys(w, uniform_keys(seed, w))


@dataclass(frozen=True)
class ProjectiveSampler:
    """A sampler whose draw on any elements depends only on the seed and
    those elements.

    ``keys(seed, elements)`` returns one key per element; sorting elements by
    their keys orders them as the sample drawn from ``seed`` does.  Keys
    compare only with keys of the same call.  Calling the sampler draws the
    whole-window order.
    """

    window: Window
    keys: Callable[[int, Sequence[GroupElement]], list]

    def __call__(self, seed: int) -> OrderMatrix:
        return OrderMatrix.from_keys(self.window, self.keys(seed, self.window))


def uniform_sampler(w: Window) -> ProjectiveSampler:
    return ProjectiveSampler(w, uniform_keys)


def rotation_sampler(action: ActionSpec, w: Window) -> ProjectiveSampler:
    """Realizations of the action at the point ``unit_fraction(seed, "point")``."""
    _check_orbit_group(action, w.group)
    return ProjectiveSampler(
        w, lambda s, elements: orbit_keys(action, rng.unit_fraction(s, "point"), elements)
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
    checked = 0
    for g in inside:
        for h in inside:
            gh = multiply(g, h)
            if gh in w and not member(gh):
                raise ValueError("subgroup test not closed under products on the window")
            checked += 1
            if checked >= SUBGROUP_PRODUCT_CHECKS:
                return


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
        inner_rank = {
            inner.window.element(i).payload: r for i, r in enumerate(inner.ranks())
        }
    except Exception as exc:
        raise InnerOrderIncomplete("inner order must be total and closed") from exc

    e = identity(w.group)
    reps: list[GroupElement] = []
    within: list[tuple[int, int]] = []  # (coset index, inner rank) per element
    for g in w:
        if subgroup_test(g):
            target = e
        else:
            target = None
            for r in reps:
                if r != e and subgroup_test(multiply(inverse(r), g)):
                    target = r
                    break
            if target is None:
                target = g
        if target not in reps:
            reps.append(target)
        t = multiply(inverse(target), g)
        if t.payload not in inner_rank:
            raise InnerOrderIncomplete(f"inner order does not cover {t!r}")
        within.append((reps.index(target), inner_rank[t.payload]))

    # equal labels fall back to the representatives' canonical encodings
    eks = [element_key(r) for r in reps]

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
    marked = [False] * len(w)
    inside = (multiply(inverse(k), d) for k in K for d in D)
    for p in w.positions(inside, DomainNotCovered):
        marked[p] = True
    r1, r2 = m1.ranks(), m2.ranks()
    keys = [
        (0, r1[i]) if marked[i] else (1, r2[i])
        for i in range(len(w))
    ]
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
    k_set = {k.payload for k in K}
    f_set = {
        multiply(d1, inverse(d2)).payload for d1 in D for d2 in D
    }
    fk_set = set()
    for fp in f_set:
        f = GroupElement(w.group, fp)
        for kp in k_set:
            fk_set.add(multiply(f, GroupElement(w.group, kp)).payload)
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
        ok = all(
            glued.has(pre[a], pre[b]) == ref.has(pre[a], pre[b])
            for a in range(len(pre))
            for b in range(len(pre))
            if a != b
        )
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
    """Positions of ks sorted by frac(x + k*alpha), decided exactly."""
    # with L the common denominator, the orbit value at k is
    # ((ax0 + k*astep) + (cx0 + k*cstep) * sqrt2) / L
    L = lcm(
        x.rational.denominator,
        x.root2.denominator,
        alpha.rational.denominator,
        alpha.root2.denominator,
    )
    ax0 = x.rational.numerator * (L // x.rational.denominator)
    cx0 = x.root2.numerator * (L // x.root2.denominator)
    astep = alpha.rational.numerator * (L // alpha.rational.denominator)
    cstep = alpha.root2.numerator * (L // alpha.root2.denominator)
    keys, floors = [], []
    for k in ks:
        scaled = _floor_ratio((ax0 + k * astep) << KEY_BITS, (cx0 + k * cstep) << KEY_BITS, L)
        keys.append(scaled & _MASK)
        floors.append(scaled >> KEY_BITS)

    def exact(i):  # key collisions compare exact fractional parts
        return x + alpha * ks[i] - floors[i]

    by_key = sorted(range(len(ks)), key=keys.__getitem__)
    if len(set(keys)) == len(keys):
        return by_key
    # runs of equal keys are sorted by exact value; alpha is irrational and
    # the ks distinct, so exact values never tie
    order = []
    for _, run in groupby(by_key, keys.__getitem__):
        run = list(run)
        order.extend(sorted(run, key=exact) if len(run) > 1 else run)
    return order


def _check_orbit_group(action: ActionSpec, group) -> None:
    if group.kind != "zn" or group.n != action.dim:
        raise ValueError(f"action needs a Z^{action.dim} window")


def orbit_keys(action: ActionSpec, point, elements: Sequence[GroupElement]) -> list[int]:
    """One integer key per Z^d element: sorting by key orders the elements by
    their exact orbit values under the rotation action.

    A torus rotation compares orbit values lexicographically, one circle per
    coordinate; the circle rotation is its one-dimensional case.
    """
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
        rank_of = {ks[i]: r for r, i in enumerate(_circle_order(x, alpha, ks))}
        base = len(ks)
        keys = [key * base + rank_of[g.payload[c]] for key, g in zip(keys, elements)]
    return keys


def realize(action: ActionSpec, point, w: Window) -> OrderMatrix:
    """Order the window by exact orbit values: g comes before h when the
    g-image of the point precedes the h-image."""
    if action.kind == BERNOULLI_SHIFT:
        seed = rng.check_seed(int(point))
        keys = rng.u64_each(seed, ("site",), [element_key(g) for g in w])
        if len(set(keys)) < len(keys):
            raise StabilizerCollision("Bernoulli site draws collide")
        return OrderMatrix.from_keys(w, keys)
    _check_orbit_group(action, w.group)
    return OrderMatrix.from_keys(w, orbit_keys(action, point, w))


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


def _scheme_support(scheme: AveragingScheme, w: Window) -> list[GroupElement]:
    group = w.group
    if group.kind != "zn":
        raise DomainNotCovered("averaging schemes act on Z^n windows")
    if scheme.kind == CESARO_INTERVAL:
        if group.n != 1:
            raise DomainNotCovered("interval averaging needs Z")
        return [GroupElement(group, (k,)) for k in range(scheme.n)]
    import itertools

    return [
        GroupElement(group, c)
        for c in itertools.product(range(scheme.n), repeat=group.n)
    ]


def reconstruct(m: OrderMatrix, scheme: AveragingScheme) -> Fraction:
    """Measure, under the scheme, of the window elements below the identity.

    This is the finite-stage value of the coordinate-recovery average; no
    limit is claimed.
    """
    w = m.window
    support = _scheme_support(scheme, w)
    e_pos = w.position(identity(w.group))
    count = sum(m.has(p, e_pos) for p in w.positions(support, DomainNotCovered))
    return Fraction(count, len(support))


def stabilizer_check(m: OrderMatrix, w: Window, gens: GeneratorSet) -> tuple[GroupElement, ...]:
    """Generators whose translate leaves the order unchanged on the overlap."""
    if w != m.window:
        raise ValueError("stabilizer check needs the order's own window")
    fixed = []
    for g in gens.generators:
        pre = w.preimages(g, w)
        overlap = [i for i, p in enumerate(pre) if p is not None]
        if all(
            m.has(i, j) == m.has(pre[i], pre[j])
            for i in overlap
            for j in overlap
            if i != j
        ):
            fixed.append(g)
    return tuple(fixed)
