"""Constraint systems for total orders extending an invariant partial order,
and the linear-functional orders on Z^n.

An invariant partial order is carried by a semigroup of positives; on a
window it unrolls into one atom g < g*s per element and positive generator.
A linear-functional order sorts each element by one exact key: its value
under every functional of a tie-break cascade, in Q[sqrt(2)], then its
coordinates, so the order is total and never decided in floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .exactnum import Sqrt2Num, _coerce
from .errors import GroupMismatch
from .groups import (
    _PRODUCT,
    GroupElement,
    GroupId,
    HEISENBERG,
    SL3Z,
    Window,
    default_generators,
    identity,
    inverse,
    multiply,
    zn,
)
from .orders import OrderMatrix

INVERSE_LEFT = "inverse_left"
PLAIN_LEFT = "plain_left"
CONVENTIONS = (INVERSE_LEFT, PLAIN_LEFT)

IDENTITY_CHECK_DEPTH = 6


@dataclass(frozen=True)
class SemigroupSpec:
    """Positive generators of an invariant partial order (identity excluded).

    Identity exclusion is verified for products up to word length 6; that
    bound is a documented soundness boundary, not a proof.
    """

    group: GroupId
    positive_generators: tuple[GroupElement, ...]

    def __post_init__(self):
        e = identity(self.group)
        for g in self.positive_generators:
            if g.group != self.group:
                raise ValueError("generator from a different group")
            if g == e:
                raise ValueError("identity cannot be a positive generator")
        frontier = {g.payload: g for g in self.positive_generators}
        seen = dict(frontier)
        for _ in range(IDENTITY_CHECK_DEPTH - 1):
            nxt = {}
            for g in frontier.values():
                for s in self.positive_generators:
                    h = multiply(g, s)
                    if h == e:
                        raise ValueError(
                            "positive generators reach the identity at short word length"
                        )
                    if h.payload not in seen:
                        nxt[h.payload] = h
            seen.update(nxt)
            frontier = nxt


@functools.cache
def _default_cone(group: GroupId) -> SemigroupSpec:
    """The cone generated by the group's default generators."""
    return SemigroupSpec(group, default_generators(group).generators)


def quadrant_order(n: int) -> SemigroupSpec:
    """Positive orthant order on Z^n, generated by the unit vectors."""
    return _default_cone(zn(n))


def heisenberg_positive_order() -> SemigroupSpec:
    """Nonnegative-entry cone of the Heisenberg group, generated by x, y, z."""
    return _default_cone(HEISENBERG)


def sl3_positive_order() -> SemigroupSpec:
    """Entrywise-nonnegative cone of SL3(Z), generated by the six elementary
    unipotent matrices."""
    return _default_cone(SL3Z)


def cone_contains(spec: SemigroupSpec, g: GroupElement) -> bool:
    """Membership in the generated semigroup, for the three built-in cones.

    Uses the exact entrywise characterizations (nonnegative coordinates /
    nonnegative matrix entries, identity excluded).
    """
    if g.group != spec.group:
        raise ValueError("element from a different group")
    if g == identity(spec.group):
        return False
    if spec != _default_cone(spec.group):
        raise NotImplementedError("membership is only decided for the built-in cones")
    return all(v >= 0 for v in g.payload)


def cone_order(spec: SemigroupSpec, window: Window) -> OrderMatrix:
    """The invariant partial order g < h iff g^-1 h is cone-positive,
    restricted to the window (already transitively closed)."""
    pairs = []
    for i, g in enumerate(window):
        ginv = inverse(g)
        for j, h in enumerate(window):
            if i != j and cone_contains(spec, multiply(ginv, h)):
                pairs.append((i, j))
    return OrderMatrix.from_pairs(window, pairs, closed=True)


@dataclass(frozen=True)
class ConstraintSystem:
    """Positivity atoms over a window: index pairs (i, j) demanding i < j."""

    window: Window
    atoms: tuple[tuple[int, int], ...]
    convention: str = INVERSE_LEFT

    def __post_init__(self):
        n = len(self.window)
        for i, j in self.atoms:
            if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid atom ({i},{j})")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be deduplicated")
        if self.convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")


def invariance_atoms(w: Window, s: SemigroupSpec) -> list[tuple[int, int]]:
    """One atom g < g*s for each window element and positive generator with
    g*s still inside the window.  Each generator's group is checked once;
    the products are taken on payloads, element by element (so an overflow
    names the first element's product that leaves the 64-bit range), and
    looked up in one pass."""
    group = w.group
    for gen in s.positive_generators:
        if gen.group is not group and gen.group != group:
            raise GroupMismatch(f"{group} vs {gen.group}")
    gens = [gen.payload for gen in s.positive_generators]
    product = _PRODUCT[group.kind]
    found = w.payload_positions([product(p, t) for p in w.payloads for t in gens])
    m = len(gens)
    return sorted({(k // m, j) for k, j in enumerate(found) if j is not None})


def build_extension_system(
    w: Window,
    s: SemigroupSpec,
    extra_atoms: Iterable[tuple[GroupElement, GroupElement]] = (),
    convention: str = INVERSE_LEFT,
) -> ConstraintSystem:
    atoms = set(invariance_atoms(w, s))
    for x, y in extra_atoms:
        atoms.add((w.position(x), w.position(y)))
    return ConstraintSystem(w, tuple(sorted(atoms)), convention)


CoefficientLike = Union[int, Sqrt2Num]


@dataclass(frozen=True)
class LinearFunctionalOrder:
    """Total order on Z^n from a linear functional with exact tie-breaking.

    Elements are sorted by ``key``: the exact value of each functional of the
    cascade (this one, its tie-breaker, and so on), then the coordinates
    lexicographically.  By linearity f(x) < f(y) iff f(x-y) < 0.
    """

    coefficients: tuple[Sqrt2Num, ...]
    tie_breaker: Optional["LinearFunctionalOrder"] = None

    @staticmethod
    def of(coefficients: Sequence[CoefficientLike], tie_breaker=None) -> "LinearFunctionalOrder":
        return LinearFunctionalOrder(
            tuple(_coerce(c) for c in coefficients), tie_breaker
        )

    @property
    def dimension(self) -> int:
        return len(self.coefficients)

    def key(self, g: GroupElement) -> tuple:
        """Exact sort key of g: one Q[sqrt(2)] value per functional of the
        cascade, then g's payload."""
        values, f = [], self
        while f is not None:
            terms = (c * v for c, v in zip(f.coefficients, g.payload) if v)
            values.append(sum(terms, Sqrt2Num.of(0)))
            f = f.tie_breaker
        return (*values, g.payload)

    def window_order(self, window: Window) -> OrderMatrix:
        return OrderMatrix.from_keys(window, [self.key(g) for g in window])


def lex_functional(n: int) -> LinearFunctionalOrder:
    """The lexicographic order as an explicit unit-functional cascade."""
    tie = None
    for i in reversed(range(n)):
        coeffs = tuple(Sqrt2Num.of(1 if j == i else 0) for j in range(n))
        tie = LinearFunctionalOrder(coeffs, tie)
    return tie


def extends_quadrant(f: LinearFunctionalOrder) -> bool:
    """True iff every positive-orthant generator sits above the origin."""
    n = f.dimension
    group = zn(n)
    zero = f.key(identity(group))
    units = (tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return all(f.key(GroupElement(group, e)) > zero for e in units)
