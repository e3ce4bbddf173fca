"""Exact arithmetic and Cayley-ball enumeration for Z^n, the discrete
Heisenberg group, and SL3(Z).

Elements are immutable and carry their group tag.  All integer arithmetic is
checked against the signed 64-bit range: overflow raises, it never wraps.
Window enumeration is deterministic (BFS layer, then lexicographic payload)
so that downstream constraint indices and certificates are reproducible.

Raw payloads become a window in one place, the constructor `Window(group,
rows)`, which checks them in bulk; window files and the window builders all
go through it, and element lists go through `window_from_elements`.
A window keeps its payloads and builds its `GroupElement`s only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import add, index, neg
from typing import Iterable, Iterator, Sequence

from .errors import (
    ElementNotInWindow,
    GroupMismatch,
    IntegerOverflow,
    SizeLimitExceeded,
)

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

DEFAULT_SIZE_LIMIT = 100_000

KIND_ZN = "zn"
KIND_HEISENBERG = "heis"
KIND_SL3 = "sl3"


@dataclass(frozen=True, slots=True)
class GroupId:
    kind: str
    n: int = 0

    def __post_init__(self):
        if self.kind == KIND_ZN:
            if type(self.n) is not int or self.n < 1:  # True or 1.0 would print as another group
                raise ValueError(f"Z^n needs an int rank n >= 1, got {self.n!r}")
        elif self.kind in (KIND_HEISENBERG, KIND_SL3):
            if self.n != 0:
                raise ValueError(f"{self.kind} takes no rank parameter")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    def __str__(self):
        return f"zn:{self.n}" if self.kind == KIND_ZN else self.kind


@lru_cache(maxsize=None, typed=True)  # one GroupId per Z^n: group checks hit `is`
def zn(n: int) -> GroupId:
    return GroupId(KIND_ZN, n)


HEISENBERG = GroupId(KIND_HEISENBERG)
SL3Z = GroupId(KIND_SL3)


@dataclass(frozen=True, slots=True)
class GroupElement:
    group: GroupId
    payload: tuple[int, ...]

    def __repr__(self):
        return f"<{self.group}|{','.join(map(str, self.payload))}>"


def payload_keys(group: GroupId, payloads: Iterable[tuple[int, ...]]) -> list[bytes]:
    """The canonical byte encoding, stable across runs and windows, of the
    element of group with each payload tuple; the format
    b"<group>:<entries, comma-separated>" is built once."""
    fmt = (f"{group}:" + ",".join(["%d"] * _payload_len(group))).encode("ascii")
    return [fmt % p for p in payloads]


def _checked(payload: tuple[int, ...]) -> tuple[int, ...]:
    """payload, after one pass over its entries: the first entry outside the
    signed 64-bit range raises IntegerOverflow."""
    for v in payload:
        if v < INT64_MIN or v > INT64_MAX:
            raise IntegerOverflow(f"entry {v} leaves the 64-bit range")
    return payload


def _payload_len(group: GroupId) -> int:
    if group.kind == KIND_ZN:
        return group.n
    if group.kind == KIND_HEISENBERG:
        return 3
    return 9


def _det3(p: tuple[int, ...]) -> int:
    return (
        p[0] * (p[4] * p[8] - p[5] * p[7])
        - p[1] * (p[3] * p[8] - p[5] * p[6])
        + p[2] * (p[3] * p[7] - p[4] * p[6])
    )


def make_element(group: GroupId, data: Iterable[int]) -> GroupElement:
    """Validated element constructor for user-supplied data."""
    payload = tuple(map(index, data))  # floats, strings and the like raise TypeError
    if len(payload) != _payload_len(group):
        raise ValueError(f"{group} payload needs {_payload_len(group)} entries")
    _checked(payload)
    if group.kind == KIND_SL3 and _det3(payload) != 1:
        raise ValueError("SL3(Z) payload must have determinant 1")
    return GroupElement(group, payload)


def checked_payloads(group: GroupId, rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """make_element's payloads of the rows, checked in bulk.  Each row is read
    once: if a check fails, the tuples already built and then the rows not
    yet read go one by one through make_element, so the first bad row raises
    what make_element raises for it."""
    rows = list(rows)
    payloads = []
    try:
        payloads.extend(map(tuple, rows))  # a row that is no iterable stops it here
        if not set(map(type, chain.from_iterable(payloads))) <= {int}:
            payloads = [tuple(map(index, p)) for p in payloads]
        flat = list(chain.from_iterable(payloads))
        if (
            set(map(len, payloads)) <= {_payload_len(group)}
            and INT64_MIN <= min(flat, default=0)
            and max(flat, default=0) <= INT64_MAX
            and (group.kind != KIND_SL3 or all(_det3(p) == 1 for p in payloads))
        ):
            return tuple(payloads)
    except TypeError:
        pass
    return tuple([make_element(group, r).payload for r in chain(payloads, rows[len(payloads):])])


def zn_element(*coords: int) -> GroupElement:
    return make_element(zn(len(coords)), coords)


def heisenberg_element(a: int, b: int, c: int) -> GroupElement:
    return make_element(HEISENBERG, (a, b, c))


def sl3_element(rows: Iterable[Iterable[int]]) -> GroupElement:
    flat = [v for row in rows for v in row]
    return make_element(SL3Z, flat)


def identity(group: GroupId) -> GroupElement:
    if group.kind == KIND_SL3:
        return GroupElement(group, (1, 0, 0, 0, 1, 0, 0, 0, 1))
    return GroupElement(group, (0,) * _payload_len(group))


def _zn_product(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return _checked(tuple(map(add, p, q)))


def _heisenberg_product(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # [a,b,c][a',b',c'] = [a+a', b+b', c+c'+a*b']
    a, b, c = p
    x, y, z = q
    return _checked((a + x, b + y, c + z + a * y))


def _sl3_product(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = p
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = q
    return _checked((
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    ))


# The group law on payloads, one checked product per kind: `multiply`, `ball`
# and `window_closure` all compute through these.
_PRODUCT = {KIND_ZN: _zn_product, KIND_HEISENBERG: _heisenberg_product, KIND_SL3: _sl3_product}


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    group = g.group
    if group is not h.group and group != h.group:
        raise GroupMismatch(f"{group} vs {h.group}")
    return GroupElement(group, _PRODUCT[group.kind](g.payload, h.payload))


def inverse(g: GroupElement) -> GroupElement:
    kind = g.group.kind
    p = g.payload
    if kind == KIND_ZN:
        payload = _checked(tuple(map(neg, p)))
    elif kind == KIND_HEISENBERG:
        a, b, c = p
        payload = _checked((-a, -b, a * b - c))
    else:
        # determinant 1, so the inverse is the adjugate
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = p
        payload = _checked((
            a4 * a8 - a5 * a7, a2 * a7 - a1 * a8, a1 * a5 - a2 * a4,
            a5 * a6 - a3 * a8, a0 * a8 - a2 * a6, a2 * a3 - a0 * a5,
            a3 * a7 - a4 * a6, a1 * a6 - a0 * a7, a0 * a4 - a1 * a3,
        ))
    return GroupElement(g.group, payload)


def commutator(g: GroupElement, h: GroupElement) -> GroupElement:
    """g * h * g^-1 * h^-1 (the convention is fixed here once and for all)."""
    return multiply(multiply(g, h), multiply(inverse(g), inverse(h)))


def power(g: GroupElement, k: int) -> GroupElement:
    if k < 0:
        g, k = inverse(g), -k
    result = identity(g.group)
    base = g
    while k:
        if k & 1:
            result = multiply(result, base)
        k >>= 1
        if k:
            base = multiply(base, base)
    return result


@dataclass(frozen=True)
class GeneratorSet:
    group: GroupId
    generators: tuple[GroupElement, ...]
    symmetric: bool = False

    def __post_init__(self):
        if not isinstance(self.symmetric, bool):
            raise TypeError(f"symmetric must be true or false, got {self.symmetric!r}")
        e = identity(self.group)
        seen = set()
        for g in self.generators:
            if g.group != self.group:
                raise GroupMismatch("generator belongs to a different group")
            if g == e:
                raise ValueError("the identity is not a generator")
            seen.add(g.payload)
        if len(seen) != len(self.generators):
            raise ValueError("duplicate generators")
        if self.symmetric:
            for g in self.generators:
                if inverse(g).payload not in seen:
                    raise ValueError("symmetric generator set not closed under inverse")


_SL3_POSITIONS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))


def sl3_unipotent(i: int) -> GroupElement:
    """The i-th elementary unipotent generator, i in 1..6 cyclically."""
    r, c = _SL3_POSITIONS[(i - 1) % 6]
    flat = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    flat[3 * r + c] = 1
    return GroupElement(SL3Z, tuple(flat))


def default_generators(group: GroupId) -> GeneratorSet:
    if group.kind == KIND_SL3:
        gens = tuple(sl3_unipotent(i) for i in range(1, 7))
    else:  # unit vectors: the x, y, z generators for the Heisenberg group
        d = _payload_len(group)
        gens = tuple(
            GroupElement(group, tuple(1 if i == j else 0 for j in range(d)))
            for i in range(d)
        )
    return GeneratorSet(group, gens)


class Window:
    """Finite indexed subset of a group; always contains the identity.
    The payloads are the window; its elements are built on demand."""

    __slots__ = ("group", "payloads", "_index", "_elements")

    def __init__(self, group: GroupId, rows: Iterable[Iterable[int]]):
        """Window over the payload rows, in order: the one place raw payloads
        become a window.  Raises what make_element raises for the first bad
        row (a GroupElement is not a row: TypeError), then ValueError on a
        duplicate or a missing identity."""
        payloads = checked_payloads(group, rows)
        index = dict(zip(payloads, range(len(payloads))))
        if len(index) != len(payloads):
            raise ValueError("duplicate window element")
        if identity(group).payload not in index:
            raise ValueError("window must contain the identity")
        self.group = group
        self.payloads = payloads
        self._index = index
        self._elements = None

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        if self._elements is None:
            group = self.group
            self._elements = tuple([GroupElement(group, p) for p in self.payloads])
        return self._elements

    def __len__(self) -> int:
        return len(self.payloads)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return self.find(g) is not None

    def find(self, g: GroupElement):
        """Position of g, or None when absent (an element of another group
        is absent, whatever its payload)."""
        if g.group is self.group or g.group == self.group:
            return self._index.get(g.payload)
        return None

    def position(self, g: GroupElement) -> int:
        return self.positions((g,))[0]

    def positions(
        self, elements: Iterable[GroupElement], missing: type = ElementNotInWindow
    ) -> list[int]:
        """Positions of the elements, in order; the first absent one raises
        ``missing``."""
        out = []
        for g in elements:
            p = self.find(g)
            if p is None:
                raise missing(f"{g!r} not in window")
            out.append(p)
        return out

    def payload_positions(self, payloads: Iterable[tuple[int, ...]]) -> list[int | None]:
        """Position of each payload, None where it is absent."""
        return list(map(self._index.get, payloads))

    def preimages(self, g: GroupElement, elements: Sequence[GroupElement]) -> list[int | None]:
        """Position of g^-1 x for each x of elements, None where it lies
        outside the window: the one place a translate is looked up.  g and
        the elements must be of the window's group (GroupMismatch); with no
        elements only g's group is checked."""
        group = self.group
        if g.group is not group and g.group != group:
            raise GroupMismatch("translation element from a different group")
        if not elements:
            return []
        ginv = inverse(g).payload
        product, get = _PRODUCT[group.kind], self._index.get
        out = []
        for x in elements:
            if x.group is not group and x.group != group:
                raise GroupMismatch(f"{group} vs {x.group}")
            out.append(get(product(ginv, x.payload)))
        return out

    def element(self, i: int) -> GroupElement:
        return GroupElement(self.group, self.payloads[i])

    def __eq__(self, other):
        return (
            isinstance(other, Window)
            and self.group == other.group
            and self.payloads == other.payloads
        )

    def __hash__(self):
        return hash((self.group, self.payloads))

    def __repr__(self):
        return f"Window({self.group}, {len(self)} elements)"


def missing_translate(g: GroupElement, elements: Sequence[GroupElement], pre: list) -> GroupElement:
    """The first g^-1 x whose entry of pre, a window's preimages(g, elements),
    is None; built only to name it in an error."""
    return multiply(inverse(g), next(x for x, p in zip(elements, pre) if p is None))


def ball(gens: GeneratorSet, radius: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> Window:
    """Breadth-first ball of word length <= radius over gens and inverses."""
    if not gens.generators:
        raise ValueError("ball needs a nonempty generator set")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    group = gens.group
    product = _PRODUCT[group.kind]
    steps = sorted({p for g in gens.generators for p in (g.payload, inverse(g).payload)})

    e = identity(group).payload
    seen = {e}
    ordered = [e]
    frontier = [e]
    for _ in range(radius):
        layer = []
        for p in frontier:
            for s in steps:
                h = product(p, s)
                if h not in seen:
                    seen.add(h)
                    layer.append(h)
                    if len(seen) > size_limit:
                        raise SizeLimitExceeded(
                            f"ball exceeds the {size_limit}-element cap"
                        )
        layer.sort()
        ordered += layer
        frontier = layer
        if not layer:
            break
    return Window(group, ordered)


def window_closure(
    w: Window,
    multipliers: Iterable[GroupElement],
    size_limit: int = DEFAULT_SIZE_LIMIT,
) -> Window:
    """Extend w with g*m for every g in w and multiplier m.

    One closure round over the original window; appended elements follow the
    existing ones in lexicographic payload order.
    """
    mults = list(multipliers)
    for m in mults:
        if m.group != w.group:
            raise GroupMismatch("multiplier from a different group")
    product = _PRODUCT[w.group.kind]
    have = w._index
    fresh = set()
    for p in have:
        for m in mults:
            h = product(p, m.payload)
            if h not in have:
                fresh.add(h)
    if len(w) + len(fresh) > size_limit:
        raise SizeLimitExceeded(f"closure exceeds the {size_limit}-element cap")
    return Window(w.group, [*have, *sorted(fresh)])


def window_from_elements(group: GroupId, elements: Iterable[GroupElement]) -> Window:
    """Window over the given elements plus the identity, in canonical
    (lexicographic payload) order."""
    pool = {identity(group).payload}
    for g in elements:
        if g.group != group:
            raise GroupMismatch("element from a different group")
        pool.add(g.payload)
    return Window(group, sorted(pool))


def interval_window(lo: int, hi: int) -> Window:
    """Window {lo, ..., hi-1} in Z, in natural order; must contain 0."""
    if not lo <= 0 < hi:
        raise ValueError("interval window must contain 0")
    return Window(zn(1), [(k,) for k in range(lo, hi)])
