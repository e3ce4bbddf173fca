"""Strict partial and total orders restricted to a finite window.

The relation is a bit matrix packed into Python integers, one bitmask per
row (rel[i] bit j set means element_i < element_j).  Total closed orders may
instead be stored as a rank vector, which keeps huge windows cheap; dense
rows are materialized only on demand and only below a size guard.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    ContradictionError,
    DomainNotCovered,
    GroupMismatch,
    NotRectangular,
    NotTotal,
    SizeLimitExceeded,
)
from .groups import GroupElement, Window, inverse, multiply

MAX_DENSE_ELEMENTS = 20_000


class OrderMatrix:
    __slots__ = ("window", "closed", "_rows", "_ranks")

    def __init__(self, window: Window, *, rows=None, ranks=None, closed=False):
        self.window = window
        self.closed = closed
        self._rows = rows
        self._ranks = ranks

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, window: Window, pairs: Iterable[tuple[int, int]], *, closed: bool = False) -> "OrderMatrix":
        n = len(window)
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) out of range")
            if i == j:
                raise ValueError("reflexive pair rejected")
            rows[i] |= 1 << j
        return cls(window, rows=rows, closed=closed)

    @classmethod
    def from_ranks(cls, window: Window, ranks: Iterable[int]) -> "OrderMatrix":
        rank_list = list(ranks)
        n = len(window)
        if sorted(rank_list) != list(range(n)):
            raise ValueError("ranks must be a permutation of 0..n-1")
        return cls(window, ranks=rank_list, closed=True)

    @classmethod
    def empty(cls, window: Window) -> "OrderMatrix":
        return cls(window, rows=[0] * len(window), closed=True)

    @classmethod
    def from_perm(cls, window: Window, perm: Sequence[int]) -> "OrderMatrix":
        """Total order listing window indices from smallest to largest."""
        return cls.from_ranks(window, _invert(perm))

    @classmethod
    def from_keys(cls, window: Window, keys: Sequence) -> "OrderMatrix":
        """Total order ranking index i by keys[i]; keys must be distinct."""
        return cls.from_perm(window, sorted(range(len(window)), key=keys.__getitem__))

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.window)

    def has(self, i: int, j: int) -> bool:
        if self._ranks is not None:
            return i != j and self._ranks[i] < self._ranks[j]
        return bool(self._rows[i] >> j & 1)

    def decided(self, i: int, j: int) -> bool:
        return self.has(i, j) or self.has(j, i)

    def pairs(self) -> Iterator[tuple[int, int]]:
        if self._ranks is not None:
            order = self.perm()
            for a in range(len(order)):
                for b in range(a + 1, len(order)):
                    yield (order[a], order[b])
            return
        for i, row in enumerate(self._rows):
            r = row
            while r:
                low = r & -r
                yield (i, low.bit_length() - 1)
                r ^= low

    def decided_count(self) -> int:
        if self._ranks is not None:
            return self.n * (self.n - 1) // 2
        return sum(row.bit_count() for row in self._rows)

    def rows(self) -> list[int]:
        """Dense row bitmasks (copy); guarded against huge windows."""
        if self._rows is not None:
            return list(self._rows)
        if self.n > MAX_DENSE_ELEMENTS:
            raise SizeLimitExceeded(
                f"dense matrix for {self.n} elements exceeds the {MAX_DENSE_ELEMENTS} cap"
            )
        rows = [0] * self.n
        suffix = 0
        for i in reversed(self.perm()):
            rows[i] = suffix
            suffix |= 1 << i
        return rows

    def ranks(self) -> list[int]:
        """Rank vector of a total closed order (0 = smallest)."""
        if self._ranks is not None:
            return list(self._ranks)
        if not self.closed:
            raise NotTotal("order must be closed before ranking")
        n = self.n
        ranks = [0] * n
        for i, row in enumerate(self._rows):
            above = row.bit_count()
            ranks[i] = n - 1 - above
        if sorted(ranks) != list(range(n)):
            raise NotTotal("order is not total")
        return ranks

    def perm(self) -> list[int]:
        """Window indices of a total closed order, smallest first."""
        return _invert(self.ranks())

    def __eq__(self, other):
        if not isinstance(other, OrderMatrix):
            return NotImplemented
        if self.window != other.window:
            return False
        if self._ranks is not None and other._ranks is not None:
            return self._ranks == other._ranks
        return self.rows() == other.rows()

    __hash__ = None

    def __repr__(self):
        kind = "total" if self._ranks is not None else f"{self.decided_count()} pairs"
        return f"OrderMatrix({self.window!r}, {kind}, closed={self.closed})"


def _invert(perm: Sequence[int]) -> list[int]:
    """Inverse permutation: turns a perm into ranks and ranks into a perm."""
    inv = [0] * len(perm)
    for r, i in enumerate(perm):
        inv[i] = r
    return inv


def _find_cycle(rows: list[int], start: int) -> list[int]:
    """Shortest directed cycle start -> ... -> start in the input relation."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        r = rows[u]
        while r:
            low = r & -r
            v = low.bit_length() - 1
            r ^= low
            if v == start:
                path = [start, u]
                while parent[u] is not None:
                    u = parent[u]
                    path.append(u)
                return path[::-1]
            if v not in parent:
                parent[v] = u
                queue.append(v)
    raise AssertionError("cycle start unreachable in input relation")


def transitive_closure(m: OrderMatrix) -> OrderMatrix:
    """Smallest transitive superset; raises ContradictionError on a cycle."""
    if m.closed:
        return m
    input_rows = m.rows()
    rows = list(input_rows)
    n = m.n
    for k in range(n):
        rk = rows[k]
        if not rk:
            continue
        bit = 1 << k
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    # after closure every cycle leaves a self-loop on each of its elements
    for i in range(n):
        if rows[i] >> i & 1:
            raise ContradictionError(_find_cycle(input_rows, i))
    return OrderMatrix(m.window, rows=rows, closed=True)


def is_total(m: OrderMatrix) -> bool:
    if not m.closed:
        raise ValueError("is_total needs a closed order")
    return m.decided_count() == m.n * (m.n - 1) // 2


def translate_order(m: OrderMatrix, g: GroupElement) -> OrderMatrix:
    """The order x < y iff g^-1 x < g^-1 y, restricted to the window.

    Pairs whose preimage leaves the window are dropped (undecided).
    """
    if g.group != m.window.group:
        raise GroupMismatch("translation element from a different group")
    if m.n > MAX_DENSE_ELEMENTS:
        raise SizeLimitExceeded(
            f"translating a {m.n}-element order needs a dense matrix"
        )
    pre = m.window.preimages(g, m.window)
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


def past_set(m: OrderMatrix, x: GroupElement) -> set[GroupElement]:
    """Window elements y with x < y."""
    if not m.closed:
        raise ValueError("past_set needs a closed order")
    i = m.window.position(x)
    return {m.window.element(j) for j in range(m.n) if m.has(i, j)}


def direction_set(m: OrderMatrix, x: GroupElement) -> set[GroupElement]:
    """Group elements s with x*s in the window and x < x*s."""
    if not m.closed:
        raise ValueError("direction_set needs a closed order")
    i = m.window.position(x)
    xinv = inverse(x)
    out = set()
    for j in range(m.n):
        if m.has(i, j):
            out.add(multiply(xinv, m.window.element(j)))
    return out


@dataclass(frozen=True)
class CylinderSpec:
    """A finite window D together with a required total pattern on it."""

    window: Window
    pattern: OrderMatrix

    def __post_init__(self):
        if self.pattern.window != self.window:
            raise ValueError("pattern must live on the cylinder window")
        if not self.pattern.closed or not is_total(self.pattern):
            raise ValueError("cylinder pattern must be a total closed order")


def matches_cylinder(m: OrderMatrix, c: CylinderSpec) -> bool:
    """True iff m restricted to the cylinder window equals its pattern."""
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


def render_levels(m: OrderMatrix) -> list[list[int]]:
    """Rank grid of a total order on a rectangular Z^2 window, as a list of
    rows (``grid[row][col]``).

    Rows run from the largest y down to the smallest, columns from the
    smallest x up; each cell holds the 0-based rank of that lattice point.
    """
    group = m.window.group
    if group.kind != "zn" or group.n != 2:
        raise NotRectangular("level rendering needs a Z^2 window")
    if not m.closed or not is_total(m):
        raise NotTotal("level rendering needs a total order")
    xs = sorted({g.payload[0] for g in m.window})
    ys = sorted({g.payload[1] for g in m.window})
    if len(xs) * len(ys) != m.n:
        raise NotRectangular("window is not a full rectangle")
    ranks = m.ranks()
    grid = [[0] * len(xs) for _ in ys]
    x0, y0 = xs[0], ys[0]
    for i, g in enumerate(m.window):
        x, y = g.payload
        if x - x0 not in range(len(xs)) or y - y0 not in range(len(ys)):
            raise NotRectangular("window is not a contiguous rectangle")
        grid[len(ys) - 1 - (y - y0)][x - x0] = ranks[i]
    return grid
