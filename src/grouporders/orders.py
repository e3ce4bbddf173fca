"""Strict partial and total orders restricted to a finite window.

The relation is a bit matrix packed into Python integers, one bitmask per
row (rel[i] bit j set means element_i < element_j).  ``closed`` claims that
the relation is transitive; whether it is total is read from the rows alone.
A total order may instead be stored as its perm, which keeps huge windows
cheap: its ranks are inverted from the perm on first use, and dense rows are
materialized only on demand, below a size guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from typing import Iterable, Iterator, Sequence

from .errors import DomainNotCovered, NotRectangular, NotTotal, SizeLimitExceeded
from .groups import GroupElement, Window, inverse, multiply

MAX_DENSE_ELEMENTS = 20_000

# bin() digits as bytes 0 and 1, so that compress() reads the set bits
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class OrderMatrix:
    __slots__ = ("window", "closed", "_rows", "_ranks", "_perm")

    def __init__(self, window: Window, *, rows=None, ranks=None, perm=None, closed=False):
        self.window = window
        self.closed = closed
        self._rows = rows
        self._ranks = ranks
        self._perm = perm

    # -- constructors -------------------------------------------------

    @classmethod
    def from_pairs(cls, window: Window, pairs: Iterable[tuple[int, int]], *, closed: bool = False) -> "OrderMatrix":
        n = len(window)
        rows = [0] * n
        for i, j in pairs:
            if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) out of range")
            if i == j:
                raise ValueError("reflexive pair rejected")
            rows[i] |= 1 << j
        return cls(window, rows=rows, closed=closed)

    @classmethod
    def from_ranks(cls, window: Window, ranks: Iterable[int]) -> "OrderMatrix":
        ranks, perm = _permutation(ranks, len(window), "ranks")
        return cls(window, ranks=ranks, perm=perm, closed=True)

    @classmethod
    def from_perm(cls, window: Window, perm: Sequence[int]) -> "OrderMatrix":
        """Total order listing window indices from smallest to largest."""
        perm, ranks = _permutation(perm, len(window), "perm")
        return cls(window, ranks=ranks, perm=perm, closed=True)

    @classmethod
    def from_keys(cls, window: Window, keys: Sequence) -> "OrderMatrix":
        """Total order ranking index i by keys[i]; keys must be distinct."""
        return cls.from_sorted(window, sorted(range(len(window)), key=keys.__getitem__))

    @classmethod
    def from_sorted(cls, window: Window, perm: list[int]) -> "OrderMatrix":
        """``from_perm`` for a perm known to be one, such as a sort of the
        window's indices or a walk that lists the window in order: it is
        neither checked nor inverted, and the order keeps it."""
        return cls(window, perm=perm, closed=True)

    # -- queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.window)

    def _rank_list(self) -> list[int] | None:
        """The ranks of a perm order, inverted from its perm on first use and
        kept; None for a rows order.  The one reader of ``_ranks``."""
        if self._ranks is None and self._perm is not None:
            self._ranks = _invert(self._perm)
        return self._ranks

    def has(self, i: int, j: int) -> bool:
        if (ranks := self._rank_list()) is not None:
            return i != j and ranks[i] < ranks[j]
        return bool(self._rows[i] >> j & 1)

    def decided(self, i: int, j: int) -> bool:
        return self.has(i, j) or self.has(j, i)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Every decided pair (i, j), i below j, in row order; read from
        rows(), so a rank-vector order is capped as rows() is.  A row's set
        bits are read from its binary digits, lowest first."""
        return chain.from_iterable(
            zip(repeat(i), compress(count(), bin(row)[:1:-1].encode().translate(_BIT_BYTES)))
            for i, row in enumerate(self.rows())
        )

    def decided_count(self) -> int:
        if self._perm is not None:
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
        return self.induced(range(self.n))

    def induced(self, positions: Sequence[int | None]) -> list[int]:
        """Row bitmasks of the order restricted to ``positions``, over the
        local indices 0..k-1: bit b of row a is set iff
        positions[a] < positions[b].  A None entry is related to nothing;
        the other positions must be distinct."""
        rows = [0] * len(positions)
        if (ranks := self._rank_list()) is not None:
            at_rank = {ranks[p]: a for a, p in enumerate(positions) if p is not None}
            suffix = 0  # walk down from the top, each row is the set above it
            for r in sorted(at_rank, reverse=True):
                a = at_rank[r]
                rows[a] = suffix
                suffix |= 1 << a
            return rows
        live = [a for a, p in enumerate(positions) if p is not None]
        for a in live:
            row = self._rows[positions[a]]
            for b in live:
                if row >> positions[b] & 1:
                    rows[a] |= 1 << b
        return rows

    def agrees_on(self, other: "OrderMatrix", positions: Sequence[int]) -> bool:
        """Whether this order and other relate the distinct positions alike:
        when both keep ranks, the positions sorted by each order's ranks are
        the same list; otherwise their induced rows are equal."""
        mine, theirs = self._rank_list(), other._rank_list()
        if mine is not None and theirs is not None:
            by_mine = sorted(positions, key=mine.__getitem__)
            return by_mine == sorted(positions, key=theirs.__getitem__)
        return self.induced(positions) == other.induced(positions)

    def ranking(self, positions: Sequence[int]) -> tuple[int, ...]:
        """Relative ranks (0 = smallest) of the positions; raises
        DomainNotCovered unless the order is total on them."""
        ranks = _total_ranks(self.induced(positions))
        if ranks is None:
            raise DomainNotCovered("order not total on the probed positions")
        return tuple(ranks)

    def ranks(self) -> list[int]:
        """Rank vector of a total order (0 = smallest)."""
        if (ranks := self._rank_list()) is not None:
            return list(ranks)
        ranks = _total_ranks(self._rows)
        if ranks is None:
            raise NotTotal("order is not total")
        return ranks

    def perm(self) -> list[int]:
        """Window indices of a total order, smallest first."""
        if self._perm is not None:
            return list(self._perm)
        return _invert(self.ranks())

    def __eq__(self, other):
        if not isinstance(other, OrderMatrix):
            return NotImplemented
        if self.window != other.window:
            return False
        if self._perm is not None and other._perm is not None:
            return self._perm == other._perm
        return self.rows() == other.rows()

    __hash__ = None

    def __repr__(self):
        kind = "total" if self._perm is not None else f"{self.decided_count()} pairs"
        return f"OrderMatrix({self.window!r}, {kind}, closed={self.closed})"


def _permutation(values: Iterable[int], n: int, what: str) -> tuple[list[int], list[int]]:
    """The values as a list and its inverse, checked by inverting: n ints in
    0..n-1 that leave no slot of the inverse unfilled hold each one once."""
    out = list(values)
    ints = len(out) == n and set(map(type, out)) <= {int}  # JSON true is not 1
    if ints and min(out, default=0) >= 0 and max(out, default=-1) < n:
        inv = _invert(out)
        if -1 not in inv:
            return out, inv
    raise ValueError(f"{what} must be a permutation of 0..n-1")


def _total_ranks(rows: Sequence[int]) -> list[int] | None:
    """Ranks (0 = smallest) of the relation given by row bitmasks, or None
    unless it is a strict total order.  Read from the top down, a total
    order's rows are exactly {}, {top}, {top, second}, ..."""
    k = len(rows)
    ranks = [k - 1 - row.bit_count() for row in rows]
    suffix = 0
    for a in sorted(range(k), key=ranks.__getitem__, reverse=True):
        if rows[a] != suffix:
            return None
        suffix |= 1 << a
    return ranks


def _invert(perm: Sequence[int]) -> list[int]:
    """Inverse permutation: turns a perm into ranks and ranks into a perm.
    A slot that no entry names holds -1."""
    inv = [-1] * len(perm)
    for r, i in enumerate(perm):
        inv[i] = r
    return inv


def is_total(m: OrderMatrix) -> bool:
    return m._perm is not None or _total_ranks(m._rows) is not None


def translate_order(m: OrderMatrix, g: GroupElement) -> OrderMatrix:
    """The order x < y iff g^-1 x < g^-1 y, restricted to the window.

    Pairs whose preimage leaves the window are dropped (undecided).
    """
    if m.n > MAX_DENSE_ELEMENTS:
        raise SizeLimitExceeded(
            f"translating a {m.n}-element order needs a dense matrix"
        )
    rows = m.induced(m.window.preimages(g, m.window))
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
    past = past_set(m, x)
    xinv = inverse(x)
    return {multiply(xinv, y) for y in past}


@dataclass(frozen=True)
class CylinderSpec:
    """A finite window D together with a required total pattern on it."""

    window: Window
    pattern: OrderMatrix

    def __post_init__(self):
        if self.pattern.window != self.window:
            raise ValueError("pattern must live on the cylinder window")
        if not is_total(self.pattern):
            raise ValueError("cylinder pattern must be a total order")


def matches_cylinder(m: OrderMatrix, c: CylinderSpec) -> bool:
    """True iff m restricted to the cylinder window equals its pattern."""
    positions = m.window.positions(c.window, DomainNotCovered)
    return m.ranking(positions) == tuple(c.pattern.ranks())


def render_levels(m: OrderMatrix) -> list[list[int]]:
    """Rank grid of a total order on a rectangular Z^2 window, as a list of
    rows (``grid[row][col]``).

    Rows run from the largest y down to the smallest, columns from the
    smallest x up; each cell holds the 0-based rank of that lattice point.
    """
    group = m.window.group
    if group.kind != "zn" or group.n != 2:
        raise NotRectangular("level rendering needs a Z^2 window")
    ranks = m.ranks()  # NotTotal unless the order is total
    xs = sorted({p[0] for p in m.window.payloads})
    ys = sorted({p[1] for p in m.window.payloads})
    if len(xs) * len(ys) != m.n:
        raise NotRectangular("window is not a full rectangle")
    # distinct sorted ints are consecutive iff they span fewer than their count;
    # a full rectangle of distinct points then holds every (x, y) cell once
    if xs[-1] - xs[0] >= len(xs) or ys[-1] - ys[0] >= len(ys):
        raise NotRectangular("window is not a contiguous rectangle")
    positions = m.window.payload_positions([(x, y) for y in reversed(ys) for x in xs])
    cells = list(map(ranks.__getitem__, positions))
    width = len(xs)
    return [cells[k:k + width] for k in range(0, len(cells), width)]
