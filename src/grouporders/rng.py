"""Counter-based deterministic random streams.

Draws are keyed BLAKE2b hashes of (seed, label parts).  A value depends only
on the seed and its label, never on how many draws came before it, so
enlarging a window preserves the draws of elements already present.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from hashlib import blake2b
from typing import Iterable

SEED_BITS = 64
_SEP = b"\x1f"


def _as_bytes(part) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, str):
        return part.encode("utf-8")
    if isinstance(part, int):
        return str(part).encode("ascii")
    raise TypeError(f"unsupported label part {part!r}")


def check_seed(seed: int) -> int:
    if type(seed) is not int or not 0 <= seed < (1 << SEED_BITS):
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def _prefix(seed: int, parts) -> blake2b:
    """BLAKE2b keyed by the seed with ``parts`` absorbed."""
    check_seed(seed)
    h = blake2b(key=seed.to_bytes(8, "little"), digest_size=8)
    for part in parts:
        h.update(_as_bytes(part))
        h.update(_SEP)
    return h


def u64(seed: int, *parts) -> int:
    """Uniform 64-bit draw for the stream named by ``parts``."""
    return int.from_bytes(_prefix(seed, parts).digest(), "little")


def u64_each(seed: int, head: tuple, items: Iterable[bytes], tail: tuple = ()) -> list[int]:
    """``[u64(seed, *head, item, *tail) for item in items]`` for bytes items
    (such as ``groups.payload_keys``), keying the hash and absorbing ``head``
    once and copying that state per item (RFC 7693's incremental interface);
    the digests are read as integers in one unpack."""
    copy = _prefix(seed, head).copy
    rest = _SEP + b"".join([_as_bytes(part) + _SEP for part in tail])
    digests = []
    for item in items:
        d = copy()
        d.update(item)
        d.update(rest)
        digests.append(d.digest())
    return list(struct.unpack(f"<{len(digests)}Q", b"".join(digests)))


def derive_seed(seed: int, *parts) -> int:
    """A fresh 64-bit seed for a disjoint sub-stream."""
    return u64(seed, b"subseed", *parts)


def unit_fraction(seed: int, *parts) -> Fraction:
    """Exact rational draw in [0, 1) with denominator 2**64."""
    return Fraction(u64(seed, *parts), 1 << SEED_BITS)
