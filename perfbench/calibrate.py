"""A fixed pure-Python reference loop that tracks the CPU's current speed.

The host this benchmark was built on switches, for seconds to minutes at a
time, into a state in which all Python code runs about 1.5 times slower.
Such a state changes whole runs, so no statistic taken inside one run
removes it.  The benchmark therefore times this reference loop around every
op and reports op times scaled to a CPU that runs the loop in ``REF_S``
seconds: ``seconds * REF_S / reference``.  The loop never calls the
program, so a change to the program moves the scaled times exactly as it
moves the raw ones.

The loop mixes the kinds of work the program does (dict and set lookups
on tuple keys, sorting, small-object method calls, integer arithmetic,
pointer chasing through a large list, JSON), because the slow state
slows each kind by a somewhat different factor.  Its time is the
geometric mean of the parts.
"""

from __future__ import annotations

import json
import math
import random
from time import perf_counter

# Seconds the reference loop takes on the CPU the scaled times refer to:
# about its time in the fast state of a 2-vCPU Intel Xeon VM, Python 3.11.
REF_S = 0.0013

_KEYS = list(range(1000))
random.Random(7).shuffle(_KEYS)
_CHAIN = list(range(100_000))
random.Random(8).shuffle(_CHAIN)
_DOC = [{"a": i, "b": [i, i + 1, str(i)], "c": i * 0.5} for i in range(300)]


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def add(self, other):
        return _Point(self.x + other.x, self.y ^ other.y)


def _dicts():
    table, acc = {}, 0
    for i, k in enumerate(_KEYS):
        table[(k, i & 15)] = k * 2654435761 & 0xFFFFFFFF
        acc ^= table[(k, i & 15)]
    values = sorted(table.values())
    seen = set(values[::3])
    return acc + sum(1 for v in values if v in seen)


def _objects():
    p, q = _Point(0, 0), _Point(1, 3)
    for _ in range(3000):
        p = p.add(q)
    return p.x


def _integers():
    a = 1
    for i in range(10_000):
        a = (a * 1103515245 + i) % 2147483647
    return a


def _chase():
    total, j = 0, 1
    for _ in range(7500):
        j = _CHAIN[j]
        total += j
    return total


def _json():
    return len(json.loads(json.dumps(_DOC)))


def _sort():
    return sorted(_CHAIN[:15_000])[0]


PARTS = (_dicts, _objects, _integers, _chase, _json, _sort)


def reference() -> float:
    """Seconds of one pass of the reference loop: the geometric mean of
    its parts' times."""
    logs = 0.0
    for part in PARTS:
        t0 = perf_counter()
        part()
        logs += math.log(perf_counter() - t0)
    return math.exp(logs / len(PARTS))


def scale(seconds: float, ref: float) -> float:
    """``seconds`` measured while the loop took ``ref``, on the CPU of
    ``REF_S``."""
    return seconds * REF_S / ref
