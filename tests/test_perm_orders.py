"""A total order is its perm.  An order from ``from_sorted`` or ``from_keys``
stores the perm alone and inverts it into ranks on first use; it must read
as the order ``from_perm`` builds eagerly, whatever is read first.  Every
whole-window draw that hands its order to ``from_sorted`` (the uniform, coset
and rotation samplers, ``realize``) must equal the sort of its keys.  The
ranks are read through one accessor and inverted by one function, which an
AST scan of ``src/`` keeps so."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grouporders import (
    HEISENBERG,
    OrderMatrix,
    Sqrt2Num,
    Window,
    ball,
    coset_sampler,
    default_generators,
    identity,
    interval_window,
    is_total,
    realize,
    rotation_action,
    rotation_sampler,
    torus_action,
    uniform_order,
    uniform_sampler,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import orders, rng, sampling

SRC = Path(__file__).resolve().parents[1] / "src" / "grouporders"

READS = ("perm", "ranks", "rows", "pairs", "has", "induced", "eq", "is_total", "repr")


def reads(m, name, positions):
    """One reading of the order m, as a comparable value."""
    n = m.n
    if name == "perm":
        return m.perm()
    if name == "ranks":
        return m.ranks()
    if name == "rows":
        return m.rows()
    if name == "pairs":
        return list(m.pairs())
    if name == "has":
        return [[m.has(i, j) for j in range(n)] for i in range(n)]
    if name == "induced":
        return m.induced(positions)
    if name == "eq":
        return m == OrderMatrix.from_pairs(m.window, m.pairs(), closed=True)
    if name == "is_total":
        return is_total(m)
    return repr(m)


@st.composite
def lazy_orders(draw):
    """(lazy order, the perm it lists, positions with None entries, the
    order of reads): a perm handed to ``from_sorted``, or a rank list or
    distinct keys handed to ``from_keys``."""
    n = draw(st.integers(1, 12))
    w = interval_window(0, n)
    kind = draw(st.sampled_from(["perm", "ranks", "keys"]))
    if kind == "perm":
        perm = list(draw(st.permutations(range(n))))
        lazy = OrderMatrix.from_sorted(w, list(perm))
    else:
        if kind == "ranks":
            keys = list(draw(st.permutations(range(n))))
        else:  # (value, encoding) keys with ties in the values, as uniform keys
            values = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            keys = [(v, bytes([i])) for i, v in enumerate(values)]
        perm = [i for _, i in sorted(zip(keys, range(n)))]
        lazy = OrderMatrix.from_keys(w, keys)
    positions = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)), max_size=n))
    seen = set()  # the non-None positions are distinct
    positions = [p if p not in seen and not seen.add(p) else None for p in positions]
    return lazy, perm, positions, draw(st.permutations(READS))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lazy_orders())
def test_a_lazy_order_reads_as_the_eager_one(case):
    lazy, perm, positions, order = case
    eager = OrderMatrix.from_perm(lazy.window, perm)
    for name in order:  # the ranks are inverted at whichever read comes first
        assert reads(lazy, name, positions) == reads(eager, name, positions), name
    assert lazy == eager and lazy.perm() == perm
    assert all(eager.ranks()[i] == r for r, i in enumerate(perm))
    swapped = OrderMatrix.from_sorted(lazy.window, perm[::-1])
    assert (lazy == swapped) is (lazy.n == 1)


def test_equality_and_totality_of_perm_orders_invert_nothing(monkeypatch):
    w = interval_window(-3, 4)
    a, b = OrderMatrix.from_sorted(w, [3, 1, 2, 0, 6, 5, 4]), OrderMatrix.from_keys(w, [5, 0, 6, 1, 4, 2, 3])
    monkeypatch.setattr(orders, "_invert", lambda perm: 1 // 0)
    assert is_total(a) and "total" in repr(a)
    assert a == OrderMatrix.from_sorted(w, [3, 1, 2, 0, 6, 5, 4]) and a != b
    assert b.perm() == [1, 3, 5, 6, 4, 0, 2]
    with pytest.raises(ZeroDivisionError):
        a.ranks()


def test_perm_orders_beyond_the_dense_cap_compare():
    w = interval_window(-10_000, 10_001)
    assert len(w) > orders.MAX_DENSE_ELEMENTS
    x, y = Fraction(3, 10), Fraction(7, 10)
    rot = rotation_action(Sqrt2Num.of(-1, 1))
    assert uniform_order(w, 1) == uniform_order(w, 1)
    assert uniform_order(w, 1) != uniform_order(w, 2)
    assert realize(rot, x, w) == OrderMatrix.from_perm(w, realize(rot, x, w).perm())
    assert realize(rot, x, w) != realize(rot, y, w)


# -- whole-window draws against the sort of their keys ---------------------

ALPHAS = [Sqrt2Num.of(-1, 1), Sqrt2Num.of(Fraction(-9, 4), Fraction(2, 3))]


def z_window(values, seed):
    """A Z window over the values and 0, in a shuffled order."""
    values = sorted(set(values) | {0})
    random.Random(seed).shuffle(values)
    return Window(zn(1), [(k,) for k in values])


Z_WINDOWS = {
    "interval": interval_window(-25, 26),
    "ball": ball(default_generators(zn(1)), 30),  # 0, -1, 1, -2, 2, ...
    "shuffled": z_window(range(-17, 40), 1),
    "gaps": z_window([k for k in range(-30, 31) if k % 3], 2),  # hull 61, 41 values
    "half": z_window(range(-20, 21, 2), 3),  # hull 41, 21 values: walked
    "sparse": z_window(range(-60, 61, 3), 4),  # hull 121, 41 values: sorted
    "far": z_window([-(10**12), 5, 9, 10**12 + 1], 5),
}


def torus_sampler(w, alphas):
    """The torus realization at a point drawn from the seed, keyed and drawn."""
    action = torus_action(alphas)

    def point(s):
        return tuple(rng.unit_fraction(s, "point", i) for i in range(action.dim))

    return sampling.ProjectiveSampler(
        w,
        lambda payloads: lambda s: sampling.orbit_keys(action, point(s), w.group, payloads),
        lambda s: realize(action, point(s), w),
    )


def coset_samplers():
    w = ball(default_generators(zn(2)), 3)
    axis = Window(zn(2), [(0, y) for y in range(-3, 4)])
    inner = OrderMatrix.from_perm(axis, [3, 0, 6, 2, 5, 1, 4])
    e = identity(zn(2))
    return {
        "coset-axis": coset_sampler(w, lambda g: g.payload[0] == 0, inner),
        "coset-trivial": coset_sampler(w, lambda g: g == e, OrderMatrix.from_perm(Window(zn(2), [e.payload]), [0])),
        "coset-whole": coset_sampler(w, lambda g: True, uniform_order(w, 3)),
    }


def samplers():
    out = {
        "uniform-z2": uniform_sampler(ball(default_generators(zn(2)), 3)),
        "uniform-heis": uniform_sampler(ball(default_generators(HEISENBERG), 2)),
        **coset_samplers(),
        "torus": torus_sampler(
            window_from_elements(zn(2), [zn_element(a, b) for a in range(-4, 5) for b in range(-3, 2)]),
            [Sqrt2Num.of(-1, 1), Sqrt2Num.of(Fraction(1, 3), 2)],
        ),
        "torus-sparse": torus_sampler(
            window_from_elements(zn(2), [zn_element(5 * a, 7 * b) for a in range(-3, 4) for b in range(-3, 4)]),
            [Sqrt2Num.of(Fraction(-5, 3), 2), Sqrt2Num.of(-1, 1)],
        ),
    }
    for name, w in Z_WINDOWS.items():
        for a, alpha in enumerate(ALPHAS):
            out[f"rotation-{name}-{a}"] = rotation_sampler(rotation_action(alpha), w)
    return out


SAMPLERS = samplers()
SEEDS = [*range(200), 2**64 - 1]


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_whole_window_draws_are_the_sort_of_their_keys(name):
    sampler = SAMPLERS[name]
    w = sampler.window
    assert sampler.draw is not None
    for seed in SEEDS:
        drawn = sampler(seed)
        keyed = OrderMatrix.from_keys(w, sampler.keys(w.payloads)(seed))
        assert drawn == keyed, seed
        assert drawn.ranks() == keyed.ranks()


def test_realize_rotation_is_the_sort_of_its_orbit_keys():
    for w in Z_WINDOWS.values():
        for alpha in ALPHAS:
            action = rotation_action(alpha)
            for x in (Fraction(0), Fraction(1, 3), Sqrt2Num.of(Fraction(1, 5), Fraction(-2, 7)), 5 - alpha * 9):
                keyed = OrderMatrix.from_keys(w, sampling.orbit_keys(action, x, w.group, w.payloads))
                assert realize(action, x, w).perm() == keyed.perm()


# -- one reader of _ranks, one inversion -----------------------------------


def _rank_uses(path):
    """(scope, what) for each read of an attribute ``_ranks`` and each use of
    the name ``_invert`` (a call, a reference or an import) in path."""

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.scope = [path.stem]
            self.found = []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr == "_ranks" and isinstance(node.ctx, ast.Load):
                self.found.append((".".join(self.scope), "_ranks"))
            if node.attr == "_invert":
                self.found.append((".".join(self.scope), "_invert"))
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "_invert":
                self.found.append((".".join(self.scope), "_invert"))

        def visit_ImportFrom(self, node):
            if any(alias.name == "_invert" for alias in node.names):
                self.found.append((".".join(self.scope), "_invert"))

    v = Visitor()
    v.visit(ast.parse(path.read_text()))
    return v.found


def test_ranks_have_one_reader_and_one_inversion():
    uses = {u for f in sorted(SRC.glob("*.py")) for u in _rank_uses(f)}
    assert {scope for scope, what in uses if what == "_ranks"} == {"orders.OrderMatrix._rank_list"}
    assert {scope.split(".")[0] for scope, what in uses if what == "_invert"} == {"orders"}


def test_the_scan_sees_a_second_reader(tmp_path):
    path = tmp_path / "stray.py"
    path.write_text(
        "from .orders import _invert\n"
        "def peek(m):\n    return m._ranks\n"
        "def poke(m, r):\n    m._ranks = r\n"
    )
    assert sorted(_rank_uses(path)) == [("stray", "_invert"), ("stray.peek", "_ranks")]
