"""The three workloads: inputs generated from the workload seed, and blocks
of CLI operations with their output checks.

A block is one pass over a workload's op mix, shuffled.  Every block has
the same mix of op kinds and input sizes; from block to block only the
sampling seeds change (and, for certify, the input variant), so runs that
complete different numbers of blocks measure the same thing.  Each block
has an odd number of ops, which keeps the median inside one op kind.
Block 0 depends on the workload seed alone; its outputs feed the digest.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SIZE_LIMIT = "200000"  # above the 100 001-element window of ball z1 --radius 50000


@dataclass
class Op:
    kind: str
    argv: list[str]
    outputs: list[str]
    expect_rc: int
    check: Callable[[], dict]
    orders: int  # orders, certificates or samples the op produces
    elements: int  # window elements those orders rank (or the ball produces)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sub_seed(*parts) -> int:
    return random.Random(":".join(map(str, parts))).getrandbits(63)


class Files:
    def __init__(self, root: Path):
        self.root = root
        (root / "in").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(parents=True, exist_ok=True)

    def write(self, name: str, obj) -> str:
        path = self.root / "in" / name
        path.write_text(obj if isinstance(obj, str) else dumps(obj), encoding="utf-8")
        return str(path)

    def out(self, name: str) -> str:
        return str(self.root / "out" / name)


def zn_window(n: int, elements) -> dict:
    return {"format": 1, "group": {"kind": "zn", "n": n}, "elements": [list(e) for e in elements]}


def z1_ball(radius: int) -> list[tuple[int]]:
    """The order ``ball z1`` lists: identity, then -k before k per layer."""
    out = [(0,)]
    for k in range(1, radius + 1):
        out += [(-k,), (k,)]
    return out


def perm_order(window: dict, perm) -> dict:
    return {"format": 1, "closed": True, "perm": list(perm), "window": window}


def random_perm(rnd: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rnd.shuffle(perm)
    return perm


class Workload:
    name = ""

    def __init__(self, go, root: Path, seed: int):
        self.go = go
        self.files = Files(root)
        self.seed = seed

    def block(self, b: int) -> list[Op]:
        ops = self.ops(b)
        random.Random(sub_seed(self.name, self.seed, "order", b)).shuffle(ops)
        return ops

    def ops(self, b: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self) -> list[Op]:
        raise NotImplementedError


# -- certify -------------------------------------------------------------------


class Certify(Workload):
    """check-extend on SAT and UNSAT positive-cone systems, and verify-sl3."""

    name = "certify"
    BALLS = [("z2", 6), ("z2", 10), ("z2", 14), ("heis", 3), ("heis", 5), ("sl3", 2)]
    # SAT systems run twice a block, from two variants: the two heaviest
    # ops (about 130 and 150 ms) then make 4 of the 23 ops, so p90 falls
    # inside them and not on their lower edge, and the two light ones
    # keep the median where it was.
    TWICE = ("z26", "heis3", "z214", "heis5")
    SL3_INSTANCES = 7  # 23 ops a block
    # Block b uses input variant b mod VARIANTS, so one run averages over
    # many random systems and its figures depend little on the seed.
    VARIANTS = 32

    def __init__(self, go, root, seed):
        super().__init__(go, root, seed)
        rnd = random.Random(sub_seed(self.name, seed, "inputs"))
        self.systems = [[] for _ in range(self.VARIANTS)]
        for group, radius in self.BALLS:
            for v, pair in enumerate(self._systems(rnd, group, radius, self.VARIANTS)):
                self.systems[v] += pair
        self.sl3 = [[self._sl3_instance(rnd, i) for i in range(self.SL3_INSTANCES)] for _ in range(self.VARIANTS)]
        self.tiny = self._systems(rnd, "z2", 2, 1)[0] + [(1, (2,) * 6, 2)]

    def _systems(self, rnd, group, radius, variants):
        """A SAT and an UNSAT system on one ball, for each variant."""
        g, c = self.go.groups, self.go.constraints
        gid, spec = {
            "z2": (g.zn(2), c.quadrant_order(2)),
            "heis": (g.HEISENBERG, c.heisenberg_positive_order()),
            "sl3": (g.SL3Z, c.sl3_positive_order()),
        }[group]
        window = g.ball(g.default_generators(gid), radius)
        base = c.build_extension_system(window, spec)
        n, atoms = len(window), list(base.atoms)
        out = []
        for v in range(variants):
            pair = []
            for verdict, extra in (("sat", consistent_atoms(rnd, n, atoms, 5)), ("unsat", [reversed_pair(rnd, n, atoms)])):
                full = tuple(sorted(set(atoms) | set(extra)))
                cs = c.ConstraintSystem(window, full, base.convention)
                path = self.files.write(f"{group}{radius}-{verdict}-{v}.json", self.go.serialize.system_to_json(cs))
                pair.append((f"{group}{radius}", verdict, path, full, n))
            out.append(pair)
        return out

    @staticmethod
    def _sl3_instance(rnd, i):
        """q cycles through 1..3; the n_i are a shuffled fixed multiset, so
        the window size, and the cost, depend on q alone."""
        q = i % 3 + 1
        ns = [q + 1, q + 1, q + 2, q + 2, q + 3, q + 3]
        rnd.shuffle(ns)
        return q, tuple(ns), q + 4

    def _check_extend(self, label, verdict, path, atoms, n, tag="a"):
        cert = self.files.out(f"{label}-{verdict}-{tag}.cert.json")
        return Op(
            f"check-extend.{verdict}",
            ["check-extend", path, "-o", cert],
            [cert],
            0 if verdict == "sat" else 1,
            lambda: checks.check_certificate(atoms, n, cert, verdict),
            1,
            n,
        )

    def _verify_sl3(self, i, q, ns, trunc):
        report, cert, system = (self.files.out(f"sl3-{i}.{s}.json") for s in ("report", "cert", "system"))
        argv = ["verify-sl3", "--q", str(q), "--n", *map(str, ns), "--trunc", str(trunc),
                "-o", report, "--certificate-out", cert, "--system-out", system]
        return Op("verify-sl3", argv, [report, cert, system], 1,
                  lambda: checks.check_verify_sl3(report, system, cert), 1, 0)

    def ops(self, b):
        v = b % self.VARIANTS
        again = [s for s in self.systems[(v + self.VARIANTS // 2) % self.VARIANTS] if s[0] in self.TWICE and s[1] == "sat"]
        ops = [self._check_extend(*s) for s in self.systems[v]]
        ops += [self._check_extend(*s, tag="b") for s in again]
        ops += [self._verify_sl3(i, *inst) for i, inst in enumerate(self.sl3[v])]
        return ops

    def warmup(self):
        return [self._check_extend(*s) for s in self.tiny[:2]] + [self._verify_sl3("w", *self.tiny[2])]


def consistent_atoms(rnd, n, atoms, k):
    """k new atoms agreeing with a random linear extension of ``atoms``."""
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in atoms:
        succ[i].append(j)
        indeg[j] += 1
    heap = [(rnd.random(), v) for v in range(n) if indeg[v] == 0]
    heapq.heapify(heap)
    pos = [0] * n
    rank = 0
    while heap:
        _, v = heapq.heappop(heap)
        pos[v] = rank
        rank += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (rnd.random(), w))
    have = set(atoms)
    extra = set()
    while len(extra) < k:
        a, b = rnd.sample(range(n), 2)
        if pos[a] > pos[b]:
            a, b = b, a
        if (a, b) not in have:
            extra.add((a, b))
    return sorted(extra)


def reversed_pair(rnd, n, atoms, length=6, attempts=500):
    """An atom end -> start closing a random positive walk of ``length``
    steps (or the longest found), so the forced cycle needs several
    propagation rounds."""
    succ = [[] for _ in range(n)]
    for i, j in atoms:
        succ[i].append(j)
    best = (0, 0, 0)
    for _ in range(attempts):
        start = cur = rnd.randrange(n)
        steps = 0
        while steps < length and succ[cur]:
            cur = rnd.choice(succ[cur])
            steps += 1
        if steps > best[0]:
            best = (steps, start, cur)
            if steps == length:
                break
    return best[2], best[1]


# -- montecarlo ----------------------------------------------------------------


class MonteCarlo(Workload):
    """sample, estimate, chisq and invariance on small Z^2 and Z windows."""

    name = "montecarlo"

    def __init__(self, go, root, seed):
        super().__init__(go, root, seed)
        rnd = random.Random(sub_seed(self.name, seed, "inputs"))
        g, ser = go.groups, go.serialize
        self.windows = {}
        for r in (5, 10, 15):
            w = ser.window_to_json(g.ball(g.default_generators(g.zn(2)), r))
            self.windows[f"b{r}"] = (self.files.write(f"b{r}.json", w), w, r)
        for r in (60, 220):
            w = ser.window_to_json(g.ball(g.default_generators(g.zn(1)), r))
            self.windows[f"z{r}"] = (self.files.write(f"z{r}.json", w), w, r)
        self.probes = {}
        for key, (_, w, r) in self.windows.items():
            for size in (3, 4):
                self.probes[key, size] = self._probe(rnd, key, w, r, size)
        inner = zn_window(2, [(0, y) for y in range(-20, 21)])
        self.inner = self.files.write("inner-b10.json", perm_order(inner, random_perm(rnd, 41)))
        self.cylinders = {}
        for key in ("b10", "b15"):
            d_path, elems = self.probes[key, 3]
            cyl = {"window": zn_window(2, elems), "pattern": {"format": 1, "closed": True, "perm": random_perm(rnd, 3)}}
            self.cylinders[key] = self.files.write(f"cyl-{key}.json", cyl)
        self.shifts = {key: rnd.choice([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, 1]]) for key in ("b5", "b10", "b15")}

    def _probe(self, rnd, key, w, r, size):
        near = [tuple(e) for e in w["elements"] if 0 < sum(map(abs, e)) <= r - 2]
        elems = [tuple(w["elements"][0])] + rnd.sample(near, size - 1)
        path = self.files.write(f"probe-{key}-{size}.json", zn_window(len(elems[0]), elems))
        return path, elems

    def _op(self, kind, argv, key, count, check, b, i, out):
        path, w, _ = self.windows[key]
        n = len(w["elements"])
        seed = str(sub_seed(self.name, self.seed, b, i))
        full = [argv[0], path, *argv[1:], "-N", str(count), "--seed", seed, "-o", out]
        return Op(kind, full, [out], 0, check, count, count * n)

    def _sample(self, b, i, key, count, sampler="uniform", encoding="perm"):
        out = self.files.out(f"sample-{i}.jsonl")
        extra = ["--sampler", sampler, "--encoding", encoding]
        if sampler == "coset":
            extra += ["--inner-order", self.inner, "--subgroup-zero-coords", "0"]
        w = self.windows[key][1]
        return self._op(f"sample.{sampler}.{encoding}", ["sample", *extra], key, count,
                        lambda: checks.check_sample(out, w, count, encoding), b, i, out)

    def _estimate(self, b, i, key, count):
        out = self.files.out(f"estimate-{i}.csv")
        return self._op("estimate", ["estimate", "--cylinder", self.cylinders[key]], key, count,
                        lambda: checks.check_estimate(out, count), b, i, out)

    def _chisq(self, b, i, key, size, count):
        out = self.files.out(f"chisq-{i}.csv")
        return self._op("chisq", ["chisq", "--probe", self.probes[key, size][0]], key, count,
                        lambda: checks.check_chisq(out, count, size), b, i, out)

    def _invariance(self, b, i, key, size, count, sampler="uniform"):
        out = self.files.out(f"invariance-{i}.csv")
        shift = json.dumps(self.shifts.get(key, [1]))
        argv = ["invariance", "--element", shift, "--probe", self.probes[key, size][0], "--sampler", sampler]
        return self._op(f"invariance.{sampler}", argv, key, count,
                        lambda: checks.check_invariance(out, count, size), b, i, out)

    def ops(self, b):
        plan = [
            (self._sample, "b10", 40),
            (self._sample, "b15", 25),
            (self._sample, "b5", 10, "uniform", "pairs"),
            (self._sample, "b10", 5, "coset"),
            (self._sample, "z220", 20, "rotation"),
            (self._estimate, "b10", 60),
            (self._estimate, "b15", 30),
            (self._chisq, "b10", 4, 60),
            (self._chisq, "b15", 3, 30),
            (self._invariance, "b5", 3, 40),
            (self._invariance, "b10", 4, 8),
            (self._invariance, "b15", 3, 3),
            (self._invariance, "z60", 3, 20, "rotation"),
        ]
        return [fn(b, i, *args) for i, (fn, *args) in enumerate(plan)]

    def warmup(self):
        plan = [
            (self._sample, "b5", 1),
            (self._sample, "b5", 1, "uniform", "pairs"),
            (self._sample, "b5", 1, "coset"),
            (self._sample, "z60", 1, "rotation"),
            (self._estimate, "b10", 1),
            (self._chisq, "b5", 3, 1),
            (self._invariance, "b5", 3, 1),
            (self._invariance, "z60", 3, 1, "rotation"),
        ]
        return [fn("w", i, *args) for i, (fn, *args) in enumerate(plan)]


# -- bigwindow -----------------------------------------------------------------

SQRT2 = math.sqrt(2.0)
ANGLES = ["-1,1", "1/3,1/2", "1/5,-1/3", "-2/7,3/4"]  # rat,root2: all irrational


def angle_value(text: str) -> float:
    rat, root2 = (Fraction(t) for t in text.split(","))
    return float(rat) + float(root2) * SQRT2


class BigWindow(Workload):
    """One order over 10^4 to 10^5 elements per op."""

    name = "bigwindow"
    Z1 = {"A": 5000, "B": 12500, "C": 50000}  # radii: 10 001, 25 001, 100 001 elements
    RECTS = {"torus": (100, 100), "levels": (100, 100), "levels2": (125, 80), "glue": (100, 100)}

    def __init__(self, go, root, seed, scale=1):
        super().__init__(go, root, seed)
        rnd = random.Random(sub_seed(self.name, seed, "inputs"))
        self.z1 = {}
        for key, radius in self.Z1.items():
            radius //= scale
            ks = [e[0] for e in z1_ball(radius)]
            window = zn_window(1, [(k,) for k in ks])
            text = dumps(window)
            self.z1[key] = (self.files.write(f"z1-{key}.json", text), text.encode("ascii"), ks, radius, window)
        self.rot = {}
        for key, (_, _, ks, radius, window) in self.z1.items():
            x = Fraction(rnd.randrange(1, 1000), 1000)
            perm = [int(i) for i in np.argsort(checks.rotation_values(ks, float(x), SQRT2 - 1), kind="stable")]
            order = perm_order(window, perm)
            sizes = sorted({s for s in (10, 1000, radius // 3, radius + 1) if s <= radius + 1})
            self.rot[key] = (self.files.write(f"rot-{key}.json", order), ks, perm, x, sizes)
        self.rects = {}
        for key, dims in self.RECTS.items():
            w, h = (max(4, d // scale) for d in dims)
            # the origin's neighbours stay inside, as glue needs K^-1 D covered
            x0, y0 = rnd.randrange(1, w - 1), rnd.randrange(1, h - 1)
            coords = [(x - x0, y - y0) for x in range(w) for y in range(h)]
            self.rects[key] = (self.files.write(f"rect-{key}.json", zn_window(2, coords)), coords)
        self.levels = {}
        for key in ("levels", "levels2"):
            coords = self.rects[key][1]
            perm = random_perm(rnd, len(coords))
            self.levels[key] = (self.files.write(f"{key}-order.json", perm_order(zn_window(2, coords), perm)), coords, perm)
        coords = self.rects["glue"][1]
        gw = zn_window(2, coords)
        self.glue_orders = [self.files.write(f"glue-o{i}.json", perm_order(gw, random_perm(rnd, len(coords)))) for i in (1, 2)]
        self.glue_k = self.files.write("glue-k.json", zn_window(2, [(0, 0), rnd.choice([(1, 0), (0, 1), (1, 1)])]))
        self.glue_d = self.files.write("glue-d.json", zn_window(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))

    def _params(self, b, i):
        return random.Random(sub_seed(self.name, self.seed, b, i))

    def _ball(self, b, i, key):
        _, expected, ks, radius, _ = self.z1[key]
        out = self.files.out(f"ball-{i}.json")
        return Op("ball", ["ball", "z1", "--radius", str(radius), "--size-limit", SIZE_LIMIT, "-o", out],
                  [out], 0, lambda: checks.check_bytes(out, expected), 0, len(ks))

    def _rotation(self, b, i, key):
        path, _, ks, _, _ = self.z1[key]
        p = self._params(b, i)
        alpha, x = p.choice(ANGLES), Fraction(p.randrange(1, 10**6), 10**6)
        out = self.files.out(f"rotation-{i}.json")
        argv = ["realize", path, "--action", "rotation", f"--alpha={alpha}", "--x", str(x), "-o", out]
        return Op("realize.rotation", argv, [out], 0,
                  lambda: checks.check_rotation_order(out, ks, float(x), angle_value(alpha)), 1, len(ks))

    def _bernoulli(self, b, i, key):
        path, _, ks, _, _ = self.z1[key]
        seed = str(self._params(b, i).getrandbits(63))
        out = self.files.out(f"bernoulli-{i}.json")
        return Op("realize.bernoulli", ["realize", path, "--action", "bernoulli", "--point-seed", seed, "-o", out],
                  [out], 0, lambda: checks.check_order(out, len(ks)), 1, len(ks))

    def _torus(self, b, i):
        path, coords = self.rects["torus"]
        p = self._params(b, i)
        alphas = p.sample(ANGLES, 2)
        xs = [Fraction(p.randrange(1, 10**6), 10**6) for _ in range(2)]
        out = self.files.out(f"torus-{i}.json")
        argv = ["realize", path, "--action", "torus", f"--alphas={';'.join(alphas)}",
                "--x", ",".join(map(str, xs)), "-o", out]
        return Op("realize.torus", argv, [out], 0,
                  lambda: checks.check_torus_order(out, coords, [float(v) for v in xs], [angle_value(a) for a in alphas]),
                  1, len(coords))

    def _levels(self, b, i, key):
        path, coords, perm = self.levels[key]
        out = self.files.out(f"levels-{i}.txt")
        return Op("levels", ["levels", path, "-o", out], [out], 0,
                  lambda: checks.check_levels(out, coords, perm), 0, len(coords))

    def _reconstruct(self, b, i, key):
        path, ks, perm, x, sizes = self.rot[key]
        out = self.files.out(f"reconstruct-{i}.csv")
        argv = ["reconstruct", path, "--scheme", "cesaro", "--n", ",".join(map(str, sizes)), "--true-x", str(x), "-o", out]
        return Op("reconstruct", argv, [out], 0,
                  lambda: checks.check_reconstruct(out, ks, perm, sizes, x), 0, len(ks))

    def _glue(self, b, i):
        n = len(self.rects["glue"][1])
        out, report = self.files.out(f"glue-{i}.json"), self.files.out(f"glue-{i}.report.json")
        argv = ["glue", *self.glue_orders, "--k-file", self.glue_k, "--d-file", self.glue_d, "-o", out, "--report-out", report]
        return Op("glue", argv, [out, report], 0, lambda: checks.check_glue(out, report, n), 1, n)

    def _sample(self, b, i, key, count):
        path, _, ks, _, window = self.z1[key]
        seed = str(self._params(b, i).getrandbits(63))
        out = self.files.out(f"sample-{i}.jsonl")
        return Op("sample", ["sample", path, "-N", str(count), "--seed", seed, "-o", out], [out], 0,
                  lambda: checks.check_sample(out, window, count, "perm"), count, count * len(ks))

    def _plan(self):
        return [
            (self._ball, "A"),
            (self._ball, "B"),
            (self._ball, "C"),
            (self._rotation, "A"),
            (self._rotation, "B"),
            (self._bernoulli, "A"),
            (self._bernoulli, "A"),
            (self._torus,),
            (self._torus,),
            (self._levels, "levels"),
            (self._levels, "levels2"),
            (self._levels, "levels2"),
            (self._reconstruct, "A"),
            (self._reconstruct, "B"),
            (self._reconstruct, "C"),
            (self._glue,),
            (self._sample, "A", 1),
            (self._sample, "A", 1),
            (self._sample, "B", 1),
        ]

    def ops(self, b):
        return [fn(b, i, *args) for i, (fn, *args) in enumerate(self._plan())]

    def warmup(self):
        return BigWindow(self.go, self.files.root / "warm", self.seed, scale=100).ops("w")


WORKLOADS = {w.name: w for w in (Certify, MonteCarlo, BigWindow)}
