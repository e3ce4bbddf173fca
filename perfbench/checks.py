"""Output checks written independently of the package.

None of these calls into ``grouporders``: each reads the files an op wrote
and tests them against what the benchmark itself knows about the inputs.
A check returns a dict of facts for the metrics, or raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


class CheckFailed(Exception):
    pass


def require(cond, what: str):
    if not cond:
        raise CheckFailed(what)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def is_permutation(perm, n: int) -> bool:
    if len(perm) != n:
        return False
    seen = bytearray(n)
    for v in perm:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    return True


def ranks_of(perm) -> list[int]:
    ranks = [0] * len(perm)
    for r, i in enumerate(perm):
        ranks[i] = r
    return ranks


# -- certificates ------------------------------------------------------------


def check_witness(atoms, n: int, cert) -> dict:
    """A SAT witness is a permutation of the window respecting every atom."""
    require(cert.get("verdict") == "sat", "verdict is not sat")
    witness = cert.get("witness")
    require(isinstance(witness, dict) and "perm" in witness, "witness has no perm")
    perm = witness["perm"]
    require(is_permutation(perm, n), "witness is not a permutation of the window")
    ranks = ranks_of(perm)
    for i, j in atoms:
        require(ranks[i] < ranks[j], f"witness violates atom ({i},{j})")
    return {}


def replay(atoms, n: int, cert):
    """Replay an UNSAT trace step by step and check that its cycle closes.

    Returns the step index of each derived pair and each step's premises.
    """
    require(cert.get("verdict") == "unsat", "verdict is not unsat")
    require(cert.get("witness") is None, "unsat certificate carries a witness")
    trace = cert.get("trace") or []
    require(trace, "empty trace")
    step_of: dict[tuple[int, int], int] = {}
    premises: list[tuple[tuple[int, int], ...]] = []
    for pos, step in enumerate(trace):
        u, v = pair = tuple(step["pair"])
        require(0 <= u < n and 0 <= v < n, f"step {pos} leaves the window")
        rule = step["rule"]
        if "atom" in rule:
            k = rule["atom"]
            require(0 <= k < len(atoms) and tuple(atoms[k]) == pair, f"step {pos} cites a wrong atom")
            premises.append(())
        else:
            a, b, c = rule["trans"]
            require((a, c) == pair, f"step {pos} derives another pair than its rule")
            require((a, b) in step_of and (b, c) in step_of, f"step {pos} uses an underived pair")
            premises.append(((a, b), (b, c)))
        if pos == len(trace) - 1:
            require(u == v or (v, u) in step_of, "last step closes no cycle")
        step_of.setdefault(pair, pos)
    cycle = cert.get("cycle") or []
    require(len(cycle) >= 3 and cycle[0] == cycle[-1], "cycle is not closed")
    for a, b in zip(cycle, cycle[1:]):
        require((a, b) in step_of, f"cycle edge ({a},{b}) is not derived")
    return step_of, premises


def backward_slice(cert, step_of, premises) -> set[int]:
    """Steps the refutation needs: the closing step, the pair it reverses,
    the cycle edges, and recursively the premises of each."""
    trace, cycle = cert["trace"], cert["cycle"]
    u, v = trace[-1]["pair"]
    roots = [len(trace) - 1] + ([step_of[(v, u)]] if u != v else [])
    roots += [step_of[(a, b)] for a, b in zip(cycle, cycle[1:])]
    needed = set()
    while roots:
        s = roots.pop()
        if s not in needed:
            needed.add(s)
            roots.extend(step_of[p] for p in premises[s])
    return needed


def check_refutation(atoms, n: int, cert) -> dict:
    """Replay the trace; report the steps emitted and the steps needed."""
    step_of, premises = replay(atoms, n, cert)
    needed = backward_slice(cert, step_of, premises)
    return {"trace_steps": len(cert["trace"]), "needed_steps": len(needed)}


def check_certificate(atoms, n: int, cert_path, expect: str) -> dict:
    cert = read_json(cert_path)
    if expect == "sat":
        return check_witness(atoms, n, cert)
    return check_refutation(atoms, n, cert)


def check_verify_sl3(report_path, system_path, cert_path) -> dict:
    """The report lists an UNSAT convention whose certificate replays
    against the system file the op wrote."""
    report = read_json(report_path)
    results = report["results"]
    unsat = [r for r in results if r["verdict"] == "unsat"]
    require(unsat, "no convention is unsat")
    require(all(r["replay_ok"] is True for r in unsat), "report says replay failed")
    system = read_json(system_path)
    atoms = [tuple(a) for a in system["atoms"]]
    n = len(system["window"]["elements"])
    first = unsat[0]
    require(system["convention"] == first["convention"], "system file is another convention")
    cert = read_json(cert_path)
    require(len(cert["trace"]) == first["trace_steps"], "report and certificate disagree on trace length")
    require(list(cert["cycle"]) == first["cycle"], "report and certificate disagree on the cycle")
    return {**check_refutation(atoms, n, cert), "elements": n}


# -- samples and statistics -----------------------------------------------------


def check_sample(path, window_json, count: int, encoding: str) -> dict:
    lines = read_lines(path)
    require(len(lines) == count + 1, f"expected {count} samples, got {len(lines) - 1}")
    header = json.loads(lines[0])
    require(header["window"]["elements"] == window_json["elements"], "header window differs from input")
    n = len(window_json["elements"])
    for line in lines[1:]:
        if encoding == "perm":
            require(is_permutation(json.loads(line), n), "sample is not a permutation of the window")
        else:
            check_total_pairs(json.loads(line)["pairs"], n)
    return {}


def check_total_pairs(pairs, n: int):
    """Pairs of a strict total order: their ranks form a permutation and every
    pair goes up."""
    require(len(pairs) == n * (n - 1) // 2, "pair count is not n(n-1)/2")
    below = [0] * n
    for i, j in pairs:
        below[j] += 1
    require(is_permutation(below, n), "pairs do not form a total order")
    require(all(below[i] < below[j] for i, j in pairs), "pairs are not transitive")


def _csv_rows(path):
    rows, notes = [], []
    for line in read_lines(path)[1:]:
        (notes if line.startswith("#") else rows).append(line)
    return [r.split(",") for r in rows], notes


def check_estimate(path, count: int) -> dict:
    rows, _ = _csv_rows(path)
    require(len(rows) == 1, "estimate report needs one row")
    _, hits, freq, _ = rows[0]
    hits = int(hits)
    require(0 <= hits <= count, "hit count out of range")
    require(float(freq) == hits / count, "frequency is not hits/N")
    return {}


def check_chisq(path, count: int, probe_size: int) -> dict:
    rows, notes = _csv_rows(path)
    require(len(rows) == math.factorial(probe_size), "wrong number of ranking cells")
    require(sum(int(r[1]) for r in rows) == count, "cell counts do not sum to N")
    require(notes and notes[0].startswith("# statistic="), "statistic line missing")
    return {}


def check_invariance(path, count: int, probe_size: int) -> dict:
    rows, notes = _csv_rows(path)
    require(len(rows) == math.factorial(probe_size), "wrong number of pattern rows")
    require(sum(int(r[1]) for r in rows) == count, "base counts do not sum to N")
    require(sum(int(r[2]) for r in rows) == count, "translated counts do not sum to N")
    require(notes and notes[0].startswith("# max_gap="), "max_gap line missing")
    return {}


# -- big windows -----------------------------------------------------------------


def check_bytes(path, expected: bytes) -> dict:
    with open(path, "rb") as fh:
        require(fh.read() == expected, "output differs from the expected bytes")
    return {}


def read_perm(path, n: int):
    order = read_json(path)
    perm = order.get("perm")
    require(perm is not None and is_permutation(perm, n), "order is not a permutation of the window")
    return perm


def check_order(path, n: int) -> dict:
    read_perm(path, n)
    return {}


def rotation_values(ks, x: float, alpha: float):
    """Fractional parts of x + k*alpha in floating point."""
    v = x + np.asarray(ks, dtype=np.float64) * alpha
    return v - np.floor(v)


# Floating-point orbit values are trusted to order two elements only when
# they differ by more than this; the windows used keep every gap far above it.
FLOAT_GAP = 1e-9


def check_rotation_order(path, ks, x: float, alpha: float) -> dict:
    """The realized order lists the window by increasing orbit value."""
    perm = read_perm(path, len(ks))
    vals = rotation_values(ks, x, alpha)[perm]
    require(bool(np.all(np.diff(vals) > -FLOAT_GAP)), "realized order is not by orbit value")
    return {}


def check_torus_order(path, coords, xs, alphas) -> dict:
    """Orbit values compared lexicographically, one circle per coordinate."""
    perm = read_perm(path, len(coords))
    c = np.asarray(coords, dtype=np.int64)[perm]
    v0 = rotation_values(c[:, 0], xs[0], alphas[0])
    v1 = rotation_values(c[:, 1], xs[1], alphas[1])
    d0, d1 = np.diff(v0), np.diff(v1)
    same = np.abs(d0) <= FLOAT_GAP
    require(bool(np.all(same | (d0 > 0))), "torus order breaks the first coordinate")
    require(bool(np.all(~same | (d1 > -FLOAT_GAP))), "torus order breaks the second coordinate")
    return {}


def check_levels(path, coords, perm) -> dict:
    """The grid holds each point's rank, rows from the top y, and is a
    permutation of 0..n-1."""
    grid = [[int(t) for t in line.split()] for line in read_lines(path)]
    xs = sorted({x for x, _ in coords})
    ys = sorted({y for _, y in coords})
    require(len(grid) == len(ys) and all(len(r) == len(xs) for r in grid), "grid shape differs from the rectangle")
    flat = [v for row in grid for v in row]
    require(is_permutation(flat, len(coords)), "grid is not a permutation of 0..n-1")
    ranks = ranks_of(perm)
    for i, (x, y) in enumerate(coords):
        require(grid[len(ys) - 1 - (y - ys[0])][x - xs[0]] == ranks[i], "grid cell is not its point's rank")
    return {}


def check_reconstruct(path, ks, perm, sizes, true_x: Fraction) -> dict:
    """Each estimate is the share of 0..n-1 ordered below the identity."""
    rows, _ = _csv_rows(path)
    require(len(rows) == len(sizes), "one row per scheme size expected")
    ranks = ranks_of(perm)
    pos = {k: i for i, k in enumerate(ks)}
    e_rank = ranks[pos[0]]
    for (n_text, est, err), n in zip(rows, sizes):
        below = sum(1 for k in range(n) if ranks[pos[k]] < e_rank)
        expect = Fraction(below, n)
        require(int(n_text) == n, "scheme size differs")
        require(est == repr(float(expect)), f"estimate for n={n} differs from the count")
        require(err == repr(abs(float(expect - true_x))), f"error for n={n} differs")
    return {}


def check_glue(order_path, report_path, n: int) -> dict:
    read_perm(order_path, n)
    report = read_json(report_path)
    require(report["all_ok"] is True, "shadowing report is not all_ok")
    require(report["checked"], "shadowing report checked nothing")
    return {}
