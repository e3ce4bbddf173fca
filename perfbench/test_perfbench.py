"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from run import min_samples, tail_percentile  # noqa: E402
from workloads import WORKLOADS, reversed_pair  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    assert min_samples(0.9) == 100
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert tail_percentile(values, 0.9) == 90
    assert sum(v > 90 for v in values) == 10
    with pytest.raises(ValueError):
        tail_percentile(values[:99], 0.9)


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["engine.solve", 1.0, 3.0, 0, 0, 7],
        ["serialize.order_from_json", 4.0, 8.0, 0, 0, None],
        ["serialize.window_from_json", 5.0, 6.0, 2, 0, None],
        ["engine.solve", 20.0, 21.0, -1, 1, 5],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 1.0]
    s = tracing.summarize(spans, {"rng.u64": 9}, ops={0})
    assert s["cli.self_s"] == 4.0
    assert s["engine.solve.calls"] == 1 and s["engine.solve.count"] == 7
    # nested spans of one layer count once in its inclusive time
    assert s["serialize.s"] == 4.0 and s["serialize.self_s"] == 4.0
    assert s["rng.u64.calls"] == 9


def test_tracer_wraps_names_imported_elsewhere():
    import grouporders.cli as cli
    import grouporders.engine as engine

    original = engine.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.solve is engine.solve is not original
    finally:
        tracer.uninstall()
    assert cli.solve is engine.solve is original
    assert tracer.missing == []


def _witness_case():
    atoms = [(0, 1), (1, 2), (0, 3), (3, 2)]
    cert = {"verdict": "sat", "witness": {"perm": [0, 1, 3, 2]}, "trace": [], "cycle": []}
    return atoms, 4, cert


def test_witness_check_and_reversed_atom():
    atoms, n, cert = _witness_case()
    checks.check_witness(atoms, n, cert)
    for i, j in atoms:
        perm = list(cert["witness"]["perm"])
        a, b = perm.index(i), perm.index(j)
        perm[a], perm[b] = perm[b], perm[a]
        bad = {**cert, "witness": {"perm": perm}}
        with pytest.raises(checks.CheckFailed):
            checks.check_witness(atoms, n, bad)


def _library_refutation():
    from grouporders import constraints, engine, groups, serialize

    window = groups.ball(groups.default_generators(groups.zn(2)), 4)
    base = constraints.build_extension_system(window, constraints.quadrant_order(2))
    extra = reversed_pair(random.Random(3), len(window), base.atoms, length=6)
    cs = constraints.ConstraintSystem(window, tuple(sorted(set(base.atoms) | {extra})))
    cert = engine.solve(cs)
    assert cert.verdict == "unsat"
    return list(cs.atoms), len(window), serialize.certificate_to_json(cert)


def _handmade_refutation():
    atoms = [(0, 1), (1, 2), (2, 0)]
    trace = [
        {"pair": [0, 1], "rule": {"atom": 0}},
        {"pair": [1, 2], "rule": {"atom": 1}},
        {"pair": [2, 0], "rule": {"atom": 2}},
        {"pair": [0, 2], "rule": {"trans": [0, 1, 2]}},
    ]
    return atoms, 3, {"verdict": "unsat", "witness": None, "trace": trace, "cycle": [0, 1, 2, 0]}


@pytest.mark.parametrize("case", [_handmade_refutation, _library_refutation])
def test_refutation_replay_and_deleted_step(case):
    atoms, n, cert = case()
    facts = checks.check_refutation(atoms, n, cert)
    needed = checks.backward_slice(cert, *checks.replay(atoms, n, cert))
    assert 0 < facts["needed_steps"] == len(needed) <= facts["trace_steps"] == len(cert["trace"])
    for s in needed:
        bad = {**cert, "trace": cert["trace"][:s] + cert["trace"][s + 1:]}
        with pytest.raises(checks.CheckFailed):
            checks.check_refutation(atoms, n, bad)


def test_total_pairs_check():
    checks.check_total_pairs([[2, 0], [2, 1], [0, 1]], 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_total_pairs([[2, 0], [1, 2], [0, 1]], 3)


def test_scaled_times_follow_the_reference_loop():
    ref = calibrate.REF_S
    fast = run.Record("op", 0.02, True, 1, 10, 0, False, {}, ref)
    slow = run.Record("op", 0.03, True, 1, 10, 0, False, {}, 1.5 * ref)
    assert fast.scaled == pytest.approx(0.02) and slow.scaled == pytest.approx(0.02)
    records = [fast, slow] * 60
    scaled = run.end_to_end(records, 0.5)
    unscaled = run.end_to_end(records, 0.5, scaled=False)
    assert scaled["op_s.p90"]["value"] == pytest.approx(0.02)
    assert unscaled["op_s.p90"]["value"] == pytest.approx(0.03)
    assert scaled["ops_per_s"]["value"] == pytest.approx(50.0)
    assert calibrate.reference() > 0


def test_reported_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    records = [
        run.Record("op", 0.01 * (i % 7 + 1), True, 1, 10, i // 10, i // 10 % 2 == 0, {})
        for i in range(120)
    ]
    e2e = run.end_to_end(records, 0.5)
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = run.per_layer(records, tracing.Tracer())
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in bench["per_layer"]}
