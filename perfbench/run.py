"""Benchmark of the grouporders CLI: one closed-loop client in one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each op is one in-process
``grouporders.cli.main(argv)`` call on files generated from ``--seed``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it is a report: environment, output digest, failures, unscaled
figures.  End-to-end times are scaled by a reference loop timed around
each op (see calibrate.py).  See perfbench/README.md for the metrics and
the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

TAIL = 0.9
BEYOND_TAIL = 10
SETUP_REPEATS = 5
RERUNS = 3
HARD_LIMIT_S = 150.0  # stop extending a run for samples after this long


def tail_percentile(values, q: float, beyond: int = BEYOND_TAIL) -> float:
    """Nearest-rank q-quantile, refused unless ``beyond`` samples lie above
    its rank."""
    n = len(values)
    rank = math.ceil(q * n)
    if rank < 1 or n - rank < beyond:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q} quantile, need {beyond}")
    return sorted(values)[rank - 1]


def min_samples(q: float, beyond: int = BEYOND_TAIL) -> int:
    n = beyond
    while n - math.ceil(q * n) < beyond:
        n += 1
    return n


def environment(workload: str, seed: int, traced: bool) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "traced": traced,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_package():
    if not (SRC / "grouporders" / "cli.py").is_file():
        raise SystemExit(f"error: no grouporders sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    names = ["cli", "groups", "constraints", "engine", "sampling", "orders", "stats", "rng", "serialize", "exactnum"]
    mods = {name: importlib.import_module(f"grouporders.{name}") for name in names}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "grouporders":
        raise SystemExit("error: imported grouporders from outside the checkout")
    return argparse.Namespace(**mods)


class Record(NamedTuple):
    kind: str
    seconds: float
    ok: bool
    orders: int
    elements: int
    block: int
    traced: bool
    facts: dict
    ref: float = calibrate.REF_S  # reference-loop seconds around the op

    @property
    def scaled(self) -> float:
        return calibrate.scale(self.seconds, self.ref)


class Runner:
    def __init__(self, go):
        self.go = go
        self.records: list[Record] = []
        self.errors: list[str] = []
        self.last_ref = None

    def run(self, op) -> tuple[float, bool, dict, float]:
        """Run one op: its latency, whether it passed, the facts its check
        returned, and the reference-loop time around it (the mean of the
        loop just before and just after the op)."""
        for path in op.outputs:
            if os.path.exists(path):
                os.remove(path)
        main = self.go.cli.main  # looked up per call: tracing swaps it
        before = self.last_ref if self.last_ref is not None else calibrate.reference()
        t0 = perf_counter()
        try:
            rc = main(op.argv)
        except Exception:
            rc = None
            self.errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
        dt = perf_counter() - t0
        self.last_ref = calibrate.reference()
        ref = (before + self.last_ref) / 2
        ok, facts = rc == op.expect_rc, {}
        if not ok and rc is not None:
            self.errors.append(f"{op.kind}: exit code {rc}, expected {op.expect_rc}")
        if ok:
            try:
                facts = op.check()
            except Exception as exc:  # a check that cannot parse the output fails the op
                ok = False
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        return dt, ok, facts, ref


def digest_update(h, op, rc_ok: bool):
    h.update(f"{op.kind}|{' '.join(os.path.basename(a) for a in op.argv)}|{rc_ok}\n".encode())
    for path in op.outputs:
        h.update(os.path.basename(path).encode() + b"\n")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())


def read_outputs(op) -> list:
    out = []
    for path in op.outputs:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


def setup(go, workload_cls, run_dir: Path, seed: int, runner: Runner):
    """Generate inputs and warm up, SETUP_REPEATS times.  Returns the
    workload and, per round, its time and the reference-loop time around
    it (the loop also runs around each warm-up op, as in the timed loop,
    and that time is left out)."""
    rounds, wl = [], None
    for i in range(SETUP_REPEATS):
        if wl is not None:
            shutil.rmtree(wl.files.root)
        before = calibrate.reference()
        runner.last_ref = before
        t0 = perf_counter()
        wl = workload_cls(go, run_dir / f"setup{i}", seed)
        elapsed = perf_counter() - t0
        for op in wl.warmup():
            dt, ok, _, _ = runner.run(op)
            elapsed += dt
            if not ok:
                raise SystemExit(f"error: warm-up op {op.kind} failed: {runner.errors[-3:]}")
        rounds.append((elapsed, (before + runner.last_ref) / 2))
    return wl, rounds


def measure(args, go, wl, runner: Runner, tracer=None):
    """Closed loop over whole blocks until --seconds have passed and there
    are enough samples for the tail percentile.  In a traced run, even
    blocks are traced and odd ones are not, to measure the tracing
    overhead."""
    need = min_samples(TAIL)
    busy, block, start = 0.0, 0, perf_counter()
    digest = hashlib.sha256()
    pick = random.Random(f"rerun:{args.workload}:{args.seed}")
    saved = []
    while perf_counter() - start < args.seconds or len(runner.records) < need or (tracer is not None and block < 2):
        if perf_counter() - start > HARD_LIMIT_S:
            break
        ops = wl.block(block)
        rerun = set(pick.sample(range(len(ops)), min(RERUNS, len(ops)))) if block == 0 else set()
        traced = tracer is not None and block % 2 == 0
        if traced:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if traced:
                    tracer.op = len(runner.records)
                dt, ok, facts, ref = runner.run(op)
                busy += dt
                elements = facts.get("elements", op.elements)
                runner.records.append(Record(op.kind, dt, ok, op.orders, elements, block, traced, facts, ref))
                if block == 0:
                    digest_update(digest, op, ok)
                    if i in rerun and ok:
                        saved.append((op, read_outputs(op)))
        finally:
            if traced:
                tracer.uninstall()
        block += 1
    identical = []
    for op, before in saved:
        _, ok, _, _ = runner.run(op)
        same = ok and read_outputs(op) == before
        identical.append(same)
        if not same:
            runner.errors.append(f"{op.kind}: re-run output is not byte-identical")
    return {"blocks": block, "busy_s": busy, "digest": digest.hexdigest(), "reruns_identical": identical}


def end_to_end(records, setup_s: float, scaled: bool = True) -> dict:
    """The end-to-end metrics; times are scaled by the reference loop
    unless ``scaled`` is false."""
    times = [r.scaled if scaled else r.seconds for r in records]
    busy = sum(times)
    done = [r for r in records if r.ok]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (tail_percentile(times, TAIL), "s"),
        "ops_per_s": (len(done) / busy, "1/s"),
        "samples_per_s": (sum(r.orders for r in done) / busy, "1/s"),
        "elements_per_s": (sum(r.elements for r in done) / busy, "1/s"),
        "ok_ratio": (len(done) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# name -> (key in the span summary or a derived value, unit)
LAYER_METRICS = {
    "engine.solve.calls": ("engine.solve.calls", "count"),
    "engine.solve.s": ("engine.solve.s", "s"),
    "engine.solve.self_s": ("engine.solve.self_s", "s"),
    "engine.solve.atoms": ("engine.solve.count", "count"),
    "engine.propagate_only.s": ("engine.propagate_only.s", "s"),
    "engine.verify_certificate.s": ("engine.verify_certificate.s", "s"),
    "engine.build_sl3_instance.s": ("engine.build_sl3_instance.s", "s"),
    "constraints.build_extension_system.s": ("constraints.build_extension_system.s", "s"),
    "engine.trace_steps": ("engine.propagate_only.count", "count"),
    "engine.s": ("engine.s", "s"),
    "sampling.uniform_order.calls": ("sampling.uniform_order.calls", "count"),
    "sampling.uniform_order.s": ("sampling.uniform_order.s", "s"),
    "sampling.uniform_order.elements": ("sampling.uniform_order.count", "count"),
    "sampling.coset_extension.s": ("sampling.coset_extension.s", "s"),
    "rng.u64.calls": ("rng.u64.calls", "count"),
    "orders.translate_order.calls": ("orders.translate_order.calls", "count"),
    "orders.translate_order.s": ("orders.translate_order.s", "s"),
    "orders.matches_cylinder.s": ("orders.matches_cylinder.s", "s"),
    "stats.ranking_of.s": ("stats.ranking_of.s", "s"),
    "stats.invariance_test.self_s": ("stats.invariance_test.self_s", "s"),
    "stats.uniformity_chisq.self_s": ("stats.uniformity_chisq.self_s", "s"),
    "stats.estimate_cylinder.self_s": ("stats.estimate_cylinder.self_s", "s"),
    "stats.s": ("stats.s", "s"),
    "sampling.realize.s": ("sampling.realize.s", "s"),
    "sampling.realize.elements": ("sampling.realize.count", "count"),
    "exactnum.scaled_floor.calls": ("exactnum.scaled_floor.calls", "count"),
    "sampling.reconstruct.s": ("sampling.reconstruct.s", "s"),
    "sampling.specification_glue.s": ("sampling.specification_glue.s", "s"),
    "sampling.shadowing_report.s": ("sampling.shadowing_report.s", "s"),
    "orders.render_levels.s": ("orders.render_levels.s", "s"),
    "groups.ball.s": ("groups.ball.s", "s"),
    "groups.ball.elements": ("groups.ball.count", "count"),
    "groups.window_from_elements.s": ("groups.window_from_elements.s", "s"),
    "serialize.s": ("serialize.s", "s"),
    "serialize.self_s": ("serialize.self_s", "s"),
    "serialize.bytes_in": ("cli._read_json.count", "B"),
    "serialize.bytes_out": ("serialize.canonical_dumps.count", "B"),
    "cli.s": ("cli.s", "s"),
    "cli.self_s": ("cli.self_s", "s"),
}


def per_layer(records, tracer) -> dict:
    """Per-layer totals per traced block (one pass over the op mix)."""
    ops = {i for i, r in enumerate(records) if r.traced}
    blocks = len({records[i].block for i in ops})
    summary = tracing.summarize(tracer.spans, tracer.calls, ops)
    out = {name: (summary.get(key, 0.0) / blocks, unit) for name, (key, unit) in LAYER_METRICS.items()}

    def ratio(num, den):
        return num / den if den else 0.0

    facts = [records[i].facts for i in ops]
    steps = sum(f.get("trace_steps", 0) for f in facts)
    needed = sum(f.get("needed_steps", 0) for f in facts)
    out["engine.trace_needed_ratio"] = (ratio(needed, steps), "ratio")
    sampled = tracing.sampled_elements(tracer.spans, ops)
    out["rng.draws_per_element"] = (ratio(summary.get("rng.u64.calls", 0), sampled), "ratio")
    probe = summary.get("stats.ranking_of.count", 0) + summary.get("orders.matches_cylinder.count", 0)
    out["stats.probe_use_ratio"] = (ratio(probe, tracing.sampled_elements(tracer.spans, ops, under="stats")), "ratio")

    # a traced run has at least two blocks, so both sides are present
    p_on = statistics.median(r.scaled for r in records if r.traced)
    p_off = statistics.median(r.scaled for r in records if not r.traced)
    out["trace.op_s.p50"] = (p_on, "s")
    out["trace.untraced_op_s.p50"] = (p_off, "s")
    out["trace.overhead_ratio"] = (p_on / p_off - 1, "ratio")
    out["trace.blocks"] = (blocks, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def write_spans(path: Path, tracer, records):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "op", "count"],
                "ops": [r.kind for r in records],
                "spans": tracer.spans,
                "calls": dict(tracer.calls),
                "missing": tracer.missing,
            },
            fh,
        )


WORKLOAD_NAMES = ("certify", "montecarlo", "bigwindow")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = perf_counter()
    go = import_package()
    from workloads import WORKLOADS  # numpy and the generators: part of set-up

    import_s = perf_counter() - t0

    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(go)
    tracer = None
    try:
        import_ref = statistics.median(calibrate.reference() for _ in range(3))
        wl, setup_rounds = setup(go, WORKLOADS[args.workload], run_dir, args.seed, runner)
        setup_s = calibrate.scale(import_s, import_ref) + statistics.median(
            calibrate.scale(t, ref) for t, ref in setup_rounds
        )
        raw_setup_s = import_s + statistics.median(t for t, _ in setup_rounds)
        if args.trace:
            tracer = tracing.Tracer()
        info = measure(args, go, wl, runner, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    records = runner.records
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    correct = failed == 0 and len(info["reruns_identical"]) > 0 and all(info["reruns_identical"])
    if tracer is not None:
        metrics = per_layer(records, tracer)
    else:
        metrics = end_to_end(records, setup_s)
    raw = end_to_end(records, raw_setup_s, scaled=False)
    refs = [r.ref for r in records]
    kinds = {}
    for r in records:
        k = kinds.setdefault(r.kind, {"ops": 0, "failed": 0, "s": 0.0})
        k["ops"] += 1
        k["failed"] += not r.ok
        k["s"] += r.seconds
    report = {
        "environment": environment(args.workload, args.seed, bool(args.trace)),
        "digest_block0_sha256": info["digest"],
        "reruns_identical": info["reruns_identical"],
        "failed_ratio": failed / attempted,
        "samples": attempted,
        "blocks": info["blocks"],
        "busy_s": info["busy_s"],
        "block_busy_s": [round(sum(r.seconds for r in records if r.block == b), 4) for b in range(info["blocks"])],
        "setup_rounds_s": [t for t, _ in setup_rounds],
        "import_s": import_s,
        "reference_s": {"ref": calibrate.REF_S, "min": min(refs), "median": statistics.median(refs), "max": max(refs)},
        "unscaled": {k: v["value"] for k, v in raw.items()},
        "ops_by_kind": kinds,
        "errors": runner.errors[:20],
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        write_spans(OUT / f"spans-{tag}.json", tracer, records)
        report["missing_trace_targets"] = tracer.missing
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
