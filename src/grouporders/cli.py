"""Command-line front end.

Every subcommand is a thin wrapper over the library: numeric outputs equal
the library call's outputs exactly, all randomness flows from --seed
(default from GROUPORDERS_SEED), and identical invocations are
byte-identical.  Exit codes: 0 success/SAT, 1 UNSAT, 2 usage or I/O error.
Each command runs with the cyclic garbage collector paused; ``main``
restores the caller's collector state on the way out.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from fractions import Fraction

from . import rng, serialize
from .engine import (
    DEFAULT_SIZE_LIMIT,
    DEFAULT_TIMEOUT,
    SL3Instance,
    build_sl3_instance,
    propagate_only,
    solve,
    verify_certificate,
)
from .errors import GroupOrderError
from .exactnum import Sqrt2Num
from .groups import ball, default_generators, make_element
from .orders import render_levels
from .sampling import (
    bernoulli_action,
    box,
    cesaro,
    coset_sampler,
    realize,
    reconstruct,
    rotation_action,
    rotation_sampler,
    sample_seeds,
    shadowing_report,
    specification_glue,
    torus_action,
    uniform_sampler,
)
from .stats import (
    estimate_cylinder,
    invariance_test,
    pattern_id,
    uniformity_chisq,
)

ENV_SEED = "GROUPORDERS_SEED"
DEFAULT_ALPHA = Sqrt2Num.of(-1, 1)  # sqrt(2) - 1


class UsageError(Exception):
    pass


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: not JSON: {exc}") from None


def _read(path: str, read, *args, **kwargs):
    """read(*args, the JSON in path, **kwargs); what read refuses in it is
    a UsageError naming path."""
    obj = _read_json(path)
    try:
        return read(*args, obj, **kwargs)
    except (GroupOrderError, KeyError, ValueError, TypeError) as exc:
        raise UsageError(f"{path}: {type(exc).__name__}: {exc}") from None


def _write_text(path: str | None, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path: str | None, obj):
    _write_text(path, serialize.canonical_dumps(obj))


def _parse_group(name: str):
    from . import groups

    if name in ("heis", "heisenberg"):
        return groups.HEISENBERG
    if name == "sl3":
        return groups.SL3Z
    if name.startswith("zn:"):
        rank = name[3:]
    elif name.startswith("z") and name[1:].isdigit():
        rank = name[1:]
    else:
        rank = ""
    try:
        n = int(rank)
    except ValueError:  # "zn:x" and "zn:" as well as "nope"
        raise UsageError(f"unknown group {name!r} (use z2, zn:4, heis, sl3)") from None
    return groups.zn(n)


def _fraction(text: str, flag: str) -> Fraction:
    """Fraction(text); UsageError naming flag on bad text or a zero denominator."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} needs fractions such as 3/10, got {text!r}") from None


def _ints(text: str, flag: str) -> list[int]:
    """The comma-separated ints of text; UsageError naming flag on bad text."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_alpha(text: str, flag: str) -> Sqrt2Num:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("angle must be 'rat,root2' (meaning rat + root2*sqrt2)")
    return Sqrt2Num(*(_fraction(t, flag) for t in parts))


def _add_common(p, with_seed=True):
    if with_seed:
        p.add_argument("--seed", type=int, default=None, help="64-bit seed")
    p.add_argument("-o", "--output", default="-", help="output file, '-' for stdout")


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    text = os.environ.get(ENV_SEED, "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{ENV_SEED} needs an integer seed, got {text!r}") from None


def _refuse(args, flags, reason):
    """UsageError naming the first of flags that was given: its value would
    be ignored."""
    for name in flags:
        if getattr(args, name) is not None:
            raise UsageError(f"--{name.replace('_', '-')} {reason}")


def _load_sampler(args):
    """The sampler the flags choose over the window file."""
    window = _read(args.window, serialize.window_from_json)
    kind = args.sampler
    if kind != "rotation":
        _refuse(args, ["alpha"], "needs --sampler rotation")
    if kind != "coset":
        _refuse(args, ["inner_order", "subgroup_zero_coords"], "needs --sampler coset")
    if kind == "uniform":
        return uniform_sampler(window)
    if kind == "coset":
        if not args.inner_order:
            raise UsageError("coset sampler needs --inner-order")
        if args.subgroup_zero_coords is None:
            raise UsageError("coset sampler needs --subgroup-zero-coords")
        inner = _read(args.inner_order, serialize.order_from_json)
        zero = _ints(args.subgroup_zero_coords, "--subgroup-zero-coords")
        if window.group.kind != "zn":
            raise UsageError("the coordinate subgroup test needs a Z^n window")
        if not all(c in range(window.group.n) for c in zero):
            raise UsageError(f"--subgroup-zero-coords takes coordinates 0..{window.group.n - 1}")

        def member(g):
            return all(g.payload[c] == 0 for c in zero)

        return coset_sampler(window, member, inner)
    alpha = _parse_alpha(args.alpha, "--alpha") if args.alpha else DEFAULT_ALPHA
    return rotation_sampler(rotation_action(alpha), window)


# -- subcommand handlers ---------------------------------------------------


def cmd_ball(args) -> int:
    group = _parse_group(args.group)
    if args.generators:
        gens = _read(args.generators, serialize.generators_from_json, group)
    else:
        gens = default_generators(group)
    w = ball(gens, args.radius, size_limit=args.size_limit)
    _write_json(args.output, serialize.window_record(w))
    return 0


def cmd_check_extend(args) -> int:
    cs = _read(args.system, serialize.system_from_json)
    cert = solve(cs, timeout=args.timeout, size_limit=args.size_limit)
    _write_json(args.output, serialize.certificate_to_json(cert))
    return 0 if cert.verdict == "sat" else 1


def cmd_verify_sl3(args) -> int:
    conventions = (
        ["plain_left", "inverse_left"] if args.convention == "both" else [args.convention]
    )
    results = []
    any_unsat = False
    for conv in conventions:
        cs = build_sl3_instance(SL3Instance(args.q, tuple(args.n), args.trunc, conv))
        cert = propagate_only(cs)
        if cert is None:
            results.append(
                {"convention": conv, "verdict": "inconclusive", "atoms": len(cs.atoms)}
            )
            continue
        ok = verify_certificate(cs, cert)
        results.append(
            {
                "convention": conv,
                "verdict": "unsat",
                "atoms": len(cs.atoms),
                "window": len(cs.window),
                "trace_steps": len(cert.trace),
                "cycle": cert.cycle,
                "cycle_elements": [cs.window.payloads[i] for i in cert.cycle],
                "replay_ok": ok,
            }
        )
        if not any_unsat:
            if args.certificate_out:
                _write_json(args.certificate_out, serialize.certificate_to_json(cert))
            if args.system_out:
                _write_json(args.system_out, serialize.system_to_json(cs))
        any_unsat = True
    report = {
        "format": serialize.FORMAT_VERSION,
        "instance": {"q": args.q, "n": list(args.n), "truncation": args.trunc},
        "results": results,
    }
    _write_json(args.output, report)
    return 1 if any_unsat else 0


def cmd_sample(args) -> int:
    if args.count < 0:
        raise UsageError(f"-N must be >= 0, got {args.count}")
    sampler = _load_sampler(args)
    seed = _seed(args)
    window = serialize.window_record(sampler.window)
    lines = [serialize.canonical_dumps({"format": serialize.FORMAT_VERSION, "window": window})]
    # each draw is encoded as it is made, so only one order is alive at a time
    for sub in sample_seeds(seed, args.count):
        m = sampler(sub)
        if args.encoding == "perm":
            lines.append(json.dumps(m.perm()) + "\n")
        else:
            record = {
                "format": serialize.FORMAT_VERSION,
                "closed": m.closed,
                "pairs": list(m.pairs()),
            }
            lines.append(serialize.canonical_dumps(record))
    _write_text(args.output, "".join(lines))
    return 0


def cmd_estimate(args) -> int:
    sampler = _load_sampler(args)
    c = _read(args.cylinder, serialize.cylinder_from_json)
    report = estimate_cylinder(sampler, c, args.count, _seed(args))
    lines = ["pattern_id,count,frequency,stderr\n"]
    lines.append(
        f"{pattern_id(c)},{report.hits},{float(report.frequency)!r},{report.stderr!r}\n"
    )
    _write_text(args.output, "".join(lines))
    return 0


def cmd_invariance(args) -> int:
    sampler = _load_sampler(args)
    D = _read(args.probe, serialize.window_from_json)
    g = make_element(sampler.window.group, json.loads(args.element))
    report = invariance_test(sampler, g, D, args.count, _seed(args))
    lines = ["pattern_id,count_base,count_translated,freq_base,freq_translated\n"]
    for pid, cb, ct, fb, ft in report.rows():
        lines.append(f"{pid},{cb},{ct},{fb!r},{ft!r}\n")
    lines.append(f"# max_gap={report.max_gap!r}\n")
    _write_text(args.output, "".join(lines))
    return 0


def cmd_chisq(args) -> int:
    sampler = _load_sampler(args)
    F = _read(args.probe, serialize.window_from_json)
    report = uniformity_chisq(sampler, F, args.count, _seed(args))
    lines = ["pattern_id,count,frequency,stderr\n"]
    for pid, cnt in enumerate(report.counts):
        freq = cnt / args.count
        se = (freq * (1 - freq) / args.count) ** 0.5
        lines.append(f"{pid},{cnt},{freq!r},{se!r}\n")
    lines.append(f"# statistic={report.statistic!r} dof={report.dof}\n")
    _write_text(args.output, "".join(lines))
    return 0


def cmd_glue(args) -> int:
    m1 = _read(args.order1, serialize.order_from_json)
    m2 = _read(args.order2, serialize.order_from_json, window=m1.window)
    K = _read(args.k_file, serialize.element_set_from_json)
    D = _read(args.d_file, serialize.window_from_json)
    glued = specification_glue(m1, m2, K, D)
    all_ok, rows = shadowing_report(glued, m1, m2, K, D)
    _write_json(args.output, serialize.order_to_json(glued))
    report = {
        "format": serialize.FORMAT_VERSION,
        "all_ok": all_ok,
        "checked": [
            {"element": g.payload, "side": side, "ok": ok} for g, side, ok in rows
        ],
    }
    _write_json(args.report_out, report)
    return 0


def cmd_realize(args) -> int:
    unused = {
        "rotation": ["alphas", "point_seed"],
        "torus": ["alpha", "point_seed"],
        "bernoulli": ["alpha", "alphas", "x"],
    }
    _refuse(args, unused[args.action], f"does not apply to --action {args.action}")
    window = _read(args.window, serialize.window_from_json)
    seed = _seed(args)
    if args.action == "rotation":
        alpha = _parse_alpha(args.alpha, "--alpha") if args.alpha else DEFAULT_ALPHA
        action = rotation_action(alpha)
        point = _fraction(args.x, "--x") if args.x else rng.unit_fraction(seed, "point")
    elif args.action == "torus":
        if not args.alphas:
            raise UsageError("torus action needs --alphas 'a,b;a,b;...'")
        action = torus_action([_parse_alpha(t, "--alphas") for t in args.alphas.split(";")])
        if args.x:
            point = tuple(_fraction(t, "--x") for t in args.x.split(","))
        else:
            point = tuple(
                rng.unit_fraction(seed, "point", i) for i in range(action.dim)
            )
    else:
        action = bernoulli_action(window.group.n if window.group.kind == "zn" else 0)
        point = args.point_seed if args.point_seed is not None else seed
    m = realize(action, point, window)
    _write_json(args.output, serialize.order_to_json(m))
    return 0


def cmd_reconstruct(args) -> int:
    m = _read(args.order, serialize.order_from_json)
    sizes = _ints(args.n, "--n")
    true_x = _fraction(args.true_x, "--true-x") if args.true_x else None
    lines = ["n,estimate,abs_error\n"]
    for n in sizes:
        scheme = cesaro(n) if args.scheme == "cesaro" else box(n)
        est = reconstruct(m, scheme)
        err = "" if true_x is None else repr(abs(float(est - true_x)))
        lines.append(f"{n},{float(est)!r},{err}\n")
    _write_text(args.output, "".join(lines))
    return 0


def cmd_levels(args) -> int:
    m = _read(args.order, serialize.order_from_json)
    width = len(str(m.n - 1))  # the widest rank
    text = "\n".join(
        " ".join(str(v).rjust(width) for v in row) for row in render_levels(m)
    )
    _write_text(args.output, text + "\n")
    return 0


# -- parser ----------------------------------------------------------------


# Built once per process and reused by every ``main`` call.  Each
# subcommand's handler is bound at that first build, so replacing a
# ``cmd_*`` function afterwards does not reach ``main``.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="grouporders",
        description="Orders on finitely generated groups: windows, constraint "
        "certificates, and invariant-random-order sampling.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="enumerate a Cayley ball window")
    p.add_argument("group", help="z2, zn:4, heis, or sl3")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--generators", help="JSON file with custom generators")
    p.add_argument("--size-limit", type=int, default=DEFAULT_SIZE_LIMIT)
    _add_common(p, with_seed=False)
    p.set_defaults(handler=cmd_ball)

    p = sub.add_parser("check-extend", help="solve a constraint system file")
    p.add_argument("system")
    p.add_argument("--size-limit", type=int, default=DEFAULT_SIZE_LIMIT)
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    _add_common(p, with_seed=False)
    p.set_defaults(handler=cmd_check_extend)

    p = sub.add_parser("verify-sl3", help="run the SL3 non-extendability witness")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, nargs=6, required=True, metavar="NI")
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument(
        "--convention",
        choices=["plain_left", "inverse_left", "both"],
        default="both",
    )
    p.add_argument("--certificate-out")
    p.add_argument("--system-out")
    _add_common(p, with_seed=False)
    p.set_defaults(handler=cmd_verify_sl3)

    def sampling_command(name, handler, summary):
        """A subcommand drawing -N samples over a window file; returns its parser."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("window")
        p.add_argument("-N", "--count", type=int, required=True)
        p.add_argument("--sampler", choices=["uniform", "coset", "rotation"], default="uniform")
        p.add_argument("--inner-order")
        p.add_argument("--subgroup-zero-coords")
        p.add_argument("--alpha", help="rotation angle 'rat,root2'")
        _add_common(p)
        p.set_defaults(handler=handler)
        return p

    p = sampling_command("sample", cmd_sample, "draw a batch of orders")
    p.add_argument("--encoding", choices=["perm", "pairs"], default="perm")
    p = sampling_command("estimate", cmd_estimate, "estimate a cylinder probability")
    p.add_argument("--cylinder", required=True, help="JSON {window, pattern}")
    p = sampling_command("invariance", cmd_invariance, "translation-invariance gap report")
    p.add_argument("--element", required=True, help="inline JSON payload, e.g. [1,0]")
    p.add_argument("--probe", required=True, help="window file for the probe set D")
    p = sampling_command("chisq", cmd_chisq, "ranking-uniformity chi-square report")
    p.add_argument("--probe", required=True, help="window file for the probe set F")

    p = sub.add_parser("glue", help="glue two orders along K and D")
    p.add_argument("order1")
    p.add_argument("order2")
    p.add_argument("--k-file", required=True)
    p.add_argument("--d-file", required=True)
    p.add_argument("--report-out", default="-")
    _add_common(p, with_seed=False)
    p.set_defaults(handler=cmd_glue)

    p = sub.add_parser("realize", help="order a window by exact orbit values")
    p.add_argument("window")
    p.add_argument("--action", choices=["rotation", "torus", "bernoulli"], required=True)
    p.add_argument("--alpha", help="rotation angle 'rat,root2'")
    p.add_argument("--alphas", help="semicolon-separated angles for torus")
    p.add_argument("--x", help="exact point: fraction, or comma list for torus")
    p.add_argument("--point-seed", type=int)
    _add_common(p)
    p.set_defaults(handler=cmd_realize)

    p = sub.add_parser("reconstruct", help="averaging-scheme estimate from an order")
    p.add_argument("order")
    p.add_argument("--scheme", choices=["cesaro", "box"], default="cesaro")
    p.add_argument("--n", required=True, help="comma-separated scheme sizes")
    p.add_argument("--true-x", help="known point for the error column")
    _add_common(p, with_seed=False)
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("levels", help="rank grid of a total order on a Z^2 rectangle")
    p.add_argument("order")
    _add_common(p, with_seed=False)
    p.set_defaults(handler=cmd_levels)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # The handlers build no reference cycles, so collection passes during one
    # would only walk its many small containers and reclaim nothing.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GroupOrderError, OSError, KeyError, ValueError, TypeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
