import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import grouporders
from grouporders import (
    HEISENBERG,
    OrderMatrix,
    SL3Instance,
    Sqrt2Num,
    ball,
    build_extension_system,
    build_sl3_instance,
    default_generators,
    lex_functional,
    quadrant_order,
    realize,
    torus_action,
    uniform_order,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import cli, sampling, serialize as ser
from grouporders.cli import DEFAULT_ALPHA, main
from grouporders.constraints import ConstraintSystem
from grouporders.groups import interval_window
from grouporders.rng import unit_fraction
from test_golden import RUNS, _inputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, payload):
    path.write_text(ser.canonical_dumps(payload))
    return str(path)


def test_ball_and_errors(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run(capsys, "ball", "z2", "--radius", "2", "-o", str(out))
    assert code == 0
    assert len(json.loads(out.read_text())["elements"]) == 13
    code, _, _ = run(capsys, "ball", "z2", "--radius", "0")
    assert code == 0
    for radius in ("0", "1"):  # the identity alone exceeds a cap of 0
        code, out, err = run(capsys, "ball", "z1", "--radius", radius, "--size-limit", "0")
        assert (code, out) == (2, "") and "SizeLimitExceeded" in err
    code, _, err = run(capsys, "ball", "nope", "--radius", "1")
    assert code == 2 and "unknown group" in err
    for name in ("zn:x", "zn:", "z"):  # a usage error naming the argument, not int()'s
        code, out, err = run(capsys, "ball", name, "--radius", "1")
        assert (code, out) == (2, "")
        assert err == f"error: unknown group {name!r} (use z2, zn:4, heis, sl3)\n"
    code, _, _ = run(capsys, "ball")  # missing required flag
    assert code == 2


def test_check_extend_exit_codes(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 3)
    cs = build_extension_system(w, quadrant_order(2))
    sys_file = write(tmp_path / "sys.json", ser.system_to_json(cs))
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "check-extend", sys_file, "-o", str(cert_file))
    assert code == 0
    assert json.loads(cert_file.read_text())["verdict"] == "sat"

    bad = ConstraintSystem(w, ((0, 1), (1, 0)))
    bad_file = write(tmp_path / "bad.json", ser.system_to_json(bad))
    code, _, _ = run(capsys, "check-extend", bad_file, "-o", str(tmp_path / "c2.json"))
    assert code == 1

    code, _, err = run(capsys, "check-extend", str(tmp_path / "missing.json"))
    assert code == 2


def test_budget_flags_only_where_honoured(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 3)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    sl3 = ["verify-sl3", "--q", "1", "--n", "2", "2", "2", "2", "2", "2", "--trunc", "3"]
    for argv in (
        ["sample", wfile, "-N", "1", "--jobs", "2"],
        [*sl3, "--jobs", "2"],
        ["sample", wfile, "-N", "1", "--timeout", "5"],
        ["sample", wfile, "-N", "1", "--size-limit", "5"],
        [*sl3, "--timeout", "5"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "unrecognized arguments" in err
    cs = build_extension_system(w, quadrant_order(2))
    sys_file = write(tmp_path / "sys.json", ser.system_to_json(cs))
    code, out, _ = run(capsys, "check-extend", sys_file, "--timeout", "60", "--size-limit", "25")
    assert code == 0 and json.loads(out)["verdict"] == "sat"
    code, _, err = run(capsys, "check-extend", sys_file, "--size-limit", "24")
    assert code == 2 and "SizeLimitExceeded: window of 25 elements exceeds the 24-element cap" in err
    code, _, err = run(capsys, "check-extend", sys_file, "--timeout", "-1")
    assert code == 2 and "SolveTimeout: solve exceeded -1.0 s in the sort, after " in err


def test_check_extend_timeout_on_an_unsat_system(tmp_path, capsys):
    cs = ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 0)))
    sys_file = write(tmp_path / "cyc.json", ser.system_to_json(cs))
    code, _, err = run(capsys, "check-extend", sys_file, "--timeout", "-1")
    assert code == 2 and "SolveTimeout: solve exceeded -1.0 s in propagation round 1, after " in err
    code, out, _ = run(capsys, "check-extend", sys_file)
    assert code == 1 and json.loads(out)["verdict"] == "unsat"


def test_check_extend_refuses_a_nan_timeout(tmp_path, capsys):
    cs = ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 0)))
    sys_file = write(tmp_path / "cyc.json", ser.system_to_json(cs))
    code, out, err = run(capsys, "check-extend", sys_file, "--timeout", "nan")
    assert code == 2 and out == "" and "ValueError" in err and "NaN" in err
    code, out, _ = run(capsys, "check-extend", sys_file, "--timeout", "inf")
    assert code == 1 and json.loads(out)["verdict"] == "unsat"


def test_a_file_that_is_not_json_names_its_path(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("[1")
    code, out, err = run(capsys, "check-extend", str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not JSON: Expecting ',' delimiter: line 1 column 3 (char 2)\n"
    bad.write_bytes(b"[\xff]")
    code, out, err = run(capsys, "check-extend", str(bad))
    assert (code, out) == (2, "") and err.startswith(f"error: {bad}: not JSON: 'utf-8' codec can't decode")
    monkeypatch.setattr(sys, "stdin", io.StringIO("[1"))
    code, out, err = run(capsys, "check-extend", "-")
    assert (code, out) == (2, "") and err.startswith("error: -: not JSON: ")


def test_cli_imports_only_the_standard_library():
    # a fresh interpreter that imports this same copy of the package
    src = os.path.dirname(os.path.dirname(grouporders.__file__))
    code = "import sys, grouporders.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "False"


def test_verify_sl3(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "verify-sl3", "--q", "1", "--n", "2", "2", "2", "2", "2", "2",
        "--trunc", "3", "-o", str(out),
    )
    assert code == 1  # UNSAT outcome
    report = json.loads(out.read_text())
    verdicts = {r["convention"]: r["verdict"] for r in report["results"]}
    assert verdicts["plain_left"] == "unsat"
    assert verdicts["inverse_left"] == "inconclusive"
    unsat = next(r for r in report["results"] if r["verdict"] == "unsat")
    assert unsat["replay_ok"] and len(unsat["cycle"]) >= 13

    code, _, err = run(
        capsys,
        "verify-sl3", "--q", "1", "--n", "1", "2", "2", "2", "2", "2",
        "--trunc", "3",
    )
    assert code == 2 and "n_i" in err


def test_verify_sl3_writes_the_plain_left_system(tmp_path, capsys):
    system = tmp_path / "sys.json"
    code, _, _ = run(
        capsys,
        "verify-sl3", "--q", "1", "--n", "2", "2", "2", "2", "2", "2",
        "--trunc", "3", "--system-out", str(system), "-o", str(tmp_path / "report.json"),
    )
    assert code == 1
    plain_left = build_sl3_instance(SL3Instance(1, (2,) * 6, 3, "plain_left"))
    assert system.read_text() == ser.canonical_dumps(ser.system_to_json(plain_left))
    code, out, _ = run(capsys, "check-extend", str(system))
    assert code == 1 and json.loads(out)["verdict"] == "unsat"


def test_realize_torus_without_x_draws_one_point_coordinate_per_angle(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 2)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    out = tmp_path / "ord.json"
    code, _, _ = run(
        capsys,
        "realize", wfile, "--action", "torus", "--alphas", "0,1;1/3,-1", "--seed", "9", "-o", str(out),
    )
    assert code == 0
    action = torus_action([Sqrt2Num.of(0, 1), Sqrt2Num.of(Fraction(1, 3), -1)])
    point = (unit_fraction(9, "point", 0), unit_fraction(9, "point", 1))
    assert out.read_text() == ser.canonical_dumps(ser.order_to_json(realize(action, point, w)))


def test_window_file_with_a_float_coordinate_is_rejected(tmp_path, capsys):
    for elements in ([[0], [1.9]], [[0], [1.9], [1.2]]):
        window = {"format": 1, "group": {"kind": "zn", "n": 1}, "elements": elements}
        wfile = write(tmp_path / "w.json", window)
        code, out, err = run(capsys, "sample", wfile, "-N", "1", "--seed", "5")
        assert (code, out) == (2, "")
        assert "TypeError" in err and "duplicate" not in err


def test_sample_batches(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    out = tmp_path / "batch.txt"
    code, _, _ = run(capsys, "sample", wfile, "-N", "2", "--seed", "5", "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 orders
    perm = json.loads(lines[1])
    assert sorted(perm) == list(range(5))
    # byte-identical rerun
    out2 = tmp_path / "batch2.txt"
    run(capsys, "sample", wfile, "-N", "2", "--seed", "5", "-o", str(out2))
    assert out.read_text() == out2.read_text()
    # empty batch
    out3 = tmp_path / "b0.txt"
    code, _, _ = run(capsys, "sample", wfile, "-N", "0", "--seed", "5", "-o", str(out3))
    assert code == 0 and len(out3.read_text().splitlines()) == 1
    # coset sampler without the inner order file is a usage error
    code, _, err = run(capsys, "sample", wfile, "-N", "1", "--sampler", "coset")
    assert code == 2
    # pairs encoding lists the full closed relation
    outp = tmp_path / "bp.txt"
    code, _, _ = run(
        capsys, "sample", wfile, "-N", "1", "--seed", "5",
        "--encoding", "pairs", "-o", str(outp),
    )
    rec = json.loads(outp.read_text().splitlines()[1])
    assert rec["closed"] and len(rec["pairs"]) == 5 * 4 // 2


def test_estimate_invariance_chisq(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 2)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
    dfile = write(tmp_path / "d.json", ser.window_to_json(D))
    cyl = {
        "format": 1,
        "window": ser.window_to_json(D),
        "pattern": {"format": 1, "closed": True, "perm": [0, 1]},
    }
    cfile = write(tmp_path / "cyl.json", cyl)
    code, out, _ = run(
        capsys, "estimate", wfile, "--cylinder", cfile, "-N", "200", "--seed", "3"
    )
    assert code == 0 and out.startswith("pattern_id,count,frequency,stderr")

    code, out, _ = run(
        capsys,
        "invariance", wfile, "--element", "[1,0]", "--probe", dfile,
        "-N", "200", "--seed", "3",
    )
    assert code == 0 and "max_gap" in out

    code, out, _ = run(
        capsys, "chisq", wfile, "--probe", dfile, "-N", "120", "--seed", "3"
    )
    assert code == 0 and "statistic" in out

    # identical seeds give identical reports
    code, out2, _ = run(
        capsys, "chisq", wfile, "--probe", dfile, "-N", "120", "--seed", "3"
    )
    assert out == out2


def test_chisq_and_invariance_reject_zero_samples(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 2)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    D = window_from_elements(zn(2), [zn_element(1, 0)])
    dfile = write(tmp_path / "d.json", ser.window_to_json(D))
    for sampler in ("uniform", "rotation"):
        w_arg = wfile
        if sampler == "rotation":
            wz = window_from_elements(zn(1), [zn_element(1), zn_element(2)])
            w_arg = write(tmp_path / "wz.json", ser.window_to_json(wz))
            dz = window_from_elements(zn(1), [zn_element(1)])
            d_arg = write(tmp_path / "dz.json", ser.window_to_json(dz))
            element = "[1]"
        else:
            d_arg, element = dfile, "[1,0]"
        for argv in (
            ["chisq", w_arg, "--probe", d_arg],
            ["invariance", w_arg, "--element", element, "--probe", d_arg],
        ):
            code, out, err = run(capsys, *argv, "--sampler", sampler, "-N", "0", "--seed", "3")
            assert (code, out) == (2, "")
            assert "need at least one sample" in err


def test_rotation_sampler_needs_a_z_window(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    # an empty probe and a Z probe: the window's group alone decides
    for i, D in enumerate([window_from_elements(zn(2), []), window_from_elements(zn(1), [zn_element(1)])]):
        dfile = write(tmp_path / f"d{i}.json", ser.window_to_json(D))
        cyl = {
            "format": 1,
            "window": ser.window_to_json(D),
            "pattern": {"format": 1, "closed": True, "perm": list(range(len(D)))},
        }
        cfile = write(tmp_path / f"cyl{i}.json", cyl)
        for argv in (["chisq", wfile, "--probe", dfile], ["estimate", wfile, "--cylinder", cfile]):
            code, out, err = run(capsys, *argv, "--sampler", "rotation", "-N", "2", "--seed", "3")
            assert (code, out) == (2, "")
            assert "ValueError: action needs a Z^1 window" in err


def test_probe_from_another_group_is_outside_the_window(tmp_path, capsys):
    w = ball(default_generators(HEISENBERG), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    # Z^3 elements whose payloads are also Heisenberg payloads of w
    D = window_from_elements(zn(3), [zn_element(1, 0, 0)])
    dfile = write(tmp_path / "d.json", ser.window_to_json(D))
    code, out, err = run(capsys, "chisq", wfile, "--probe", dfile, "-N", "5", "--seed", "3")
    assert (code, out) == (2, "")
    assert "ElementNotInWindow" in err


def test_a_window_file_with_a_non_int_rank_is_refused(tmp_path, capsys):
    blob = ser.window_to_json(interval_window(-1, 2))
    good = write(tmp_path / "w.json", blob)
    code, out, _ = run(capsys, "sample", good, "-N", "2", "--seed", "5")
    assert code == 0 and out
    # `true` and `1.0` printed as other groups and keyed other orders
    for n in (True, 1.0):
        bad = write(tmp_path / "bad.json", {**blob, "group": {"kind": "zn", "n": n}})
        code, out, err = run(capsys, "sample", bad, "-N", "2", "--seed", "5")
        assert (code, out) == (2, "")
        assert "int rank" in err


def test_coset_sampler_checks_its_inputs_before_drawing(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    inner_w = window_from_elements(zn(2), [])
    inner = write(tmp_path / "inner.json", ser.order_to_json(uniform_order(inner_w, 1)))
    argv = ["sample", wfile, "-N", "0", "--sampler", "coset", "--inner-order", inner]
    # the subgroup x = 0 meets w in (0, -1) and (0, 1); the inner order
    # covers only the identity
    code, out, err = run(capsys, *argv, "--subgroup-zero-coords", "0")
    assert (code, out) == (2, "")
    assert "InnerOrderIncomplete" in err
    # the trivial subgroup needs only the identity
    code, out, _ = run(capsys, *argv, "--subgroup-zero-coords", "0,1")
    assert code == 0 and len(out.splitlines()) == 1


def test_subgroup_zero_coords_must_be_coordinates_of_the_window(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    inner = write(tmp_path / "inner.json", ser.order_to_json(uniform_order(window_from_elements(zn(2), []), 1)))
    argv = ["sample", wfile, "-N", "1", "--seed", "1", "--sampler", "coset", "--inner-order", inner]
    # negative coordinates must not count from the end of the payload
    for coords in ("5", "-1", "-2", "0,2"):
        code, out, err = run(capsys, *argv, "--subgroup-zero-coords", coords)
        assert (code, out) == (2, "") and "takes coordinates 0..1" in err
    assert run(capsys, *argv, "--subgroup-zero-coords", "0,1")[0] == 0


def test_generator_files_need_a_json_boolean_symmetric(tmp_path, capsys):
    default = ser.window_to_json(ball(default_generators(zn(2)), 2))
    half, full = [[1, 0], [0, 1]], [[1, 0], [0, 1], [-1, 0], [0, -1]]
    for elements, symmetric in ((half, False), (full, True)):
        gfile = write(tmp_path / "g.json", {"format": 1, "elements": elements, "symmetric": symmetric})
        code, out, _ = run(capsys, "ball", "z2", "--radius", "2", "--generators", gfile)
        assert code == 0 and json.loads(out) == default
    # "false" must not be read as true, nor 0 as false, nor a misspelt
    # symmetric as a missing one
    refused = [({"symmetric": s}, "symmetric must be true or false") for s in ("false", 0, None)]
    refused += [({"symetric": True}, "unknown key 'symetric'"), ({"format": 2}, "format 2 is not 1")]
    for body, named in refused:
        gfile = write(tmp_path / "g.json", {"elements": half, **body})
        code, out, err = run(capsys, "ball", "z2", "--radius", "2", "--generators", gfile)
        assert (code, out) == (2, "") and named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["realize", "wz", "--action", "rotation", "--x", "1/0"],
        ["realize", "wz", "--action", "rotation", "--alpha", "1/0,1"],
        ["realize", "w2", "--action", "torus", "--alphas", "0,1;1/0,1"],
        ["realize", "w2", "--action", "torus", "--alphas", "0,1;0,2", "--x", "1/3,2/0"],
        ["reconstruct", "ord", "--n", "1", "--true-x", "1/0"],
    ],
)
def test_a_zero_denominator_is_a_usage_error(tmp_path, capsys, argv):
    files = {
        "wz": ser.window_to_json(ball(default_generators(zn(1)), 4)),
        "w2": ser.window_to_json(ball(default_generators(zn(2)), 1)),
        "ord": ser.order_to_json(uniform_order(ball(default_generators(zn(1)), 4), 1)),
    }
    argv = [write(tmp_path / f"{a}.json", files[a]) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    # the last flag holds the fraction with the zero denominator
    assert (code, out) == (2, "") and f"{argv[-2]} needs fractions" in err


@pytest.mark.parametrize(
    "flag,text", [("--subgroup-zero-coords", "a"), ("--subgroup-zero-coords", "0,"),
                  ("--n", "x"), ("--n", "1,,3"), ("--n", "2.5")],
)
def test_an_integer_list_flag_names_itself(tmp_path, capsys, flag, text):
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    ofile = write(tmp_path / "o.json", ser.order_to_json(uniform_order(w, 1)))
    if flag == "--n":
        argv = ["reconstruct", ofile, "--n", text]
    else:
        argv = ["sample", wfile, "-N", "1", "--sampler", "coset", "--inner-order", ofile, flag, text]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {flag} needs comma-separated integers, got {text!r}\n")


def test_coset_sampler_refuses_an_inner_order_of_another_group(tmp_path, capsys):
    w = ball(default_generators(zn(3)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    # a Heisenberg order on the same payloads covers every translate by payload
    inner_w = ball(default_generators(HEISENBERG), 1)
    inner = write(tmp_path / "inner.json", ser.order_to_json(uniform_order(inner_w, 4)))
    argv = ["sample", wfile, "-N", "1", "--seed", "1", "--sampler", "coset",
            "--inner-order", inner, "--subgroup-zero-coords", "0"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "GroupMismatch" in err


def test_glue_cli(tmp_path, capsys):
    w = ball(default_generators(zn(2)), 2)
    m1, m2 = uniform_order(w, 1), uniform_order(w, 2)
    o1 = write(tmp_path / "o1.json", ser.order_to_json(m1))
    o2 = write(tmp_path / "o2.json", ser.order_to_json(m2))
    kfile = write(tmp_path / "k.json", {"format": 1, "group": {"kind": "zn", "n": 2}, "elements": [[0, 1]]})
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0)])
    dfile = write(tmp_path / "d.json", ser.window_to_json(D))
    glued = tmp_path / "glued.json"
    report = tmp_path / "rep.json"
    code, _, _ = run(
        capsys,
        "glue", o1, o2, "--k-file", kfile, "--d-file", dfile,
        "-o", str(glued), "--report-out", str(report),
    )
    assert code == 0
    assert json.loads(report.read_text())["all_ok"] is True
    # empty K reproduces the second order
    k0 = write(tmp_path / "k0.json", {"format": 1, "group": {"kind": "zn", "n": 2}, "elements": []})
    glued0 = tmp_path / "glued0.json"
    code, _, _ = run(
        capsys,
        "glue", o1, o2, "--k-file", k0, "--d-file", dfile,
        "-o", str(glued0), "--report-out", str(tmp_path / "r0.json"),
    )
    assert json.loads(glued0.read_text())["perm"] == json.loads(
        ser.canonical_dumps(ser.order_to_json(m2))
    )["perm"]
    # K^-1 D escaping the window is an error
    kbig = write(tmp_path / "kb.json", {"format": 1, "group": {"kind": "zn", "n": 2}, "elements": [[-2, 0]]})
    code, _, _ = run(
        capsys,
        "glue", o1, o2, "--k-file", kbig, "--d-file", dfile,
        "-o", str(tmp_path / "gx.json"), "--report-out", str(tmp_path / "rx.json"),
    )
    assert code == 2


def test_glue_refuses_orders_on_different_windows(tmp_path, capsys):
    from grouporders.orders import OrderMatrix

    w1 = window_from_elements(zn(1), [zn_element(k) for k in (0, 1, 2)])
    w2 = window_from_elements(zn(1), [zn_element(k) for k in (0, 5, 7)])
    o1 = write(tmp_path / "o1.json", ser.order_to_json(OrderMatrix.from_perm(w1, [0, 1, 2])))
    o2 = write(tmp_path / "o2.json", ser.order_to_json(OrderMatrix.from_perm(w2, [2, 1, 0])))
    k0 = write(tmp_path / "k0.json", {"format": 1, "group": {"kind": "zn", "n": 1}, "elements": []})
    d = write(tmp_path / "d.json", ser.window_to_json(window_from_elements(zn(1), [])))
    glued, report = tmp_path / "glued.json", tmp_path / "rep.json"
    code, out, err = run(capsys, "glue", o1, o2, "--k-file", k0, "--d-file", d,
                         "-o", str(glued), "--report-out", str(report))
    assert (code, out) == (2, "") and "another window" in err
    assert not glued.exists() and not report.exists()
    # the second order's window is read as a window file is read: float or
    # bool rows equal to w1's are refused, as reconstruct refuses that file
    for rows in ([[0.0], [1.0], [2.0]], [[False], [True], [2]]):
        blob = ser.order_to_json(OrderMatrix.from_perm(w1, [2, 1, 0]))
        o3 = write(tmp_path / "o3.json", {**blob, "window": {**blob["window"], "elements": rows}})
        code, out, err = run(capsys, "glue", o1, o3, "--k-file", k0, "--d-file", d)
        assert (code, out) == (2, "") and err.startswith(f"error: {o3}: TypeError: "), rows
        assert run(capsys, "reconstruct", o3, "--n", "1")[2] == err, rows


def test_realize_reconstruct_cli(tmp_path, capsys):
    code, _, _ = run(capsys, "ball", "z1", "--radius", "4", "-o", str(tmp_path / "wz.json"))
    assert code == 0
    ofile = tmp_path / "ord.json"
    code, _, _ = run(
        capsys,
        "realize", str(tmp_path / "wz.json"), "--action", "rotation",
        "--x", "3/10", "-o", str(ofile),
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        "reconstruct", str(ofile), "--scheme", "cesaro", "--n", "1,5",
        "--true-x", "3/10",
    )
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,estimate,abs_error"
    assert rows[1].startswith("1,0.0,")
    # window not covering the scheme support
    code, _, _ = run(capsys, "reconstruct", str(ofile), "--scheme", "cesaro", "--n", "50")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["realize", "wz1.json", "--action", "rotation", "--alpha", "1/2,0"],
         "rotation angles must be irrational (root2 part nonzero)"),
        (["realize", "wz2.json", "--action", "torus", "--alphas", "1/3,1;1/2,0"],
         "rotation angles must be irrational (root2 part nonzero)"),
        (["sample", "wz1.json", "--sampler", "rotation", "--alpha", "1/2,0", "-N", "1"],
         "rotation angles must be irrational (root2 part nonzero)"),
        (["reconstruct", "ord.json", "--n", "0"], "scheme size must be positive"),
        (["reconstruct", "ord.json", "--scheme", "box", "--n", "2,-1"], "scheme size must be positive"),
    ],
)
def test_a_refused_angle_or_scheme_size_is_one_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "wz1.json", ser.window_to_json(interval_window(-3, 4)))
    write(tmp_path / "wz2.json", ser.window_to_json(ball(default_generators(zn(2)), 1)))
    write(tmp_path / "ord.json", ser.order_to_json(uniform_order(interval_window(-3, 4), 1)))
    assert run(capsys, *argv) == (2, "", f"error: ValueError: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["realize", "wz1.json", "--action", "rotation", "--alpha", "1/2"],
         "angle must be 'rat,root2' (meaning rat + root2*sqrt2)"),
        (["sample", "wz2.json", "--sampler", "coset", "--inner-order", "inner.json", "-N", "1"],
         "coset sampler needs --subgroup-zero-coords"),
        (["sample", "wh.json", "--sampler", "coset", "--inner-order", "inner.json",
          "--subgroup-zero-coords", "0", "-N", "1"],
         "the coordinate subgroup test needs a Z^n window"),
        (["realize", "wz2.json", "--action", "torus"], "torus action needs --alphas 'a,b;a,b;...'"),
    ],
)
def test_a_missing_or_malformed_flag_is_one_usage_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "wz1.json", ser.window_to_json(interval_window(-3, 4)))
    write(tmp_path / "wz2.json", ser.window_to_json(ball(default_generators(zn(2)), 1)))
    write(tmp_path / "wh.json", ser.window_to_json(ball(default_generators(HEISENBERG), 1)))
    write(tmp_path / "inner.json", ser.order_to_json(uniform_order(interval_window(-1, 2), 1)))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_levels_cli(tmp_path, capsys):
    w = window_from_elements(zn(2), [zn_element(x, y) for x in range(3) for y in range(3)])
    m = lex_functional(2).window_order(w)
    ofile = write(tmp_path / "lex.json", ser.order_to_json(m))
    code, out, _ = run(capsys, "levels", ofile)
    assert code == 0
    assert out.splitlines() == ["2 5 8", "1 4 7", "0 3 6"]
    # non-Z^2 order is an error
    wz = ball(default_generators(zn(1)), 2)
    mz = uniform_order(wz, 1)
    zfile = write(tmp_path / "z.json", ser.order_to_json(mz))
    code, _, _ = run(capsys, "levels", zfile)
    assert code == 2
    # non-total input is an error
    from grouporders.orders import OrderMatrix

    part = write(tmp_path / "part.json", ser.order_to_json(OrderMatrix.from_pairs(w, [], closed=True)))
    code, _, _ = run(capsys, "levels", part)
    assert code == 2
    # every cell is padded to the width of the largest rank
    w = window_from_elements(zn(2), [zn_element(x, y) for x in range(4) for y in range(3)])
    ofile = write(tmp_path / "wide.json", ser.order_to_json(lex_functional(2).window_order(w)))
    code, out, _ = run(capsys, "levels", ofile)
    assert code == 0
    assert out == " 2  5  8 11\n 1  4  7 10\n 0  3  6  9\n"


def test_env_seed(tmp_path, capsys, monkeypatch):
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    monkeypatch.setenv("GROUPORDERS_SEED", "99")
    code, out1, _ = run(capsys, "sample", wfile, "-N", "1")
    monkeypatch.delenv("GROUPORDERS_SEED")
    code, out2, _ = run(capsys, "sample", wfile, "-N", "1", "--seed", "99")
    assert out1 == out2


def test_a_bad_env_seed_is_a_usage_error_naming_the_variable(tmp_path, capsys, monkeypatch):
    wfile = write(tmp_path / "w.json", ser.window_to_json(ball(default_generators(zn(2)), 1)))
    for text in ("abc", "", "1.5"):
        monkeypatch.setenv("GROUPORDERS_SEED", text)
        code, out, err = run(capsys, "sample", wfile, "-N", "1")
        assert (code, out) == (2, "")
        assert err == f"error: GROUPORDERS_SEED needs an integer seed, got {text!r}\n"
        # --seed wins: the variable is not read
        code, out, _ = run(capsys, "sample", wfile, "-N", "1", "--seed", "99")
        assert code == 0 and out


def test_order_files_must_list_each_index_once(tmp_path, capsys):
    wj = ser.window_to_json(interval_window(-1, 2))
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(2) for y in range(2)])
    for perm in ([0, 0, 2], [-1, 1, 2], [0, 1, 3], [True, False, 2], [1.0, 0, 2]):
        ofile = write(tmp_path / "o.json", {"format": 1, "closed": True, "window": wj, "perm": perm})
        lfile = write(
            tmp_path / "l.json",
            {"format": 1, "closed": True, "window": ser.window_to_json(rect), "perm": [*perm, 3]},
        )
        for argv in (["reconstruct", ofile, "--n", "2"], ["levels", lfile]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, perm)
            assert "ValueError: perm must be a permutation" in err


def test_index_fields_are_json_integers_and_closed_a_json_boolean(tmp_path, capsys):
    wj = ser.window_to_json(interval_window(-1, 2))
    total = [[0, 1], [0, 2], [1, 2]]
    z1 = {"group": {"kind": "zn", "n": 1}}
    probe = write(tmp_path / "probe.json", {"format": 1, **z1, "elements": [[0]]})
    cases = {
        "atoms": ({"window": wj, "atoms": [[True, False], [0, True]]}, ["check-extend"]),
        "pairs": ({"closed": True, "window": wj, "pairs": [[False, True], *total[1:]]}, ["reconstruct", "--n", "1"]),
        "closed": ({"closed": "false", "window": wj, "pairs": total}, ["reconstruct", "--n", "1"]),
        "open perm": ({"closed": False, "window": wj, "perm": [2, 0, 1]}, ["reconstruct", "--n", "1"]),
        "heis n": ({"group": {"kind": "heis", "n": 3}, "elements": [[0, 0, 0]]}, ["sample", "-N", "1"]),
        "window": ({**z1, "elements": [[-1], [0], [True]]}, ["sample", "-N", "1"]),
        "float window": ({**z1, "elements": [[-1], [0], [1.0]]}, ["sample", "-N", "1"]),
        "generators": ({"elements": [[True]]}, ["ball", "z1", "--radius", "1", "--generators"]),
        "element": (wj, ["invariance", "--probe", probe, "-N", "1", "--element", "[true]"]),
    }
    for name, (body, command) in cases.items():
        f = write(tmp_path / "in.json", {"format": 1, **body})
        argv = [*command, f] if command[0] == "ball" else [command[0], f, *command[1:]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), name
        assert err.startswith("error: ") and "NotTotal" not in err, name
    f = write(tmp_path / "ok.json", {"format": 1, "closed": True, "window": wj, "pairs": total})
    assert run(capsys, "reconstruct", f, "--n", "1")[0] == 0
    wfile = write(tmp_path / "w.json", wj)
    assert run(capsys, "invariance", wfile, "--probe", probe, "-N", "1", "--element", "[1]")[0] == 0


# 0 below everything and 3 above, while 1 < 2 and 2 < 1: every pair is
# decided and the rows' popcounts 3, 2, 1, 0 look like ranks, but it cycles
CYCLIC = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 1]]
TOTAL = [[i, j] for i in range(4) for j in range(i + 1, 4)]


def test_a_cyclic_closed_relation_is_not_a_total_order(tmp_path, capsys):
    # every consumer of a total order reads totality from the rows alone: a
    # cyclic relation is refused although it claims closed, and an open total
    # one gives the output of its closed twin
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(2) for y in range(2)])
    wj = ser.window_to_json(rect)
    wfile = write(tmp_path / "w.json", wj)
    lex = write(tmp_path / "lex.json", ser.order_to_json(lex_functional(2).window_order(rect)))
    origin = write(tmp_path / "e.json", {"format": 1, "group": {"kind": "zn", "n": 2}, "elements": [[0, 0]]})
    glue_files = (tmp_path / "g.json", tmp_path / "r.json")
    glue_out = ["-o", str(glue_files[0]), "--report-out", str(glue_files[1])]
    outputs = {}
    for name, pairs, closed in (("cyclic", CYCLIC, True), ("open", TOTAL, False), ("closed", TOTAL, True)):
        relation = {"format": 1, "closed": closed, "pairs": pairs}
        ofile = write(tmp_path / "order.json", {**relation, "window": wj})
        cfile = write(tmp_path / "cyl.json", {"format": 1, "window": wj, "pattern": relation})
        coset = ["--sampler", "coset", "--inner-order", ofile, "--subgroup-zero-coords", "0,1"]
        outputs[name] = []
        for argv in (
            ["levels", ofile],
            ["glue", ofile, lex, "--k-file", origin, "--d-file", origin, *glue_out],
            ["estimate", wfile, "--cylinder", cfile, "-N", "3", "--seed", "1"],
            ["sample", wfile, "-N", "1", "--seed", "1", *coset],
            ["reconstruct", ofile, "--scheme", "box", "--n", "2"],
        ):
            code, out, err = run(capsys, *argv)
            if name == "cyclic":
                assert (code, out) == (2, ""), argv
                assert err.startswith("error: "), argv
            else:
                assert code == 0, (name, argv, err)
                outputs[name].append(out)
            if argv[0] == "glue" and code == 0:
                outputs[name] += [f.read_bytes() for f in glue_files]
    assert outputs["open"] == outputs["closed"]


def test_an_order_holds_exactly_one_of_perm_and_pairs(tmp_path, capsys):
    wj = ser.window_to_json(interval_window(0, 3))
    for name, body in (
        ("both", {"perm": [2, 1, 0], "pairs": [[0, 1], [0, 2], [1, 2]], "closed": True}),
        ("neither", {"closed": True}),
    ):
        f = write(tmp_path / "order.json", {"format": 1, "window": wj, **body})
        code, out, err = run(capsys, "reconstruct", f, "--n", "1")
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: {f}: ValueError: ") and "perm and pairs" in err, name


def test_a_pair_or_atom_that_is_not_two_indices_names_itself(tmp_path, capsys):
    wj = ser.window_to_json(interval_window(0, 3))
    for entry in ([0, 1, 2], [0], 5):
        for what, body, command in (
            ("pair", {"closed": True, "window": wj, "pairs": [[0, 1], entry]}, "levels"),
            ("atom", {"window": wj, "atoms": [[0, 1], entry]}, "check-extend"),
        ):
            f = write(tmp_path / "in.json", {"format": 1, **body})
            code, out, err = run(capsys, command, f)
            assert (code, out) == (2, ""), (what, entry)
            assert err == f"error: {f}: ValueError: {what} {entry!r} is not two indices\n"


def test_a_format_other_than_1_is_refused(tmp_path, capsys):
    # each reader checks the format of its own object: a system and its
    # window, an order and its window, a window, an element set
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(2) for y in range(2)])
    cs = build_extension_system(rect, quadrant_order(2))
    lex = ser.order_to_json(lex_functional(2).window_order(rect))
    origin = {"format": 1, "group": {"kind": "zn", "n": 2}, "elements": [[0, 0]]}
    lex_file = write(tmp_path / "lex.json", lex)
    origin_file = write(tmp_path / "origin.json", origin)
    glue = ["--d-file", origin_file, "-o", str(tmp_path / "g.json"), "--report-out", str(tmp_path / "r.json")]
    cases = (
        (ser.system_to_json(cs), ("window",), lambda f: ["check-extend", f]),
        (lex, ("window",), lambda f: ["levels", f]),
        (ser.window_to_json(rect), (), lambda f: ["sample", f, "-N", "1"]),
        (origin, (), lambda f: ["glue", lex_file, lex_file, "--k-file", f, *glue]),
    )
    for body, nested, argv in cases:
        f = write(tmp_path / "in.json", body)
        expected = run(capsys, *argv(f))
        assert expected[0] in (0, 1), argv(f)
        for level in (None, *nested):
            for bad in (99, 2, True, 1.0, "1", None):
                mutated = json.loads(json.dumps(body))
                (mutated if level is None else mutated[level])["format"] = bad
                code, out, err = run(capsys, *argv(write(tmp_path / "in.json", mutated)))
                assert (code, out) == (2, ""), (argv(f)[0], level, bad)
                assert err == f"error: {f}: ValueError: format {bad!r} is not 1\n"
        # a file may leave its format out
        bare = json.loads(json.dumps(body))
        for level in (None, *nested):
            del (bare if level is None else bare[level])["format"]
        assert run(capsys, *argv(write(tmp_path / "in.json", bare))) == expected


def test_reconstruct_needs_a_total_order(tmp_path, capsys):
    wj = ser.window_to_json(interval_window(0, 4))
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(2) for y in range(2)])
    for name, window, relation, scheme in (
        ("open", wj, {"closed": False, "pairs": []}, "cesaro"),
        ("cyclic", wj, {"closed": True, "pairs": CYCLIC}, "cesaro"),
        ("cyclic2", ser.window_to_json(rect), {"closed": True, "pairs": CYCLIC}, "box"),
    ):
        ofile = write(tmp_path / f"{name}.json", {"format": 1, "window": window, **relation})
        code, out, err = run(capsys, "reconstruct", ofile, "--scheme", scheme, "--n", "2")
        assert (code, out) == (2, ""), name
        assert err.startswith("error: NotTotal: "), name


def test_one_parser_serves_every_call(tmp_path, capsys):
    from grouporders.cli import build_parser

    assert build_parser() is build_parser()
    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    # a usage error leaves the parser fit for the next call
    code, out, _ = run(capsys, "sample", wfile, "--encoding", "nope", "-N", "1")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "sample", wfile, "-N", "2", "--seed", "5")
    assert code == 0 and len(out.splitlines()) == 3


def test_a_coset_run_leaves_no_flag_to_the_next_call(tmp_path, capsys):
    from grouporders import rng
    from grouporders.sampling import uniform_sampler

    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    inner_w = window_from_elements(zn(2), [zn_element(0, y) for y in (-1, 1)])
    inner = write(tmp_path / "inner.json", ser.order_to_json(uniform_order(inner_w, 1)))
    code, _, _ = run(
        capsys, "sample", wfile, "-N", "2", "--seed", "5", "--sampler", "coset",
        "--inner-order", inner, "--subgroup-zero-coords", "0",
    )
    assert code == 0
    code, out, _ = run(capsys, "sample", wfile, "-N", "2", "--seed", "5")
    draw = uniform_sampler(w)
    expected = [draw(rng.derive_seed(5, "sample", i)).perm() for i in range(2)]
    assert code == 0 and [json.loads(line) for line in out.splitlines()[1:]] == expected


def test_flags_the_chosen_action_or_sampler_ignores_are_refused(tmp_path, capsys):
    wz = write(tmp_path / "wz.json", ser.window_to_json(ball(default_generators(zn(1)), 4)))
    w2 = write(tmp_path / "w2.json", ser.window_to_json(ball(default_generators(zn(2)), 1)))
    realize = ["realize", "--seed", "3", "-o", str(tmp_path / "ord.json")]
    refused = [
        (wz, "rotation", ["--alphas", "0,1"]),
        (wz, "rotation", ["--point-seed", "4"]),
        (w2, "torus", ["--alphas", "0,1;0,2", "--alpha", "0,1"]),
        (w2, "torus", ["--alphas", "0,1;0,2", "--point-seed", "4"]),
        (wz, "bernoulli", ["--alpha", "0,1"]),
        (wz, "bernoulli", ["--alphas", "0,1"]),
        (wz, "bernoulli", ["--x", "1/3"]),
    ]
    for wfile, action, flags in refused:
        code, out, err = run(capsys, *realize, wfile, "--action", action, *flags)
        assert (code, out) == (2, "") and f"does not apply to --action {action}" in err
    accepted = [
        (wz, "rotation", ["--alpha", "0,1", "--x", "1/3"]),
        (w2, "torus", ["--alphas", "0,1;0,2", "--x", "1/3,1/5"]),
        (wz, "bernoulli", ["--point-seed", "4"]),
    ]
    for wfile, action, flags in accepted:
        assert run(capsys, *realize, wfile, "--action", action, *flags)[0] == 0

    dz = write(tmp_path / "dz.json", ser.window_to_json(window_from_elements(zn(1), [zn_element(1)])))
    inner = write(tmp_path / "inner.json", ser.order_to_json(uniform_order(window_from_elements(zn(1), []), 1)))
    D = window_from_elements(zn(1), [zn_element(1)])
    cyl = {"format": 1, "window": ser.window_to_json(D), "pattern": ser.order_to_json(uniform_order(D, 1))}
    cfile = write(tmp_path / "cyl.json", cyl)
    for argv in (
        ["sample", wz],
        ["estimate", wz, "--cylinder", cfile],
        ["chisq", wz, "--probe", dz],
        ["invariance", wz, "--element", "[1]", "--probe", dz],
    ):
        for sampler, flags, reason in (
            ("uniform", ["--alpha", "0,1"], "needs --sampler rotation"),
            ("coset", ["--alpha", "0,1", "--inner-order", inner, "--subgroup-zero-coords", "0"],
             "needs --sampler rotation"),
            ("uniform", ["--inner-order", inner], "needs --sampler coset"),
            ("rotation", ["--subgroup-zero-coords", "0"], "needs --sampler coset"),
            ("bogus", [], "invalid choice: 'bogus'"),
        ):
            code, out, err = run(capsys, *argv, "-N", "2", "--seed", "3", "--sampler", sampler, *flags)
            assert (code, out) == (2, "") and reason in err
        code, _, _ = run(capsys, *argv, "-N", "2", "--seed", "3", "--sampler", "rotation", "--alpha", "0,1")
        assert code == 0


def test_pairs_encoding_is_capped_as_dense_rows_are(tmp_path, capsys, monkeypatch):
    from grouporders import SizeLimitExceeded, orders
    from grouporders.orders import OrderMatrix

    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    monkeypatch.setattr(orders, "MAX_DENSE_ELEMENTS", len(w) - 1)
    with pytest.raises(SizeLimitExceeded, match="dense matrix"):
        list(uniform_order(w, 5).pairs())
    # a relation kept as rows lists what it holds, whatever the cap
    assert list(OrderMatrix.from_pairs(w, [(0, 1)]).pairs()) == [(0, 1)]
    out = tmp_path / "pairs.txt"
    code, stdout, err = run(capsys, "sample", wfile, "-N", "1", "--seed", "5",
                            "--encoding", "pairs", "-o", str(out))
    assert (code, stdout) == (2, "") and "SizeLimitExceeded" in err
    assert not out.exists()
    code, stdout, _ = run(capsys, "sample", wfile, "-N", "1", "--seed", "5", "--encoding", "perm")
    assert code == 0 and sorted(json.loads(stdout.splitlines()[1])) == list(range(len(w)))


def test_sample_refuses_a_negative_count(tmp_path, capsys):
    wfile = write(tmp_path / "w.json", ser.window_to_json(ball(default_generators(zn(2)), 1)))
    code, out, err = run(capsys, "sample", wfile, "-N", "-3", "--seed", "5")
    assert (code, out) == (2, "") and "-N must be >= 0" in err
    code, out, _ = run(capsys, "sample", wfile, "-N", "0", "--seed", "5")
    assert code == 0 and len(out.splitlines()) == 1


def test_chisq_and_sample_draw_the_same_order_from_a_seed(tmp_path, capsys):
    from grouporders.sampling import rotation_action, rotation_sampler, sample_seeds, uniform_sampler
    from grouporders.stats import permutation_rank

    wz = ball(default_generators(zn(1)), 4)
    w2 = ball(default_generators(zn(2)), 1)
    inner_w = window_from_elements(zn(2), [zn_element(0, y) for y in (-1, 1)])
    inner = write(tmp_path / "inner.json", ser.order_to_json(uniform_order(inner_w, 1)))
    cases = [
        ("uniform", w2, [(0, 0), (1, 0), (0, 1)], [], uniform_sampler(w2)),
        ("rotation", wz, [(0,), (1,), (-2,)], [],
         rotation_sampler(rotation_action(DEFAULT_ALPHA), wz)),
        ("coset", w2, [(0, 0), (-1, 0), (0, 1)],
         ["--inner-order", inner, "--subgroup-zero-coords", "0"], None),
    ]
    for sampler, w, probe, extra, draw in cases:
        wfile = write(tmp_path / f"{sampler}-w.json", ser.window_to_json(w))
        F = window_from_elements(w.group, [grouporders.make_element(w.group, p) for p in probe])
        ffile = write(tmp_path / f"{sampler}-f.json", ser.window_to_json(F))
        for seed in (3, 17, 2024):
            flags = ["--sampler", sampler, *extra, "-N", "1", "--seed", str(seed)]
            code, out, _ = run(capsys, "sample", wfile, *flags)
            assert code == 0
            perm = json.loads(out.splitlines()[1])
            if draw is not None:
                assert perm == draw(next(sample_seeds(seed, 1))).perm()
            rank = {p: r for r, p in enumerate(perm)}
            ranks = [rank[w.position(f)] for f in F]
            cell = permutation_rank([sorted(ranks).index(r) for r in ranks])
            code, out, _ = run(capsys, "chisq", wfile, "--probe", ffile, *flags)
            assert code == 0
            counts = [int(line.split(",")[1]) for line in out.splitlines()[1:-1]]
            assert counts == [int(i == cell) for i in range(6)]


def test_coset_statistics_never_sort_a_whole_window(tmp_path, capsys, monkeypatch):
    # once the uniform, rotation or coset sampler is built, estimate, chisq
    # and invariance rank the probe by its keys alone and give the same
    # reports: no whole-window sort or draw and no whole-window uniform table
    monkeypatch.chdir(tmp_path)
    _inputs()
    argvs = {name: argv for name, argv, _ in RUNS}
    assert main(argvs["ball_z2"]) == 0 and main(argvs["ball_z1"]) == 0
    names = ["estimate", "chisq", "invariance", "invariance_rotation",
             "estimate_coset", "chisq_coset", "invariance_coset"]
    expected = [run(capsys, *argvs[name]) for name in names]
    assert all(code == 0 for code, _, _ in expected)

    def whole_window(*args):
        raise AssertionError("a whole window was sorted")

    def then_refuse_whole_windows(build):
        def built(*args):
            sampler = build(*args)
            monkeypatch.setattr(OrderMatrix, "from_keys", whole_window)
            monkeypatch.setattr(OrderMatrix, "from_sorted", whole_window)
            monkeypatch.setattr(sampling, "_uniform_table", whole_window)
            return sampler

        return built

    for builder in ("uniform_sampler", "rotation_sampler", "coset_sampler"):
        monkeypatch.setattr(cli, builder, then_refuse_whole_windows(getattr(cli, builder)))
    for name, want in zip(names, expected):
        assert run(capsys, *argvs[name]) == want, name


def test_a_rotation_batch_builds_the_walk_once(tmp_path, capsys, monkeypatch):
    # the three-distance walk depends on the window and the angle alone
    wfile = write(tmp_path / "w.json", ser.window_to_json(interval_window(-60, 61)))
    walks = []
    hull_walk = sampling._hull_walk
    monkeypatch.setattr(sampling, "_hull_walk", lambda *a: walks.append(a) or hull_walk(*a))
    code, out, _ = run(capsys, "sample", wfile, "-N", "20", "--seed", "4", "--sampler", "rotation")
    assert code == 0 and len(out.splitlines()) == 21
    assert len(walks) == 1


def test_a_uniform_estimate_encodes_its_probe_once(tmp_path, capsys, monkeypatch):
    w = ball(default_generators(zn(2)), 3)
    D = window_from_elements(zn(2), [zn_element(0, 0), zn_element(1, 0), zn_element(0, 1)])
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    pattern = {"format": 1, "closed": True, "perm": [1, 2, 0]}
    cfile = write(tmp_path / "c.json", {"format": 1, "window": ser.window_to_json(D), "pattern": pattern})
    encoded = []
    payload_keys = sampling.payload_keys
    monkeypatch.setattr(sampling, "payload_keys", lambda g, ps: encoded.append(ps) or payload_keys(g, ps))
    code, out, _ = run(capsys, "estimate", wfile, "--cylinder", cfile, "-N", "60", "--seed", "4")
    assert code == 0 and out.startswith("pattern_id,count")
    assert [len(ps) for ps in encoded] == [3]


@pytest.fixture
def collector():
    """Restores the collector state the test started with."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_commands_leave_no_reference_cycles(tmp_path, capsys, monkeypatch, collector):
    # main pauses the collector while a command runs: that is free only while
    # reference counting alone frees everything a command allocates
    from grouporders.cli import build_parser

    build_parser()  # built once per process, before any pause; argparse leaves cycles
    monkeypatch.chdir(tmp_path)
    _inputs()
    failing = {
        "unknown_group": ["ball", "nope", "--radius", "1"],
        "missing_window": ["sample", "missing.json", "-N", "1"],
    }
    for name, argv in [(name, argv) for name, argv, _ in RUNS] + list(failing.items()):
        gc.collect()
        gc.disable()
        code = main(list(argv))
        capsys.readouterr()
        assert gc.collect() == 0, name
        assert (code == 2) == (name in failing), name


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch, collector, enabled):
    w = interval_window(0, 3)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    unsat = ConstraintSystem(w, ((0, 1), (1, 2), (2, 0)))
    sys_file = write(tmp_path / "unsat.json", ser.system_to_json(unsat))
    set_state = gc.enable if enabled else gc.disable
    for argv, expected in [
        (["ball", "z1", "--radius", "1"], 0),
        (["check-extend", sys_file], 1),
        (["ball", "nope", "--radius", "1"], 2),
    ]:
        set_state()
        assert run(capsys, *argv)[0] == expected
        assert gc.isenabled() is enabled, argv

    def fail(data):
        raise RuntimeError("internal fault")

    # realize looks the loader up at call time, so the fault escapes main
    monkeypatch.setattr(ser, "window_from_json", fail)
    set_state()
    with pytest.raises(RuntimeError):
        main(["realize", wfile, "--action", "bernoulli"])
    assert gc.isenabled() is enabled
