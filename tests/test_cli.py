import json
import os
import subprocess
import sys

import pytest

import grouporders
from grouporders import (
    HEISENBERG,
    ball,
    build_extension_system,
    default_generators,
    lex_functional,
    quadrant_order,
    uniform_order,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import serialize as ser
from grouporders.cli import DEFAULT_ALPHA, main
from grouporders.constraints import ConstraintSystem
from grouporders.groups import interval_window


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
    code, _, err = run(capsys, "ball", "nope", "--radius", "1")
    assert code == 2 and "unknown group" in err
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
    assert code == 2 and "SizeLimitExceeded" in err
    code, _, err = run(capsys, "check-extend", sys_file, "--timeout", "-1")
    assert code == 2 and "SolveTimeout" in err


def test_check_extend_timeout_on_an_unsat_system(tmp_path, capsys):
    cs = ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 0)))
    sys_file = write(tmp_path / "cyc.json", ser.system_to_json(cs))
    code, _, err = run(capsys, "check-extend", sys_file, "--timeout", "-1")
    assert code == 2 and "SolveTimeout" in err
    code, out, _ = run(capsys, "check-extend", sys_file)
    assert code == 1 and json.loads(out)["verdict"] == "unsat"


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
    from grouporders.orders import OrderMatrix

    cyl = {
        "format": 1,
        "window": ser.window_to_json(D),
        "pattern": ser.order_to_json(OrderMatrix.from_ranks(D, [0, 1]), include_window=False),
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
    from grouporders.orders import OrderMatrix

    w = ball(default_generators(zn(2)), 1)
    wfile = write(tmp_path / "w.json", ser.window_to_json(w))
    # an empty probe and a Z probe: the window's group alone decides
    for i, D in enumerate([window_from_elements(zn(2), []), window_from_elements(zn(1), [zn_element(1)])]):
        dfile = write(tmp_path / f"d{i}.json", ser.window_to_json(D))
        cyl = {
            "format": 1,
            "window": ser.window_to_json(D),
            "pattern": ser.order_to_json(OrderMatrix.from_ranks(D, list(range(len(D)))), include_window=False),
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
        gfile = write(tmp_path / "g.json", {"elements": elements, "symmetric": symmetric})
        code, out, _ = run(capsys, "ball", "z2", "--radius", "2", "--generators", gfile)
        assert code == 0 and json.loads(out) == default
    # "false" must not be read as true, nor 0 as false
    for symmetric in ("false", 0, None):
        gfile = write(tmp_path / "g.json", {"elements": half, "symmetric": symmetric})
        code, out, err = run(capsys, "ball", "z2", "--radius", "2", "--generators", gfile)
        assert (code, out) == (2, "") and "symmetric must be true or false" in err


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
    kfile = write(
        tmp_path / "k.json", ser.element_set_to_json(zn(2), [zn_element(0, 1)])
    )
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
    k0 = write(tmp_path / "k0.json", ser.element_set_to_json(zn(2), []))
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
    kbig = write(tmp_path / "kb.json", ser.element_set_to_json(zn(2), [zn_element(-2, 0)]))
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
    k0 = write(tmp_path / "k0.json", ser.element_set_to_json(zn(1), []))
    d = write(tmp_path / "d.json", ser.window_to_json(window_from_elements(zn(1), [])))
    glued, report = tmp_path / "glued.json", tmp_path / "rep.json"
    code, out, err = run(capsys, "glue", o1, o2, "--k-file", k0, "--d-file", d,
                         "-o", str(glued), "--report-out", str(report))
    assert (code, out) == (2, "") and "another window" in err
    assert not glued.exists() and not report.exists()


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

    part = write(tmp_path / "part.json", ser.order_to_json(OrderMatrix.empty(w)))
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


def test_order_files_must_list_each_index_once(tmp_path, capsys):
    wj = ser.window_to_json(interval_window(-1, 2))
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(2) for y in range(2)])
    for perm in ([0, 0, 2], [-1, 1, 2], [0, 1, 3]):
        ofile = write(tmp_path / "o.json", {"format": 1, "closed": True, "window": wj, "perm": perm})
        lfile = write(
            tmp_path / "l.json",
            {"format": 1, "closed": True, "window": ser.window_to_json(rect), "perm": [*perm, 3]},
        )
        for argv in (["reconstruct", ofile, "--n", "2"], ["levels", lfile]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (argv, perm)
            assert "ValueError: perm must be a permutation" in err


# 0 below everything and 3 above, while 1 < 2 and 2 < 1: every pair is
# decided and the rows' popcounts 3, 2, 1, 0 look like ranks, but it cycles
CYCLIC = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 1]]


def test_a_cyclic_closed_relation_is_not_a_total_order(tmp_path, capsys):
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(2) for y in range(2)])
    wj = ser.window_to_json(rect)
    wfile = write(tmp_path / "w.json", wj)
    cyclic = {"format": 1, "closed": True, "pairs": CYCLIC}
    ofile = write(tmp_path / "cyc.json", {**cyclic, "window": wj})
    lex = write(tmp_path / "lex.json", ser.order_to_json(lex_functional(2).window_order(rect)))
    origin = write(tmp_path / "e.json", ser.element_set_to_json(zn(2), [zn_element(0, 0)]))
    cfile = write(tmp_path / "cyl.json", {"format": 1, "window": wj, "pattern": cyclic})
    glue_out = ["-o", str(tmp_path / "g.json"), "--report-out", str(tmp_path / "r.json")]
    coset = ["--sampler", "coset", "--inner-order", ofile, "--subgroup-zero-coords", "0,1"]
    for argv in (
        ["levels", ofile],
        ["glue", ofile, lex, "--k-file", origin, "--d-file", origin, *glue_out],
        ["estimate", wfile, "--cylinder", cfile, "-N", "3", "--seed", "1"],
        ["sample", wfile, "-N", "1", "--seed", "1", *coset],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


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
    from grouporders.sampling import rotation_action, rotation_sampler, sample_seed, uniform_sampler
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
                assert perm == draw(sample_seed(seed, 0)).perm()
            rank = {p: r for r, p in enumerate(perm)}
            ranks = [rank[w.position(f)] for f in F]
            cell = permutation_rank([sorted(ranks).index(r) for r in ranks])
            code, out, _ = run(capsys, "chisq", wfile, "--probe", ffile, *flags)
            assert code == 0
            counts = [int(line.split(",")[1]) for line in out.splitlines()[1:-1]]
            assert counts == [int(i == cell) for i in range(6)]
