"""The input formats are declared once, in ``serialize.FORMATS``, and each
reader refuses what its declaration does not allow.

The mutation test changes the input files of the golden corpus (and one
generators file) one way at a time.  Every mutated file must make the run
that reads it exit 2 with one ``error:`` line, except that dropping an
optional key must leave the run's output as it was.
"""

import json
import re
from pathlib import Path

import pytest

from grouporders import (
    ball,
    build_extension_system,
    default_generators,
    quadrant_order,
    uniform_order,
    zn,
)
from grouporders import serialize as ser
from grouporders.cli import main
from grouporders.groups import interval_window
from test_golden import RUNS, corpus_digests

ROOT = Path(__file__).resolve().parents[1]

GENERATORS = ("generators", ["ball", "z2", "--radius", "2", "--generators", "gen.json"], [])
RUNS_BY_NAME = {name: argv for name, argv, _ in [*RUNS, GENERATORS]}

# file: (the run that reads it, its format); "order*" is an order read
# without a window to read it on, so its own window is needed.
READS = {
    "sat.json": ("check_extend_sat", "constraint system"),
    "unsat.json": ("check_extend_unsat", "constraint system"),
    "inner.json": ("sample_coset", "order*"),
    "d1.json": ("invariance_rotation", "window"),
    "d2.json": ("invariance", "window"),
    "d3.json": ("chisq", "window"),
    "cyl.json": ("estimate", "cylinder"),
    "k.json": ("glue", "window"),
    "kh.json": ("glue_heis", "window"),
    "dh.json": ("glue_heis", "window"),
    "rect.json": ("levels", "order*"),
    "far.json": ("sample_far", "window"),
    "w2.json": ("sample_uniform", "window"),
    "w1.json": ("sample_rotation", "window"),
    "wh.json": ("realize_bernoulli_heis", "window"),
    "b1.json": ("glue", "order*"),
    "b2.json": ("glue", "order"),  # read on the first order's window
    "rot.json": ("reconstruct", "order*"),
    "bh1.json": ("glue_heis", "order*"),
    "bh2.json": ("glue_heis", "order"),
    "gen.json": ("generators", "generators"),
}

# the format of an object held under a key
NESTED = {"window": "window", "group": "group", "pattern": "order"}

BAD = (True, 1.0, "1", None, [])


def _optional(fmt, node):
    """The keys an object of format fmt may leave out."""
    if fmt == "group":
        fmt = f"{node.get('kind')} group"
    optional = set(ser.FORMATS[fmt.rstrip("*")][1])
    return optional - {"window"} if fmt.endswith("*") else optional


def _mutants(node, fmt=None):
    """(what, mutated node, drops an optional key) for each single change of
    node or of a node below it."""
    if isinstance(node, dict):
        yield "unknown key", {**node, "unknown": 0}, False
        if "format" in node:
            yield "format 2", {**node, "format": 2}, False
        for key, value in node.items():
            rest = {k: v for k, v in node.items() if k != key}
            yield f"drop {key}", rest, key in _optional(fmt, node)
            if not isinstance(value, list):
                for bad in BAD:
                    if (type(bad), bad) != (type(value), value):
                        yield f"{key} = {bad!r}", {**node, key: bad}, False
            for what, sub, optional in _mutants(value, NESTED.get(key)):
                yield f"{key}.{what}", {**node, key: sub}, optional
    elif isinstance(node, list) and node:
        for bad in BAD:
            yield f"[0] = {bad!r}", [bad, *node[1:]], False
        for what, sub, optional in _mutants(node[0]):
            yield f"[0].{what}", [sub, *node[1:]], optional


def _run(capsys, argv, written):
    """Exit code, stdout, stderr and the bytes of each file the run writes."""
    code = main(list(argv))
    c = capsys.readouterr()
    return code, c.out, c.err, [Path(p).read_bytes() for p in written]


def _corpus(capsys):
    """Write every input file and every run's output in the current
    directory; the runs by name, as (argv, files written)."""
    corpus_digests(capsys)
    Path("gen.json").write_text(ser.canonical_dumps(
        {"format": 1, "elements": [[1, 0], [0, 1]], "symmetric": False}))
    return {name: (argv, written) for name, argv, written in [*RUNS, GENERATORS]}


def test_every_mutation_of_an_input_file_is_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = _corpus(capsys)
    checked = drops = 0
    for path, (name, fmt) in READS.items():
        original = Path(path).read_text()
        expected = _run(capsys, *runs[name])
        assert expected[0] in (0, 1), path
        for what, mutated, optional in _mutants(json.loads(original), fmt):
            Path(path).write_text(ser.canonical_dumps(mutated))
            got = _run(capsys, *runs[name])
            if optional:
                assert got == expected, (path, what)
            else:
                code, out, err, _ = got
                assert (code, out) == (2, ""), (path, what)
                assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, (path, what, err)
            checked += 1
            drops += optional
        Path(path).write_text(original)
    assert checked > 1000 and drops > 40


@pytest.mark.parametrize("command", sorted({RUNS_BY_NAME[name][0] for name, _ in READS.values()}))
def test_a_refused_file_is_named(tmp_path, capsys, monkeypatch, command):
    """An unknown key in any file the command reads: exit 2, nothing on
    stdout, no file written, and one error line naming that file."""
    monkeypatch.chdir(tmp_path)
    runs = _corpus(capsys)
    checked = 0
    for path, (name, fmt) in READS.items():
        argv, written = runs[name]
        if argv[0] != command:
            continue
        original = Path(path).read_text()
        Path(path).write_text(ser.canonical_dumps({**json.loads(original), "extra": 0}))
        for out in written:
            Path(out).unlink(missing_ok=True)
        code = main(list(argv))
        c = capsys.readouterr()
        fmt = fmt.rstrip("*")
        assert (code, c.out, c.err) == (2, "", f"error: {path}: ValueError: {fmt}: unknown key 'extra'\n")
        assert not any(Path(out).exists() for out in written), path
        Path(path).write_text(original)
        checked += 1
    assert checked >= 1


def _refused(tmp_path, capsys, argv, named):
    """Run argv, each JSON object in it written to a file first: exit 2 with
    an error naming named."""
    args = []
    for i, a in enumerate(argv):
        if isinstance(a, dict):
            (tmp_path / f"in{i}.json").write_text(json.dumps(a))
            a = str(tmp_path / f"in{i}.json")
        args.append(a)
    code = main(args)
    c = capsys.readouterr()
    assert (code, c.out) == (2, ""), argv
    assert c.err.startswith("error: ") and named in c.err, c.err


def test_an_unknown_key_at_any_level_is_refused_by_name(tmp_path, capsys):
    w2 = ser.window_to_json(ball(default_generators(zn(2)), 1))
    system = ser.system_to_json(build_extension_system(
        ball(default_generators(zn(2)), 1), quadrant_order(2)))
    del system["convention"]
    probe = ser.window_to_json(ball(default_generators(zn(2)), 0))
    order = ser.order_to_json(uniform_order(interval_window(-1, 2), 1))
    sample = ["-N", "2", "--seed", "1"]
    cases = [
        (["check-extend", {**system, "conventon": "plain_left"}], "unknown key 'conventon'"),
        (["check-extend", {**system, "window": {**w2, "extra": 5}}], "unknown key 'extra'"),
        (["chisq", {"group": {"kind": "zn", "n": 2, "x": 1}, "elements": [[0, 0], [1, 0]],
                    "extra": 5}, "--probe", probe, *sample], "unknown key 'extra'"),
        (["chisq", {**w2, "group": {"kind": "zn", "n": 2, "x": 1}}, "--probe", probe, *sample],
         "zn group: unknown key 'x'"),
        (["reconstruct", {**order, "window": {**order["window"], "extra": 5}}, "--n", "1"],
         "window: unknown key 'extra'"),
        (["estimate", w2, "--cylinder", {"window": probe, "pattern": {"perm": [0], "x": 1}},
          *sample], "order: unknown key 'x'"),
        (["sample", w2["group"], *sample], "window: unknown key 'kind'"),
    ]
    for argv, named in cases:
        _refused(tmp_path, capsys, argv, named)


def test_an_order_read_on_its_own_window_names_the_missing_window(tmp_path, capsys):
    order = ser.order_to_json(uniform_order(interval_window(-1, 2), 1))
    del order["window"]
    _refused(tmp_path, capsys, ["reconstruct", order, "--n", "1"], "order: missing key 'window'")
    with pytest.raises(ValueError, match="missing key 'window'"):
        ser.order_from_json(order)


def test_a_non_object_is_a_type_error_in_every_reader():
    readers = [ser.window_from_json, ser.element_set_from_json, ser.order_from_json,
               ser.system_from_json, ser.cylinder_from_json, ser.group_from_json,
               lambda obj: ser.generators_from_json(zn(1), obj)]
    for read in readers:
        for obj in ("sl3", [], None, 1):
            with pytest.raises(TypeError, match="must be a JSON object"):
                read(obj)


def test_the_readme_documents_every_declared_key():
    """Each key of each declared format appears, as "key" or `key`, in the
    README's "File formats" bullet named after the format."""
    section = (ROOT / "README.md").read_text().split("## File formats\n")[1].split("\n## ")[0]
    bullets = {}
    for item in re.split(r"\n *- ", section)[1:]:
        label, _, text = item.partition(":")
        bullets[label.split(" (")[0]] = text
    for name, (required, optional) in ser.FORMATS.items():
        for key in "|".join(required + optional).split("|"):
            assert f'"{key}"' in bullets[name] or f"`{key}`" in bullets[name], (name, key)
