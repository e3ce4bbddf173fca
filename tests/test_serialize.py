import json

import pytest

import oracles
from grouporders import (
    HEISENBERG,
    SL3Z,
    GroupMismatch,
    ball,
    Certificate,
    ConstraintSystem,
    SL3Instance,
    build_extension_system,
    build_sl3_instance,
    default_generators,
    heisenberg_element,
    quadrant_order,
    solve,
    uniform_order,
    zn,
)
from grouporders import serialize as ser
from grouporders.groups import Window, interval_window, window_from_elements


def test_window_roundtrip():
    for w in (
        ball(default_generators(zn(2)), 2),
        ball(default_generators(HEISENBERG), 1),
        ball(default_generators(SL3Z), 1),
    ):
        blob = json.loads(ser.canonical_dumps(ser.window_to_json(w)))
        assert ser.window_from_json(blob) == w


def test_window_from_json_shares_one_group_object():
    w3 = ball(default_generators(zn(3)), 1)
    w = ser.window_from_json(json.loads(ser.canonical_dumps(ser.window_to_json(w3))))
    assert all(g.group is w.group for g in w)
    # the shared object still refuses elements of another group
    x = heisenberg_element(1, 0, 0)
    heis = ser.element_set_from_json(
        {"format": 1, "group": {"kind": "heis"}, "elements": [list(x.payload)]})
    assert w.find(heis[0]) is None
    with pytest.raises(GroupMismatch):
        window_from_elements(w.group, list(w) + heis)


def test_window_files_share_one_group_object_per_zn():
    blob = json.loads(ser.canonical_dumps(ser.window_to_json(ball(default_generators(zn(2)), 1))))
    assert ser.window_from_json(blob).group is ser.window_from_json(blob).group is zn(2)
    # the cache keys on the argument's type, so 7.0 and True reach the rank
    # check instead of aliasing a cached zn(7) or zn(1)
    assert type(zn(7).n) is int and str(zn(1)) == "zn:1"
    for bad in (7.0, True):
        with pytest.raises(ValueError, match="int rank"):
            zn(bad)


def test_order_roundtrip_total_and_partial():
    w = ball(default_generators(zn(2)), 2)
    total = uniform_order(w, 5)
    blob = json.loads(ser.canonical_dumps(ser.order_to_json(total)))
    assert "perm" in blob
    assert ser.order_from_json(blob) == total

    from grouporders.orders import OrderMatrix

    partial = OrderMatrix.from_pairs(w, [(0, 1), (2, 3)])
    blob = json.loads(ser.canonical_dumps(ser.order_to_json(partial)))
    assert blob["pairs"] == [[0, 1], [2, 3]]
    back = ser.order_from_json(blob)
    assert back == partial and not back.closed


def test_system_roundtrip():
    w = ball(default_generators(zn(2)), 2)
    cs = build_extension_system(w, quadrant_order(2))
    blob = json.loads(ser.canonical_dumps(ser.system_to_json(cs)))
    back = ser.system_from_json(blob)
    assert back.window == cs.window and back.atoms == cs.atoms


def test_an_order_on_another_window_is_refused():
    w = Window(zn(3), [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    others = [
        Window(HEISENBERG, w.payloads),  # same rows, another group
        Window(zn(3), [[0, 0, 0], [0, 1, 0], [1, 0, 0]]),  # same set, another order
        Window(zn(3), [[0, 0, 0], [1, 0, 0], [0, 0, 1]]),
    ]
    blob = json.loads(ser.canonical_dumps(ser.order_to_json(uniform_order(w, 1))))
    assert ser.order_from_json(blob, w) == ser.order_from_json(blob)
    for other in others:
        with pytest.raises(ValueError, match="another window"):
            ser.order_from_json(blob, other)
        # a pattern without a window is read on the window it is given
        assert ser.order_from_json({"perm": blob["perm"]}, other).window is other


def test_closed_is_a_json_boolean_and_group_an_object():
    w = interval_window(-1, 2)
    total = [[0, 1], [0, 2], [1, 2]]
    assert ser.order_from_json({"pairs": total}, w).closed is False  # absent means false
    for closed in (True, False):
        assert ser.order_from_json({"closed": closed, "pairs": total}, w).closed is closed
    for closed in ("false", 1, None):
        for body in ({"pairs": total}, {"perm": [0, 1, 2]}):
            with pytest.raises(TypeError, match="closed must be true or false"):
                ser.order_from_json({"closed": closed, **body}, w)
    # a perm order is closed: it may say so or say nothing, but not deny it
    for body in ({"perm": [2, 0, 1]}, {"perm": [2, 0, 1], "closed": True}):
        assert ser.order_to_json(ser.order_from_json(body, w))["closed"] is True
    with pytest.raises(ValueError, match="closed false"):
        ser.order_from_json({"perm": [2, 0, 1], "closed": False}, w)
    sl3 = ser.window_to_json(ball(default_generators(SL3Z), 1))
    assert sl3["group"] == {"kind": "sl3"}
    with pytest.raises(TypeError):  # the bare string form is not read
        ser.window_from_json({**sl3, "group": "sl3"})
    # only a Z^n group object has an n
    for group in (HEISENBERG, SL3Z):
        blob = ser.group_to_json(group)
        assert "n" not in blob and ser.group_from_json(blob) == group
        for n in (3, True, 0, None):
            with pytest.raises(ValueError, match=f"{group.kind} group: unknown key 'n'"):
                ser.group_from_json({**blob, "n": n})


def test_canonical_dumps_stable():
    w = ball(default_generators(zn(2)), 1)
    a = ser.canonical_dumps(ser.window_to_json(w))
    b = ser.canonical_dumps(ser.window_to_json(w))
    assert a == b and a.endswith("\n")


def test_a_cyclic_closed_relation_is_written_as_pairs():
    from grouporders.orders import OrderMatrix

    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 1)]
    m = OrderMatrix.from_pairs(interval_window(-1, 3), pairs, closed=True)
    out = ser.order_to_json(m)
    assert "perm" not in out and out["pairs"] == pairs


def test_certificate_dicts_match_the_per_rule_form():
    w = ball(default_generators(zn(2)), 2)
    sat = solve(build_extension_system(w, quadrant_order(2)))
    unsat = solve(build_sl3_instance(SL3Instance(2, (3,) * 6, 4, "plain_left")))
    small = solve(ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 0))))
    assert (sat.verdict, unsat.verdict, small.verdict) == ("sat", "unsat", "unsat")
    for cert in (sat, unsat, small, Certificate("unsat", None), Certificate("sat", None)):
        expected = oracles.certificate_to_json_reference(cert)
        assert ser.certificate_to_json(cert) == expected
        assert ser.canonical_dumps(ser.certificate_to_json(cert)) == ser.canonical_dumps(expected)
