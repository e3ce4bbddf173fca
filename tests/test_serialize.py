import json

import pytest

from grouporders import (
    HEISENBERG,
    SL3Z,
    GroupMismatch,
    ball,
    build_extension_system,
    default_generators,
    heisenberg_element,
    quadrant_order,
    sl3_unipotent,
    solve,
    uniform_order,
    zn,
    zn_element,
)
from grouporders import serialize as ser
from grouporders.constraints import ConstraintSystem
from grouporders.engine import propagate_only
from grouporders.groups import Window, interval_window


def test_element_roundtrip():
    for g in (zn_element(3, -1), heisenberg_element(1, 2, 3), sl3_unipotent(4)):
        blob = json.loads(json.dumps(ser.element_to_json(g)))
        assert ser.element_from_json(blob) == g
    assert ser.element_to_json(zn_element(1, 2)) == {"group": "zn", "data": [1, 2]}


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
    heis = ser.element_set_from_json(ser.element_set_to_json(HEISENBERG, [x]))
    assert w.find(heis[0]) is None
    with pytest.raises(GroupMismatch):
        Window(w.group, list(w) + heis)


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


def test_system_and_certificate_roundtrip():
    w = ball(default_generators(zn(2)), 2)
    cs = build_extension_system(w, quadrant_order(2))
    blob = json.loads(ser.canonical_dumps(ser.system_to_json(cs)))
    back = ser.system_from_json(blob)
    assert back.window == cs.window and back.atoms == cs.atoms

    cert = solve(cs)
    cblob = json.loads(ser.canonical_dumps(ser.certificate_to_json(cert)))
    restored = ser.certificate_from_json(cblob, cs.window)
    assert restored.verdict == "sat" and restored.witness == cert.witness

    bad = ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 0)))
    ucert = propagate_only(bad)
    ublob = json.loads(ser.canonical_dumps(ser.certificate_to_json(ucert)))
    urestored = ser.certificate_from_json(ublob, bad.window)
    assert urestored.trace == ucert.trace and urestored.cycle == ucert.cycle


def test_semigroup_roundtrip():
    spec = quadrant_order(3)
    blob = json.loads(ser.canonical_dumps(ser.semigroup_to_json(spec)))
    assert ser.semigroup_from_json(blob) == spec


def test_canonical_dumps_stable():
    w = ball(default_generators(zn(2)), 1)
    a = ser.canonical_dumps(ser.window_to_json(w))
    b = ser.canonical_dumps(ser.window_to_json(w))
    assert a == b and a.endswith("\n")
