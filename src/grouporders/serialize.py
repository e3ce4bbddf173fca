"""Versioned JSON encodings for element sets, windows, orders, constraint
systems, and certificates.

Windows and element sets serialize their payloads in index order, 3x3
matrices flattened row-major.  Total orders serialize compactly as "perm"
(window indices listed from smallest to largest); partial relations
serialize as "pairs".  All dumps are canonical (sorted keys, fixed
separators), so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any

from .constraints import ConstraintSystem
from .engine import Certificate
from .groups import (
    GroupElement,
    GroupId,
    HEISENBERG,
    KIND_HEISENBERG,
    KIND_SL3,
    KIND_ZN,
    SL3Z,
    Window,
    checked_payloads,
    zn,
)
from .orders import OrderMatrix, is_total

FORMAT_VERSION = 1


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _check_format(obj) -> None:
    """A file may leave out its format; one it gives must be the int 1."""
    if "format" in obj and (type(obj["format"]) is not int or obj["format"] != FORMAT_VERSION):
        raise ValueError(f"format {obj['format']!r} is not {FORMAT_VERSION}")


def _index_pairs(entries, what: str) -> tuple[tuple, ...]:
    """The entries as tuples, each checked to be a list of two."""
    for e in entries:
        if type(e) is not list or len(e) != 2:
            raise ValueError(f"{what} {e!r} is not two indices")
    return tuple(map(tuple, entries))


def group_to_json(group: GroupId) -> dict:
    if group.kind == KIND_ZN:
        return {"kind": "zn", "n": group.n}
    return {"kind": group.kind}


def group_from_json(obj) -> GroupId:
    kind = obj["kind"]
    if kind == "zn":
        return zn(obj.get("n", 0))
    if kind in (KIND_HEISENBERG, KIND_SL3) and "n" in obj:
        raise ValueError(f"a {kind} group takes no n, got {obj!r}")
    if kind == KIND_HEISENBERG:
        return HEISENBERG
    if kind == KIND_SL3:
        return SL3Z
    raise ValueError(f"unknown group {obj!r}")


def _payload_set_to_json(group: GroupId, payloads) -> dict:
    return {
        "format": FORMAT_VERSION,
        "group": group_to_json(group),
        "elements": list(map(list, payloads)),
    }


def element_set_to_json(group: GroupId, elements) -> dict:
    return _payload_set_to_json(group, [g.payload for g in elements])


def element_set_from_json(obj) -> list[GroupElement]:
    """Element-list files share the window schema without the identity
    requirement."""
    _check_format(obj)
    group = group_from_json(obj["group"])
    return [GroupElement(group, p) for p in checked_payloads(group, obj["elements"])]


def window_to_json(w: Window) -> dict:
    return _payload_set_to_json(w.group, w.payloads)


def window_from_json(obj) -> Window:
    _check_format(obj)
    return Window(group_from_json(obj["group"]), obj["elements"])


def order_to_json(m: OrderMatrix, include_window: bool = True) -> dict:
    out: dict[str, Any] = {"format": FORMAT_VERSION, "closed": m.closed}
    if include_window:
        out["window"] = window_to_json(m.window)
    if m.closed and is_total(m):
        out["perm"] = m.perm()
    else:
        out["pairs"] = list(m.pairs())
    return out


def order_from_json(obj, window: Window | None = None) -> OrderMatrix:
    """The order on its own window, or on ``window``; a file that names
    another window than ``window`` raises ValueError."""
    _check_format(obj)
    if window is None:
        window = window_from_json(obj["window"])
    elif "window" in obj and window_from_json(obj["window"]) != window:
        raise ValueError("the order is written on another window")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise TypeError(f"closed must be true or false, got {closed!r}")
    if ("perm" in obj) == ("pairs" in obj):
        raise ValueError("an order holds exactly one of perm and pairs")
    if "perm" in obj:
        if "closed" in obj and not closed:
            raise ValueError("a perm order is total and closed; it cannot say closed false")
        return OrderMatrix.from_perm(window, obj["perm"])
    return OrderMatrix.from_pairs(window, _index_pairs(obj["pairs"], "pair"), closed=closed)


def system_to_json(cs: ConstraintSystem) -> dict:
    return {
        "format": FORMAT_VERSION,
        "window": window_to_json(cs.window),
        "atoms": [list(a) for a in cs.atoms],
        "convention": cs.convention,
    }


def system_from_json(obj) -> ConstraintSystem:
    _check_format(obj)
    window = window_from_json(obj["window"])
    atoms = _index_pairs(obj["atoms"], "atom")
    return ConstraintSystem(window, atoms, obj.get("convention", "inverse_left"))


def _rule_to_json(rule: tuple):
    if rule[0] == "atom":
        return {"atom": rule[1]}
    return {"trans": [rule[1], rule[2], rule[3]]}


def certificate_to_json(cert: Certificate) -> dict:
    out: dict[str, Any] = {"format": FORMAT_VERSION, "verdict": cert.verdict}
    out["witness"] = None if cert.witness is None else order_to_json(cert.witness)
    out["trace"] = [
        {"pair": list(step.pair), "rule": _rule_to_json(step.rule)}
        for step in cert.trace
    ]
    out["cycle"] = list(cert.cycle)
    return out
