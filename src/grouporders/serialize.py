"""Versioned JSON encodings for element sets, windows, orders, constraint
systems, generators, cylinders and certificates.

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
    GeneratorSet, GroupElement, GroupId, HEISENBERG, KIND_HEISENBERG, KIND_SL3, KIND_ZN, SL3Z,
    Window, checked_payloads, make_element, zn,
)
from .orders import CylinderSpec, OrderMatrix, is_total

FORMAT_VERSION = 1

# Each object the readers take: its required keys, then its optional ones;
# "perm|pairs" requires exactly one of the two.  An element set is a window.
FORMATS = {
    "window": (("group", "elements"), ("format",)),
    "order": (("perm|pairs",), ("format", "window", "closed")),
    "constraint system": (("window", "atoms"), ("format", "convention")),
    "generators": (("elements",), ("format", "symmetric")),
    "cylinder": (("window", "pattern"), ("format",)),
    "zn group": (("kind", "n"), ()),
    "heis group": (("kind",), ()),
    "sl3 group": (("kind",), ()),
}


def canonical_dumps(obj: Any) -> str:
    """obj as one line of canonical JSON: sorted keys, no spaces, a newline.

    The encoder skips its cycle check (``check_circular=False``), which costs
    an id insert and delete per list and dict.  Every object handed here is a
    fresh tree built by this module's builders or by ``cli``'s report
    literals, and no command builds a reference cycle (``tests/test_cli.py``
    checks the golden runs).  A cyclic object still fails: the encoder's
    recursion guard raises RecursionError, and ``cli._write_json`` encodes
    before it opens the file, so no partial file is left behind.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def _fields(obj, name: str, needs: tuple[str, ...] = ()) -> dict:
    """obj, checked against the declaration of name: a JSON object (else
    TypeError) with no undeclared key, every required key and every key of
    needs, and a format, if it gives one, of the int 1."""
    if type(obj) is not dict:
        raise TypeError(f"{name} must be a JSON object, got {type(obj).__name__}")
    required, optional = FORMATS[name]
    declared = "|".join(required + optional).split("|")
    for key in obj:
        if key not in declared:
            raise ValueError(f"{name}: unknown key {key!r}")
    for entry in required + needs:
        keys = entry.split("|")
        if sum(k in obj for k in keys) != 1:
            raise ValueError(f"{name}: missing key {entry!r}" if len(keys) == 1
                             else f"{name} holds exactly one of {' and '.join(keys)}")
    if "format" in obj and (type(obj["format"]) is not int or obj["format"] != FORMAT_VERSION):
        raise ValueError(f"format {obj['format']!r} is not {FORMAT_VERSION}")
    return obj


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
    kind = obj.get("kind", KIND_ZN) if type(obj) is dict else None
    if type(obj) is dict and kind not in (KIND_ZN, KIND_HEISENBERG, KIND_SL3):
        raise ValueError(f"unknown group {obj!r}")
    fields = _fields(obj, f"{kind} group" if kind else "group")  # "group": a non-object
    if kind == KIND_ZN:
        return zn(fields["n"])
    return HEISENBERG if kind == KIND_HEISENBERG else SL3Z


def element_set_from_json(obj) -> list[GroupElement]:
    """Element-list files share the window schema without the identity
    requirement."""
    group = group_from_json(_fields(obj, "window")["group"])
    return [GroupElement(group, p) for p in checked_payloads(group, obj["elements"])]


def window_record(w: Window) -> dict:
    """The window's object as the writers encode it: the payload tuples go
    to ``canonical_dumps`` as they are, which writes each as an array."""
    return {"format": FORMAT_VERSION, "group": group_to_json(w.group), "elements": w.payloads}


def window_to_json(w: Window) -> dict:
    """The window's object as ``json.loads`` reads it back: payload rows as
    lists.  No writer calls it; ``window_record`` is the written form."""
    return {**window_record(w), "elements": list(map(list, w.payloads))}


def window_from_json(obj) -> Window:
    return Window(group_from_json(_fields(obj, "window")["group"]), obj["elements"])


def order_to_json(m: OrderMatrix, include_window: bool = True) -> dict:
    out: dict[str, Any] = {"format": FORMAT_VERSION, "closed": m.closed}
    if include_window:
        out["window"] = window_record(m.window)
    if m.closed and is_total(m):
        out["perm"] = m.perm()
    else:
        out["pairs"] = list(m.pairs())
    return out


def order_from_json(obj, window: Window | None = None) -> OrderMatrix:
    """The order on its own window, or on ``window``; a file that names
    another window than ``window`` raises ValueError."""
    _fields(obj, "order", needs=("window",) if window is None else ())
    if window is None:
        window = window_from_json(obj["window"])
    elif "window" in obj and window_from_json(obj["window"]) != window:
        raise ValueError("the order is written on another window")
    closed = obj.get("closed", False)
    if not isinstance(closed, bool):
        raise TypeError(f"closed must be true or false, got {closed!r}")
    if "perm" in obj:
        if "closed" in obj and not closed:
            raise ValueError("a perm order is total and closed; it cannot say closed false")
        return OrderMatrix.from_perm(window, obj["perm"])
    return OrderMatrix.from_pairs(window, _index_pairs(obj["pairs"], "pair"), closed=closed)


def system_to_json(cs: ConstraintSystem) -> dict:
    return {
        "format": FORMAT_VERSION,
        "window": window_record(cs.window),
        "atoms": cs.atoms,
        "convention": cs.convention,
    }


def system_from_json(obj) -> ConstraintSystem:
    _fields(obj, "constraint system")
    window = window_from_json(obj["window"])
    atoms = _index_pairs(obj["atoms"], "atom")
    return ConstraintSystem(window, atoms, obj.get("convention", "inverse_left"))


def generators_from_json(group: GroupId, obj) -> GeneratorSet:
    _fields(obj, "generators")
    elements = tuple(make_element(group, d) for d in obj["elements"])
    return GeneratorSet(group, elements, obj.get("symmetric", False))


def cylinder_from_json(obj) -> CylinderSpec:
    """A window and a pattern: an order that may leave that window out."""
    window = window_from_json(_fields(obj, "cylinder")["window"])
    return CylinderSpec(window, order_from_json(obj["pattern"], window=window))


def certificate_to_json(cert: Certificate) -> dict:
    out: dict[str, Any] = {"format": FORMAT_VERSION, "verdict": cert.verdict}
    out["witness"] = None if cert.witness is None else order_to_json(cert.witness)
    out["trace"] = [
        {"pair": [u, v], "rule": {"atom": r[1]} if r[0] == "atom" else {"trans": [r[1], r[2], r[3]]}}
        for (u, v), r in cert.trace
    ]
    out["cycle"] = list(cert.cycle)
    return out
