"""The benchmark traces grouporders functions by name (``perfbench/tracing.py``).
A traced name that no longer resolves is skipped there with only a note, so
these checks fail first: every span and count target must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    missing = []
    for modname, attr, _ in tracing.SPAN_TARGETS:
        module = importlib.import_module(f"grouporders.{modname}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"{modname}.{attr}")
    for modname, cls, attr in tracing.COUNT_TARGETS:
        owner = importlib.import_module(f"grouporders.{modname}")
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{modname}.{cls + '.' if cls else ''}{attr}")
    assert missing == []
