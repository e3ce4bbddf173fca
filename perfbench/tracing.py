"""In-memory span tracing of the grouporders layers, installed from outside.

The tracer replaces each traced function at every module attribute that
refers to it, so a caller that imported the function by name (``cli``
does ``from .engine import solve``) reaches the wrapper as well.  A span is
``[name, start, end, parent, op, count]``: ``parent`` is the index of the
enclosing span (-1 for a root), ``op`` the benchmark op it belongs to, and
``count`` an optional size taken from the call (elements, atoms, bytes).
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter


def _len_arg(pos):
    return lambda args, kwargs, result: len(args[pos])


def _len_result(args, kwargs, result):
    return len(result)


def _atoms(args, kwargs, result):
    return len(args[0].atoms)


def _trace_len(args, kwargs, result):
    return 0 if result is None else len(result.trace)


def _probe_len(args, kwargs, result):
    return len(args[1].window)


def _file_size(args, kwargs, result):
    path = args[0]
    return os.path.getsize(path) if path != "-" else 0


# (module, attribute, count hook).  Every public function of
# ``grouporders.serialize`` is traced as well; see ``targets``.
SPAN_TARGETS = [
    ("cli", "main", None),
    ("cli", "_read_json", _file_size),
    ("engine", "solve", _atoms),
    ("engine", "propagate_only", _trace_len),
    ("engine", "verify_certificate", None),
    ("engine", "build_sl3_instance", None),
    ("constraints", "build_extension_system", None),
    ("sampling", "uniform_order", _len_arg(0)),
    ("sampling", "coset_extension", _len_arg(0)),
    ("sampling", "realize", _len_arg(2)),
    ("sampling", "reconstruct", None),
    ("sampling", "specification_glue", None),
    ("sampling", "shadowing_report", None),
    ("orders", "translate_order", None),
    ("orders", "matches_cylinder", _probe_len),
    ("orders", "render_levels", None),
    ("stats", "ranking_of", _len_arg(1)),
    ("stats", "estimate_cylinder", None),
    ("stats", "invariance_test", None),
    ("stats", "uniformity_chisq", None),
    ("groups", "ball", _len_result),
    ("groups", "window_from_elements", None),
]

# Hot functions whose calls are only counted, as (module, class or None,
# attribute): a span each would cost more than the call itself.
COUNT_TARGETS = [
    ("rng", None, "u64"),
    ("exactnum", "Sqrt2Num", "scaled_floor"),
]

SAMPLER_SPANS = ("sampling.uniform_order", "sampling.coset_extension", "sampling.realize")

# Spans counted in another layer than their module: ``cli._read_json`` is
# the JSON parse of the input files, i.e. deserialisation.
LAYER_OF = {"cli._read_json": "serialize"}

SERIALIZE_COUNTS = {"canonical_dumps": _len_result}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".", 1)[0])


def targets():
    """(module, attribute, span name, count hook) for every traced span."""
    out = [(m, a, f"{m}.{a}", hook) for m, a, hook in SPAN_TARGETS]
    ser = sys.modules["grouporders.serialize"]
    for attr, obj in sorted(vars(ser).items()):
        if (
            callable(obj)
            and not attr.startswith("_")
            and getattr(obj, "__module__", None) == ser.__name__
            and not isinstance(obj, type)
        ):
            out.append(("serialize", attr, f"serialize.{attr}", SERIALIZE_COUNTS.get(attr)))
    return out


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("grouporders"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and reports zero."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, attr, name, hook in targets():
            fn = getattr(sys.modules[f"grouporders.{modname}"], attr, None)
            if fn is None:
                self._note_missing(name)
                continue
            self._patch_everywhere(fn, self._span_wrapper(name, fn, hook))
        for modname, cls, attr in COUNT_TARGETS:
            name = f"{modname}.{attr}"
            owner = sys.modules[f"grouporders.{modname}"]
            if cls is not None:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self._note_missing(name)
                continue
            wrapped = self._count_wrapper(name, fn)
            if cls is None:
                self._patch_everywhere(fn, wrapped)
            else:
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)

    def _note_missing(self, name):
        if name not in self.missing:
            self.missing.append(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another in a single thread, so the
    part of the parent they cover is the sum of their durations.
    """
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def _has_ancestor(spans, i, pred) -> bool:
    p = spans[i][3]
    while p >= 0:
        if pred(spans[p][0]):
            return True
        p = spans[p][3]
    return False


def summarize(spans, calls, ops: set[int]) -> dict[str, float]:
    """Totals per span name and per layer over the spans of ``ops``.

    For a name or layer X: ``X.calls``, ``X.s`` (inclusive time of its
    outermost spans, so nested calls are not counted twice), ``X.self_s``
    and ``X.count`` (the sum of the count hook).
    """
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, rec in enumerate(spans):
        if rec[4] not in ops:
            continue
        name = rec[0]
        layer = layer_of(name)
        dur = rec[2] - rec[1]
        for key, same in ((name, lambda n: n == name), (layer, lambda n: layer_of(n) == layer)):
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += own[i]
            if rec[5] is not None:
                out[f"{key}.count"] += rec[5]
            if not _has_ancestor(spans, i, same):
                out[f"{key}.s"] += dur
    for name, n in calls.items():
        out[f"{name}.calls"] += n
    return out


def sampled_elements(spans, ops: set[int], under: str | None = None) -> int:
    """Window elements ordered by the samplers, optionally only inside
    spans of the layer ``under``."""
    total = 0
    for i, rec in enumerate(spans):
        if rec[4] in ops and rec[0] in SAMPLER_SPANS and rec[5] is not None:
            if under is None or _has_ancestor(spans, i, lambda n: layer_of(n) == under):
                total += rec[5]
    return total
