"""Outside-in tracing of the program's public functions, and per-layer metrics.

``install`` rebinds each traced function in every ``leibniz_deform`` module
that holds it, so calls between modules are traced too (``cochain`` imports
``rref`` and ``solve`` by name, ``deform`` imports ``coboundary``).  Methods
are replaced on their class.  Spans are kept in memory and written out when
the traced command ends; ``layer_metrics`` turns them into per-layer metrics.
Layer names are module names.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (layer, attribute path) of every traced function.  A dotted path names a
# method; ``TruncatedPolynomial`` traces construction, which is where the
# relation normal form runs.
TRACED = (
    ("linalg", "rref"),
    ("linalg", "kernel_basis"),
    ("linalg", "image_basis"),
    ("linalg", "solve"),
    ("linalg", "quotient_representatives"),
    ("cochain", "coboundary_matrix"),
    ("cochain", "coboundary"),
    ("cochain", "cohomology"),
    ("cochain", "cocycle_relations"),
    ("cochain", "CohomologySpace.project_to_classes"),
    ("graded", "circle"),
    ("graded", "graded_bracket"),
    ("deform", "leibniz_defect"),
    ("deform", "obstruction_classes"),
    ("deform", "extend_to_order"),
    ("deform", "versal_construct"),
    ("deform", "massey2"),
    ("deform", "massey3"),
    ("deform", "Deformation.bracket"),
    ("deform", "TruncatedPolynomial"),
    ("algebra", "validate"),
    ("reports", "cohomology_report"),
    ("reports", "deformation_report"),
    ("reports", "dumps_canonical"),
)

SPAN_NAMES = tuple(f"{layer}.{path}" for layer, path in TRACED)
CACHED = ("cochain.coboundary_matrix", "cochain.cohomology")

EXTRA_METRICS = (
    ("linalg.rref.cells", "count"),
    ("linalg.rref.nnz", "count"),
    ("linalg.quotient_representatives.rref_per_rep", "ratio"),
    ("deform.leibniz_defect.per_order", "ratio"),
    ("cochain.coboundary_matrix.hit_ratio", "ratio"),
    ("cochain.cohomology.hit_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


def _rref_attrs(args, kwargs):
    m = args[0] if args else kwargs["m"]
    return {"cells": m.rows * m.cols, "nnz": sum(1 for row in m.entries for x in row if x)}


def _extend_attrs(args, kwargs):
    return {"order": args[1] if len(args) > 1 else kwargs["k"]}


def _quotient_result(result):
    return {"reps": result[0].dim}


# Span attributes read from the arguments (before the span starts) or from
# the result (after it ends), so their cost lands in no traced span.
ARG_ATTRS = {"linalg.rref": _rref_attrs, "deform.extend_to_order": _extend_attrs}
RESULT_ATTRS = {"linalg.quotient_representatives": _quotient_result}


class Recorder:
    """Collects one span per call of a wrapped function.

    A span is (id, parent id or None, name, start, end, attrs or None); ids
    are positions in ``spans``.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        arg_attrs, result_attrs = ARG_ATTRS.get(name), RESULT_ATTRS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            attrs = arg_attrs(args, kwargs) if arg_attrs else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, attrs)
            if result_attrs:
                spans[sid] = (sid, parent, name, start, end, result_attrs(result))
            return result

        return functools.wraps(fn)(traced)


def install(recorder: Recorder) -> dict:
    """Wrap every TRACED function; return the original lru_cache objects by span name."""
    import leibniz_deform.cli  # noqa: F401  (loads every module that imports a traced name)

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "leibniz_deform" and m]
    originals = {}
    for layer, path in TRACED:
        name = f"{layer}.{path}"
        owner = sys.modules[f"leibniz_deform.{layer}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, recorder.wrap(name, getattr(cls, attr)))
            continue
        if path[0].isupper():  # a class: trace its construction
            cls = getattr(owner, path)
            cls.__init__ = recorder.wrap(name, cls.__init__)
            continue
        fn = getattr(owner, path)
        originals[name] = fn
        wrapped = recorder.wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    return originals


def cache_stats(originals: dict) -> dict:
    """(hits, misses) of each cached function, from ``cache_info()``."""
    out = {}
    for name in CACHED:
        info = originals[name].cache_info()
        out[name] = [info.hits, info.misses]
    return out


def write_trace(path, spans, caches) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"caches": caches, "spans": spans}, fh, separators=(",", ":"))


def read_trace(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _inside(parent, name: str, names: dict, parents: dict) -> bool:
    """Whether the span ``parent`` or one of its ancestors is named ``name``."""
    while parent is not None and names[parent] != name:
        parent = parents[parent]
    return parent is not None


def layer_stats(spans) -> dict[str, dict]:
    """calls, inclusive seconds and self seconds per span name.

    Self time is a span's duration minus the durations of its direct child
    spans.  Inclusive time counts only the outermost span of each name on a
    path, so a recursive call is not counted twice.
    """
    names = {s[0]: s[2] for s in spans}
    parents = {s[0]: s[1] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for sid, parent, name, start, end, _attrs in spans:
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[sid]
        if not _inside(parent, name, names, parents):
            st["s"] += end - start
    return stats


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the traces of its commands.

    Every name from ``per_layer_metric_units`` except ``trace.overhead_s``
    is present; a function that never ran reports zero.
    """
    stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    cells = nnz = reps = rref_in_quotient = 0
    hits = {name: [0, 0] for name in CACHED}
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        for name, st in layer_stats(spans).items():
            for key in st:
                stats[name][key] += st[key]
        names = {s[0]: s[2] for s in spans}
        parents = {s[0]: s[1] for s in spans}
        for sid, _parent, name, _start, _end, attrs in spans:
            if name == "linalg.rref":
                cells += attrs["cells"]
                nnz += attrs["nnz"]
                rref_in_quotient += _inside(parents[sid], "linalg.quotient_representatives", names, parents)
            elif name == "linalg.quotient_representatives":
                reps += attrs["reps"]
        for name in CACHED:
            h, m = trace["caches"][name]
            hits[name][0] += h
            hits[name][1] += m
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = stats[name][key]
    out["linalg.rref.cells"] = cells
    out["linalg.rref.nnz"] = nnz
    out["linalg.quotient_representatives.rref_per_rep"] = rref_in_quotient / max(reps, 1)
    extends = stats["deform.extend_to_order"]["calls"]
    out["deform.leibniz_defect.per_order"] = stats["deform.leibniz_defect"]["calls"] / extends if extends else 0.0
    for name in CACHED:
        h, m = hits[name]
        out[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
