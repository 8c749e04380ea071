"""Spans for the traced run, recorded from the benchmark's side of each layer.

Wrappers are installed onto the zerowind functions that make up each layer,
in every zerowind module that holds a reference to them, and removed again
when the traced pass ends; the library's own code is not changed.  Each call
of a wrapped function becomes one span: name, start, end, parent span and
operation id, plus an item count where the layer has one (parameters
evaluated, samples kept).  Spans are kept in flat arrays in memory and
written out once the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Root span of one operation.  Its self time is the part of the operation
# that no wrapped layer covers: the operation's own glue code.
OP = "op"


def _param_count(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _point_count(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["z"]))


def _kept_samples(args, kwargs, out):
    return len(out[1])


# (span name, defining module, attribute, item count or None).  Every
# zerowind module that imported the function gets the wrapper too, so calls
# through ``from ._numeric import golden_min`` are traced as well.
FUNCTIONS = (
    ("polynomials.find_roots", "zerowind.polynomials", "find_roots", None),
    ("polynomials.classify_roots", "zerowind.polynomials", "classify_roots", None),
    ("polynomials.winding_count", "zerowind.polynomials", "winding_count", None),
    ("curves.classify_point", "zerowind.curves", "classify_point", None),
    ("curves.nearest_parameter", "zerowind.curves", "nearest_parameter", None),
    ("curves.build_detour", "zerowind.curves", "build_detour", None),
    ("numeric.golden_min", "zerowind._numeric", "golden_min", None),
    ("numeric.bisect_zero", "zerowind._numeric", "bisect_zero", None),
    ("numeric.adaptive_winding", "zerowind._numeric", "adaptive_winding", _kept_samples),
    ("numeric.trig_series", "zerowind._numeric", "trig_series", None),
    ("crossings.count_preimages", "zerowind.crossings", "count_preimages", None),
    ("crossings.detect", "zerowind.crossings", "_detect", None),
    ("crossings.cluster", "zerowind.crossings", "_cluster", None),
    ("verify.trig_zero_count", "zerowind.verify", "trig_zero_count", None),
    ("harness.run_harness", "zerowind.harness", "run_harness", None),
    ("harness.random_instance", "zerowind.harness", "random_instance", None),
    ("harness.measure_instance", "zerowind.harness", "measure_instance", None),
)

# (span name, defining module, class, attribute, item count or None)
METHODS = (
    ("curves.points", "zerowind.curves", "JordanCurve", "points", _param_count),
    ("curves.derivs", "zerowind.curves", "JordanCurve", "derivs", _param_count),
    ("curves.from_segments", "zerowind.curves", "JordanCurve", "from_segments", None),
    ("polynomials.eval", "zerowind.polynomials", "Polynomial", "__call__", _point_count),
)

SPAN_NAMES = (OP,) + tuple(s[0] for s in FUNCTIONS) + tuple(s[0] for s in METHODS)


class Recorder:
    """Spans of one traced pass, in flat arrays indexed by span id."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self._stack = [-1]
        self._op = -1

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self.items.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.open(0)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "items": np.frombuffer(self.items, dtype=np.int64),
        }

    def save(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, names=np.array(SPAN_NAMES), **self.arrays(), **meta)


def _wrap(rec: Recorder, name_id: int, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            rec.items[idx] = count(args, kwargs, out)
        return out

    traced.perfbench_span = SPAN_NAMES[name_id]
    return traced


def _zerowind_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "zerowind" or name.startswith("zerowind.")]


def installed() -> list[str]:
    """Names in zerowind modules and classes that hold a tracing wrapper right now."""
    found = []
    modules = _zerowind_modules()
    classes = [getattr(sys.modules[modname], clsname) for _, modname, clsname, _, _ in METHODS]
    for target in modules + classes:
        for key, value in list(vars(target).items()):
            if isinstance(value, classmethod):
                value = value.__func__
            if "perfbench_span" in getattr(value, "__dict__", {}):
                found.append(f"{target.__name__}.{key}")
    return found


class Tracing:
    """Context manager that wraps every layer function while it is active."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracing":
        modules = _zerowind_modules()
        try:
            for name, modname, attr, count in FUNCTIONS:
                original = getattr(sys.modules[modname], attr)
                wrapper = _wrap(self.rec, SPAN_NAMES.index(name), original, count)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        self._patch(mod, key, wrapper)
            for name, modname, clsname, attr, count in METHODS:
                cls = getattr(sys.modules[modname], clsname)
                raw = cls.__dict__[attr]
                nid = SPAN_NAMES.index(name)
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(_wrap(self.rec, nid, raw.__func__, count)))
                else:
                    self._patch(cls, attr, _wrap(self.rec, nid, raw, count))
        except BaseException:
            self.restore()
            raise
        return self

    def _patch(self, target, key: str, value) -> None:
        self.patched.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def restore(self) -> None:
        while self.patched:
            target, key, original = self.patched.pop()
            setattr(target, key, original)

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread's call stack, so children of one parent never
    overlap and their durations add up to the covered part of the parent.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def layer_metrics(rec: Recorder, ops: int, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass over ``ops`` operations, as name -> (value, unit).

    Counts and self times are totals over the pass.  ``trace.overhead`` is the
    traced pass's wall time over the untraced pass's on the same operations.
    """
    a = rec.arrays()
    k = len(SPAN_NAMES)
    self_ms = self_times(a["start"], a["end"], a["parent"]) * 1e3
    calls = np.bincount(a["name_id"], minlength=k)
    busy = np.bincount(a["name_id"], weights=self_ms, minlength=k)
    items = np.bincount(a["name_id"], weights=a["items"], minlength=k)

    def idx(name):
        return SPAN_NAMES.index(name)

    def n_calls(name):
        return int(calls[idx(name)])

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    points = a["name_id"] == idx("curves.points")
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES[1:]:
        out[f"{name}.calls"] = (n_calls(name), "count")
        out[f"{name}.self_ms"] = (float(busy[idx(name)]), "ms")
    out["polynomials.classify_roots.calls_per_op"] = (ratio(n_calls("polynomials.classify_roots"), ops), "calls/op")
    out["curves.points.samples"] = (int(items[idx("curves.points")]), "count")
    out["curves.points.scalar_share"] = (ratio(np.count_nonzero(a["items"][points] == 1), points.sum()), "fraction")
    out["polynomials.eval.points"] = (int(items[idx("polynomials.eval")]), "count")
    out["numeric.adaptive_winding.samples"] = (int(items[idx("numeric.adaptive_winding")]), "count")
    out["crossings.count_preimages.levels"] = (
        ratio(n_calls("crossings.detect"), n_calls("crossings.count_preimages")),
        "levels/call",
    )
    # every harness trial measures once, plus once more when it is re-run tightened
    trials = n_calls("harness.random_instance")
    out["harness.rerun_ratio"] = (ratio(n_calls("harness.measure_instance") - trials, trials), "ratio")
    out["trace.unwrapped.self_ms"] = (float(busy[0]), "ms")
    out["trace.overhead"] = (ratio(traced_s, untraced_s), "ratio")
    return out
