"""Thread-aware spans recorded around apmkit's layer functions.

The tracer replaces a function at the module attribute its caller looks
up (``apmkit.pipeline.crf_refine``, ``apmkit.crf.mean_field_step``, ...)
with a wrapper that records a span and, optionally, work counts. Spans
are kept in memory and written out at the end of the call. Each thread
keeps its own stack of open spans; a span opened on a thread with no open
span (a CRF window on a pool thread) is a child of the root span.

A probe whose attribute no longer exists is skipped, and the metrics fed
by it are reported absent rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import threading
import time
from typing import Callable

ROOT = "pipeline.run"


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Children running concurrently on several threads cover an instant
    once, so self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end))
            )
    return {
        s.id: s.duration - covered_length(children.get(s.id, [])) for s in spans
    }


class Tracer:
    """Collects spans and counters for one pipeline call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.present: set[str] = {ROOT}  # span and counter names with a probe
        self.unreadable: set[str] = set()  # counters whose arguments changed shape
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root: int | None = None

    def _open(self, name: str) -> tuple[int, int | None]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent, name: str, start: float) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        span = Span(span_id, parent, name, threading.get_ident(), start, end)
        with self._lock:
            self.spans.append(span)

    def run(self, fn: Callable, *args):
        """Call ``fn(*args)`` inside the root span."""
        span_id, parent = self._open(ROOT)
        self._root = span_id
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(span_id, parent, ROOT, start)

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, module: str, attr: str, name: str, counters: dict | None = None) -> None:
        """Record a span ``name`` around every call of ``module.attr``.

        ``counters`` maps a counter name to ``f(args, kwargs, result)``
        returning the amount to add for that call.
        """
        counters = counters or {}
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if not callable(fn):
            return
        self.present.update([name, *counters])
        for counter in counters:
            self.counts.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, name, start)
            for counter, count in counters.items():
                try:
                    self.add(counter, count(args, kwargs, result))
                except Exception:  # a changed signature must not fail the run
                    self.unreadable.add(counter)
            return result

        setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Per span name: summed duration, summed self time and call count."""
        selfs = self_times(self.spans)
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += s.duration
            agg["self"] += selfs[s.id]
            agg["calls"] += 1
        return out

    def dump(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(s) for s in self.spans], fh)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _pixels(array) -> int:
    shape = array.shape
    return int(shape[-2] * shape[-1])


def _lamap_evals(args, kwargs, result) -> int:
    """Sites x valid pixels x modelled bands of one potential evaluation."""
    stack = _arg(args, kwargs, 0, "stack")
    models = _arg(args, kwargs, 1, "models")
    return len(models) * int((~stack.nodata_mask).sum()) * len(models[0].ecdfs)


# (module, attribute, span name, counters). Module names under apmkit are
# the layer names; the attribute is the one the calling module looks up.
PROBES = (
    ("apmkit.pipeline", "crf_refine", "crf.refine", None),
    ("apmkit.crf", "mean_field_step", "crf.step",
     {"crf.pixel_steps": lambda a, k, r: _pixels(_arg(a, k, 0, "q"))}),
    ("apmkit.pipeline", "tile_plan", "tiling.plan",
     {"tiling.windows": lambda a, k, r: len(r)}),
    ("apmkit.pipeline", "stitch", "tiling.stitch", None),
    ("apmkit.raster.distance", "distance_to_mask", "distance.transform", None),
    ("apmkit.raster.terrain", "distance_to_mask", "distance.transform", None),
    ("apmkit.pipeline", "distance_map", "distance.map", None),
    ("apmkit.pipeline", "derive_terrain", "terrain.derive", None),
    ("apmkit.raster.terrain", "flow_accumulation", "terrain.flow_accumulation", None),
    ("apmkit.raster.terrain", "slope_aspect", "terrain.slope_aspect", None),
    ("apmkit.raster.terrain", "fill_holes", "grid.fill_holes", None),
    ("apmkit.pipeline", "load_raster", "grid.load", None),
    ("apmkit.pipeline", "save_raster", "grid.save",
     {"grid.bytes_written": lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))}),
    ("apmkit.pipeline", "rasterize_labels", "labels.rasterize", None),
    ("apmkit.pipeline", "build_site_models", "lamap.models", None),
    ("apmkit.lamap", "potential_values", "lamap.potential", {"lamap.evals": _lamap_evals}),
    ("apmkit.pipeline", "evaluate_surface", "metrics.evaluate", None),
    ("apmkit.metrics", "probability_density", "metrics.density",
     {"metrics.density_samples": lambda a, k, r: int(_arg(a, k, 0, "scores").size)}),
    ("apmkit.pipeline", "dpl_objective", "pseudolabel.objective", None),
    ("apmkit.pipeline", "confident_pseudolabel", "pseudolabel.mask", None),
)

# Per-layer metric -> (unit, source, key). ``total``/``self``/``calls`` read
# the span summary of span ``key``; ``count`` reads counter ``key``.
LAYER_METRICS = {
    "crf.refine_s": ("s", "total", "crf.refine"),
    "crf.refine_calls": ("count", "calls", "crf.refine"),
    "crf.step_s": ("s", "total", "crf.step"),
    "crf.pixel_steps": ("count", "count", "crf.pixel_steps"),
    "tiling.windows": ("count", "count", "tiling.windows"),
    "tiling.stitch_s": ("s", "total", "tiling.stitch"),
    "distance.transform_s": ("s", "total", "distance.transform"),
    "distance.transform_calls": ("count", "calls", "distance.transform"),
    "distance.map_self_s": ("s", "self", "distance.map"),
    "terrain.flow_accumulation_s": ("s", "total", "terrain.flow_accumulation"),
    "terrain.slope_aspect_s": ("s", "total", "terrain.slope_aspect"),
    "terrain.derive_self_s": ("s", "self", "terrain.derive"),
    "grid.fill_holes_s": ("s", "total", "grid.fill_holes"),
    "grid.load_s": ("s", "total", "grid.load"),
    "grid.save_s": ("s", "total", "grid.save"),
    "grid.bytes_written": ("bytes", "count", "grid.bytes_written"),
    "labels.rasterize_s": ("s", "total", "labels.rasterize"),
    "lamap.models_s": ("s", "total", "lamap.models"),
    "lamap.potential_s": ("s", "total", "lamap.potential"),
    "lamap.evals": ("count", "count", "lamap.evals"),
    "metrics.evaluate_s": ("s", "total", "metrics.evaluate"),
    "metrics.density_s": ("s", "total", "metrics.density"),
    "metrics.density_calls": ("count", "calls", "metrics.density"),
    "metrics.density_samples": ("count", "count", "metrics.density_samples"),
    "pseudolabel.objective_s": ("s", "total", "pseudolabel.objective"),
    "pseudolabel.mask_s": ("s", "total", "pseudolabel.mask"),
    "pipeline.self_s": ("s", "self", ROOT),
}

# Counts that must repeat exactly between calls with the same inputs.
EXACT_COUNTS = (
    "tiling.windows",
    "crf.refine_calls",
    "crf.pixel_steps",
    "distance.transform_calls",
    "lamap.evals",
    "metrics.density_calls",
    "grid.bytes_written",
)


def install(tracer: Tracer) -> None:
    for module, attr, name, counters in PROBES:
        tracer.wrap(module, attr, name, counters)


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values and the names of the absent ones.

    A layer whose probe exists but was never called reads 0.
    """
    summary = tracer.summary()
    values: dict[str, float] = {}
    absent: list[str] = []
    for metric, (_, source, key) in LAYER_METRICS.items():
        if key not in tracer.present or key in tracer.unreadable:
            absent.append(metric)
            continue
        if source == "count":
            values[metric] = tracer.counts.get(key, 0)
        else:
            values[metric] = summary.get(key, {}).get(source, 0)
    return values, absent
