"""In-memory span tracer for the benchmark's traced pass.

The tracer replaces public functions of the curvitrack modules (and the
aliases other modules import by name) with wrappers that record one span
per call -- name, parent span, start, end -- plus counts taken from the
call's arguments and result.  Spans stay in memory; `dump()` returns them
for writing out at the end of the run.  Nothing here changes what the
wrapped functions compute.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counters of one pass; `pass_id` is shared by its spans."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list[list] = []   # [name index, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _name(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def parent_name(self) -> str:
        return self.names[self.spans[self._stack[-1]][0]] if self._stack else ""

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [self._name(name), self._stack[-1] if self._stack else -1,
               time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def wrap(self, module, attr: str, name, on_return=None) -> None:
        """Replace `module.attr` by a spanning wrapper until `restore()`.

        `name` is the span name or a function of the call's arguments that
        returns it; `on_return(tracer, args, kwargs, result, nested)` adds
        counts after the span has closed.  `nested` is true when the caller
        is a span of the same layer.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            nested = self.parent_name().split(".")[0] == span_name.split(".")[0]
            try:
                with self.span(span_name):
                    result = original(*args, **kwargs)
            except Exception:
                self.count(span_name + ".raised")
                raise
            if on_return is not None:
                on_return(self, args, kwargs, result, nested)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, original))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def merge(self, dump: dict) -> None:
        """Absorb the spans and counts another process recorded."""
        offset = len(self.spans)
        remap = [self._name(n) for n in dump["names"]]
        for ni, parent, t0, t1 in dump["spans"]:
            self.spans.append([remap[ni], parent + offset if parent >= 0 else -1,
                               t0, t1])
        for k, v in dump["counts"].items():
            self.counts[k] += v

    def dump(self) -> dict:
        return {"pass_id": self.pass_id, "names": self.names,
                "spans": self.spans, "counts": dict(self.counts)}


class Summary:
    """Per-span-name call counts, total time, self time and outer time.

    Self time is a span's duration minus the time its child spans cover.
    Outer time counts only spans whose parent is not in the same layer, so
    a layer function calling another of its own layer is not counted twice.
    """

    def __init__(self, tracer: Tracer):
        names, spans = tracer.names, tracer.spans
        child = [0.0] * len(spans)
        for ni, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.outer = defaultdict(float)
        for i, (ni, parent, t0, t1) in enumerate(spans):
            name = names[ni]
            d = t1 - t0
            self.calls[name] += 1
            self.total[name] += d
            self.self_time[name] += d - child[i]
            if parent < 0 or names[spans[parent][0]].split(".")[0] != name.split(".")[0]:
                self.outer[name] += d
        self.counts = tracer.counts

    def prefixed(self, table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))


# ---------------------------------------------------------------------------
# wrap points

def _count_iou(layer):
    def hook(tr, args, kwargs, result, nested):
        tr.count(f"{layer}.iou_cells", result.size)
    return hook


def _count_tracking_hungarian(tr, args, kwargs, result, nested):
    cost = np.atleast_2d(np.asarray(args[0]))
    tr.count("tracking.hungarian_pairs", len(result))
    tr.count("tracking.hungarian_min_dim", min(cost.shape) if cost.size else 0)


def _count_moteval_hungarian(tr, args, kwargs, result, nested):
    cost = np.atleast_2d(np.asarray(args[0]))
    max_cost = args[1] if len(args) > 1 else kwargs["max_cost"]
    feasible = np.isfinite(cost) & (cost <= max_cost)
    if feasible.sum(axis=0).max(initial=0) <= 1 and feasible.sum(axis=1).max(initial=0) <= 1:
        tr.count("moteval.hungarian_trivial")


def _count_run_tracker(tr, args, kwargs, result, nested):
    algo = args[0] if args else kwargs["algo"]
    dets = args[1] if len(args) > 1 else kwargs["detections"]
    tr.count(f"tracking.dets_in:{algo}", len(dets))


def _count_evaluate(tr, args, kwargs, result, nested):
    tr.count("moteval.gt_instants", sum(s.instants for s in result.per_trajectory))


def _count_timeline(tr, args, kwargs, result, nested):
    snapshots = args[2] if len(args) > 2 else kwargs["snapshots"]
    tr.count("drift.snapshots_in", len(snapshots))
    tr.count("drift.instants", len(result[0].instants))


def _count_fit(tr, args, kwargs, result, nested):
    points = args[0] if args else kwargs["points"]
    if len(result[1]) == len(points):
        tr.count("geometry.full_consensus")


def _count_simulate(tr, args, kwargs, result, nested):
    tr.count("simulator.detections", len(result.detections))
    tr.count("simulator.snapshots", len(result.snapshots))


def _count_io(kind):
    def hook(tr, args, kwargs, result, nested):
        if nested:
            return
        path = args[0] if args else kwargs["path"]
        if kind == "read":
            tr.count("io_formats.bytes_read", os.path.getsize(path))
            rows = result[1] if isinstance(result, tuple) else result
            tr.count("io_formats.records_read", len(rows) if hasattr(rows, "__len__") else 1)
        else:
            tr.count("io_formats.bytes_written", os.path.getsize(path))
    return hook


IO_READERS = ("read_points", "read_homographies", "read_snapshots",
              "read_detections", "read_tracklets", "read_gt_series",
              "read_gps", "read_annotations", "read_json", "read_csv")
IO_WRITERS = ("write_points", "write_homographies", "write_snapshots",
              "write_detections", "write_tracklets", "write_gt_tracks",
              "write_gps", "write_annotations", "write_json", "write_csv")


def install(tr: Tracer) -> None:
    """Wrap every traced entry point of the package's layers."""
    from curvitrack import (cli, drift, geometry, gps, io_formats, moteval,
                            plots, roadway, simulator, tracking)

    for module in (simulator, cli):
        tr.wrap(module, "simulate", "simulator.simulate", _count_simulate)
    for attr in IO_READERS:
        tr.wrap(io_formats, attr, f"io_formats.{attr}", _count_io("read"))
    for attr in IO_WRITERS:
        tr.wrap(io_formats, attr, f"io_formats.{attr}", _count_io("write"))

    tr.wrap(tracking, "run_tracker",
            lambda a, k: "tracking.run_tracker:" + (a[0] if a else k["algo"]),
            _count_run_tracker)
    tr.wrap(tracking, "run_oracle", "tracking.run_oracle")
    tr.wrap(tracking, "iou_matrix", "tracking.iou_matrix", _count_iou("tracking"))
    tr.wrap(tracking, "hungarian_match", "tracking.hungarian_match",
            _count_tracking_hungarian)

    tr.wrap(moteval, "evaluate", "moteval.evaluate", _count_evaluate)
    tr.wrap(moteval, "iou_matrix", "moteval.iou_matrix", _count_iou("moteval"))
    tr.wrap(moteval, "hungarian_match", "moteval.hungarian_match",
            _count_moteval_hungarian)

    tr.wrap(gps, "refine", "gps.refine")
    tr.wrap(gps, "correct_time_offset", "gps.correct_time_offset")

    tr.wrap(drift, "build_timeline", "drift.build_timeline", _count_timeline)
    for attr in ("build_static", "build_dynamic", "build_baseline",
                 "metric_fitness", "metric_full_drift"):
        tr.wrap(drift, attr, f"drift.{attr}")

    for module in (geometry, cli):
        tr.wrap(module, "fit_homography", "geometry.fit_homography", _count_fit)
    tr.wrap(geometry, "lift_image_box_to_prism", "geometry.lift_image_box_to_prism")
    tr.wrap(geometry, "project_prism_to_image", "geometry.project_prism_to_image")

    tr.wrap(roadway, "world_to_roadway", "roadway.world_to_roadway")
    tr.wrap(roadway, "roadway_to_world", "roadway.roadway_to_world")

    for attr in ("line_chart", "bar_chart"):
        tr.wrap(plots, attr, f"plots.{attr}")


@contextlib.contextmanager
def installed(tr: Tracer | None):
    """Install `tr`'s wrappers for the duration of the block (no-op if None)."""
    if tr is None:
        yield
        return
    install(tr)
    try:
        yield
    finally:
        tr.restore()


def _status_kb(field: str) -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def rss_growth_mb(fn, *args):
    """Run fn(*args); returns (result, peak RSS after - RSS before, in MB).

    This is the memory the call made the process take from the system.  It
    is read from /proc/self/status, because tracemalloc slows `evaluate`
    about thirtyfold.
    """
    before = _status_kb("VmRSS")
    result = fn(*args)
    return result, max(0, _status_kb("VmHWM") - before) / 1024.0
