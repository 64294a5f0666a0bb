"""On-disk formats: JSON-lines streams, CSV tables, JSON documents.

All writers are atomic (temp file in the destination directory, then
rename), so a crashed run never leaves a half-written artifact.  Readers
raise MalformedInput naming the file and the offending record.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile

import numpy as np

from .errors import CurvitrackError


class MalformedInput(CurvitrackError):
    """Unparseable or schema-violating input file (CLI exit code 1)."""


def fmt(v) -> str:
    """Canonical scalar formatting shared by CSV tables and SVG labels."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest repr; round-trips exactly
    return str(v)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        # mkstemp creates 0600; give the artifact the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path: str, records) -> None:
    atomic_write(path, "".join(json.dumps(r) + "\n" for r in records))


def read_jsonl(path: str) -> list:
    out = []
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise MalformedInput(f"{path}: line {i}: {e}") from e
    return out


def write_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=1) + "\n")


def read_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"{path}: {e}") from e


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        rows = list(reader)
    if not rows:
        raise MalformedInput(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _require(record: dict, keys, path: str, where: str) -> None:
    if not isinstance(record, dict):
        raise MalformedInput(f"{path}: {where}: expected a JSON object")
    missing = [k for k in keys if k not in record]
    if missing:
        raise MalformedInput(f"{path}: {where}: missing fields {missing}")


_NUMBER_TYPES = {int, float}


def _finite_numbers(values) -> bool:
    """Each value is a JSON int or float (not a bool) that converts to a
    finite float."""
    try:
        return _NUMBER_TYPES.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:   # an int beyond the float range
        return False


def _check_increasing(items: list, path: str, unit: str, owner: str) -> None:
    """Refuse a repeated time in (t, record number, ...) items sorted by t."""
    for a, b in zip(items, items[1:]):
        if a[0] == b[0]:
            raise MalformedInput(f"{path}: {unit} {b[1]}: repeated t {a[0]!r} for {owner}")


def _check_numbers(record: dict, path: str, where: str, scalars=(), lists=()) -> None:
    """Require each key in `scalars` to be a finite number and each
    (key, n) in `lists` a list of n finite numbers."""
    for key in scalars:
        if not _finite_numbers((record[key],)):
            raise MalformedInput(f"{path}: {where}: {key} must be a finite number, "
                                 f"got {record[key]!r}")
    for key, n in lists:
        v = record[key]
        if not (isinstance(v, list) and len(v) == n and _finite_numbers(v)):
            raise MalformedInput(f"{path}: {where}: {key} must be a list of {n} "
                                 f"finite numbers, got {v!r}")


# --- correspondence points --------------------------------------------------

def write_points(path: str, points) -> None:
    """points: iterable of dicts {id, camera, direction, im: [u,v], st: [x,y]}."""
    write_jsonl(path, points)


def read_points(path: str) -> list[dict]:
    records = read_jsonl(path)
    for i, r in enumerate(records, start=1):
        _require(r, ("id", "camera", "direction", "im", "st"), path, f"record {i}")
        _check_numbers(r, path, f"record {i}", lists=(("im", 2), ("st", 2)))
    return records


# --- homographies -----------------------------------------------------------

def h_to_list(h: np.ndarray) -> list:
    return np.asarray(h, dtype=float).reshape(3, 3).tolist()


def write_homographies(path: str, entries) -> None:
    """entries: [{camera, direction, h: 3x3}, ...]"""
    write_json(path, list(entries))


def read_homographies(path: str) -> list[dict]:
    entries = read_json(path)
    if not isinstance(entries, list):
        raise MalformedInput(f"{path}: expected a JSON list")
    for i, r in enumerate(entries, start=1):
        _require(r, ("camera", "h"), path, f"entry {i}")
        a = np.asarray(r["h"], dtype=float)
        if a.shape != (3, 3):
            raise MalformedInput(f"{path}: entry {i}: h is not 3x3")
    return entries


# --- snapshots ----------------------------------------------------------------

def write_snapshots(path: str, snapshots) -> None:
    """snapshots: [{epoch, camera, direction, points: [{id, im: [u,v]}]}]"""
    write_jsonl(path, snapshots)


def read_snapshots(path: str) -> list[dict]:
    records = read_jsonl(path)
    for i, r in enumerate(records, start=1):
        _require(r, ("epoch", "camera", "points"), path, f"record {i}")
        for p in r["points"]:
            _require(p, ("id", "im"), path, f"record {i}")
    return records


# --- detections / tracklets / trajectories ------------------------------------

def write_detections(path: str, detections) -> None:
    write_jsonl(path, ({"t": d.t, "camera": d.camera,
                        "box": [float(b) for b in d.box],
                        "class": d.cls, "conf": d.conf} for d in detections))


def read_detections(path: str) -> list[dict]:
    records = read_jsonl(path)
    for i, r in enumerate(records, start=1):
        _require(r, ("t", "box", "conf"), path, f"record {i}")
        _check_numbers(r, path, f"record {i}", ("t", "conf"), (("box", 5),))
    return records


def write_tracklets(path: str, tracklets) -> None:
    """One row per state plus a sidecar of per-tracklet median dimensions."""
    rows = []
    dims = {}
    for tl in tracklets:
        dims[str(tl.id)] = [float(v) for v in tl.median_dims]
        for t, box in zip(tl.times, tl.boxes):
            rows.append({"id": tl.id, "t": t, "box": [float(b) for b in box]})
    write_jsonl(path, rows)
    write_json(_sidecar(path), dims)


def _sidecar(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".dims.json"


def _read_states(path: str, key=lambda v: v) -> dict:
    """{id: [(t, box)] sorted by t} from {id, t, box} records, with `t` a
    finite number unique within its id and `box` 5 finite numbers; `key`
    maps the record id to the returned id."""
    by_id: dict = {}
    for i, r in enumerate(read_jsonl(path), start=1):
        _require(r, ("id", "t", "box"), path, f"record {i}")
        _check_numbers(r, path, f"record {i}", ("t",), (("box", 5),))
        by_id.setdefault(key(r["id"]), []).append(
            (float(r["t"]), i, tuple(map(float, r["box"]))))
    for sid, items in by_id.items():
        items.sort()
        _check_increasing(items, path, "record", f"id {sid!r}")
        by_id[sid] = [(t, box) for t, _, box in items]
    return by_id


def read_tracklets(path: str):
    from .tracking import Tracklet

    dims_path = _sidecar(path)
    dims = read_json(dims_path) if os.path.exists(dims_path) else {}
    out = []
    for tid, items in sorted(_read_states(path).items()):
        boxes = [b for _, b in items]
        d = dims.get(str(tid))
        out.append(Tracklet(tid, [t for t, _ in items], boxes,
                            [tuple(d)] if d else [boxes[0][2:5]]))
    return out


def write_gt_tracks(path: str, tracks) -> None:
    """tracks: objects with vehicle_id, times, x, y, dims."""
    rows = []
    for tr in tracks:
        l, w, h = tr.dims
        for t, x, y in zip(tr.times, tr.x, tr.y):
            rows.append({"id": tr.vehicle_id, "t": float(t),
                         "box": [float(x), float(y), l, w, h]})
    write_jsonl(path, rows)


def read_gt_series(path: str):
    from .moteval import TrajectorySeries

    return [TrajectorySeries(sid, np.array([t for t, _ in items]),
                             np.array([b for _, b in items], dtype=float))
            for sid, items in sorted(_read_states(path, str).items())]


# --- GPS & annotations ---------------------------------------------------------

def write_gps(path: str, traces) -> None:
    rows = []
    for tr in traces:
        for t, x, y in zip(tr.times, tr.x, tr.y):
            rows.append((tr.vehicle_id, t, x, y))
    write_csv(path, ("vehicle_id", "t", "x", "y"), rows)


def read_gps(path: str):
    from .gps import GpsTrace

    header, rows = read_csv(path)
    if header[:4] != ["vehicle_id", "t", "x", "y"]:
        raise MalformedInput(f"{path}: unexpected header {header}")
    by_id: dict = {}
    for i, row in enumerate(rows, start=2):
        try:
            t, x, y = float(row[1]), float(row[2]), float(row[3])
        except (ValueError, IndexError) as e:
            raise MalformedInput(f"{path}: line {i}: {e}") from e
        if not all(map(math.isfinite, (t, x, y))):
            raise MalformedInput(f"{path}: line {i}: t, x and y must be finite, "
                                 f"got {row[1:4]}")
        by_id.setdefault(row[0], []).append((t, i, x, y))
    traces = []
    for vid in sorted(by_id):
        items = sorted(by_id[vid])
        _check_increasing(items, path, "line", f"vehicle {vid!r}")
        traces.append(GpsTrace(vid,
                               np.array([a for a, _, _, _ in items]),
                               np.array([b for _, _, b, _ in items]),
                               np.array([c for _, _, _, c in items])))
    return traces


def write_annotations(path: str, annotations) -> None:
    rows = [(a.vehicle_id, a.epoch, a.x, a.y, a.pole) for a in annotations]
    write_csv(path, ("vehicle_id", "t", "x", "y", "pole"), rows)


def read_annotations(path: str):
    from .gps import PoleAnnotation

    header, rows = read_csv(path)
    if header[:5] != ["vehicle_id", "t", "x", "y", "pole"]:
        raise MalformedInput(f"{path}: unexpected header {header}")
    out = []
    for i, row in enumerate(rows, start=2):
        try:
            out.append(PoleAnnotation(row[0], float(row[1]), float(row[2]),
                                      float(row[3]), int(row[4])))
        except (ValueError, IndexError) as e:
            raise MalformedInput(f"{path}: line {i}: {e}") from e
    return out
