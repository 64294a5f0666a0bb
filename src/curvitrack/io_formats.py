"""On-disk formats: JSON-lines streams, CSV tables, JSON documents.

All writers are atomic (temp file in the destination directory, then
rename), so a crashed run never leaves a half-written artifact.  Readers
raise MalformedInput naming the file and the offending record.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import tempfile
from array import array

import numpy as np

from .errors import ConfigInvalid, CurvitrackError, SingularFit

# One day bounds every timestamp read and a scene's duration_s; criterion 3
# runs four hours.
MAX_DURATION_S = 86_400


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


def _jsonl(path: str):
    """The records of a JSON-lines file, one at a time."""
    with open(path) as f:
        for i, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as e:
                raise MalformedInput(f"{path}: line {i}: {e}") from e


def read_jsonl(path: str) -> list:
    return list(_jsonl(path))


def write_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=1) + "\n")


def read_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"{path}: {e}") from e


def _write_rows(path: str, header, rows) -> None:
    """Quotes only a cell holding a comma, a double quote or a line break;
    other cells are written as str() writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


def write_csv(path: str, header, rows) -> None:
    _write_rows(path, header, ([fmt(v) for v in row] for row in rows))


def read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise MalformedInput(f"{path}: empty CSV")
    return rows[0], rows[1:]


_NUMBER_TYPES = {int, float}


def _finite_numbers(values) -> bool:
    """Each value is a JSON int or float (not a bool) that converts to a
    finite float."""
    try:
        return _NUMBER_TYPES.issuperset(map(type, values)) and all(map(math.isfinite, values))
    except OverflowError:   # an int beyond the float range
        return False


# Field kinds of a _check table; an int n stands for a list of n finite
# numbers and a nested table for a list of sub-records.
ANY, STR, NUM = "any value", "a string", "a finite number"
TIME = f"a finite number of seconds in [-{MAX_DURATION_S}, {MAX_DURATION_S}]"
MATRIX = "a 3x3 list of finite numbers"
BOX = "a list of 5 finite numbers x, y, l, w, h with l, w, h >= 0"
DIMS = "a list of 3 finite numbers l, w, h >= 0"


def _check(record, fields: dict, path: str, where: str) -> None:
    """Refuse a record that is not a JSON object, lacks a key of `fields`, or
    holds a field not of its kind, naming the file and `where`."""
    if not isinstance(record, dict):
        raise MalformedInput(f"{path}: {where}: expected a JSON object")
    if not record.keys() >= fields.keys():
        missing = [k for k in fields if k not in record]
        raise MalformedInput(f"{path}: {where}: missing fields {missing}")
    for key, kind in fields.items():
        v = record[key]
        if kind is NUM:
            ok = _finite_numbers((v,))
        elif kind is TIME:
            ok = _finite_numbers((v,)) and abs(v) <= MAX_DURATION_S
        elif type(kind) is int:
            ok = isinstance(v, list) and len(v) == kind and _finite_numbers(v)
        elif kind is BOX or kind is DIMS:
            ok = (isinstance(v, list) and len(v) == (5 if kind is BOX else 3)
                  and _finite_numbers(v) and min(v[-3:]) >= 0)
        elif kind is STR:
            ok = isinstance(v, str)
        elif kind is MATRIX:
            ok = isinstance(v, list) and len(v) == 3 and all(
                isinstance(row, list) and len(row) == 3 and _finite_numbers(row) for row in v)
        elif type(kind) is dict:
            ok = isinstance(v, list)
            for sub in v if ok else ():
                _check(sub, kind, path, where)
        else:
            ok = True
        if not ok:
            want = {int: f"a list of {kind} finite numbers",
                    dict: "a list"}.get(type(kind), kind)
            raise MalformedInput(f"{path}: {where}: {key} must be {want}, got {v!r}")


def _series(ids: list, t: np.ndarray, path: str, unit: str, owner: str, first: int):
    """(id, sample indices in time order) per distinct id, ids sorted as
    sorted() sorts them: ints by value, strings by code point.  Sample k is
    `unit` first + k; a t repeated within an id is refused, naming the later
    sample.  Ids come in runs, so only each run's first id is sorted."""
    ids = np.array(ids, dtype=object)
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    if len(ids):
        starts = np.concatenate(([0], starts))
    keys, head_code = np.unique(ids[starts], return_inverse=True)
    code = np.repeat(head_code, np.diff(np.append(starts, len(ids))))
    order = np.lexsort((t, code))   # stable: equal t keep file order
    c, ts = code[order], t[order]
    repeated = np.flatnonzero((c[1:] == c[:-1]) & (ts[1:] == ts[:-1]))
    if len(repeated):
        a, b = order[repeated[0]], order[repeated[0] + 1]
        raise MalformedInput(f"{path}: {unit} {first + b}: repeated t {float(t[a])!r} "
                             f"for {owner} {keys[code[b]]!r}")
    return zip(keys, np.split(order, np.flatnonzero(c[1:] != c[:-1]) + 1))


# --- correspondence points --------------------------------------------------

def write_points(path: str, cameras) -> None:
    """cameras: objects with camera_id, direction and points
    (CorrespondencePoint); one record per point."""
    write_jsonl(path, ({"id": p.id, "camera": c.camera_id, "direction": c.direction,
                        "im": [p.image.x, p.image.y], "st": [p.world.x, p.world.y]}
                       for c in cameras for p in c.points))


def read_points(path: str) -> dict:
    """{camera: (direction, PointSet)}, points in file order."""
    from .geometry import CorrespondencePoint, ImagePoint, PointSet, StatePlanePoint

    cameras: dict = {}
    seen = set()
    for i, r in enumerate(read_jsonl(path), start=1):
        where = f"record {i}"
        _check(r, {"id": STR, "camera": STR, "direction": STR, "im": 2, "st": 2},
               path, where)
        direction, points = cameras.setdefault(r["camera"], (r["direction"], []))
        if r["direction"] != direction:
            raise MalformedInput(f"{path}: {where}: camera {r['camera']!r} is listed "
                                 f"under both {direction!r} and {r['direction']!r}")
        if (r["camera"], r["id"]) in seen:
            raise MalformedInput(f"{path}: {where}: repeated id {r['id']!r} "
                                 f"for camera {r['camera']!r}")
        seen.add((r["camera"], r["id"]))
        points.append(CorrespondencePoint(r["id"], ImagePoint(*map(float, r["im"])),
                                          StatePlanePoint(*map(float, r["st"]), 0.0)))
    return {cam: (direction, PointSet(points)) for cam, (direction, points) in cameras.items()}


# --- homographies -----------------------------------------------------------

def h_to_list(h: np.ndarray) -> list:
    return np.asarray(h, dtype=float).reshape(3, 3).tolist()


def write_homographies(path: str, homographies, inliers=()) -> None:
    """One entry per Homography, under its camera_id and direction; the
    i-th entry also carries inliers[i] when given."""
    entries = [{"camera": h.camera_id, "direction": h.direction, "h": h_to_list(h.h)}
               for h in homographies]
    for entry, n in zip(entries, inliers):
        entry["inliers"] = n
    write_json(path, entries)


def read_homographies(path: str) -> dict:
    """{camera: Homography}; `direction` defaults to EB."""
    from .geometry import Homography

    entries = read_json(path)
    if not isinstance(entries, list):
        raise MalformedInput(f"{path}: expected a JSON list")
    out = {}
    for i, r in enumerate(entries, start=1):
        where = f"entry {i}"
        if isinstance(r, dict):
            r.setdefault("direction", "EB")
        _check(r, {"camera": STR, "direction": STR, "h": MATRIX}, path, where)
        if r["camera"] in out:
            raise MalformedInput(f"{path}: {where}: repeated camera {r['camera']!r}")
        try:
            out[r["camera"]] = Homography(np.asarray(r["h"], dtype=float),
                                          r["camera"], r["direction"])
        except SingularFit as e:
            raise MalformedInput(f"{path}: {where}: {e}") from e
    return out


# --- snapshots ----------------------------------------------------------------

def write_snapshots(path: str, snapshots) -> None:
    """snapshots: RediscoverySnapshot records, one line each."""
    write_jsonl(path, ({"epoch": s.epoch, "camera": s.camera_id, "direction": s.direction,
                        "points": [{"id": pid, "im": [im.x, im.y]} for pid, im in s.points]}
                       for s in snapshots))


def read_snapshots(path: str) -> list:
    """RediscoverySnapshot records in file order; point ids unique within a
    snapshot and epochs unique within a camera."""
    from .drift import RediscoverySnapshot
    from .geometry import ImagePoint

    out = []
    seen = set()
    for i, r in enumerate(read_jsonl(path), start=1):
        where = f"record {i}"
        _check(r, {"epoch": TIME, "camera": STR, "direction": STR,
                   "points": {"id": STR, "im": 2}}, path, where)
        ids = [p["id"] for p in r["points"]]
        if len(set(ids)) != len(ids):
            raise MalformedInput(f"{path}: {where}: repeated point id")
        if (r["camera"], r["epoch"]) in seen:
            raise MalformedInput(f"{path}: {where}: repeated epoch {r['epoch']!r} "
                                 f"for camera {r['camera']!r}")
        seen.add((r["camera"], r["epoch"]))
        out.append(RediscoverySnapshot(
            float(r["epoch"]), r["camera"], r["direction"],
            tuple((p["id"], ImagePoint(*map(float, p["im"]))) for p in r["points"])))
    return out


# --- image-to-image alignment maps ----------------------------------------------

def write_sift_maps(path: str, sift_maps: dict) -> None:
    """sift_maps: {camera: [(epoch, 3x3 image->image matrix)]}"""
    write_json(path, [{"camera": cid,
                       "maps": [{"epoch": e, "m": h_to_list(m)} for e, m in maps]}
                      for cid, maps in sorted(sift_maps.items())])


def read_sift_maps(path: str) -> dict:
    """{camera: [(epoch, 3x3 ndarray)]}; epochs unique within a camera and
    every map as well-conditioned as a Homography."""
    from .geometry import check_conditioned

    entries = read_json(path)
    if not isinstance(entries, list):
        raise MalformedInput(f"{path}: expected a JSON list")
    out = {}
    for i, r in enumerate(entries, start=1):
        where = f"entry {i}"
        _check(r, {"camera": STR, "maps": {"epoch": TIME, "m": MATRIX}}, path, where)
        if r["camera"] in out:
            raise MalformedInput(f"{path}: {where}: repeated camera {r['camera']!r}")
        maps = {}
        for j, m in enumerate(r["maps"], start=1):
            if m["epoch"] in maps:
                raise MalformedInput(f"{path}: {where}: map {j}: repeated epoch "
                                     f"{m['epoch']!r} for camera {r['camera']!r}")
            maps[m["epoch"]] = np.asarray(m["m"], dtype=float)
            try:
                check_conditioned(maps[m["epoch"]])
            except SingularFit as e:
                raise MalformedInput(f"{path}: {where}: map {j}: {e}") from e
        out[r["camera"]] = [(float(e), mat) for e, mat in maps.items()]
    return out


# --- detections / tracklets / trajectories ------------------------------------

def write_detections(path: str, detections) -> None:
    write_jsonl(path, ({"t": d.t, "camera": d.camera,
                        "box": [float(b) for b in d.box],
                        "class": d.cls, "conf": d.conf} for d in detections))


def read_detections(path: str) -> list:
    """tracking.Detection records in file order; `camera` and `class`
    default to ""."""
    from .tracking import Detection

    out = []
    for i, r in enumerate(_jsonl(path), start=1):
        _check(r, {"t": TIME, "box": BOX, "conf": NUM}, path, f"record {i}")
        out.append(Detection(float(r["t"]), r.get("camera", ""), tuple(map(float, r["box"])),
                             r.get("class", ""), float(r["conf"])))
    return out


def _write_states(path: str, series) -> None:
    """One {id, t, box} record per state of each (id, times, boxes)."""
    write_jsonl(path, ({"id": sid, "t": t, "box": box} for sid, times, boxes in series
                       for t, box in zip(np.asarray(times, dtype=float).tolist(),
                                         np.asarray(boxes, dtype=float).tolist())))


def write_tracklets(path: str, tracklets) -> None:
    """One row per state of a sequence of tracklets, plus a sidecar of
    per-tracklet median dimensions."""
    _write_states(path, ((tl.id, tl.times, tl.boxes) for tl in tracklets))
    write_json(_sidecar(path), {str(tl.id): [float(v) for v in tl.median_dims]
                                for tl in tracklets})


def _sidecar(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".dims.json"


def _read_states(path: str, int_ids: bool):
    """(id, t, (N,5) boxes) per id, in id order, from {id, t, box} records,
    with `t` a TIME unique within its id and `box` a BOX.  Ids must be JSON
    integers when `int_ids`, and are taken as strings otherwise."""
    ids, t, box = [], array("d"), array("d")
    for i, r in enumerate(_jsonl(path), start=1):
        _check(r, {"id": ANY, "t": TIME, "box": BOX}, path, f"record {i}")
        sid = r["id"]
        if not int_ids:
            sid = str(sid)
        elif type(sid) is not int:
            raise MalformedInput(f"{path}: record {i}: id must be an integer, got {sid!r}")
        ids.append(sid)
        t.append(r["t"])
        box.extend(r["box"])
    t, box = np.frombuffer(t), np.frombuffer(box).reshape(-1, 5)
    return [(sid, t[k], box[k]) for sid, k in _series(ids, t, path, "record", "id", 1)]


def read_tracklets(path: str):
    from .tracking import Tracklet

    dims_path = _sidecar(path)
    dims = read_json(dims_path) if os.path.exists(dims_path) else {}
    if not isinstance(dims, dict):
        raise MalformedInput(f"{dims_path}: expected a JSON object")
    for tid, d in dims.items():
        _check({"dims": d}, {"dims": DIMS}, dims_path, f"id {tid}")
    out = []
    for tid, t, boxes in _read_states(path, int_ids=True):
        boxes = list(map(tuple, boxes.tolist()))
        d = dims.get(str(tid))
        out.append(Tracklet(tid, t.tolist(), boxes, [tuple(d)] if d else [boxes[0][2:5]]))
    return out


def write_gt_tracks(path: str, tracks) -> None:
    """tracks: objects with vehicle_id, times, x, y, dims."""
    _write_states(path, ((tr.vehicle_id, tr.times,
                          np.column_stack([tr.x, tr.y, np.tile(tr.dims, (len(tr.x), 1))]))
                         for tr in tracks))


def read_gt_series(path: str):
    from .moteval import TrajectorySeries

    return [TrajectorySeries(*states) for states in _read_states(path, int_ids=False)]


# --- GPS & annotations ---------------------------------------------------------

def write_gps(path: str, traces) -> None:
    # str() of a Python float is fmt's repr, so the cells need no fmt
    _write_rows(path, ("vehicle_id", "t", "x", "y"), itertools.chain.from_iterable(
        zip(itertools.repeat(tr.vehicle_id), tr.times.tolist(), tr.x.tolist(), tr.y.tolist())
        for tr in traces))


def _vehicle_rows(path: str, header: list, max_t: float = MAX_DURATION_S):
    """(line number, row, t, x, y) per row of a CSV whose header starts with
    `header` (vehicle_id, t, x, y, ...), read one row at a time; t, x and y
    must be finite numbers, and |t| at most max_t.  A row holding a line
    break (in a quoted cell) is refused, so row k is always line k + 1."""
    with open(path, newline="") as f:
        rows = csv.reader(f)
        head = next(rows, None)
        if head is None:
            raise MalformedInput(f"{path}: empty CSV")
        if head[:len(header)] != header or rows.line_num != 1:
            raise MalformedInput(f"{path}: unexpected header {head}")
        for i, row in enumerate(rows, start=2):
            if rows.line_num != i:
                raise MalformedInput(f"{path}: line {i}: a cell holds a line break, got {row}")
            try:
                t, x, y = float(row[1]), float(row[2]), float(row[3])
            except (ValueError, IndexError) as e:
                raise MalformedInput(f"{path}: line {i}: {e}") from e
            if not all(map(math.isfinite, (t, x, y))):
                raise MalformedInput(f"{path}: line {i}: t, x and y must be finite, "
                                     f"got {row[1:4]}")
            if abs(t) > max_t:
                raise MalformedInput(f"{path}: line {i}: t must be in [-{max_t}, {max_t}] s, "
                                     f"got {row[1]}")
            yield i, row, t, x, y


def read_gps(path: str):
    from .gps import OFFSET_RANGE_S, GpsTrace

    ids, txy = [], array("d")
    # scene time plus a receiver clock offset of at most OFFSET_RANGE_S
    for _, row, *sample in _vehicle_rows(path, ["vehicle_id", "t", "x", "y"],
                                         MAX_DURATION_S + OFFSET_RANGE_S):
        ids.append(row[0])
        txy.extend(sample)
    t, x, y = np.frombuffer(txy).reshape(-1, 3).T
    return [GpsTrace(vid, t[k], x[k], y[k])
            for vid, k in _series(ids, t, path, "line", "vehicle", 2)]


def write_annotations(path: str, annotations) -> None:
    rows = [(a.vehicle_id, a.epoch, a.x, a.y, a.pole) for a in annotations]
    write_csv(path, ("vehicle_id", "t", "x", "y", "pole"), rows)


def read_annotations(path: str):
    from .gps import PoleAnnotation

    out = []
    for i, row, t, x, y in _vehicle_rows(path, ["vehicle_id", "t", "x", "y", "pole"]):
        try:
            out.append(PoleAnnotation(row[0], t, x, y, int(row[4])))
        except (ValueError, IndexError) as e:
            raise MalformedInput(f"{path}: line {i}: {e}") from e
    return out


# --- report inputs ---------------------------------------------------------------

def _finite_cell(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def read_drift(path: str) -> dict:
    """{method: (epochs, FullDrift values)} from restim's drift.csv, one entry
    per `fd_*` column with a value, sorted by epoch.  `epoch` and every
    non-empty `fd_*` cell must be a finite number; an empty cell (a camera
    without a baseline) is skipped."""
    header, rows = read_csv(path)
    if "epoch" not in header:
        raise MalformedInput(f"{path}: no epoch column in header {header}")
    e = header.index("epoch")
    methods = [(c[3:], j) for j, c in enumerate(header) if c.startswith("fd_")]
    pts = {m: [] for m, _ in methods}
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedInput(f"{path}: line {i}: expected {len(header)} cells, "
                                 f"got {len(row)}")
        if not (_finite_cell(row[e])
                and all(row[j] == "" or _finite_cell(row[j]) for _, j in methods)):
            raise MalformedInput(f"{path}: line {i}: epoch and the non-empty fd_* "
                                 f"cells must be finite numbers, got {row}")
        epoch = float(row[e])
        for m, j in methods:
            if row[j] != "":
                pts[m].append((epoch, float(row[j])))
    out = {}
    for m, items in pts.items():
        if items:
            items.sort()
            out[m] = (np.array([t for t, _ in items]), np.array([v for _, v in items]))
    return out


def read_eval_summary(path: str) -> dict:
    """{column: value} for the EvalReport.COLUMNS present in eval's
    report.json; each must be a finite number."""
    from .moteval import EvalReport

    rep = read_json(path)
    if not isinstance(rep, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    out = {c: rep[c] for c in EvalReport.COLUMNS if c in rep}
    _check(out, dict.fromkeys(out, NUM), path, "summary")
    return out


# --- scene config and pipeline manifest -----------------------------------------

def _json_int(v) -> bool:
    """A JSON integer (not a bool) within numpy's int64 range."""
    return type(v) is int and -2 ** 63 <= v < 2 ** 63


def _config_fields(cls, d, name: str) -> dict:
    """`d`'s fields of dataclass `cls`, each of its default's JSON type: a
    float default takes a finite number, an int default an integer, the None
    default of `pole_outage` an integer or null, and a str default a string.
    Fields without a plain default (the nested sections) are left to the
    caller."""
    if not isinstance(d, dict):
        raise ConfigInvalid(f"{name} must be a JSON object, got {d!r}")
    fields = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigInvalid(f"unknown {name} fields {sorted(unknown)}")
    for key, v in d.items():
        default = fields[key]
        if default is dataclasses.MISSING:
            continue
        if type(default) is float:
            ok, want = _finite_numbers((v,)), "a finite number"
        elif type(default) is int:
            ok, want = _json_int(v), "an integer"
        elif default is None:
            ok, want = v is None or _json_int(v), "an integer or null"
        else:
            ok, want = type(v) is type(default), f"of type {type(default).__name__}"
        if not ok:
            raise ConfigInvalid(f"{name} field {key} must be {want}, got {v!r}")
    return dict(d)


def scene_config_from_dict(d):
    """A SceneConfig from its JSON form; ConfigInvalid names the bad field."""
    from .simulator import (DetectionConfig, DriftConfig, GpsConfig, RoadConfig,
                            SceneConfig)

    kwargs = _config_fields(SceneConfig, d, "config")
    for key, cls in (("road", RoadConfig), ("drift", DriftConfig),
                     ("detection", DetectionConfig), ("gps", GpsConfig)):
        if key in kwargs:
            kwargs[key] = cls(**_config_fields(cls, kwargs[key], f"{key} config"))
    return SceneConfig(**kwargs)


def read_scene_config(path: str):
    """A validated SceneConfig from a scene config file."""
    try:
        cfg = scene_config_from_dict(read_json(path))
        cfg.validate()
        return cfg
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def read_manifest(path: str) -> dict:
    """The pipeline manifest, a JSON object whose optional fields are
    `stages` (a list of `cli.STAGES` names), `track` (an object whose
    optional `algo` names a tracker), `seed` (a non-negative integer),
    `scene` (a valid scene config) and `out` (a string)."""
    from .cli import STAGES
    from .tracking import TRACKER_NAMES

    m = read_json(path)
    if not isinstance(m, dict):
        raise MalformedInput(f"{path}: expected a JSON object")
    for key, kind, want in (("stages", list, "a list"), ("track", dict, "an object"),
                            ("scene", dict, "an object"), ("out", str, "a string")):
        if key in m and not isinstance(m[key], kind):
            raise MalformedInput(f"{path}: {key} must be {want}, got {m[key]!r}")
    if "seed" in m and not (_json_int(m["seed"]) and m["seed"] >= 0):
        raise MalformedInput(f"{path}: seed must be a non-negative integer, "
                             f"got {m['seed']!r}")
    for stage in m.get("stages", ()):
        if not isinstance(stage, str) or stage not in STAGES:
            raise MalformedInput(f"{path}: unknown stage {stage!r}")
    if m.get("track", {}).get("algo", "sort") not in TRACKER_NAMES:
        raise MalformedInput(f"{path}: track algo must be one of {TRACKER_NAMES}, "
                             f"got {m['track']['algo']!r}")
    if "scene" in m:
        try:
            scene_config_from_dict(m["scene"]).validate()
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{path}: scene: {exc}") from exc
    return m
