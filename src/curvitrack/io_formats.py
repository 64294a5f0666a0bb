"""On-disk formats: JSON-lines streams, CSV tables, JSON documents.

All writers are atomic (temp file in the destination directory, then
rename), so a crashed run never leaves a half-written artifact.  Readers
raise MalformedInput naming the file and the offending record.

The rule of each JSON field kind (NUM, TIME, BOX, DIMS, MATRIX, a list of
n numbers, STR, INT, ANY, a nested table) is written once, in _column,
which tests a list of values at a time.  Every JSON-record reader checks
its records a chunk at a time through _checked; _check, deciding each
field by _column, only names the record and field that fail.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import numbers
import os
import tempfile
from array import array

import numpy as np

from .errors import ConfigInvalid, CurvitrackError, DataInvariantViolation, SingularFit

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


def atomic_write(path: str, text) -> None:
    """Write `text`, a string or an iterable of strings written as they
    come, to `path`; an error, one raised by the iterable included, leaves
    `path` as it was."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines([text] if isinstance(text, str) else text)
        # mkstemp creates 0600; give the artifact the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path: str, records) -> None:
    atomic_write(path, (json.dumps(r) + "\n" for r in records))


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


def write_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=1) + "\n")


def read_json(path: str):
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise MalformedInput(f"{path}: {e}") from e


def _read_document(path: str, kind: type):
    """read_json's document, refused unless it is a JSON list or object,
    as `kind` says."""
    doc = read_json(path)
    if not isinstance(doc, kind):
        raise MalformedInput(f"{path}: expected a JSON {'list' if kind is list else 'object'}")
    return doc


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


# Field kinds of a _check table; an int n stands for a list of n finite
# numbers and a nested table for a list of sub-records.
ANY, STR, INT, NUM = "any value", "a string", "an integer", "a finite number"
TIME = f"a finite number of seconds in [-{MAX_DURATION_S}, {MAX_DURATION_S}]"
MATRIX = "a 3x3 list of finite numbers"
BOX = "a list of 5 finite numbers x, y, l, w, h with l, w, h >= 0"
DIMS = "a list of 3 finite numbers l, w, h >= 0"

_NUMBER_TYPES = {int, float}
_SHAPES = {NUM: (), TIME: (), BOX: (5,), DIMS: (3,), MATRIX: (3, 3)}


def _column(values: list, kind):
    """`values` as a column when each is of `kind`, else None: the one test
    of each kind.  A kind of numbers gives a float array, one row per value
    ((n,5) for a BOX); STR, INT, ANY and a nested table give `values`."""
    if kind is STR or kind is INT:
        want = str if kind is STR else int
        return values if all(type(v) is want for v in values) else None
    if kind is ANY:
        return values
    if type(kind) is dict:
        ok = all(type(v) is list for v in values) and \
            _columns(list(itertools.chain.from_iterable(values)), kind) is not None
        return values if ok else None
    shape = (kind,) if type(kind) is int else _SHAPES[kind]
    flat = values
    for n in shape:
        if not all(type(v) is list and len(v) == n for v in flat):
            return None
        flat = list(itertools.chain.from_iterable(flat))
    if not _NUMBER_TYPES.issuperset(map(type, flat)):
        return None
    try:
        a = np.array(flat, dtype=float).reshape(-1, *shape)
    except OverflowError:   # an int beyond the float range
        return None
    if not np.isfinite(a).all():
        return None
    if kind is TIME and not (np.abs(a) <= MAX_DURATION_S).all():
        return None
    if (kind is BOX or kind is DIMS) and not (a[:, -3:] >= 0).all():
        return None
    return a


def _columns(records: list, fields: dict, defaults=None):
    """{key: _column} of a list of records when every record is a JSON
    object holding each key of `fields` (or of `defaults`, which fill it
    in) of its kind; else None."""
    defaults = defaults or {}
    if not all(type(r) is dict for r in records):
        return None
    try:
        cols = {k: [r.get(k, defaults[k]) for r in records] if k in defaults
                else [r[k] for r in records] for k in fields}
    except KeyError:
        return None
    for key, kind in fields.items():
        cols[key] = _column(cols[key], kind)
        if cols[key] is None:
            return None
    return cols


def _check(record, fields: dict, path: str, where: str) -> None:
    """Refuse a record that is not a JSON object, lacks a key of `fields`, or
    holds a field that _column finds not of its kind, naming the file,
    `where` and the field."""
    if not isinstance(record, dict):
        raise MalformedInput(f"{path}: {where}: expected a JSON object")
    if not record.keys() >= fields.keys():
        missing = [k for k in fields if k not in record]
        raise MalformedInput(f"{path}: {where}: missing fields {missing}")
    for key, kind in fields.items():
        v = record[key]
        if _column([v], kind) is None:
            if type(kind) is dict and type(v) is list:
                for sub in v:
                    _check(sub, kind, path, where)
            want = {int: f"a list of {kind} finite numbers",
                    dict: "a list"}.get(type(kind), kind)
            raise MalformedInput(f"{path}: {where}: {key} must be {want}, got {v!r}")


# Records are checked _CHUNK at a time, a column at once, as one pass of
# _check over each record would check them, and detections are written
# _CHUNK rows at a time.  A chunk's records are held as parsed objects at
# once: enough of them to make the per-chunk numpy calls cheap, few enough
# that they stay small beside the columns read.
_CHUNK = 250


def _chunks(records):
    """(records, error) per run of up to _CHUNK of `records`; `error` is the
    MalformedInput of a line that is not JSON, which ends the last run, to
    be raised once the records before it pass."""
    chunk = []
    try:
        for r in records:
            chunk.append(r)
            if len(chunk) == _CHUNK:
                yield chunk, None
                chunk = []
    except MalformedInput as e:
        yield chunk, e
        return
    yield chunk, None


def _checked(records, path: str, label: str, *tables: dict, defaults=None):
    """(number of its first record, records, {key: _column}) per run of
    `records`, each record checked against `tables` in turn with `defaults`
    filling in absent keys; the last table naming a key gives its column
    kind, so a later table may only narrow it.  A run that passes the column
    check comes whole; one that fails comes a record at a time, each after
    its own _check, so a caller's rules on the records before a bad one
    speak first and the message is the one _check writes."""
    fields = {k: kind for table in tables for k, kind in table.items()}
    n = 0
    for chunk, error in _chunks(records):
        cols = _columns(chunk, fields, defaults)
        if cols is not None:
            yield n + 1, chunk, cols
        else:
            for i, r in enumerate(chunk, start=n + 1):
                for table in tables:
                    _check({**defaults, **r} if defaults and isinstance(r, dict) else r,
                           table, path, f"{label} {i}")
                yield i, [r], _columns([r], fields, defaults)
        n += len(chunk)
        if error:
            raise error


def _read_columns(path: str, *tables: dict, defaults=None) -> dict:
    """{key: column} of the records of a JSON-lines file, checked by
    _checked: a float array per field of numbers ((N,5) for a BOX), a
    (table of distinct strings, (N,) codes into it) per STR field, a list
    per other field."""
    fields = {k: kind for table in tables for k, kind in table.items()}
    codes = {k: {} for k, kind in fields.items() if kind is STR}
    out = {k: [] if kind is INT or kind is ANY else array("i" if k in codes else "d")
           for k, kind in fields.items()}
    for _, _, cols in _checked(_jsonl(path), path, "record", *tables, defaults=defaults):
        for k, v in cols.items():
            if k in codes:
                out[k].extend([codes[k].setdefault(s, len(codes[k])) for s in v])
            elif isinstance(v, np.ndarray):
                out[k].frombytes(v.tobytes())
            else:
                out[k].extend(v)
    for k, kind in fields.items():
        if k in codes:
            out[k] = tuple(codes[k]), np.frombuffer(out[k], dtype=np.intc)
        elif kind is not INT and kind is not ANY:
            out[k] = np.frombuffer(out[k]).reshape((-1, 5) if kind is BOX else -1)
    return out


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
    """{camera: (direction, PointSet)}, points in file order; a file without
    a record is refused."""
    from .geometry import CorrespondencePoint, ImagePoint, PointSet, StatePlanePoint

    cameras: dict = {}
    seen = set()
    for first, chunk, _ in _checked(_jsonl(path), path, "record", {
            "id": STR, "camera": STR, "direction": STR, "im": 2, "st": 2}):
        for i, r in enumerate(chunk, start=first):
            direction, points = cameras.setdefault(r["camera"], (r["direction"], []))
            if r["direction"] != direction:
                raise MalformedInput(f"{path}: record {i}: camera {r['camera']!r} is listed "
                                     f"under both {direction!r} and {r['direction']!r}")
            if (r["camera"], r["id"]) in seen:
                raise MalformedInput(f"{path}: record {i}: repeated id {r['id']!r} "
                                     f"for camera {r['camera']!r}")
            seen.add((r["camera"], r["id"]))
            points.append(CorrespondencePoint(r["id"], ImagePoint(*map(float, r["im"])),
                                              StatePlanePoint(*map(float, r["st"]), 0.0)))
    if not cameras:
        raise MalformedInput(f"{path}: no correspondence points")
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

    out = {}
    for first, chunk, c in _checked(_read_document(path, list), path, "entry",
                                    {"camera": STR, "direction": STR, "h": MATRIX},
                                    defaults={"direction": "EB"}):
        for i, cam, direction, h in zip(itertools.count(first), c["camera"],
                                        c["direction"], c["h"]):
            if cam in out:
                raise MalformedInput(f"{path}: entry {i}: repeated camera {cam!r}")
            try:
                out[cam] = Homography(h, cam, direction)
            except SingularFit as e:
                raise MalformedInput(f"{path}: entry {i}: {e}") from e
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
    for first, chunk, _ in _checked(_jsonl(path), path, "record", {
            "epoch": TIME, "camera": STR, "direction": STR, "points": {"id": STR, "im": 2}}):
        for i, r in enumerate(chunk, start=first):
            ids = [p["id"] for p in r["points"]]
            if len(set(ids)) != len(ids):
                raise MalformedInput(f"{path}: record {i}: repeated point id")
            if (r["camera"], r["epoch"]) in seen:
                raise MalformedInput(f"{path}: record {i}: repeated epoch {r['epoch']!r} "
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

    out = {}
    for first, chunk, c in _checked(_read_document(path, list), path, "entry",
                                    {"camera": STR, "maps": {"epoch": TIME, "m": MATRIX}}):
        for i, cam, listed in zip(itertools.count(first), c["camera"], c["maps"]):
            if cam in out:
                raise MalformedInput(f"{path}: entry {i}: repeated camera {cam!r}")
            maps = {}
            for j, m in enumerate(listed, start=1):
                if m["epoch"] in maps:
                    raise MalformedInput(f"{path}: entry {i}: map {j}: repeated epoch "
                                         f"{m['epoch']!r} for camera {cam!r}")
                maps[m["epoch"]] = np.asarray(m["m"], dtype=float)
                try:
                    check_conditioned(maps[m["epoch"]])
                except SingularFit as e:
                    raise MalformedInput(f"{path}: entry {i}: map {j}: {e}") from e
            out[cam] = [(float(e), mat) for e, mat in maps.items()]
    return out


# --- detections / tracklets / trajectories ------------------------------------

# Detection and state rows are f-strings: !r prints a float as json.dumps does,
# other values go in as their json.dumps text.  A non-finite float would print
# as nan or inf, which no JSON reader takes, so the writers refuse it.

def write_detections(path: str, detections) -> None:
    """One record per row of `tracking.Detections.of(detections)`; a
    non-finite t, box entry or conf is refused, naming its record."""
    from .tracking import Detections

    d = Detections.of(detections)
    bad = np.flatnonzero(~(np.isfinite(d.t) & np.isfinite(d.box).all(axis=1)
                           & np.isfinite(d.conf)))
    if len(bad):
        raise DataInvariantViolation(f"{path}: record {bad[0] + 1}: t, box and conf "
                                     f"must be finite, got {d[bad[0]]}")
    cameras, classes = [json.dumps(s) for s in d.cameras], [json.dumps(s) for s in d.classes]
    columns = (d.t, d.camera, *d.box.T, d.cls, d.conf)

    def rows():     # _CHUNK rows at a time
        for i in range(0, len(d), _CHUNK):
            yield "".join([
                f'{{"t": {t!r}, "camera": {cameras[c]}, "box": [{x!r}, {y!r}, {l!r}, {w!r}, '
                f'{h!r}], "class": {classes[k]}, "conf": {conf!r}}}\n'
                for t, c, x, y, l, w, h, k, conf in zip(*(a[i:i + _CHUNK].tolist()
                                                          for a in columns))])

    atomic_write(path, rows())


_DETECTION = {"t": TIME, "box": BOX, "conf": NUM, "camera": STR, "class": STR}
_DETECTION_DEFAULTS = {"camera": "", "class": ""}


def read_detections(path: str):
    """tracking.Detections in file order; `camera` and `class` default to ""."""
    from .tracking import Detections

    c = _read_columns(path, _DETECTION, defaults=_DETECTION_DEFAULTS)
    (cameras, camera), (classes, cls) = c["camera"], c["class"]
    return Detections(c["t"], c["box"], c["conf"], camera, cls, cameras, classes)


def _write_states(path: str, series) -> None:
    """One {id, t, box} record per state of each (id, times, boxes); a
    non-finite t or box entry is refused, naming its record."""
    def rows():     # one string per id, written as it comes
        n = 0
        for sid, times, boxes in series:
            times, boxes = np.asarray(times, dtype=float), np.asarray(boxes, dtype=float)
            bad = np.flatnonzero(~np.isfinite(np.column_stack([times, boxes])).all(axis=1))
            if len(bad):
                raise DataInvariantViolation(
                    f"{path}: record {n + bad[0] + 1}: id {sid!r}: t and box must be finite, "
                    f"got t {times[bad[0]].item()!r}, box {boxes[bad[0]].tolist()}")
            q = json.dumps(sid)
            yield "".join([
                f'{{"id": {q}, "t": {t!r}, "box": [{x!r}, {y!r}, {l!r}, {w!r}, {h!r}]}}\n'
                for t, x, y, l, w, h in zip(times.tolist(), *boxes.T.tolist())])
            n += len(times)

    atomic_write(path, rows())


def write_tracklets(path: str, tracklets) -> None:
    """One row per state of a sequence of tracklets, plus a sidecar of
    per-tracklet median dimensions."""
    _write_states(path, ((tl.id, tl.times, tl.boxes) for tl in tracklets))
    write_json(_sidecar(path), {str(tl.id): [float(v) for v in tl.dims] for tl in tracklets})


def _sidecar(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".dims.json"


def _read_states(path: str, int_ids: bool):
    """(id, t, (N,5) boxes) per id, in id order, from {id, t, box} records,
    with `t` a TIME unique within its id and `box` a BOX.  Ids must be JSON
    integers when `int_ids`, and are taken as strings otherwise."""
    # the integer-id rule is a second table, so a bad t or box is named first
    c = _read_columns(path, {"id": ANY, "t": TIME, "box": BOX},
                      *([{"id": INT}] if int_ids else []))
    ids = c["id"] if int_ids else list(map(str, c["id"]))
    t, box = c["t"], c["box"]
    return [(sid, t[k], box[k]) for sid, k in _series(ids, t, path, "record", "id", 1)]


def read_tracklets(path: str):
    """Tracklets in id order.  The sidecar, when there is one, must hold the
    dims of exactly the tracklet ids; without it, a tracklet's dims are the
    l, w, h of its first state."""
    from .tracking import Tracklet

    dims_path = _sidecar(path)
    dims = _read_document(dims_path, dict) if os.path.exists(dims_path) else None
    for tid, d in (dims or {}).items():
        _check({"dims": d}, {"dims": DIMS}, dims_path, f"id {tid}")
    states = _read_states(path, int_ids=True)
    if dims is None:
        return [Tracklet(tid, t, boxes, boxes[0, 2:5]) for tid, t, boxes in states]
    ids = [str(tid) for tid, _, _ in states]
    bad = [k for k in ids if k not in dims] + sorted(dims.keys() - set(ids))
    if bad:
        raise MalformedInput(f"{dims_path}: id {bad[0]}: the ids must be exactly "
                             f"those of the tracklets in {path}")
    return [Tracklet(tid, t, boxes, np.array(dims[k], dtype=float))
            for k, (tid, t, boxes) in zip(ids, states)]


def write_gt_tracks(path: str, tracks) -> None:
    """tracks: records with vehicle_id, times and (N,5) boxes, such as
    simulator.VehicleTrack."""
    _write_states(path, ((tr.vehicle_id, tr.times, tr.boxes) for tr in tracks))


def read_gt_series(path: str):
    """TrajectorySeries in id order; a file without a record is refused."""
    from .moteval import TrajectorySeries

    series = [TrajectorySeries(*states) for states in _read_states(path, int_ids=False)]
    if not series:
        raise MalformedInput(f"{path}: no ground-truth records")
    return series


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

    rep = _read_document(path, dict)
    out = {c: rep[c] for c in EvalReport.COLUMNS if c in rep}
    _check(out, dict.fromkeys(out, NUM), path, "summary")
    return out


# --- scene config and pipeline manifest -----------------------------------------

def _int64(v) -> bool:
    """An integer (not a bool) within numpy's int64 range."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and -2 ** 63 <= v < 2 ** 63


def _config_from_dict(cls, d, name: str):
    """Config dataclass `cls` from its JSON object, each nested object made
    the section of its field; ConfigInvalid names an unknown field."""
    if not isinstance(d, dict):
        raise ConfigInvalid(f"{name} must be a JSON object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ConfigInvalid(f"unknown {name} fields {sorted(unknown)}")
    return cls(**{key: v if fields[key].default is not dataclasses.MISSING
                  else _config_from_dict(fields[key].default_factory, v, f"{key} config")
                  for key, v in d.items()})


def scene_config_from_dict(d):
    """A validated SceneConfig from its JSON form."""
    from .simulator import SceneConfig

    cfg = _config_from_dict(SceneConfig, d, "config")
    cfg.validate()
    return cfg


def read_scene_config(path: str):
    """A validated SceneConfig from a scene config file."""
    try:
        return scene_config_from_dict(read_json(path))
    except ConfigInvalid as exc:
        raise ConfigInvalid(f"{path}: {exc}") from exc


def read_manifest(path: str, stages) -> dict:
    """The pipeline manifest, a JSON object whose optional fields are
    `stages` (a list of names in `stages`), `track` (an object whose
    optional `algo` names a tracker), `seed` (a non-negative integer),
    `scene` (a valid scene config) and `out` (a string)."""
    from .tracking import TRACKER_NAMES

    m = _read_document(path, dict)
    for key, kind, want in (("stages", list, "a list"), ("track", dict, "an object"),
                            ("scene", dict, "an object"), ("out", str, "a string")):
        if key in m and not isinstance(m[key], kind):
            raise MalformedInput(f"{path}: {key} must be {want}, got {m[key]!r}")
    if "seed" in m and not (_int64(m["seed"]) and m["seed"] >= 0):
        raise MalformedInput(f"{path}: seed must be a non-negative integer, "
                             f"got {m['seed']!r}")
    for stage in m.get("stages", ()):
        if not isinstance(stage, str) or stage not in stages:
            raise MalformedInput(f"{path}: unknown stage {stage!r}")
    if m.get("track", {}).get("algo", "sort") not in TRACKER_NAMES:
        raise MalformedInput(f"{path}: track algo must be one of {TRACKER_NAMES}, "
                             f"got {m['track']['algo']!r}")
    if "scene" in m:
        try:
            scene_config_from_dict(m["scene"])
        except ConfigInvalid as exc:
            raise ConfigInvalid(f"{path}: scene: {exc}") from exc
    return m
