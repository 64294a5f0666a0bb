import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from curvitrack import cli, io_formats as iof
from curvitrack.errors import DataInvariantViolation
from curvitrack.simulator import SceneConfig, simulate
from curvitrack.io_formats import MAX_DURATION_S
from curvitrack.tracking import Tracklet

HERE = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture(scope="module")
def scene():
    return simulate(SceneConfig(extent_ft=1500.0, vehicle_count=5, duration_s=20.0,
                                snapshot_interval_s=5.0, seed=3))


# ---------------------------------------------------------------------------
# typed round trips on a simulated scene

def test_points_round_trip(tmp_path, scene):
    p = str(tmp_path / "points.jsonl")
    iof.write_points(p, scene.cameras)
    assert iof.read_points(p) == {c.camera_id: (c.direction, c.points)
                                  for c in scene.cameras}


def test_snapshots_round_trip(tmp_path, scene):
    p = str(tmp_path / "snapshots.jsonl")
    iof.write_snapshots(p, scene.snapshots)
    assert iof.read_snapshots(p) == scene.snapshots


def test_sift_maps_round_trip(tmp_path, scene):
    p = str(tmp_path / "sift_maps.json")
    iof.write_sift_maps(p, scene.sift_maps)
    back = iof.read_sift_maps(p)
    assert sorted(back) == sorted(scene.sift_maps)
    for cam, maps in scene.sift_maps.items():
        assert [e for e, _ in back[cam]] == [e for e, _ in maps]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(back[cam], maps))


def test_homographies_round_trip(tmp_path, scene):
    p = str(tmp_path / "reference.json")
    iof.write_homographies(p, [c.reference for c in scene.cameras])
    back = iof.read_homographies(p)
    assert sorted(back) == sorted(c.camera_id for c in scene.cameras)
    for c in scene.cameras:
        assert back[c.camera_id].direction == c.direction
        assert np.array_equal(back[c.camera_id].h, c.reference.h)


def test_detections_and_annotations_round_trip(tmp_path, scene):
    dets, anns = str(tmp_path / "detections.jsonl"), str(tmp_path / "annotations.csv")
    iof.write_detections(dets, scene.detections)
    iof.write_annotations(anns, scene.annotations)
    assert iof.read_detections(dets) == scene.detections
    assert iof.read_annotations(anns) == scene.annotations


def test_row_templates_write_what_json_dumps_writes(tmp_path, scene):
    odd = ["V\"1", "caf\u00e9", "100%s", "nan-cam"]
    dets = [dataclasses.replace(d, camera=odd[i % 4], cls=odd[(i + 1) % 4])
            for i, d in enumerate(scene.detections[:40])]
    path = tmp_path / "detections.jsonl"
    iof.write_detections(str(path), dets)
    assert path.read_text() == "".join(json.dumps(
        {"t": d.t, "camera": d.camera, "box": list(d.box), "class": d.cls, "conf": d.conf})
        + "\n" for d in dets)
    tracks = [dataclasses.replace(tr, vehicle_id=odd[i % 4])
              for i, tr in enumerate(scene.ground_truth.trajectories)]
    iof.write_gt_tracks(str(path), tracks)
    assert path.read_text() == "".join(
        json.dumps({"id": tr.vehicle_id, "t": t, "box": box}) + "\n"
        for tr in tracks for t, box in zip(tr.times.tolist(), tr.boxes.tolist()))


@pytest.mark.parametrize("field", ["t", "box", "conf"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_detections_writer_refuses_a_non_finite_number(tmp_path, scene, field, bad):
    dets = list(scene.detections[:5])
    d = dets[3]
    dets[3] = dataclasses.replace(d, **{field: (d.box[0], bad) + d.box[2:] if field == "box"
                                        else bad})
    path = tmp_path / "detections.jsonl"
    with pytest.raises(DataInvariantViolation, match=r"detections\.jsonl: record 4: "):
        iof.write_detections(str(path), dets)
    assert not path.exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_state_writers_refuse_a_non_finite_number(tmp_path, scene, bad):
    tracks = scene.ground_truth.trajectories[:2]
    n = len(tracks[0].times)
    tracks[1] = dataclasses.replace(tracks[1], y=tracks[1].y.copy())
    tracks[1].y[2] = bad
    gt = tmp_path / "gt_tracks.jsonl"
    with pytest.raises(DataInvariantViolation, match=rf"gt_tracks\.jsonl: record {n + 3}: "):
        iof.write_gt_tracks(str(gt), tracks)
    times = np.array([0.0, 0.1, bad])
    tls = [Tracklet(0, times[:2], np.tile(BOX, (2, 1)), np.array(BOX[2:])),
           Tracklet(1, times, np.tile(BOX, (3, 1)), np.array(BOX[2:]))]
    out = tmp_path / "tracks.jsonl"
    with pytest.raises(DataInvariantViolation, match=r"tracks\.jsonl: record 5: "):
        iof.write_tracklets(str(out), tls)
    assert not gt.exists() and not out.exists()


def test_default_scene_config_round_trips_through_json():
    """Every default passes the config type check, so a new field whose
    default JSON cannot carry, or the check refuses, fails here."""
    doc = json.loads(json.dumps(dataclasses.asdict(SceneConfig())))
    assert iof.scene_config_from_dict(doc) == SceneConfig()


# ---------------------------------------------------------------------------
# per-id time series: ids in sorted order, samples in time order

BOX = [100.0, 6.0, 16.0, 6.0, 5.0]


def _states(tmp_path, records):
    path = tmp_path / "states.jsonl"
    path.write_text("".join(json.dumps({"id": i, "t": t, "box": BOX}) + "\n"
                            for i, t in records))
    return str(path)


def _gps(tmp_path, rows):
    path = tmp_path / "gps.csv"
    path.write_text("vehicle_id,t,x,y\n" + "".join(f"{v},{t},1.0,0.0\n" for v, t in rows))
    return str(path)


def test_track_ids_read_back_in_numeric_order(tmp_path):
    path = _states(tmp_path, [(10, 0.0), (9, 0.0), (2 ** 70, 0.0)])
    assert [tl.id for tl in iof.read_tracklets(path)] == [9, 10, 2 ** 70]


def test_string_ids_read_back_in_string_order(tmp_path):
    path = _states(tmp_path, [("V9", 0.0), ("V10", 0.0)])
    assert [s.id for s in iof.read_gt_series(path)] == ["V10", "V9"]
    path = _gps(tmp_path, [("V9", 0.0), ("V10", 0.0)])
    assert [tr.vehicle_id for tr in iof.read_gps(path)] == ["V10", "V9"]


def test_interleaved_samples_read_back_in_time_order(tmp_path):
    records = [(1, 0.3), (2, 0.2), (1, 0.1), (2, 0.0), (1, 0.2)]
    a, b = iof.read_tracklets(_states(tmp_path, records))
    assert (a.id, a.times.tolist(), b.id, b.times.tolist()) == (1, [0.1, 0.2, 0.3], 2, [0.0, 0.2])
    a, b = iof.read_gt_series(_states(tmp_path, records))
    assert (a.times.tolist(), b.times.tolist()) == ([0.1, 0.2, 0.3], [0.0, 0.2])
    a, b = iof.read_gps(_gps(tmp_path, records))
    assert (a.times.tolist(), b.times.tolist()) == ([0.1, 0.2, 0.3], [0.0, 0.2])


def test_repeated_t_under_two_ids_names_the_later_record(tmp_path):
    # both ids repeat a t; the first id in sorted order is named
    records = [(2, 0.5), (1, 0.0), (2, 0.5), (1, 0.1), (1, 0.1)]
    with pytest.raises(iof.MalformedInput, match=r"record 5: repeated t 0\.1 for id 1$"):
        iof.read_tracklets(_states(tmp_path, records))
    with pytest.raises(iof.MalformedInput, match=r"line 6: repeated t 0\.1 for vehicle '1'$"):
        iof.read_gps(_gps(tmp_path, records))


# ---------------------------------------------------------------------------
# names the benchmark's tracer wraps

def test_traced_entry_points_exist():
    """perfbench/tracer.py wraps these attributes by name; a rename would
    otherwise fail only the traced benchmark run."""
    with open(os.path.join(HERE, os.pardir, "perfbench", "tracer.py")) as f:
        tree = ast.parse(f.read())
    names = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("IO_READERS", "IO_WRITERS")}
    assert sorted(names) == ["IO_READERS", "IO_WRITERS"]
    for name in names["IO_READERS"] + names["IO_WRITERS"]:
        assert callable(getattr(iof, name, None)), name
    assert callable(cli.simulate) and callable(cli.fit_homography)


# ---------------------------------------------------------------------------
# one bad field in otherwise valid stage inputs never escapes as a traceback

DROP = object()
JSON_BAD = ["abc", True, None, [1.0], math.nan, math.inf, 10 ** 400, DROP]
CSV_BAD = ["abc", "true", "", "[1.0]", "nan", "inf", "1" + "0" * 400, DROP]

SMALL_SCENE = {"extent_ft": 500.0, "cameras_per_pole": 2, "vehicle_count": 3,
               "duration_s": 12.0, "snapshot_interval_s": 4.0}
STAGES = {
    "simulate": (["simulate", "--config", "scene.json", "--seed", "4", "--out", "sim"],
                 ["scene.json"]),
    "calibrate": (["calibrate", "--points", "points.jsonl", "--out", "fitted.json"],
                  ["points.jsonl"]),
    "restim": (["restim", "--points", "points.jsonl", "--reference", "reference.json",
                "--snapshots", "snapshots.jsonl", "--sift", "sift_maps.json",
                "--out", "restim_out"],
               ["points.jsonl", "reference.json", "snapshots.jsonl", "sift_maps.json"]),
    "track": (["track", "--detections", "detections.jsonl", "--algo", "kiou",
               "--out", "kiou.jsonl"], ["detections.jsonl"]),
    "oracle": (["track", "--detections", "detections.jsonl", "--algo", "oracle",
                "--gt", "gt_tracks.jsonl", "--out", "oracle.jsonl"],
               ["detections.jsonl", "gt_tracks.jsonl"]),
    "eval": (["eval", "--gt", "gt_tracks.jsonl", "--tracks", "tracks.jsonl",
              "--out", "report.json"],
             ["gt_tracks.jsonl", "tracks.jsonl", "tracks.dims.json"]),
    "gps-correct": (["gps-correct", "--gps", "gps.csv", "--annotations", "annotations.csv",
                     "--out", "gps"], ["gps.csv", "annotations.csv"]),
    "report": (["report", "--drift", "drift.csv", "--eval", "report.json",
                "--out", "report_out"], ["drift.csv", "report.json"]),
    # the manifest's relative `out` resolves inside the per-example directory
    "pipeline": (["pipeline", "--manifest", "manifest.json"], ["manifest.json"]),
}
CASES = [(stage, name) for stage, (_, names) in STAGES.items() for name in names]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Valid inputs of every stage on a one-pole, two-camera scene."""
    d = tmp_path_factory.mktemp("small_run")
    (d / "scene.json").write_text(json.dumps(SMALL_SCENE))
    (d / "manifest.json").write_text(json.dumps(
        {"out": "run", "seed": 4, "scene": SMALL_SCENE, "stages": ["simulate"],
         "track": {"algo": "kiou"}}))
    assert cli.main(["simulate", "--config", str(d / "scene.json"), "--seed", "4",
                     "--out", str(d)]) == 0
    assert cli.main(["track", "--detections", str(d / "detections.jsonl"), "--algo", "kiou",
                     "--out", str(d / "tracks.jsonl")]) == 0
    assert cli.main(["restim", "--points", str(d / "points.jsonl"),
                     "--reference", str(d / "reference.json"),
                     "--snapshots", str(d / "snapshots.jsonl"),
                     "--sift", str(d / "sift_maps.json"), "--out", str(d)]) == 0
    assert cli.main(["eval", "--gt", str(d / "gt_tracks.jsonl"),
                     "--tracks", str(d / "tracks.jsonl"),
                     "--out", str(d / "report.json")]) == 0
    return d


def _load(path):
    if path.endswith(".csv"):
        with open(path, newline="") as f:
            return list(csv.reader(f))
    if path.endswith(".jsonl"):
        return iof.read_jsonl(path)
    return iof.read_json(path)


def _dump(path, doc):
    if path.endswith(".csv"):
        text = "".join(",".join(row) + "\n" for row in doc)
    elif path.endswith(".jsonl"):
        text = "".join(json.dumps(r) + "\n" for r in doc)
    else:
        text = json.dumps(doc)
    with open(path, "w") as f:
        f.write(text)


def _slots(obj):
    """Every (container, key) pair at or below `obj`."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in list(items):
        yield obj, key
        yield from _slots(value)


@pytest.mark.parametrize("stage, name", CASES)
@settings(derandomize=True, database=None, max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_bad_field_never_escapes(small_run, stage, name, data):
    argv, inputs = STAGES[stage]
    with tempfile.TemporaryDirectory() as d:
        for fname in inputs:
            shutil.copy(small_run / fname, d)
        path = os.path.join(d, name)
        doc = _load(path)
        slots = [(row, j) for row in doc for j in range(len(row))] \
            if name.endswith(".csv") else list(_slots(doc))
        container, key = slots[data.draw(st.integers(0, len(slots) - 1), label="slot")]
        bad = data.draw(st.sampled_from(CSV_BAD if name.endswith(".csv") else JSON_BAD),
                        label="value")
        if bad is DROP:
            del container[key]
        else:
            container[key] = bad
        _dump(path, doc)
        err = io.StringIO()
        with contextlib.chdir(d), contextlib.redirect_stderr(err):
            rc = cli.main([os.path.join(d, a) if a in inputs or a == argv[-1] else a
                           for a in argv])
    assert rc in (0, 1, 2)
    if rc == 1:
        assert name in err.getvalue()


# ---------------------------------------------------------------------------
# the readers' column check refuses the record a per-record pass refuses

def reference_read_detections(path):
    """The per-record reader the column check replaced: one _check per
    record, then its camera and class, when present, as strings."""
    rows = []
    for i, r in enumerate(iof._jsonl(path), start=1):
        where = f"record {i}"
        iof._check(r, {"t": iof.TIME, "box": iof.BOX, "conf": iof.NUM}, path, where)
        named = {k: r[k] for k in ("camera", "class") if k in r}
        iof._check(named, dict.fromkeys(named, iof.STR), path, where)
        rows.append((float(r["t"]), list(map(float, r["box"])), float(r["conf"]),
                     r.get("camera", ""), r.get("class", "")))
    return rows


def reference_read_states(path, int_ids):
    """The per-record states reader the column check replaced."""
    ids, t, box = [], [], []
    for i, r in enumerate(iof._jsonl(path), start=1):
        iof._check(r, {"id": iof.ANY, "t": iof.TIME, "box": iof.BOX}, path, f"record {i}")
        sid = r["id"]
        if not int_ids:
            sid = str(sid)
        elif type(sid) is not int:
            raise iof.MalformedInput(f"{path}: record {i}: id must be an integer, got {sid!r}")
        ids.append(sid)
        t.append(float(r["t"]))
        box.append(list(map(float, r["box"])))
    t, box = np.array(t, dtype=float), np.array(box, dtype=float).reshape(-1, 5)
    return [(sid, t[k], box[k]) for sid, k in iof._series(ids, t, path, "record", "id", 1)]


def _valid_records(kind, n, rng):
    """n valid records of a detections or states file: ints among the
    floats, l, w, h of 0 and -0.0, camera and class absent or odd."""
    box = np.column_stack([rng.normal(0.0, 1e4, n), rng.normal(0.0, 30.0, n),
                           rng.uniform(0.0, 60.0, (n, 3))])
    box[:, 2:][rng.random((n, 3)) < 0.05] = 0.0
    box[:, 2:][rng.random((n, 3)) < 0.05] = -0.0
    box = box.tolist()
    for b in box:
        if rng.random() < 0.1:
            b[rng.integers(5)] = int(rng.integers(0, 60))
        if rng.random() < 0.01:
            b[0] = 2 ** 70
    if kind == "detections":
        t = rng.uniform(-MAX_DURATION_S, MAX_DURATION_S, n).tolist()
        names = ["P01C01", "café", "", 'q"uote', None]
        out = []
        for k in range(n):
            r = {"t": int(t[k]) if rng.random() < 0.1 else t[k], "box": box[k],
                 "conf": float(rng.uniform(-1.0, 2.0)) if rng.random() < 0.9 else 1}
            for key in ("camera", "class"):
                name = names[rng.integers(len(names))]
                if name is not None:
                    r[key] = name
            out.append(r)
        return out
    # t unique over the file, so within each id: ints and half-integers
    t = [int(k) if rng.random() < 0.2 else k + 0.5 for k in (rng.permutation(n) - n // 2)]
    if kind == "tracks":
        ids = [2 ** 70 if rng.random() < 0.05 else int(rng.integers(0, 20)) for _ in range(n)]
    else:
        ids = [[1, "a"] if rng.random() < 0.05 else f"V{rng.integers(0, 20)}"
               if rng.random() < 0.8 else int(rng.integers(0, 20)) for _ in range(n)]
    return [{"id": i, "t": tk, "box": b} for i, tk, b in zip(ids, t, box)]


def _apply_edit(data, rng, lines, records, keys):
    """One bad value in a record anywhere in the file: a JSON_BAD value in
    a field (DROP: no key) or a box entry (or -1.0 there), a box of 4 or 6
    entries, a record that is not an object, or a line that is not JSON."""
    i = int(rng.integers(len(records)))
    how = data.draw(st.sampled_from(["field", "box entry", "box length", "record", "line"]),
                    label="edit")
    r = records[i]
    if how == "line":
        lines[i] = '{"t": '
        return
    # in a box, a negative number is a bad l, w or h and a valid x or y
    bad = data.draw(st.sampled_from([-1.0] + JSON_BAD[:-1] if how == "box entry"
                                    else JSON_BAD), label="value")
    if how == "field":
        key = data.draw(st.sampled_from(keys), label="field")
        if bad is DROP:
            r.pop(key, None)
        else:
            r[key] = bad
    elif how == "box entry":
        j = data.draw(st.sampled_from([4, 3, 2, 1, 0]), label="entry")
        r["box"] = list(r["box"])
        r["box"][j] = bad
    elif how == "box length":
        r["box"] = list(r["box"])[:4] if data.draw(st.booleans(), label="short") \
            else list(r["box"]) + [1.0]
    else:
        r = "abc" if bad is DROP else bad
    lines[i] = json.dumps(r)


def _outcome(read, *args):
    try:
        return read(*args)
    except iof.MalformedInput as e:
        return str(e)


@pytest.mark.parametrize("kind", ["detections", "tracks", "gt"])
@settings(derandomize=True, database=None, max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_column_check_refuses_what_a_record_pass_refuses(kind, data):
    # chunk edges, and any size up to two and a half chunks
    n = data.draw(st.sampled_from([1, 999, 1000, 1001, 2500]) | st.integers(1, 2500),
                  label="records")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    records = _valid_records(kind, n, rng)
    lines = [json.dumps(r) for r in records]
    keys = ["t", "box", "conf", "camera", "class"] if kind == "detections" else ["id", "t", "box"]
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        _apply_edit(data, rng, lines, records, keys)
    if data.draw(st.booleans(), label="blank lines"):
        lines = [line + "\n" * int(rng.integers(1, 3)) if rng.random() < 0.1 else line
                 for line in lines]
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, f"{kind}.jsonl")
        with open(path, "w") as f:
            f.write("".join(line + "\n" for line in lines))
        if kind == "detections":
            got, want = _outcome(iof.read_detections, path), \
                _outcome(reference_read_detections, path)
        else:
            got, want = _outcome(iof._read_states, path, kind == "tracks"), \
                _outcome(reference_read_states, path, kind == "tracks")
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    elif kind == "detections":
        t, box, conf, camera, cls = zip(*want) if want else ([],) * 5
        assert len(got) == len(want)
        assert np.array_equal(got.t, t) and np.array_equal(got.conf, conf)
        assert np.array_equal(got.box, np.reshape(box, (-1, 5)))
        assert [(dt.camera, dt.cls) for dt in got] == list(zip(camera, cls))
    else:
        assert [sid for sid, _, _ in got] == [sid for sid, _, _ in want]
        for (_, gt, gb), (_, wt, wb) in zip(got, want):
            assert np.array_equal(gt, wt) and np.array_equal(gb, wb)
