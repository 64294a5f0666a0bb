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
