import dataclasses
import filecmp
import json
import os
import subprocess
import sys
import xml.dom.minidom
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from curvitrack import io_formats as iof
from curvitrack.cli import STAGES, main
from curvitrack.errors import ConfigInvalid, DataInvariantViolation
from curvitrack.gps import OFFSET_RANGE_S
from curvitrack.simulator import (ARC_MAX_TURN_RAD, MAX_CAMERAS, MAX_DETECTION_RATE_HZ,
                                  MAX_DURATION_S, MAX_SNAPSHOTS, MAX_VEHICLE_S,
                                  MAX_VEHICLES, ROAD_PAD_FT, DetectionConfig, SceneConfig)


def run(args):
    return main([str(a) for a in args])


def simulate(out, seed=3, extra=None):
    cfg = {"extent_ft": 1500.0, "vehicle_count": 5, "duration_s": 20.0,
           "snapshot_interval_s": 5.0}
    if extra:
        cfg.update(extra)
    cfg_path = out / "scene.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", cfg_path, "--seed", seed,
                "--out", out]) == 0


# ---------------------------------------------------------------------------
# serialization round trips

def test_fmt_round_trips_floats():
    for v in (0.1, 1.0 / 3.0, 1e-17, 123456.789, -2.5):
        assert float(iof.fmt(v)) == v


def test_atomic_write_leaves_no_temp_files(tmp_path):
    p = tmp_path / "x.json"
    iof.write_json(str(p), {"a": 1})
    assert [f.name for f in tmp_path.iterdir()] == ["x.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_atomic_write_mode_follows_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        p = tmp_path / "x.json"
        iof.write_json(str(p), {"a": 1})
    finally:
        os.umask(old)
    assert p.stat().st_mode & 0o777 == 0o666 & ~umask


def test_jsonl_round_trip(tmp_path):
    recs = [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "b": []}]
    p = str(tmp_path / "r.jsonl")
    iof.write_jsonl(p, recs)
    assert iof.read_jsonl(p) == recs


def test_malformed_jsonl_raises(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"a": 1}\nnot json\n')
    with pytest.raises(iof.MalformedInput):
        iof.read_jsonl(str(p))


def test_tracklet_round_trip(tmp_path):
    from curvitrack.tracking import Tracklet
    tk = Tracklet(7)
    for i in range(30):
        tk.times.append(i * 0.1)
        tk.boxes.append((100.0 + 9.0 * i, 6.0, 16.0, 6.0, 5.0))
        tk.dims_reported.append((16.0 + 0.01 * i, 6.0, 5.0))
    p = str(tmp_path / "tracks.jsonl")
    iof.write_tracklets(p, [tk])
    (back,) = iof.read_tracklets(p)
    assert back.id == 7
    assert back.times == pytest.approx(tk.times)
    assert np.allclose(back.boxes, tk.boxes)
    assert back.median_dims == pytest.approx(tk.median_dims)


def test_gps_round_trip(tmp_path):
    from curvitrack.gps import GpsTrace
    tr = GpsTrace("v1", np.arange(0.0, 3.0, 0.1),
                  np.linspace(0, 270, 30), np.full(30, 6.0))
    p = str(tmp_path / "gps.csv")
    iof.write_gps(p, [tr])
    (back,) = iof.read_gps(p)
    assert back.vehicle_id == "v1"
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.x, tr.x)


# ---------------------------------------------------------------------------
# subcommands

def test_simulate_writes_expected_files(tmp_path):
    simulate(tmp_path)
    for name in ("spline.json", "points.jsonl", "reference.json",
                 "snapshots.jsonl", "sift_maps.json", "detections.jsonl",
                 "gt_tracks.jsonl", "gps.csv", "annotations.csv"):
        assert (tmp_path / name).exists(), name


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    simulate(a)
    simulate(b)
    for name in os.listdir(a):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_calibrate_fits_references(tmp_path):
    simulate(tmp_path)
    assert run(["calibrate", "--points", tmp_path / "points.jsonl",
                "--out", tmp_path / "fitted.json"]) == 0
    fitted = iof.read_homographies(str(tmp_path / "fitted.json"))
    reference = iof.read_homographies(str(tmp_path / "reference.json"))
    for cam, ref in reference.items():
        assert np.abs(fitted[cam].h - ref.h).max() < 1e-6


def test_track_and_eval_pipeline(tmp_path):
    simulate(tmp_path, extra={"duration_s": 40.0, "vehicle_count": 10})
    assert run(["track", "--detections", tmp_path / "detections.jsonl",
                "--algo", "kiou", "--out", tmp_path / "tracks.jsonl"]) == 0
    assert (tmp_path / "tracks.jsonl").exists()
    assert run(["eval", "--gt", tmp_path / "gt_tracks.jsonl",
                "--tracks", tmp_path / "tracks.jsonl",
                "--out", tmp_path / "report.json"]) == 0
    rep = iof.read_json(str(tmp_path / "report.json"))
    assert 0.0 <= rep["HOTA"] <= 1.0
    header, rows = iof.read_csv(str(tmp_path / "report.csv"))
    assert "HOTA" in header


def test_missing_input_file_exits_one(tmp_path):
    assert run(["track", "--detections", tmp_path / "absent.jsonl",
                "--algo", "sort", "--out", tmp_path / "tracks.jsonl"]) == 1


def test_malformed_input_exits_one(tmp_path):
    bad = tmp_path / "detections.jsonl"
    bad.write_text('{"t": 0.0}\n')  # missing required fields
    assert run(["track", "--detections", bad, "--algo", "sort",
                "--out", tmp_path / "tracks.jsonl"]) == 1


GOOD_DETECTION = {"t": 0.0, "camera": "c0", "box": [100.0, 6.0, 16.0, 6.0, 5.0],
                  "class": "sedan", "conf": 0.8}


@pytest.mark.parametrize("bad", [
    '{"t": "x", "box": [100.0, 6.0, 16.0, 6.0, 5.0], "conf": 0.8}',
    '{"t": 0.1, "box": 5, "conf": 0.8}',
    '{"t": 0.1, "box": ["a", 6.0, 16.0, 6.0, 5.0], "conf": 0.8}',
    '{"t": 0.1, "box": [100.0, NaN, 16.0, 6.0, 5.0], "conf": 0.8}',
    '{"t": 0.1, "box": [100.0, 6.0, 16.0, 6.0, 5.0], "conf": Infinity}',
    '5',
    '{"t": true, "box": [100.0, 6.0, 16.0, 6.0, 5.0], "conf": 0.8}',
    '{"t": 0.1, "box": [1' + '0' * 400 + ', 6.0, 16.0, 6.0, 5.0], "conf": 0.8}',
    '{"t": 0.1, "box": [100.0, 18.0, -15.0, -6.0, 5.0], "conf": 0.8}',
    '{"t": 0.1, "box": [100.0, 6.0, 16.0, 6.0, -0.5], "conf": 0.8}',
    json.dumps(dict(GOOD_DETECTION, t=MAX_DURATION_S + 0.5)),
    json.dumps(dict(GOOD_DETECTION, t=-MAX_DURATION_S - 0.5)),
], ids=["t-string", "box-scalar", "box-string", "box-nan", "conf-inf",
        "not-object", "t-bool", "box-huge-int", "box-negative-l-w", "box-negative-h",
        "t-past-one-day", "t-before-minus-one-day"])
def test_invalid_detection_record_exits_one(tmp_path, bad):
    dets = tmp_path / "detections.jsonl"
    dets.write_text(json.dumps(GOOD_DETECTION) + "\n" + bad + "\n")
    assert_rejected(["track", "--detections", dets, "--algo", "kiou",
                     "--out", tmp_path / "tracks.jsonl"], "detections.jsonl", "record 2")
    assert not (tmp_path / "tracks.jsonl").exists()


def child_env():
    """The environment of a child process that imports the package from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def assert_rejected(args, name, where):
    """The CLI, run in its own process, exits 1 naming file and record."""
    proc = subprocess.run([sys.executable, "-m", "curvitrack.cli"] + [str(a) for a in args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1, proc.stderr
    assert name in proc.stderr
    assert where in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("stage", [name for name, (_, _, out_file, _) in STAGES.items()
                                   if out_file])
def test_out_naming_a_directory_exits_one(tmp_path, stage):
    argv = [stage, "--out", tmp_path]
    for flag, file, option_help in STAGES[stage][3]:
        if option_help is None:
            argv += [flag, tmp_path / file]
    assert_rejected(argv + (["--algo", "kiou"] if stage == "track" else []),
                    "--out", str(tmp_path))


GOOD_STATE = {"id": 0, "t": 0.0, "box": [100.0, 6.0, 16.0, 6.0, 5.0]}


@pytest.mark.parametrize("side, bad", [
    ("tracks", '{"id": 0, "t": "x", "box": [100.0, 6.0, 16.0, 6.0, 5.0]}'),
    ("tracks", '{"id": 0, "t": 0.1, "box": [100.0, 6.0, 16.0, 6.0]}'),
    ("tracks", '{"id": 0, "t": 0.0, "box": [101.0, 6.0, 16.0, 6.0, 5.0]}'),
    ("gt", '{"id": 0, "t": 0.1, "box": [100.0, NaN, 16.0, 6.0, 5.0]}'),
    ("gt", '{"id": 0, "t": 0.0, "box": [101.0, 6.0, 16.0, 6.0, 5.0]}'),
    ("tracks", '{"id": 0, "t": 0.1, "box": [100.0, 6.0, 16.0, -6.0, 5.0]}'),
    ("gt", '{"id": 0, "t": 0.1, "box": [100.0, 6.0, -16.0, 6.0, 5.0]}'),
    ("tracks", json.dumps(dict(GOOD_STATE, t=MAX_DURATION_S + 0.5))),
    ("gt", json.dumps(dict(GOOD_STATE, t=-MAX_DURATION_S - 0.5))),
], ids=["tracks-t-string", "tracks-box-short", "tracks-repeated-t",
        "gt-box-nan", "gt-repeated-t", "tracks-box-negative-w", "gt-box-negative-l",
        "tracks-t-past-one-day", "gt-t-before-minus-one-day"])
def test_invalid_state_record_exits_one(tmp_path, side, bad):
    files = {"gt": tmp_path / "gt_tracks.jsonl", "tracks": tmp_path / "tracks.jsonl"}
    for name, path in files.items():
        path.write_text(json.dumps(GOOD_STATE) + "\n"
                        + (bad if name == side else json.dumps(dict(GOOD_STATE, t=0.1)))
                        + "\n")
    assert_rejected(["eval", "--gt", files["gt"], "--tracks", files["tracks"],
                     "--out", tmp_path / "report.json"], files[side].name, "record 2")
    assert not (tmp_path / "report.json").exists()


GOOD_POINT = {"id": "p0", "camera": "c0", "direction": "EB",
              "im": [412.7, 883.1], "st": [5213.4, 2024.0]}


@pytest.mark.parametrize("field, value", [
    ("im", [1.0]), ("st", [5213.4, "y"]), ("im", 412.7), ("st", [5213.4, float("inf")]),
    ("direction", "WB"), ("id", "p0"),
], ids=["im-short", "st-string", "im-scalar", "st-inf", "direction-both", "id-repeated"])
def test_invalid_point_record_exits_one(tmp_path, field, value):
    points = tmp_path / "points.jsonl"
    points.write_text(json.dumps(GOOD_POINT) + "\n"
                      + json.dumps(dict(GOOD_POINT, **{"id": "p1", field: value})) + "\n")
    assert_rejected(["calibrate", "--points", points, "--out", tmp_path / "out"],
                    "points.jsonl", "record 2")


@pytest.mark.parametrize("row", ["v1,0.1,inf,0.0", "v1,nan,2.0,0.0", "v1,0.0,2.0,0.0",
                                 f"v1,{MAX_DURATION_S + OFFSET_RANGE_S + 0.5},2.0,0.0",
                                 f"v1,{-MAX_DURATION_S - OFFSET_RANGE_S - 0.5},2.0,0.0",
                                 '"a\nb",0.1,2.0,0.0\nv1,nan,2.0,0.0'],
                         ids=["x-inf", "t-nan", "repeated-t", "t-past-one-day-and-offset",
                              "t-before-minus-one-day-and-offset", "id-line-break"])
def test_invalid_gps_row_exits_one(tmp_path, row):
    gps = tmp_path / "gps.csv"
    gps.write_text("vehicle_id,t,x,y\nv1,0.0,1.0,0.0\n" + row + "\n")
    anns = tmp_path / "annotations.csv"
    anns.write_text("vehicle_id,t,x,y,pole\n")
    assert_rejected(["gps-correct", "--gps", gps, "--annotations", anns,
                     "--out", tmp_path / "out"], "gps.csv", "line 3")
    assert not (tmp_path / "out").exists()


def test_gps_times_may_pass_one_day_by_the_clock_offset(tmp_path):
    # a GPS time is scene time plus the receiver's clock offset, which the
    # simulator draws within the range the refinement searches
    gps = tmp_path / "gps.csv"
    gps.write_text(f"vehicle_id,t,x,y\nv1,{MAX_DURATION_S},1.0,0.0\n"
                   f"v1,{MAX_DURATION_S + OFFSET_RANGE_S},2.0,0.0\n")
    [trace] = iof.read_gps(str(gps))
    assert trace.times.tolist() == [MAX_DURATION_S, MAX_DURATION_S + OFFSET_RANGE_S]


IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
GOOD_SNAPSHOT = {"epoch": 0.0, "camera": "c0", "direction": "EB",
                 "points": [{"id": "p0", "im": [413.0, 882.6]}]}


@pytest.mark.parametrize("name, i, bad, where", [
    ("snapshots.jsonl", 1, dict(GOOD_SNAPSHOT, epoch=30.0,
                                points=GOOD_SNAPSHOT["points"] * 2), "record 2"),
    ("snapshots.jsonl", 1, dict(GOOD_SNAPSHOT, epoch=30.0,
                                points=[{"id": "p0", "im": [413.0]}]), "record 2"),
    ("snapshots.jsonl", 1, dict(GOOD_SNAPSHOT, epoch="30"), "record 2"),
    ("snapshots.jsonl", 1, dict(GOOD_SNAPSHOT, epoch=30.0,
                                points=[{"id": "p0", "im": [float("nan"), 882.6]}]),
     "record 2"),
    ("snapshots.jsonl", 1, GOOD_SNAPSHOT, "record 2"),
    ("reference.json", 0, {"camera": "c0", "h": [[1.0, 0.0, 0.0], [0.0, "1", 0.0],
                                                 [0.0, 0.0, 1.0]]}, "entry 1"),
    ("reference.json", 0, {"camera": "c0", "h": [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0],
                                                 [0.0, 0.0, 1.0]]}, "entry 1"),
    ("sift_maps.json", 0, {"camera": "c0", "maps": [{"epoch": 0.0}]}, "entry 1"),
    ("sift_maps.json", 0, {"camera": "c0", "maps": [
        {"epoch": 0.0, "m": IDENTITY},
        {"epoch": 10.0, "m": [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}]},
     "entry 1: map 2: homography condition number"),
    ("sift_maps.json", 0, {"camera": "c0", "maps": [
        {"epoch": 10.0, "m": [[1.0, 0.0, 0.0], [0.0, 1e-14, 0.0], [0.0, 0.0, 1.0]]}]},
     "entry 1: map 1: homography condition number"),
    ("sift_maps.json", 0, {"camera": "c0", "maps": [
        {"epoch": 0.0, "m": IDENTITY}, {"epoch": 0.0, "m": IDENTITY}]},
     "entry 1: map 2: repeated epoch 0.0"),
    ("snapshots.jsonl", 1, dict(GOOD_SNAPSHOT, epoch=MAX_DURATION_S + 0.5), "record 2"),
    ("snapshots.jsonl", 0, dict(GOOD_SNAPSHOT, epoch=-MAX_DURATION_S - 0.5), "record 1"),
    ("snapshots.jsonl", 1, dict(GOOD_SNAPSHOT, epoch=1e306), "record 2"),
    ("sift_maps.json", 0, {"camera": "c0", "maps": [
        {"epoch": 0.0, "m": IDENTITY}, {"epoch": MAX_DURATION_S + 0.5, "m": IDENTITY}]},
     "entry 1"),
], ids=["snap-repeated-id", "snap-im-short", "snap-epoch-string", "snap-im-nan",
        "snap-repeated-epoch", "h-string", "h-nan", "sift-no-m", "sift-singular",
        "sift-ill-conditioned", "sift-repeated-epoch", "snap-epoch-past-one-day",
        "snap-epoch-before-minus-one-day", "snap-epoch-huge", "sift-epoch-past-one-day"])
def test_invalid_restim_input_exits_one(tmp_path, name, i, bad, where):
    contents = {
        "points.jsonl": [GOOD_POINT],
        "reference.json": [{"camera": "c0", "direction": "EB", "h": IDENTITY}],
        "snapshots.jsonl": [GOOD_SNAPSHOT, dict(GOOD_SNAPSHOT, epoch=30.0)],
        "sift_maps.json": [{"camera": "c0", "maps": [{"epoch": 0.0, "m": IDENTITY}]}],
    }
    contents[name][i] = bad
    for fname, records in contents.items():
        (tmp_path / fname).write_text("".join(json.dumps(r) + "\n" for r in records)
                                      if fname.endswith(".jsonl") else json.dumps(records))
    assert_rejected(["restim", "--points", tmp_path / "points.jsonl",
                     "--reference", tmp_path / "reference.json",
                     "--snapshots", tmp_path / "snapshots.jsonl",
                     "--sift", tmp_path / "sift_maps.json", "--out", tmp_path / "out"],
                    name, where)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("second, dims, name, where", [
    (dict(GOOD_STATE, id="a", t=0.1), None, "tracks.jsonl", "record 2"),
    (dict(GOOD_STATE, id=True, t=0.1), None, "tracks.jsonl", "record 2"),
    (dict(GOOD_STATE, t=0.1), {"0": "abc"}, "tracks.dims.json", "id 0"),
    (dict(GOOD_STATE, t=0.1), {"0": [16.0, 6.0, float("nan")]}, "tracks.dims.json", "id 0"),
    (dict(GOOD_STATE, t=0.1), [16.0, 6.0, 5.0], "tracks.dims.json", "JSON object"),
    (dict(GOOD_STATE, t=0.1), {"0": [16.0, 6.0, -5.0]}, "tracks.dims.json", "id 0"),
], ids=["id-string", "id-bool", "dims-string", "dims-nan", "dims-not-object",
        "dims-negative"])
def test_invalid_track_id_or_dims_exits_one(tmp_path, second, dims, name, where):
    gt, tracks = tmp_path / "gt_tracks.jsonl", tmp_path / "tracks.jsonl"
    gt.write_text(json.dumps(GOOD_STATE) + "\n" + json.dumps(dict(GOOD_STATE, t=0.1)) + "\n")
    tracks.write_text(json.dumps(GOOD_STATE) + "\n" + json.dumps(second) + "\n")
    if dims is not None:
        (tmp_path / "tracks.dims.json").write_text(json.dumps(dims))
    assert_rejected(["eval", "--gt", gt, "--tracks", tracks,
                     "--out", tmp_path / "report.json"], name, where)
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("row", ["v1,nan,1.5,0.0,0", "v1,0.05,inf,0.0,0", "v1,0.05,1.5,-inf,0",
                                 f"v1,{MAX_DURATION_S + 0.5},1.5,0.0,0",
                                 f"v1,{-MAX_DURATION_S - 0.5},1.5,0.0,0"],
                         ids=["t-nan", "x-inf", "y-inf", "t-past-one-day",
                              "t-before-minus-one-day"])
def test_invalid_annotation_row_exits_one(tmp_path, row):
    gps = tmp_path / "gps.csv"
    gps.write_text("vehicle_id,t,x,y\nv1,0.0,1.0,0.0\nv1,0.1,2.0,0.0\n")
    anns = tmp_path / "annotations.csv"
    anns.write_text("vehicle_id,t,x,y,pole\nv1,0.05,1.5,0.0,0\n" + row + "\n")
    assert_rejected(["gps-correct", "--gps", gps, "--annotations", anns,
                     "--out", tmp_path / "out"], "annotations.csv", "line 3")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("period", [0.0, 0.1, 0.25])
def test_gps_sample_period_is_not_configurable(tmp_path, period):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"gps": {"sample_period_s": period}}))
    assert_rejected(["simulate", "--config", cfg, "--out", tmp_path / "out"],
                    "unknown gps config fields", "sample_period_s")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, where", [
    ({"vehicle_count": "abc"}, "vehicle_count"),
    ({"road": 5}, "road config"),
    ([1, 2], "JSON object"),
    ({"duration_s": True}, "duration_s"),
    ({"seed": -1}, "seed"),
    ({"detection": {"rate_hz": 0.0}}, "detection rate"),
    ({"snapshot_interval_s": 0.0}, "snapshot interval"),
    ({"drift": {"noise_ft": -1.0}}, "drift.noise_ft"),
    ({"road": {"kind": "arc", "radius_ft": 0.0}}, "radius"),
], ids=["count-string", "road-not-object", "not-object", "duration-bool", "seed-negative",
        "rate-zero", "snapshot-interval-zero", "noise-negative", "radius-zero"])
def test_invalid_scene_config_exits_one(tmp_path, cfg, where):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    assert_rejected(["simulate", "--config", path, "--out", tmp_path / "out"],
                    "scene.json", where)
    assert not (tmp_path / "out").exists()


# (extent_ft, radius factor) of the arcs whose inner yellow line is too short,
# and the field the refusal names: extent_ft where no radius would do
SHORT_ARCS = {(10.0, 1.0): "extent_ft", (10.0, 1.01): "extent_ft", (10.0, 2.0): "extent_ft",
              (60.0, 1.0): "road.radius_ft", (60.0, 1.01): "road.radius_ft"}


@pytest.mark.parametrize("extent", [10.0, 60.0, 100.0, 500.0, 3000.0])
def test_arc_radius_bound_separates_refused_from_simulated(tmp_path, extent):
    """An arc road that turns too near a half circle is refused, naming
    road.radius_ft, and so is one with a yellow line too short for the
    roadway frame; every config the checks accept simulates."""
    bound = (extent + 2 * ROAD_PAD_FT) / ARC_MAX_TURN_RAD
    for factor in (0.3, 0.99, 1.0, 1.01, 2.0):
        path = tmp_path / f"scene{factor}.json"
        path.write_text(json.dumps({
            "road": {"kind": "arc", "radius_ft": factor * bound}, "extent_ft": extent,
            "vehicle_count": 2, "duration_s": 2.0, "snapshot_interval_s": 2.0}))
        out = tmp_path / f"out{factor}"
        field = "road.radius_ft" if factor < 1.0 else SHORT_ARCS.get((extent, factor))
        if field:
            assert_rejected(["simulate", "--config", path, "--out", out],
                            path.name, field)
            assert not out.exists()
        else:
            assert run(["simulate", "--config", path, "--out", out]) == 0, factor


def test_camera_count_is_capped(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"pole_spacing_ft": 0.001, "extent_ft": 10,
                                "duration_s": 5}))
    assert_rejected(["simulate", "--config", path, "--out", tmp_path / "out"],
                    "scene.json", "pole_spacing_ft")
    # at the cap exactly: 500 poles x 2 cameras
    ok = SceneConfig(extent_ft=500.0, pole_spacing_ft=1.0, cameras_per_pole=2)
    ok.validate()
    assert ok.poles * 2 == MAX_CAMERAS
    with pytest.raises(ConfigInvalid, match="cameras_per_pole"):
        dataclasses.replace(ok, cameras_per_pole=4).validate()


@pytest.mark.parametrize("cfg, field", [
    ({"vehicle_count": MAX_VEHICLES + 1, "duration_s": 1.0}, "vehicle_count"),
    ({"vehicle_count": 1, "duration_s": MAX_DURATION_S + 1.0}, "duration_s"),
    ({"vehicle_count": 1000, "duration_s": MAX_VEHICLE_S / 1000 + 1.0},
     "vehicle_count x duration_s"),
    ({"detection": {"rate_hz": MAX_DETECTION_RATE_HZ + 0.5}}, "detection.rate_hz"),
    ({"snapshot_interval_s": 1e-300}, "snapshot_interval_s"),
], ids=["vehicles", "duration", "vehicle-seconds", "rate", "snapshots"])
def test_scene_work_is_capped(tmp_path, cfg, field):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg))
    assert_rejected(["simulate", "--config", path, "--out", tmp_path / "out"],
                    "scene.json", field)
    assert not (tmp_path / "out").exists()


def test_scene_work_caps_admit_the_largest_configs_in_use():
    # criterion 3, scene M, the 800-vehicle sweep, drift-localize's scene
    # and the cli-dense rate, then each cap exactly
    for cfg in (SceneConfig(extent_ft=500.0, cameras_per_pole=2, vehicle_count=1,
                            duration_s=4 * 3600.0),
                SceneConfig(vehicle_count=200, duration_s=600.0),
                SceneConfig(vehicle_count=800, duration_s=300.0),
                SceneConfig(extent_ft=1000.0, vehicle_count=20, duration_s=2400.0),
                SceneConfig(vehicle_count=MAX_VEHICLES, duration_s=MAX_VEHICLE_S / MAX_VEHICLES),
                SceneConfig(vehicle_count=1, duration_s=MAX_DURATION_S,
                            snapshot_interval_s=MAX_DURATION_S * 36 / MAX_SNAPSHOTS,
                            detection=DetectionConfig(rate_hz=MAX_DETECTION_RATE_HZ))):
        cfg.validate()


def test_stage_processes_load_no_scipy(tmp_path):
    """No stage imports scipy, and neither does `import curvitrack` or the
    pipeline.  Each is checked in a fresh process.  The scene is crowded
    enough that track and eval reach Hungarian matching."""
    d = str(tmp_path)
    scene = {"extent_ft": 1500.0, "vehicle_count": 20, "duration_s": 20.0,
             "snapshot_interval_s": 5.0}
    (tmp_path / "scene.json").write_text(json.dumps(scene))
    (tmp_path / "manifest.json").write_text(json.dumps(
        {"scene": scene, "seed": 3, "track": {"algo": "kiou"}, "out": f"{d}/pipeline"}))
    stages = [
        ["simulate", "--config", f"{d}/scene.json", "--seed", "3", "--out", d],
        ["calibrate", "--points", f"{d}/points.jsonl", "--out", f"{d}/fitted.json"],
        ["restim", "--points", f"{d}/points.jsonl", "--reference", f"{d}/reference.json",
         "--snapshots", f"{d}/snapshots.jsonl", "--sift", f"{d}/sift_maps.json",
         "--out", d],
        ["track", "--detections", f"{d}/detections.jsonl", "--algo", "kiou",
         "--out", f"{d}/tracks.jsonl"],
        ["gps-correct", "--gps", f"{d}/gps.csv", "--annotations", f"{d}/annotations.csv",
         "--out", d],
        ["eval", "--gt", f"{d}/gt_tracks.jsonl", "--tracks", f"{d}/tracks.jsonl",
         "--out", f"{d}/report.json"],
        ["report", "--drift", f"{d}/drift.csv", "--eval", f"{d}/report.json", "--out", d],
    ]
    assert [argv[0] for argv in stages] == list(STAGES)
    loaded = ("sorted({'.'.join(m.split('.')[:2]) for m in sys.modules"
              " if m.split('.')[0] == 'scipy'})")
    runs = ("    assert main(argv) == 0, argv\n"
            f"    assert not {loaded}, (argv[0], {loaded})\n")
    programs = [f"import sys, curvitrack\nassert not {loaded}, {loaded}\n"] + [
        f"import sys\nfrom curvitrack.cli import main\nfor argv in {argvs!r}:\n" + runs
        for argvs in (stages, [["pipeline", "--manifest", f"{d}/manifest.json"]])]
    for program in programs:
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "drift_summary.csv").exists()
    assert (tmp_path / "pipeline" / "drift_summary.csv").exists()


# Layers a stage process must not load.  Beyond these, no stage but
# `simulate` loads the simulator or the roadway frame.
NOT_LOADED = {
    "calibrate": {"drift", "gps", "moteval", "plots"},
    "restim": {"gps", "moteval", "plots"},
    "track": {"geometry", "drift", "gps", "moteval", "plots"},
    "gps-correct": {"geometry", "drift", "moteval", "plots"},
    "eval": {"geometry", "drift", "gps", "plots"},
    "report": {"geometry", "drift", "gps"},
}


def test_stage_processes_load_only_their_layers(tmp_path):
    simulate(tmp_path)
    d = str(tmp_path)
    stages = [
        ["calibrate", "--points", f"{d}/points.jsonl", "--out", f"{d}/fitted.json"],
        ["restim", "--points", f"{d}/points.jsonl", "--reference", f"{d}/reference.json",
         "--snapshots", f"{d}/snapshots.jsonl", "--sift", f"{d}/sift_maps.json",
         "--out", d],
        ["track", "--detections", f"{d}/detections.jsonl", "--algo", "kiou",
         "--out", f"{d}/tracks.jsonl"],
        ["gps-correct", "--gps", f"{d}/gps.csv", "--annotations", f"{d}/annotations.csv",
         "--out", d],
        ["eval", "--gt", f"{d}/gt_tracks.jsonl", "--tracks", f"{d}/tracks.jsonl",
         "--out", f"{d}/report.json"],
        ["report", "--drift", f"{d}/drift.csv", "--eval", f"{d}/report.json", "--out", d],
    ]
    assert [argv[0] for argv in stages] == list(NOT_LOADED)
    for argv in stages:
        program = ("import sys\nfrom curvitrack.cli import main\n"
                   f"assert main({argv!r}) == 0\n"
                   "print(' '.join(m.split('.')[1] for m in sys.modules"
                   " if m.startswith('curvitrack.')))\n")
        proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "io_formats" in loaded
        assert not loaded & (NOT_LOADED[argv[0]] | {"simulator", "roadway"}), (argv[0], loaded)


def test_readme_import_loads_no_scipy():
    program = ("import sys\n"
               "from curvitrack import SceneConfig, simulate, run_tracker, evaluate\n"
               "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
               "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_projection_fit_and_lift_load_no_scipy():
    """fit_projection3d and lift_image_box_to_prism run on numpy alone."""
    program = (
        "import sys\n"
        "import numpy as np\n"
        "from curvitrack.geometry import (Homography, Prism3D, Projection3D, StatePlanePoint,\n"
        "    fit_projection3d, lift_image_box_to_prism, project_prism_to_image)\n"
        "hom = Homography(np.array([[0.5, 0.01, 4000.0], [0.02, -0.4, 9000.0],"
        " [0.0, 2e-5, 1.0]]))\n"
        "true = Projection3D(np.column_stack([hom.hinv[:, 0], hom.hinv[:, 1],"
        " 3e-6 * np.array([900.0, -40000.0, 1.0]), hom.hinv[:, 2]]))\n"
        "ground = [[4000.0 + 300 * i, 8000.0 + 200 * j] for i in range(4) for j in range(2)]\n"
        "prisms = [Prism3D.from_footprint(np.tile(g, (4, 1)), 18.0) for g in ground]\n"
        "px = [project_prism_to_image(true, p) for p in prisms]\n"
        "p3 = fit_projection3d(hom, [(q[0], q[2]) for q in px],\n"
        "                      [(StatePlanePoint(*g, 18.0), q[2]) for g, q in zip(ground, px)])\n"
        "box = project_prism_to_image(p3, Prism3D.from_footprint("
        "[[4100, 8100], [4100, 8106], [4115, 8100], [4115, 8106]], 6.0))\n"
        "prism = lift_image_box_to_prism(p3, [box[i] for i in (0, 1, 4, 5)],"
        " [box[i] for i in (2, 3, 6, 7)])\n"
        "assert abs(prism.height - 6.0) < 0.01, prism.height\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("section, field, value", [
    (None, "state_offset", [5000.0, 2000.0]),
    (None, "lanes_per_direction", 4),
    (None, "lane_width_ft", 12.0),
    ("road", "yellow_offset_ft", 24.0),
    ("drift", "sift_bias_ft", 2.0),
    ("drift", "sift_noise_ft", 0.2),
])
def test_removed_config_fields_are_unknown(tmp_path, section, field, value):
    """Each was a setting no caller changed; it is a constant now."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({field: value} if section is None
                               else {section: {field: value}}))
    prefix = f"{section} " if section else ""
    assert_rejected(["simulate", "--config", path, "--out", tmp_path / "out"],
                    "scene.json", f"unknown {prefix}config fields ['{field}']")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, where", [
    ({"stages": 5}, "stages"),
    ({"track": "kiou"}, "track"),
    ({"seed": "abc"}, "seed"),
], ids=["stages-int", "track-string", "seed-string"])
def test_invalid_manifest_exits_one(tmp_path, change, where):
    manifest = {"out": str(tmp_path / "run"), "stages": ["simulate", "track"],
                "scene": {"extent_ft": 500.0, "vehicle_count": 2, "duration_s": 10.0}}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(dict(manifest, **change)))
    assert_rejected(["pipeline", "--manifest", path], "manifest.json", where)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, name, text, where", [
    ("--drift", "drift.csv", "camera,epoch,fd_static,fd_baseline\nc0,abc,1.0,\n", "line 2"),
    ("--eval", "report.json", '{"HOTA": "x"}', "HOTA"),
    ("--eval", "report.json", "[1]", "JSON object"),
], ids=["drift-epoch-string", "eval-value-string", "eval-not-object"])
def test_invalid_report_input_exits_one(tmp_path, flag, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    assert_rejected(["report", flag, path, "--out", tmp_path / "out"], name, where)
    assert not (tmp_path / "out").exists()


def test_seed_is_only_a_simulate_option(tmp_path, capsys):
    for argv in (["track", "--detections", tmp_path / "d.jsonl", "--algo", "kiou"],
                 ["eval", "--gt", tmp_path / "g.jsonl", "--tracks", tmp_path / "t.jsonl"]):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", tmp_path / "out", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_invalid_config_exits_one(tmp_path):
    cfg = tmp_path / "scene.json"
    cfg.write_text(json.dumps({"duration_s": -5.0}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 1


def test_data_invariant_violation_exits_two(tmp_path):
    gps = tmp_path / "gps.csv"
    gps.write_text("vehicle_id,t,x,y\nv1,0.0,1.0,0.0\nv1,0.13,2.0,0.0\n")
    ann = tmp_path / "annotations.csv"
    ann.write_text("vehicle_id,t,x,y,pole\nv1,0.05,1.5,0.0,0\n")
    assert run(["gps-correct", "--gps", gps, "--annotations", ann,
                "--out", tmp_path]) == 2


def test_report_empty_inputs_yield_valid_svg(tmp_path):
    assert run(["report", "--out", tmp_path]) == 0
    svgs = list(tmp_path.glob("*.svg"))
    assert svgs
    for p in svgs:
        root = ET.parse(p).getroot()
        assert root.tag.endswith("svg")
        assert "no data" in ET.tostring(root, encoding="unicode")


def test_report_svgs_escape_labels(tmp_path):
    """A method name holding XML markup characters stays well-formed text."""
    drift = tmp_path / "drift.csv"
    drift.write_text("camera,epoch,fd_static,fd_a<b&c\nc0,0.0,1.0,2.0\nc0,10.0,1.5,2.5\n")
    assert run(["report", "--drift", drift, "--out", tmp_path]) == 0
    svgs = sorted(tmp_path.glob("*.svg"))
    assert [p.name for p in svgs] == ["drift_means.svg", "drift_timeline.svg"]
    for p in svgs:
        doc = xml.dom.minidom.parse(str(p))
        texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert "a<b&c" in texts, texts


def test_gps_correct_quotes_vehicle_ids(tmp_path):
    """A vehicle id holding a comma and a double quote survives gps-correct
    run on its own output."""
    gps = tmp_path / "gps.csv"
    gps.write_text('vehicle_id,t,x,y\n"V,""1",0.0,1.0,0.0\n"V,""1",1.0,2.0,0.0\n'
                   'w,0.0,5.0,0.0\n')
    ann = tmp_path / "annotations.csv"
    ann.write_text("vehicle_id,t,x,y,pole\n")
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["gps-correct", "--gps", gps, "--annotations", ann, "--out", first]) == 0
    assert run(["gps-correct", "--gps", first / "gps_corrected.csv", "--annotations", ann,
                "--out", second]) == 0
    traces = iof.read_gps(str(second / "gps_corrected.csv"))
    assert [t.vehicle_id for t in traces] == ['V,"1', "w"]
    assert traces[0].times.tolist() == [0.0, 1.0]
    assert (second / "gps_corrected.csv").read_bytes() == (first / "gps_corrected.csv").read_bytes()


def test_report_drift_svg_labels_match_csv(tmp_path):
    simulate(tmp_path, extra={"duration_s": 120.0, "snapshot_interval_s": 10.0})
    assert run(["restim", "--points", tmp_path / "points.jsonl",
                "--reference", tmp_path / "reference.json",
                "--snapshots", tmp_path / "snapshots.jsonl",
                "--out", tmp_path]) == 0
    assert run(["report", "--drift", tmp_path / "drift.csv",
                "--out", tmp_path]) == 0
    header, rows = iof.read_csv(str(tmp_path / "drift_summary.csv"))
    svg = (tmp_path / "drift_means.svg").read_text()
    # every bar label in the figure is the exact string written to the CSV
    numeric = [c for row in rows for c in row[1:]]
    labeled = [v for v in numeric if v in svg]
    assert len(labeled) >= len(rows)  # at least the plotted column matches


def test_full_pipeline_rerun_byte_identical(tmp_path):
    manifest = {
        "out": str(tmp_path / "run"),
        "seed": 11,
        "scene": {"extent_ft": 1500.0, "vehicle_count": 6,
                  "duration_s": 30.0, "snapshot_interval_s": 10.0},
        "stages": ["simulate", "calibrate", "restim", "track",
                   "gps-correct", "eval", "report"],
        "track": {"algo": "kiou"},
    }
    mpath = tmp_path / "manifest.json"

    def execute(out):
        m = dict(manifest, out=str(out))
        mpath.write_text(json.dumps(m))
        assert run(["pipeline", "--manifest", mpath]) == 0

    execute(tmp_path / "run1")
    execute(tmp_path / "run2")
    names1 = sorted(os.listdir(tmp_path / "run1"))
    assert names1 == sorted(os.listdir(tmp_path / "run2"))
    for name in names1:
        assert filecmp.cmp(tmp_path / "run1" / name, tmp_path / "run2" / name,
                           shallow=False), name


def write_manifest(tmp_path, **fields):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(dict(fields, out=str(tmp_path))))
    return path


def test_pipeline_missing_required_input_stops_before_the_stage(tmp_path):
    path = write_manifest(tmp_path, stages=["calibrate", "report"])
    assert_rejected(["pipeline", "--manifest", path],
                    str(tmp_path / "points.jsonl"), "missing stage inputs")
    assert not list(tmp_path.glob("*.svg"))


def test_pipeline_returns_a_failing_stage_code_and_stops(tmp_path):
    (tmp_path / "gps.csv").write_text("vehicle_id,t,x,y\nv1,0.0,1.0,0.0\nv1,0.13,2.0,0.0\n")
    (tmp_path / "annotations.csv").write_text("vehicle_id,t,x,y,pole\nv1,0.05,1.5,0.0,0\n")
    path = write_manifest(tmp_path, stages=["gps-correct", "report"])
    assert run(["pipeline", "--manifest", path]) == 2
    assert not list(tmp_path.glob("*.svg"))


def test_pipeline_restim_runs_without_alignment_maps(tmp_path):
    simulate(tmp_path, extra={"duration_s": 60.0, "snapshot_interval_s": 10.0})
    (tmp_path / "sift_maps.json").unlink()
    assert run(["pipeline", "--manifest",
                write_manifest(tmp_path, stages=["restim"])]) == 0
    header, rows = iof.read_csv(str(tmp_path / "drift.csv"))
    assert rows
    assert {row[header.index("fd_baseline")] for row in rows} == {""}


def test_pipeline_oracle_without_ground_truth_exits_one(tmp_path):
    simulate(tmp_path)
    (tmp_path / "gt_tracks.jsonl").unlink()
    path = write_manifest(tmp_path, stages=["track"], track={"algo": "oracle"})
    assert_rejected(["pipeline", "--manifest", path], "oracle", "requires --gt")
    assert not (tmp_path / "tracks.jsonl").exists()


def test_pipeline_refuses_a_stage_that_is_not_a_name(tmp_path):
    path = write_manifest(tmp_path, stages=[["simulate"]])
    assert_rejected(["pipeline", "--manifest", path], "manifest.json",
                    "unknown stage ['simulate']")


def test_pipeline_ignores_a_stale_scene_config(tmp_path):
    """Without `scene` in the manifest, simulate runs the default scene even
    when an earlier run left a scene_config.json behind."""
    (tmp_path / "scene_config.json").write_text(json.dumps({"duration_s": -5.0}))
    path = write_manifest(tmp_path, stages=["simulate"], seed=4)
    assert run(["pipeline", "--manifest", path]) == 0
    assert (tmp_path / "detections.jsonl").exists()


def test_restim_skips_a_camera_with_fewer_than_three_instants(tmp_path, caplog):
    simulate(tmp_path, extra={"duration_s": 15.0, "snapshot_interval_s": 10.0})
    with caplog.at_level("WARNING", logger="curvitrack"):
        assert run(["restim", "--points", tmp_path / "points.jsonl",
                    "--reference", tmp_path / "reference.json",
                    "--snapshots", tmp_path / "snapshots.jsonl",
                    "--out", tmp_path]) == 0
    assert "has 2 usable instants, skipping" in caplog.text
    assert json.loads((tmp_path / "timelines.json").read_text()) == []
    _, rows = iof.read_csv(str(tmp_path / "drift.csv"))
    assert rows == []
