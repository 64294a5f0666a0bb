import dataclasses
import json
import os

import numpy as np
import pytest

from curvitrack import geometry, simulator as sim
from curvitrack.drift import RediscoverySnapshot
from curvitrack.errors import ConfigInvalid
from curvitrack.geometry import (CorrespondencePoint, Homography, ImagePoint, PointSet,
                                 StatePlanePoint)
from curvitrack.simulator import (DetectionConfig, DriftConfig, GpsConfig,
                                  RoadConfig, SceneConfig, simulate)
from curvitrack.tracking import Detection, time_grid

from conftest import bad_settings, settings, with_setting


def small_config(**kw):
    base = dict(extent_ft=1500.0, vehicle_count=5, duration_s=20.0, seed=7)
    base.update(kw)
    return SceneConfig(**base)


@pytest.fixture(scope="module")
def result():
    return simulate(small_config())


def det_key(d):
    return (d.t, d.camera, d.box, d.cls, d.conf)


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_bit_identical():
    a = simulate(small_config())
    b = simulate(small_config())
    assert [det_key(d) for d in a.detections] == [det_key(d) for d in b.detections]
    for ca, cb in zip(a.cameras, b.cameras):
        assert (ca.reference.h == cb.reference.h).all()
    for ta, tb in zip(a.gps_traces, b.gps_traces):
        assert (ta.times == tb.times).all() and (ta.x == tb.x).all()
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.epoch == sb.epoch and sa.points == sb.points


def test_different_seed_differs():
    a = simulate(small_config(seed=7))
    b = simulate(small_config(seed=8))
    assert [det_key(d) for d in a.detections] != [det_key(d) for d in b.detections]


# ---------------------------------------------------------------------------
# detections

def detection_recall(res):
    """Fraction of in-FOV ground-truth instants that produced a detection."""
    emitted = len(res.detections)
    expected = 0
    dt = 1.0 / res.config.detection.rate_hz
    for tr in res.ground_truth.trajectories:
        for cam in res.cameras:
            if cam.direction != tr.direction:
                continue
            lo, hi = cam.fov
            grid = np.arange(np.ceil(tr.times[0] / dt) * dt,
                             tr.times[-1] + 1e-9, dt)
            xs = np.interp(grid, tr.times, tr.x)
            expected += int(((xs >= lo) & (xs <= hi)).sum())
    return emitted / expected


def test_miss_rate_controls_recall():
    cfg = small_config(
        vehicle_count=30, duration_s=40.0,
        detection=DetectionConfig(miss_rate=0.3, noise_ft=0.0, dims_noise_ft=0.0))
    res = simulate(cfg)
    assert detection_recall(res) == pytest.approx(0.70, abs=0.02)


def test_zero_noise_detections_match_ground_truth(result=None):
    cfg = small_config(
        detection=DetectionConfig(miss_rate=0.0, noise_ft=0.0, dims_noise_ft=0.0))
    res = simulate(cfg)
    by_id = {tr.vehicle_id: tr for tr in res.ground_truth.trajectories}
    # Every detection should sit exactly on some trajectory.
    for d in res.detections[::17]:
        best = min(abs(d.box[0] - np.interp(d.t, tr.times, tr.x))
                   for tr in by_id.values()
                   if tr.times[0] <= d.t <= tr.times[-1])
        assert best < 1e-9


def test_detections_inside_camera_fov(result):
    fovs = {c.camera_id: c.fov for c in result.cameras}
    for d in result.detections:
        lo, hi = fovs[d.camera]
        assert lo - 1e-9 <= d.box[0] <= hi + 1e-9


def test_detection_direction_matches_camera(result):
    directions = {c.camera_id: c.direction for c in result.cameras}
    for d in result.detections:
        direction = directions[d.camera]
        assert (d.box[1] > 0) == (direction == "EB")


# ---------------------------------------------------------------------------
# drift injection

def test_true_homography_is_translation_of_reference(result):
    cam = result.cameras[0]
    for t in (0.0, 7.5, 19.0):
        h_t = result.true_homography(cam.camera_id, t)
        delta = h_t.h @ np.linalg.inv(cam.reference.h)
        v = result.drift_vector(cam.pole, t)
        want = np.array([[1.0, 0.0, v[0]], [0.0, 1.0, v[1]], [0.0, 0.0, 1.0]])
        assert np.abs(delta - want).max() < 1e-9


def test_drift_magnitude_is_bias_plus_sinusoid(result):
    d = result.config.drift
    pole = result.cameras[0].pole
    for t in (0.0, 5.0, 12.5):
        v = result.drift_vector(pole, t)
        mag = d.bias_ft + d.amplitude_ft * np.sin(
            2 * np.pi * t / d.period_s + result.ground_truth.drift_phase[pole])
        assert np.linalg.norm(v) == pytest.approx(abs(mag), abs=1e-12)


def test_snapshots_recover_exact_drift_when_noiseless():
    from curvitrack import drift as dr
    cfg = small_config(duration_s=120.0, snapshot_interval_s=10.0,
                       drift=DriftConfig(noise_ft=0.0))
    res = simulate(cfg)
    cam = res.cameras[0]
    snaps = [s for s in res.snapshots if s.camera_id == cam.camera_id]
    assert snaps
    tl, rejected = dr.build_timeline(cam.reference, cam.points, snaps[:4])
    assert rejected == []
    assert [e for e, _, _ in tl.instants] == [s.epoch for s in snaps[:4]]
    for (_, h_t, _), snap in zip(tl.instants, snaps[:4]):
        truth = res.true_homography(cam.camera_id, snap.epoch)
        assert np.abs(h_t.h - truth.h).max() / np.abs(truth.h).max() < 1e-7


def test_snapshot_dropout_removes_points():
    full = simulate(small_config(duration_s=300.0, snapshot_interval_s=10.0))
    dropped = simulate(small_config(duration_s=300.0, snapshot_interval_s=10.0,
                                    snapshot_dropout=0.5))
    n_full = sum(len(s.points) for s in full.snapshots)
    n_dropped = sum(len(s.points) for s in dropped.snapshots)
    assert n_dropped == pytest.approx(0.5 * n_full, rel=0.05)


def test_pole_outage_removes_cameras():
    with_outage = simulate(small_config(pole_outage=1))
    without = simulate(small_config())
    assert 1 in {c.pole for c in without.cameras}
    assert 1 not in {c.pole for c in with_outage.cameras}
    ids = {c.camera_id for c in with_outage.cameras}
    assert all(s.camera_id in ids for s in with_outage.snapshots)


# ---------------------------------------------------------------------------
# gps

def test_gps_traces_carry_injected_offset_and_bias():
    cfg = small_config(duration_s=30.0,
                       gps=GpsConfig(bias_x_ft=8.0, time_offset_s=0.7,
                                     lateral_noise_ft=0.0, long_noise_ft=0.0))
    res = simulate(cfg)
    by_id = {tr.vehicle_id: tr for tr in res.ground_truth.trajectories}
    for g in res.gps_traces:
        tr = by_id[g.vehicle_id]
        true_t = g.times - 0.7
        ok = (true_t >= tr.times[0]) & (true_t <= tr.times[-1])
        want = np.interp(true_t[ok], tr.times, tr.x) + 8.0
        assert np.abs(g.x[ok] - want).max() < 1e-9


def test_annotations_lie_on_trajectories(result):
    by_id = {tr.vehicle_id: tr for tr in result.ground_truth.trajectories}
    for a in result.annotations:
        tr = by_id[a.vehicle_id]
        assert a.x == pytest.approx(np.interp(a.epoch, tr.times, tr.x), abs=1e-6)


# ---------------------------------------------------------------------------
# config validation

@pytest.mark.parametrize("bad", [
    dict(detection=DetectionConfig(miss_rate=1.5)),
    dict(snapshot_dropout=-0.1),
    dict(pole_spacing_ft=0.0),
    dict(drift=DriftConfig(period_s=-10.0)),
    dict(gps=GpsConfig(time_offset_s=5.0)),
    dict(road=RoadConfig(kind="spiral")),
    dict(duration_s=-1.0),
])
def test_config_invalid(bad):
    with pytest.raises(ConfigInvalid):
        simulate(small_config(**bad))


@pytest.mark.parametrize("name, value", [(n, v) for n, _, v in bad_settings()],
                         ids=[f"{n}-{label}" for n, label, _ in bad_settings()])
def test_each_setting_refuses_a_value_outside_its_kind_or_range(name, value):
    with pytest.raises(ConfigInvalid) as exc:
        with_setting(SceneConfig(), name, value).validate()
    assert str(exc.value).startswith(f"{name} must be ")
    assert str(exc.value).endswith(f", got {value!r}")


def test_numpy_scalars_are_accepted():
    """Every number setting may be a numpy scalar; the scene is the one its
    Python values give."""
    cfg = small_config(pole_outage=1)
    as_numpy = cfg
    for name, f, v in settings(cfg):
        if isinstance(v, (int, float)):
            as_numpy = with_setting(as_numpy, name, (np.int64 if isinstance(v, int)
                                                      else np.float64)(v))
    assert type(as_numpy.detection.rate_hz) is np.float64
    assert type(as_numpy.vehicle_count) is np.int64
    a, b = simulate(cfg), simulate(as_numpy)
    assert [det_key(d) for d in a.detections] == [det_key(d) for d in b.detections]


def test_a_section_of_another_class_is_refused():
    with pytest.raises(ConfigInvalid, match=r"^road must be a RoadConfig, got 5$"):
        SceneConfig(road=5).validate()


def test_arc_road_simulates():
    res = simulate(small_config(road=RoadConfig(kind="arc", radius_ft=20000.0)))
    assert res.detections


# ---------------------------------------------------------------------------
# equivalence with the per-camera loop and per-point projections

def reference_make_camera(cfg, spline, pole, idx, direction, fov, rng):
    """The camera construction `_make_camera` replaced, kept as its oracle:
    the spline evaluated and each point projected one at a time."""
    cam_id = f"P{pole + 1:02d}C{idx + 1:02d}"
    a, b = fov
    y_near, y_far = (5.0, 60.0) if direction == "EB" else (-5.0, -60.0)

    def ground(x_r, y_r):
        return spline.point(x_r) + y_r * spline.normal(x_r)

    world = np.array([ground(a, y_near), ground(b, y_near),
                      ground(b, y_far), ground(a, y_far)])
    jit = rng.uniform(-40.0, 40.0, size=(4, 2))
    img = np.array([[120.0, 980.0], [1800.0, 980.0],
                    [1500.0, 220.0], [420.0, 220.0]]) + jit
    ref = Homography(geometry._dlt(img, world), cam_id, direction)
    points = []
    sign = 1.0 if direction == "EB" else -1.0
    for x_r in np.arange(a + 5.0, b - 4.0, 20.0):
        for y_line in (12.0, 24.0, 36.0, 48.0):
            p = ground(x_r, sign * y_line)
            im = geometry._project_h(ref.hinv, p[None, :])[0]
            points.append(CorrespondencePoint(
                f"{cam_id}_{direction}_{len(points):03d}",
                ImagePoint(im[0], im[1]), StatePlanePoint(p[0], p[1], 0.0)))
    return sim.Camera(cam_id, direction, pole, fov, ref, PointSet(points))


def reference_emit_detections(cfg, vehicles, cameras, rng):
    """The detection loop `_emit_detections` replaced: every camera of the
    vehicle's direction tested at every sample."""
    det_cfg = cfg.detection
    dets = []
    for v in vehicles:
        ts = time_grid(v.times[0], v.times[-1], 1.0 / det_cfg.rate_hz)
        xs = np.interp(ts, v.times, v.x)
        ys = np.interp(ts, v.times, v.y)
        for t, x, y in zip(ts, xs, ys):
            for cam in cameras:
                if cam.direction != v.direction or not (cam.fov[0] <= x <= cam.fov[1]):
                    continue
                if rng.random() < det_cfg.miss_rate:
                    continue
                nx = x + rng.normal(0.0, det_cfg.noise_ft)
                ny = y + rng.normal(0.0, det_cfg.noise_ft * 0.5)
                if not (cam.fov[0] <= nx <= cam.fov[1]):
                    continue
                dims = tuple(max(0.5, d + rng.normal(0.0, det_cfg.dims_noise_ft))
                             for d in v.dims)
                conf = float(np.clip(rng.normal(det_cfg.conf_mean, det_cfg.conf_std),
                                     0.05, 1.0))
                dets.append(Detection(float(t), cam.camera_id,
                                      (float(nx), float(ny)) + dims, v.cls, conf))
    dets.sort(key=lambda d: (d.t, d.camera))
    return dets


def reference_emit_snapshots(cfg, result_stub, cameras, rng):
    """The snapshot loop `_emit_snapshots` replaced: one projection per
    kept point."""
    snapshots = []
    sift_maps = {c.camera_id: [] for c in cameras}
    for cam in cameras:
        hinv = cam.reference.hinv
        for t in np.arange(0.0, cfg.duration_s + 1e-9, cfg.snapshot_interval_s):
            v = result_stub.drift_vector(cam.pole, float(t))
            pts = []
            for cp in cam.points:
                if rng.random() < cfg.snapshot_dropout:
                    continue
                noisy = (np.array([cp.world.x, cp.world.y]) - v
                         + rng.normal(0.0, cfg.drift.noise_ft, 2))
                im = geometry._project_h(hinv, noisy[None, :])[0]
                pts.append((cp.id, ImagePoint(im[0], im[1])))
            if len(pts) >= 4:
                snapshots.append(RediscoverySnapshot(
                    float(t), cam.camera_id, cam.direction, tuple(pts)))
            b = sim.SIFT_BIAS_FT * result_stub.ground_truth.drift_dir[cam.pole]
            vs = v + b + rng.normal(0.0, sim.SIFT_NOISE_FT, 2)
            trans = np.array([[1.0, 0.0, -vs[0]], [0.0, 1.0, -vs[1]], [0, 0, 1.0]])
            m = geometry.normalize_h(hinv @ trans @ cam.reference.h)
            sift_maps[cam.camera_id].append((float(t), m))
    return snapshots, sift_maps


@pytest.mark.parametrize("kw", [
    dict(),
    dict(road=RoadConfig(kind="arc", radius_ft=3000.0), snapshot_dropout=0.5,
         detection=DetectionConfig(miss_rate=0.3, rate_hz=7.5)),
    dict(snapshot_dropout=0.5, pole_outage=1,
         detection=DetectionConfig(miss_rate=0.3, rate_hz=7.5)),
    dict(road=RoadConfig(kind="arc", radius_ft=3000.0),
         detection=DetectionConfig(miss_rate=0.0)),
], ids=["straight", "arc-miss-dropout-7.5hz", "straight-outage-miss-dropout-7.5hz",
        "arc-no-miss"])
def test_simulate_equals_reference_loops(monkeypatch, kw):
    cfg = small_config(vehicle_count=12, duration_s=40.0, snapshot_interval_s=5.0, **kw)
    got = simulate(cfg)
    for name, ref in (("_make_camera", reference_make_camera),
                      ("_emit_detections", reference_emit_detections),
                      ("_emit_snapshots", reference_emit_snapshots)):
        monkeypatch.setattr(sim, name, ref)
    want = simulate(cfg)
    assert len(got.detections) > 100 and len(got.snapshots) > 10
    assert [det_key(d) for d in got.detections] == [det_key(d) for d in want.detections]
    assert [(s.epoch, s.camera_id, s.direction, s.points) for s in got.snapshots] == \
        [(s.epoch, s.camera_id, s.direction, s.points) for s in want.snapshots]
    assert got.sift_maps.keys() == want.sift_maps.keys()
    for cid, maps in got.sift_maps.items():
        assert [e for e, _ in maps] == [e for e, _ in want.sift_maps[cid]]
        assert all(np.array_equal(m, w) for (_, m), (_, w) in zip(maps, want.sift_maps[cid]))
    assert [(c.camera_id, c.fov, c.reference.h.tobytes(), c.points.points)
            for c in got.cameras] == [(c.camera_id, c.fov, c.reference.h.tobytes(),
                                       c.points.points) for c in want.cameras]


def test_formats_table_lists_each_setting_with_its_default_and_range():
    """FORMATS.md's scene-config table has one row per declared setting, in
    declaration order, with its type, default and range."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "FORMATS.md")
    with open(path) as f:
        text = f.read()
    header = "| field | type | default | range |\n|---|---|---|---|\n"
    table = text[text.index(header) + len(header):].split("\n\n")[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in table.splitlines()]
    types = {float: "number", int: "integer", type(None): "integer or null", str: "string"}
    declared = []
    for name, f, default in settings(SceneConfig()):
        rng = f.metadata.get("range")
        shown = (" or ".join(f'"{c}"' for c in rng) if isinstance(rng, tuple)
                 else rng or "any")
        declared.append([name, types[type(default)], json.dumps(default), shown])
    assert rows == declared
