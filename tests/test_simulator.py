import dataclasses

import numpy as np
import pytest

from curvitrack import simulator as sim
from curvitrack.errors import ConfigInvalid
from curvitrack.simulator import (DetectionConfig, DriftConfig, GpsConfig,
                                  RoadConfig, SceneConfig, simulate)


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
    for snap in snaps[:4]:
        _, h_t, _ = dr.fit_instant(cam.points, snap)
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


def test_arc_road_simulates():
    res = simulate(small_config(road=RoadConfig(kind="arc", radius_ft=20000.0)))
    assert res.detections
