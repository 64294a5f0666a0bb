import numpy as np
import pytest

from curvitrack import drift, geometry
from curvitrack.drift import HomographyTimeline, RediscoverySnapshot
from curvitrack.errors import AllOutliers, RejectedInstant
from curvitrack.geometry import Homography, ImagePoint

from conftest import points_from_h, random_homography


IMG_GRID = np.array([(x, y) for x in (100.0, 500.0, 900.0, 1300.0)
                     for y in (150.0, 450.0, 750.0)])


def translation(vx, vy):
    return np.array([[1.0, 0.0, vx], [0.0, 1.0, vy], [0.0, 0.0, 1.0]])


def snapshot_for(h_ref, pts, v, epoch, camera="c1", direction="EB"):
    """Rediscovered image points consistent with world drift v = (vx, vy).

    A drifted camera maps pixel i to world a + v, so the pixel that still
    lands on the reference world point a is H^-1 (a - v).
    """
    hinv = np.linalg.inv(h_ref)
    out = []
    for p in pts:
        a = np.array([p.world.x - v[0], p.world.y - v[1], 1.0])
        q = hinv @ a
        out.append((p.id, ImagePoint(q[0] / q[2], q[1] / q[2])))
    return RediscoverySnapshot(epoch, camera, direction, tuple(out))


@pytest.fixture
def scene(rng):
    h = random_homography(rng)
    pts, ref = points_from_h(h, IMG_GRID, camera="c1", direction="EB")
    return h, pts, ref


def timeline_with_drifts(scene, drifts):
    h, pts, ref = scene
    snaps = [snapshot_for(h, pts, v, float(30 * (i + 1)))
             for i, v in enumerate(drifts)]
    tl, rejected = drift.build_timeline(ref, pts, snaps)
    assert not rejected
    return tl


# ---------------------------------------------------------------------------
# fit_instant

def test_fit_instant_zero_drift_recovers_reference(scene):
    h, pts, ref = scene
    snap = snapshot_for(h, pts, (0.0, 0.0), 100.0)
    epoch, h_t, inliers = drift.fit_instant(pts, snap)
    assert epoch == 100.0
    assert len(inliers) == len(pts)
    assert np.abs(h_t.h - h).max() < 1e-8


def test_fit_instant_known_drift(scene):
    h, pts, ref = scene
    v = (3.0, -1.5)
    snap = snapshot_for(h, pts, v, 60.0)
    _, h_t, _ = drift.fit_instant(pts, snap)
    # H_t should equal T_v . H
    want = geometry.normalize_h(translation(*v) @ h)
    assert np.abs(h_t.h - want).max() < 1e-8


def test_fit_instant_too_few_points(scene):
    h, pts, ref = scene
    snap = snapshot_for(h, pts[:4], (0.0, 0.0), 60.0)
    with pytest.raises(RejectedInstant):
        drift.fit_instant(pts, snap)


def test_fit_instant_collinear_band_rejected(scene, rng):
    h, pts, ref = scene
    # Rediscover only points whose world positions share (nearly) one line:
    # synthesize correspondences along a single lane.
    lane_img = np.column_stack([np.linspace(100.0, 1400.0, 8),
                                np.full(8, 400.0)])
    lane_pts, _ = points_from_h(h, lane_img, camera="c1", direction="EB")
    snap = snapshot_for(h, lane_pts, (0.0, 0.0), 60.0)
    with pytest.raises(RejectedInstant):
        drift.fit_instant(lane_pts, snap)


# ---------------------------------------------------------------------------
# static estimate

def test_static_identical_instants_returns_same(scene):
    tl = timeline_with_drifts(scene, [(2.0, 1.0)] * 5)
    h_static = drift.build_static(tl)
    want = geometry.normalize_h(translation(2.0, 1.0) @ scene[0])
    assert np.abs(h_static.h - want).max() < 1e-7


def test_static_rejects_scaled_entry_outlier(scene):
    h, pts, ref = scene
    tl = timeline_with_drifts(scene, [(1.0, 0.5)] * 9)
    # Append an instant whose translation entry is doubled.
    want = geometry.normalize_h(translation(1.0, 0.5) @ h)
    bad = want.copy()
    bad[0, 2] *= 2.0
    tl.add_instant(1000.0, Homography(bad, "c1", "EB"), [p.id for p in pts])
    h_static = drift.build_static(tl)
    assert np.abs(h_static.h - want).max() < 1e-9


def test_static_shuffle_independence(scene):
    h, pts, ref = scene
    drifts = [(0.5 * i, 0.2 * i) for i in range(8)]
    tl = timeline_with_drifts(scene, drifts)
    forward = drift.build_static(tl).h

    snaps = [snapshot_for(h, pts, v, float(30 * (i + 1)))
             for i, v in enumerate(drifts)]
    order = np.random.default_rng(3).permutation(len(snaps))
    tl2, _ = drift.build_timeline(ref, pts, [snaps[i] for i in order])
    assert np.abs(drift.build_static(tl2).h - forward).max() < 1e-12


def test_static_too_few_instants(scene):
    tl = timeline_with_drifts(scene, [(1.0, 0.0)] * 2)
    with pytest.raises(AllOutliers):
        drift.build_static(tl)


# ---------------------------------------------------------------------------
# dynamic estimate

def test_dynamic_constant_drift_is_flat(scene):
    tl = timeline_with_drifts(scene, [(2.0, -1.0)] * 12)
    est = drift.build_dynamic(tl)
    want = geometry.normalize_h(translation(2.0, -1.0) @ scene[0])
    for _, h_t in est:
        assert np.abs(h_t.h - want).max() < 1e-7


def test_dynamic_grid_spacing_is_ten_seconds(scene):
    tl = timeline_with_drifts(scene, [(1.0, 0.0)] * 12)
    est = drift.build_dynamic(tl)
    ts = np.array([e for e, _ in est])
    assert np.allclose(np.diff(ts), 10.0)
    assert ts[0] == tl.instants[0][0]


def test_dynamic_window_doubles_over_sparse_instants(scene):
    # instants 100 s apart: under 10 fall within 300 s (or 600 s) of the first
    # grid epoch, so its window doubles twice, to 1200 s
    h, pts, ref = scene
    epochs = 100.0 * np.arange(1, 13)
    snaps = [snapshot_for(h, pts, (0.5 * i, -0.25 * i), t) for i, t in enumerate(epochs)]
    tl, rejected = drift.build_timeline(ref, pts, snaps)
    assert not rejected
    t, est = drift.build_dynamic(tl)[0]
    assert t == epochs[0]
    assert np.count_nonzero(np.abs(epochs - t) <= 600.0) < drift.MIN_WINDOW_COUNT

    def kernel_mean(half):
        w = np.exp(-0.5 * ((epochs - t) / (half / 3.0)) ** 2) * (np.abs(epochs - t) <= half)
        mats = np.stack([h_i.h for _, h_i, _ in tl.instants])
        return geometry.normalize_h(np.tensordot(w, mats, axes=1) / w.sum())

    assert np.abs(est.h - kernel_mean(1200.0)).max() < 1e-9
    assert np.abs(est.h - kernel_mean(300.0)).max() > 1e-3


def test_dynamic_tracks_sinusoid_better_than_static(scene, rng):
    h, pts, ref = scene
    epochs = np.arange(0.0, 3600.0, 30.0)
    amp, period = 4.0, 1800.0
    snaps = [snapshot_for(h, pts, (amp * np.sin(2 * np.pi * t / period), 0.0), t)
             for t in epochs]
    # plus one spiked instant that outlier removal must absorb
    snaps[40] = snapshot_for(h, pts, (2500.0, 0.0), epochs[40])
    tl, _ = drift.build_timeline(ref, pts, snaps)
    h_static = drift.build_static(tl)
    est = drift.build_dynamic(tl)

    def err(h_fn):
        vals = []
        for t in epochs[::4]:
            truth = Homography(
                geometry.normalize_h(
                    translation(amp * np.sin(2 * np.pi * t / period), 0.0) @ h),
                "c1", "EB")
            vals.append(drift.metric_full_drift(pts, h_fn(t), truth).mean)
        return float(np.mean(vals))

    e_static = err(lambda t: h_static)
    e_dynamic = err(lambda t: drift.dynamic_at(est, t))
    assert e_dynamic < 0.5 * e_static


def test_all_outliers_raises(scene):
    # Three instants: removing the one with a doubled entry leaves only two,
    # which is below the minimum needed for an average.
    h, pts, ref = scene
    tl = HomographyTimeline("c1", "EB", ref)
    ids = [p.id for p in pts]
    tl.add_instant(0.0, Homography(h, "c1", "EB"), ids)
    tl.add_instant(30.0, Homography(h, "c1", "EB"), ids)
    bad = h.copy()
    bad[1, 2] *= 2.0
    tl.add_instant(60.0, Homography(bad, "c1", "EB"), ids)
    with pytest.raises(AllOutliers):
        drift.build_static(tl)


# ---------------------------------------------------------------------------
# baseline

def test_baseline_recovers_drifted_homography(scene):
    h, pts, ref = scene
    v = (3.0, 2.0)
    # Image alignment map from the reference frame to the drifted frame:
    # s = H^-1 . T(-v) . H (no systematic bias term here).
    sift = np.linalg.inv(h) @ translation(-v[0], -v[1]) @ h
    tl = HomographyTimeline("c1", "EB", ref)
    tl.sift_maps = [(60.0, sift)]
    (epoch, h_b), = drift.build_baseline(tl)
    want = geometry.normalize_h(translation(*v) @ h)
    assert epoch == 60.0
    assert np.abs(h_b.h - want).max() < 1e-8


# ---------------------------------------------------------------------------
# metrics

def test_fitness_zero_for_exact_fit(scene):
    h, pts, ref = scene
    snap = snapshot_for(h, pts, (0.0, 0.0), 60.0)
    stats = drift.metric_fitness(pts, snap, ref)
    assert stats.mean < 1e-9 and stats.max < 1e-9
    assert stats.count == len(pts)


def test_fitness_scales_with_image_noise(scene, rng):
    h, pts, ref = scene
    # Perturb rediscovered pixels; fitness of the *reference* homography
    # should grow roughly linearly with the pixel noise scale.
    means = []
    for scale in (0.5, 2.0):
        errs = []
        for trial in range(30):
            g = np.random.default_rng(100 * trial + int(scale * 10))
            noisy = tuple(
                (p.id, ImagePoint(p.image.x + g.normal(0, scale),
                                  p.image.y + g.normal(0, scale)))
                for p in pts)
            snap = RediscoverySnapshot(60.0, "c1", "EB", noisy)
            errs.append(drift.metric_fitness(pts, snap, ref).mean)
        means.append(np.mean(errs))
    assert means[1] == pytest.approx(4.0 * means[0], rel=0.15)


def test_full_drift_zero_for_identical(scene):
    h, pts, ref = scene
    stats = drift.metric_full_drift(pts, ref, ref)
    assert stats.mean == 0.0 and stats.max == 0.0


def test_full_drift_exact_unit_translation(scene):
    h, pts, ref = scene
    shifted = Homography(geometry.normalize_h(translation(0.6, 0.8) @ h),
                         "c1", "EB")
    stats = drift.metric_full_drift(pts, ref, shifted)
    assert stats.mean == pytest.approx(1.0, abs=1e-9)
    assert stats.std == pytest.approx(0.0, abs=1e-9)


def test_sub_drift_identity_snapshot_is_zero(scene):
    h, pts, ref = scene
    snap = RediscoverySnapshot(
        60.0, "c1", "EB", tuple((p.id, p.image) for p in pts))
    stats = drift.metric_sub_drift(pts, snap, ref)
    assert stats.max < 1e-12


def test_sub_drift_pixel_offset_oracle(scene):
    h, pts, ref = scene
    dpx = 2.0
    snap = RediscoverySnapshot(
        60.0, "c1", "EB",
        tuple((p.id, ImagePoint(p.image.x + dpx, p.image.y)) for p in pts))
    stats = drift.metric_sub_drift(pts, snap, ref)
    # Oracle: project each pair directly and measure the gap.
    gaps = []
    for p in pts:
        a = geometry.project_image_to_world(ref, p.image)
        b = geometry.project_image_to_world(
            ref, ImagePoint(p.image.x + dpx, p.image.y))
        gaps.append(np.hypot(a.x - b.x, a.y - b.y))
    assert stats.mean == pytest.approx(np.mean(gaps), abs=1e-12)
    assert stats.max == pytest.approx(np.max(gaps), abs=1e-12)
