import numpy as np
import pytest

from curvitrack import drift, geometry
from curvitrack.drift import HomographyTimeline, RediscoverySnapshot
from curvitrack.errors import (AllOutliers, DataInvariantViolation, DegenerateConfiguration,
                               RejectedInstant, SingularFit)
from curvitrack.geometry import CorrespondencePoint, Homography, ImagePoint, StatePlanePoint

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


def loop_timeline(reference_points, snapshots):
    """Reference: each snapshot joined and fit on its own through
    fit_homography, in epoch order; returns (instants, rejections)."""
    by_id = {p.id: p for p in reference_points}
    instants, rejected = [], []
    for snap in sorted(snapshots, key=lambda s: s.epoch):
        if any(i not in by_id for i, _ in snap.points):
            raise DataInvariantViolation(f"unknown id at epoch {snap.epoch}")
        joined = [CorrespondencePoint(i, im, by_id[i].world) for i, im in snap.points]
        if len(joined) < drift.MIN_INSTANT_INLIERS:
            rejected.append((snap.epoch, f"only {len(joined)} rediscovered points"))
            continue
        try:
            h, inliers = geometry.fit_homography(
                joined, snap.camera_id, snap.direction,
                seed=int(snap.epoch * 1000) & 0x7FFFFFFF)
        except (DegenerateConfiguration, SingularFit) as exc:
            rejected.append((snap.epoch, str(exc)))
            continue
        world = np.array([[p.world.x, p.world.y] for p in joined if p.id in set(inliers)])
        if len(inliers) < drift.MIN_INSTANT_INLIERS:
            rejected.append((snap.epoch, f"only {len(inliers)} inliers"))
        elif geometry.points_collinear_within(world, drift.COLLINEAR_BAND_FT):
            rejected.append((snap.epoch, "collinear"))
        else:
            instants.append((snap.epoch, h, inliers))
    return instants, rejected


def test_timeline_matches_a_per_snapshot_loop(monkeypatch):
    h = random_homography(np.random.default_rng(43))
    grid = np.array([(x, y) for x in np.linspace(100.0, 1800.0, 9)
                     for y in (150.0, 350.0, 550.0, 750.0, 950.0)])
    pts, ref = points_from_h(h, grid, camera="c1", direction="EB")
    g = np.random.default_rng(44)
    # one lane's markers: within 0.2 ft of a line, so inside the collinear band
    lane, _ = points_from_h(h, np.column_stack([np.linspace(150.0, 1750.0, 9), np.full(9, 650.0)]))
    pts += [CorrespondencePoint(f"lane{k}", p.image, StatePlanePoint(
        p.world.x, p.world.y + g.uniform(-0.2, 0.2), 0.0)) for k, p in enumerate(lane)]

    def noisy(snap, keep, px=0.3):
        chosen = [q for q, k in zip(snap.points, keep) if k]
        return RediscoverySnapshot(snap.epoch, "c1", "EB", tuple(
            (i, ImagePoint(im.x + g.normal(0.0, px), im.y + g.normal(0.0, px)))
            for i, im in chosen))

    snaps = [noisy(snapshot_for(h, pts[:45], (0.1 * k, -0.05 * k), 30.0 * k),
                   g.random(45) > g.uniform(0.0, 0.6)) for k in range(1, 31)]
    assert len({len(s.points) for s in snaps}) > 5
    # injected: three gross outliers, and one point a few feet off (RANSAC
    # decides both); five points; one lane
    for k, shift, moved in ((4, (300.0, -200.0), (0, 3, 7)), (19, (12.0, -8.0), (5,))):
        pts_k = list(snaps[k].points)
        for j in moved:
            pts_k[j] = (pts_k[j][0], ImagePoint(pts_k[j][1].x + shift[0], pts_k[j][1].y + shift[1]))
        snaps[k] = RediscoverySnapshot(snaps[k].epoch, "c1", "EB", tuple(pts_k))
    snaps[9] = noisy(snaps[9], [True] * 5 + [False] * (len(snaps[9].points) - 5))
    snaps[14] = noisy(snapshot_for(h, pts, (1.0, 0.5), snaps[14].epoch),
                      [p.id.startswith("lane") for p in pts])
    order = g.permutation(len(snaps))

    calls = []
    fit_homography = geometry.fit_homography
    monkeypatch.setattr(geometry, "fit_homography",
                        lambda *a, **k: calls.append(a) or fit_homography(*a, **k))
    tl, rejected = drift.build_timeline(ref, pts, [snaps[i] for i in order])
    monkeypatch.undo()
    want, want_rejected = loop_timeline(pts, snaps)

    assert rejected == want_rejected
    assert [r for e, r in rejected] == ["only 5 rediscovered points", "collinear"]
    assert len(calls) == 3   # the outliers and the lane; the rest fit as one stack
    assert [(e, inl) for e, _, inl in tl.instants] == [(e, inl) for e, _, inl in want]
    inliers = {e: inl for e, _, inl in tl.instants}
    assert len(inliers[snaps[4].epoch]) == len(snaps[4].points) - 3
    assert len(inliers[snaps[19].epoch]) == len(snaps[19].points) - 1
    for (_, h_t, _), (_, h_w, _) in zip(tl.instants, want):
        assert drift.metric_full_drift(pts, h_t, h_w).max < 1e-6

    unknown = RediscoverySnapshot(
        400.0, "c1", "EB", snaps[0].points + (("nope", ImagePoint(5.0, 5.0)),))
    for fit in (drift.build_timeline, lambda r, p, s: loop_timeline(p, s)):
        with pytest.raises(DataInvariantViolation):
            fit(ref, pts, snaps + [unknown])


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


def loop_dynamic(timeline):
    """Reference: the window doubled and the kernel mean taken one grid
    epoch at a time."""
    epochs, mats = drift._surviving(timeline)
    span = max(epochs[-1] - epochs[0], drift.GRID_SPACING_S)
    out = []
    for t in epochs[0] + np.arange(0.0, (epochs[-1] - epochs[0]) + 5.0, drift.GRID_SPACING_S):
        half = drift.BASE_WINDOW_S
        while np.count_nonzero(np.abs(epochs - t) <= half) < drift.MIN_WINDOW_COUNT and half < span:
            half *= 2.0
        inside = np.abs(epochs - t) <= half
        w = np.exp(-0.5 * ((epochs[inside] - t) / (half / 3.0)) ** 2)
        out.append((t, geometry.normalize_h(np.tensordot(w, mats[inside], axes=1) / w.sum())))
    return out


@pytest.mark.parametrize("count", [4, 40])
def test_dynamic_matches_a_per_epoch_loop(scene, count):
    # irregular gaps, so the window differs between grid epochs; four
    # instants never fill MIN_WINDOW_COUNT, and the window reaches the span
    h, pts, ref = scene
    g = np.random.default_rng(count)
    epochs = np.cumsum(g.uniform(5.0, 250.0, count))
    snaps = [snapshot_for(h, pts, (g.normal(0.0, 0.3), g.normal(0.0, 0.3)), t) for t in epochs]
    tl, _ = drift.build_timeline(ref, pts, snaps)
    est, want = drift.build_dynamic(tl), loop_dynamic(tl)
    assert [t for t, _ in est] == [t for t, _ in want]
    for (_, h_t), (_, m) in zip(est, want):
        assert np.allclose(h_t.h, m, rtol=1e-12, atol=1e-18)


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


def test_baseline_items_equal_per_map_construction(scene, rng):
    h, pts, ref = scene
    tl = HomographyTimeline("c1", "EB", ref)
    tl.sift_maps = [(e, np.eye(3) + rng.normal(0.0, 1e-3, (3, 3))) for e in (50.0, 10.0, 30.0)]
    base = drift.build_baseline(tl)
    assert len(base) == 3
    for (t, hom), (e, m) in zip(base, tl.sift_maps):
        assert t == e
        assert np.array_equal(hom.h, Homography(ref.h @ np.linalg.inv(m), "c1", "EB").h)


def test_baseline_names_the_first_singular_map(scene):
    h, pts, ref = scene
    tl = HomographyTimeline("c1", "EB", ref)
    tl.sift_maps = [(10.0, np.eye(3)), (20.0, np.zeros((3, 3))), (30.0, np.zeros((3, 3)))]
    with pytest.raises(SingularFit, match=r"^alignment map at epoch 20.0 is singular$"):
        drift.build_baseline(tl)


# ---------------------------------------------------------------------------
# stacked estimates

def test_estimate_stack_items_equal_per_record_homographies(rng):
    mats = np.stack([random_homography(rng) * rng.uniform(0.5, 2.0) for _ in range(6)])
    epochs = 10.0 * np.arange(6)
    stack = drift.EstimateStack(epochs, mats, "c1", "WB")
    assert len(stack) == 6 and not stack.h.flags.writeable
    for (t, hom), m, want_t in zip(stack, mats, epochs):
        want = Homography(m, "c1", "WB")
        assert type(t) is float and t == want_t
        assert np.array_equal(hom.h, want.h) and not hom.h.flags.writeable
        assert (hom.camera_id, hom.direction) == ("c1", "WB")
        assert np.array_equal(hom.hinv, want.hinv)
    assert np.array_equal(stack[-1][1].h, Homography(mats[-1]).h)


def test_ill_conditioned_matrix_in_a_stack_raises_the_homography_message(rng):
    good = random_homography(rng)
    bad, worse = np.diag([1.0, 1e-12, 1.0]), np.diag([1.0, 1e-14, 1.0])
    with pytest.raises(SingularFit) as single:
        Homography(bad)
    with pytest.raises(SingularFit) as stacked:
        drift.EstimateStack([0.0, 10.0, 20.0, 30.0], [good, bad, good, worse], "c1", "EB")
    assert str(stacked.value) == str(single.value)


def old_dynamic_at(estimates, t):
    """The list rule: the first estimate whose epoch is closest to t."""
    return estimates[int(np.argmin([abs(e - t) for e, _ in estimates]))][1]


def test_dynamic_at_matches_the_list_rule_on_ties_and_unsorted_epochs(scene, rng):
    h, pts, ref = scene
    tl = timeline_with_drifts(scene, [(0.1 * i, -0.05 * i) for i in range(12)])
    tl.sift_maps = [(e, np.eye(3) + rng.normal(0.0, 1e-3, (3, 3)))
                    for e in (50.0, 10.0, 30.0, 20.0, 40.0)]
    for est in (drift.build_dynamic(tl), drift.build_baseline(tl)):
        as_list = list(est)
        # every 2.5 s: the midpoints between grid or map epochs are exact ties
        for t in np.arange(-5.0, 400.0, 2.5):
            assert np.array_equal(drift.dynamic_at(est, t).h, old_dynamic_at(as_list, t).h)
    with pytest.raises(ValueError):
        drift.dynamic_at(drift.EstimateStack([], np.empty((0, 3, 3)), "c1", "EB"), 0.0)


# ---------------------------------------------------------------------------
# metrics

def test_error_stats_equal_numpy_mean_max_std():
    gen = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 44, 129, 1000):
        d = gen.exponential(3.0, n)
        s = drift.ErrorStats.from_distances(d)
        assert (s.mean, s.max, s.std, s.count) == (d.mean(), d.max(), d.std(), n)


def test_metrics_equal_on_a_point_set_and_a_list(scene):
    h, pts, ref = scene
    ps = geometry.PointSet(pts)
    snap = snapshot_for(h, pts, (1.0, -0.5), 60.0)
    partial = RediscoverySnapshot(90.0, "c1", "EB",
                                  snap.points[::2] + (("nope", ImagePoint(5.0, 5.0)),))
    other = Homography(geometry.normalize_h(translation(0.6, 0.8) @ h), "c1", "EB")
    assert drift.metric_fitness(ps, snap, other) == drift.metric_fitness(pts, snap, other)
    assert drift.metric_full_drift(ps, ref, other) == drift.metric_full_drift(pts, ref, other)
    assert drift.metric_sub_drift(ps, partial, other) == drift.metric_sub_drift(pts, partial, other)
    assert drift.metric_sub_drift(ps, partial, other).count == len(snap.points[::2])
    for points in (ps, pts):
        with pytest.raises(DataInvariantViolation, match="ids not in reference set"):
            drift.metric_fitness(points, partial, other)


def test_metrics_equal_the_per_homography_projections(scene):
    # the parent's formulas: one projection per homography, np.linalg.norm
    h, pts, ref = scene
    snap = snapshot_for(h, pts, (1.0, -0.5), 60.0)
    other = Homography(geometry.normalize_h(translation(0.6, 0.8) @ h), "c1", "EB")
    img = np.array([[p.image.x, p.image.y] for p in pts])
    world = np.array([[p.world.x, p.world.y] for p in pts])
    snap_img = np.array([[q.x, q.y] for _, q in snap.points])

    def stats(d):
        return drift.ErrorStats(float(d.mean()), float(d.max()), float(d.std()), d.size)

    assert drift.metric_full_drift(pts, ref, other) == stats(np.linalg.norm(
        geometry._project_h(ref.h, img) - geometry._project_h(other.h, img), axis=1))
    assert drift.metric_fitness(pts, snap, other) == stats(np.linalg.norm(
        geometry._project_h(other.h, snap_img) - world, axis=1))


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
