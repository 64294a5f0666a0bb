import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvitrack import geometry as g
from curvitrack.errors import (DegenerateConfiguration, HorizonPoint,
                               InsufficientHeightInfo, ParallelVerticals)
from curvitrack.geometry import (CorrespondencePoint, Homography, ImagePoint,
                                 Prism3D, StatePlanePoint)
from curvitrack.simulator import SceneConfig, simulate

from conftest import points_from_h, random_homography


def grid_pixels(nx=4, ny=3, spacing=300.0):
    xs = np.arange(nx) * spacing + 100.0
    ys = np.arange(ny) * spacing + 100.0
    return np.array([(x, y) for x in xs for y in ys])


# ---------------------------------------------------------------------------
# fit_homography

def test_identity_case():
    img = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0], [100.0, 100.0]])
    pts = [CorrespondencePoint(f"p{i}", ImagePoint(*p), StatePlanePoint(*p, 0.0))
           for i, p in enumerate(img)]
    h, inliers = g.fit_homography(pts)
    assert np.allclose(h.h, np.eye(3), atol=1e-9)
    assert len(inliers) == 4


def test_recovers_known_homography(rng):
    h_true = random_homography(rng)
    pts, _ = points_from_h(h_true, grid_pixels())
    h, inliers = g.fit_homography(pts, seed=0)
    assert np.abs(h.h - h_true).max() < 1e-9
    assert len(inliers) == len(pts)


def test_default_inlier_threshold_is_two_feet():
    assert g.DEFAULT_INLIER_FT == 2.0


def test_permutation_invariance(rng):
    h_true = random_homography(rng)
    pts, _ = points_from_h(h_true, grid_pixels())
    h_a, _ = g.fit_homography(pts, seed=0)
    shuffled = list(pts)
    np.random.default_rng(5).shuffle(shuffled)
    h_b, _ = g.fit_homography(shuffled, seed=0)
    assert np.abs(h_a.h - h_b.h).max() < 1e-9


def test_ransac_excludes_gross_outliers(rng):
    h_true = random_homography(rng)
    pts, _ = points_from_h(h_true, grid_pixels())
    bad = pts[0]
    pts[0] = CorrespondencePoint(
        bad.id, bad.image,
        StatePlanePoint(bad.world.x + 40.0, bad.world.y - 25.0, 0.0))
    h, inliers = g.fit_homography(pts, seed=2)
    assert bad.id not in inliers
    assert len(inliers) == len(pts) - 1
    assert np.abs(h.h - h_true).max() < 1e-6


def test_collinear_points_rejected():
    img = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
    pts = [CorrespondencePoint(f"p{i}", ImagePoint(*p), StatePlanePoint(*p, 0.0))
           for i, p in enumerate(img)]
    with pytest.raises(DegenerateConfiguration):
        g.fit_homography(pts)


def test_too_few_points():
    pts = [CorrespondencePoint(f"p{i}", ImagePoint(i, i * 2.0),
                               StatePlanePoint(i, i * 2.0, 0.0))
           for i in range(3)]
    with pytest.raises(DegenerateConfiguration):
        g.fit_homography(pts)


def loop_dlt(img, world):
    """Reference: the DLT with its design matrix built one point at a time."""
    def norm_transform(pts):
        c = pts.mean(axis=0)
        d = np.sqrt(((pts - c) ** 2).sum(axis=1)).mean()
        s = np.sqrt(2.0) / d if d > 1e-12 else 1.0
        return np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1.0]])

    ti, tw = norm_transform(img), norm_transform(world)
    ih, wh = g._project_h(ti, img), g._project_h(tw, world)
    a = np.zeros((2 * len(img), 9))
    for i in range(len(img)):
        x, y = ih[i]
        u, v = wh[i]
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y, -u]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y, -v]
    _, _, vt = np.linalg.svd(a)
    return g.normalize_h(np.linalg.inv(tw) @ vt[-1].reshape(3, 3) @ ti)


def test_dlt_equals_loop_reference():
    rng = np.random.default_rng(12)
    for n in (4, 5, 17, 60):
        img = rng.uniform(0.0, 1900.0, (n, 2))
        world = rng.uniform(-1e4, 1e4, (n, 2))
        assert np.array_equal(g._dlt(img, world), loop_dlt(img, world))


# ---------------------------------------------------------------------------
# the refine against MINPACK's Levenberg-Marquardt, which it replaced

def minpack_refine(h0, img, world):
    """Reference: MINPACK LM with a finite-difference Jacobian, on the same
    residual with the denominator clamped at 1e-12."""
    from scipy.optimize import least_squares

    def residual(params):
        m = np.append(params, 1.0).reshape(3, 3)
        q = (m @ np.hstack([img, np.ones((len(img), 1))]).T).T
        denom = np.where(np.abs(q[:, 2]) < 1e-12, 1e-12, q[:, 2])
        return (q[:, :2] / denom[:, None] - world).ravel()

    res = least_squares(residual, h0.ravel()[:8], method="lm", xtol=1e-15, ftol=1e-15)
    return g.normalize_h(np.append(res.x, 1.0).reshape(3, 3))


def refine_cases():
    """(image, world) point sets: random homographies with 0 to 3 ft of
    noise; every simulated camera's points, exact and with 1 px of noise;
    and its rediscovery snapshots, as restim fits them."""
    rng = np.random.default_rng(31)
    for k in range(40):
        h = random_homography(rng)
        img = rng.uniform([0.0, 0.0], [1920.0, 1080.0], size=(int(rng.integers(5, 60)), 2))
        q = (h @ np.hstack([img, np.ones((len(img), 1))]).T).T
        noise = (0.0, 0.1, 1.0, 3.0)[k % 4]
        yield img, q[:, :2] / q[:, 2:3] + rng.normal(0.0, noise, img.shape)
    scene = simulate(SceneConfig(duration_s=2.0, vehicle_count=1,
                                 snapshot_interval_s=2.0, seed=3))
    for cam in scene.cameras:
        img = np.array([[p.image.x, p.image.y] for p in cam.points])
        world = np.array([[p.world.x, p.world.y] for p in cam.points])
        yield img, world
        yield img + rng.normal(0.0, 1.0, img.shape), world
    where = {p.id: (p.world.x, p.world.y) for cam in scene.cameras for p in cam.points}
    for snap in scene.snapshots:
        yield (np.array([[p.x, p.y] for _, p in snap.points]),
               np.array([where[i] for i, _ in snap.points]))


def test_refine_no_worse_than_minpack():
    def sse(h, img, world):
        return float((g._residuals_ft(h, img, world) ** 2).sum())

    cases = 0
    for img, world in refine_cases():
        h0 = g._dlt(img, world)
        new = sse(g._refine_lm(h0, img, world), img, world)
        ref = sse(minpack_refine(h0, img, world), img, world)
        assert new <= ref * (1 + 1e-9) + 1e-18, (new, ref)
        cases += 1
    assert cases == 40 + 36 * 2 + 36 * 2


def test_refine_no_worse_than_minpack_on_gross_outliers():
    # 30% of the image points moved by hundreds of pixels, as a RANSAC
    # all-points refit meets them: some Gauss-Newton steps from the DLT
    # start raise the cost there, and only a damping that grows after a
    # rejected step gets past them.
    def sse(h, img, world):
        return float((g._residuals_ft(h, img, world) ** 2).sum())

    rng = np.random.default_rng(5)
    for _ in range(30):
        pts, _ = points_from_h(random_homography(rng), grid_pixels())
        img = np.array([[p.image.x, p.image.y] for p in pts])
        world = np.array([[p.world.x, p.world.y] for p in pts])
        img += (rng.random(len(img)) < 0.3)[:, None] * rng.normal(0.0, 300.0, img.shape)
        h0 = g._dlt(img, world)
        new = sse(g._refine_lm(h0, img, world), img, world)
        ref = sse(minpack_refine(h0, img, world), img, world)
        assert new <= ref * (1 + 1e-9) + 1e-18, (new, ref)


def test_refine_converges_from_far_starts():
    rng = np.random.default_rng(9)
    h_true = random_homography(rng)
    pts, _ = points_from_h(h_true, grid_pixels())
    img = np.array([[p.image.x, p.image.y] for p in pts])
    world = np.array([[p.world.x, p.world.y] for p in pts])
    for _ in range(10):
        h0 = h_true * (1.0 + rng.uniform(-1.0, 1.0, (3, 3)))   # every entry off by up to 100%
        h0[2, 2] = 1.0
        assert np.abs(g._refine_lm(h0, img, world) - h_true).max() < 1e-9


def test_refine_from_a_start_on_the_horizon_stays_finite():
    h_true = random_homography(np.random.default_rng(8))
    pts, _ = points_from_h(h_true, grid_pixels())
    img = np.array([[p.image.x, p.image.y] for p in pts])
    world = np.array([[p.world.x, p.world.y] for p in pts])
    h0 = h_true.copy()
    h0[2, 0] = -(h0[2, 1] * img[0, 1] + 1.0) / img[0, 0]   # point 0's denominator is 0
    h = g._refine_lm(h0, img, world)
    assert np.isfinite(h).all() and h[2, 2] == 1.0


def test_stacked_fit_recovers_a_four_point_problem_among_larger_ones():
    # Four points give an 8x9 design matrix, whose null vector only the full
    # V holds; stacked with larger problems, its padded rows must count nothing.
    rng = np.random.default_rng(15)
    counts = (4, 30, 37, 40)
    truth = [random_homography(rng) for _ in counts]
    mask = np.arange(max(counts)) < np.array(counts)[:, None]
    img, world = np.zeros(mask.shape + (2,)), np.zeros(mask.shape + (2,))
    for k, (h, n) in enumerate(zip(truth, counts)):
        pts, _ = points_from_h(h, rng.uniform([0.0, 0.0], [1920.0, 1080.0], (n, 2)))
        img[k, :n] = [(p.image.x, p.image.y) for p in pts]
        world[k, :n] = [(p.world.x, p.world.y) for p in pts]
    for rows in (np.s_[:], np.s_[:1, :4]):   # mixed, and the 4-point problem alone
        h0 = g._dlt(img[rows], world[rows], mask[rows])
        h = g._refine_lm(h0, img[rows], world[rows], mask[rows])
        for k, h_true in enumerate(truth[:len(h0)]):
            assert np.allclose(h0[k], h_true, rtol=1e-8, atol=1e-12)
            assert np.allclose(h[k], h_true, rtol=1e-8, atol=1e-12)


def test_fit_all_points_settles_only_spread_exact_fits(rng):
    # One stack: an exact spread problem, an exact one along a single image
    # line, and a spread one with a gross outlier.  Only the first is final.
    h_true = random_homography(rng)
    spread = rng.uniform([0.0, 0.0], [1920.0, 1080.0], (10, 2))
    line = np.column_stack([np.linspace(100.0, 1800.0, 10), np.linspace(200.0, 900.0, 10)])
    img = np.stack([spread, line, spread])
    world = np.stack([g._project_h(h_true, pts) for pts in img])
    world[2, 0] += (40.0, -25.0)
    h, ok = g.fit_all_points(img, world, np.ones((3, 10), dtype=bool))
    assert ok.tolist() == [True, False, False]
    assert np.allclose(h[0], h_true, rtol=1e-8, atol=1e-12)


def test_homography_is_slotted_and_inverts_on_first_use(rng):
    import copy

    hom = Homography(random_homography(rng), "c", "EB")
    assert not hasattr(hom, "__dict__")
    twin = copy.copy(hom)   # shares h; its inverse is not computed
    hinv = hom.hinv
    assert np.array_equal(hinv, np.linalg.inv(hom.h)) and hom.hinv is hinv
    assert not hinv.flags.writeable
    with pytest.raises((AttributeError, TypeError)):   # TypeError: frozen and slotted, 3.11
        hom.hinv = hinv
    assert "inv" not in repr(hom) and hom == twin


# ---------------------------------------------------------------------------
# projection

def test_project_identity():
    h = Homography(np.eye(3), "c", "EB")
    w = g.project_image_to_world(h, ImagePoint(100.0, 50.0))
    assert (w.x, w.y, w.z) == (100.0, 50.0, 0.0)


def test_project_pure_translation():
    t = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 20.0], [0.0, 0.0, 1.0]])
    w = g.project_image_to_world(Homography(t, "c", "EB"), ImagePoint(0.0, 0.0))
    assert (w.x, w.y) == (10.0, 20.0)


def test_horizon_point_raises():
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1e-3, 1.0]])
    with pytest.raises(HorizonPoint):
        g.project_image_to_world(Homography(h, "c", "EB"), ImagePoint(0.0, 1000.0))


@settings(max_examples=50, deadline=None)
@given(x=st.floats(0.0, 1920.0), y=st.floats(0.0, 1080.0))
def test_round_trip_property(x, y):
    h = np.array([[0.55, 0.03, 4200.0], [0.01, -0.45, 8800.0],
                  [2e-6, 2.2e-5, 1.0]])
    hom = Homography(h, "c", "EB")
    w = g.project_image_to_world(hom, ImagePoint(x, y))
    back = g.project_world_to_image(hom, w)
    assert abs(back.x - x) < 1e-9 and abs(back.y - y) < 1e-9


# ---------------------------------------------------------------------------
# 3D projection

def make_projection(rng):
    h_true = random_homography(rng)
    hom = Homography(h_true, "c", "EB")
    hinv = hom.hinv
    vp = np.array([900.0, -40000.0])
    p33 = 3e-6
    p = np.column_stack([hinv[:, 0], hinv[:, 1],
                         p33 * np.array([vp[0], vp[1], 1.0]), hinv[:, 2]])
    return hom, p, vp


def project_p(p, pts3):
    q = (p @ np.hstack([pts3, np.ones((len(pts3), 1))]).T).T
    return q[:, :2] / q[:, 2:3]


GRID_8 = np.array([[4000.0 + 300 * i, 8000.0 + 200 * j] for i in range(4) for j in range(2)])


def test_fit_projection3d_recovers_known(rng):
    hom, p_true, _ = make_projection(rng)
    world = GRID_8
    vlines, hsamples = [], []
    for x, y in world:
        b = project_p(p_true, np.array([[x, y, 0.0]]))[0]
        t = project_p(p_true, np.array([[x, y, 18.0]]))[0]
        vlines.append((ImagePoint(*b), ImagePoint(*t)))
        hsamples.append((StatePlanePoint(x, y, 18.0), ImagePoint(*t)))
    p3 = g.fit_projection3d(hom, vlines, hsamples)
    assert np.abs(p3.p - p_true).max() / np.abs(p_true).max() < 1e-6


def test_fit_projection3d_matches_bounded_brent():
    """The golden-section p33 costs no more than what scipy's bounded Brent
    finds from the same closed-form seed and bracket, on height samples with
    pixel noise.  (Where the minimum lies on the bracket's end, golden
    section gets closer to it than Brent, which stays clear of the bounds.)"""
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(5)
    for _ in range(300):
        hom, p_true, _ = make_projection(rng)
        world = np.column_stack([GRID_8, rng.uniform(8.0, 18.0, 8)])
        img = project_p(p_true, world) + rng.normal(0.0, 0.3, (8, 2))
        ends = [project_p(p_true, world * [1.0, 1.0, z]) for z in (0.0, 1.0)]
        vlines = [(ImagePoint(*b), ImagePoint(*t)) for b, t in zip(*ends)]
        p3 = g.fit_projection3d(hom, vlines, [(StatePlanePoint(*w), ImagePoint(*i))
                                             for w, i in zip(world, img)])
        vp = g.intersect_lines(vlines)
        column = np.array([vp.x, vp.y, 1.0])

        def cost(p33):
            p = p3.p.copy()
            p[:, 2] = p33 * column
            return float(((project_p(p, world) - img) ** 2).sum())

        hinv = hom.hinv
        q = np.column_stack([world[:, :2], np.ones(8)])
        seeds = [(q @ hinv[k] - img[:, k] * (q @ hinv[2])) / (world[:, 2] * (img[:, k] - c))
                 for k, c in enumerate(column[:2])]
        seed = float(np.median(np.concatenate(seeds)))
        span = max(abs(seed), 1e-6)
        res = minimize_scalar(cost, bounds=(seed - span, seed + span), method="bounded",
                              options={"xatol": 1e-15})
        ref = min(res.fun, cost(seed))
        assert cost(p3.p[2, 2]) <= ref * (1 + 1e-9), (cost(p3.p[2, 2]), ref)


def test_fit_projection3d_finds_the_minimum_beyond_the_seed_bracket():
    """With 1 px noise on low height samples the least-squares p33 can lie
    outside [seed - |seed|, seed + |seed|]; the fit still reaches it: no p33
    within 1e-4 of the fitted one, as scipy's bounded Brent finds it, costs
    less."""
    from scipy.optimize import minimize_scalar

    rng = np.random.default_rng(5)
    for _ in range(300):
        hom, p_true, _ = make_projection(rng)
        world = np.column_stack([GRID_8, rng.uniform(4.0, 14.0, 8)])
        img = project_p(p_true, world) + rng.normal(0.0, 1.0, (8, 2))
        ends = [project_p(p_true, world * [1.0, 1.0, z]) for z in (0.0, 1.0)]
        vlines = [(ImagePoint(*b), ImagePoint(*t)) for b, t in zip(*ends)]
        p3 = g.fit_projection3d(hom, vlines, [(StatePlanePoint(*w), ImagePoint(*i))
                                             for w, i in zip(world, img)])
        column = p3.p[:, 2] / p3.p[2, 2]

        def cost(p33):
            p = p3.p.copy()
            p[:, 2] = p33 * column
            return float(((project_p(p, world) - img) ** 2).sum())

        fit = p3.p[2, 2]
        res = minimize_scalar(cost, bounds=(fit - 1e-4, fit + 1e-4), method="bounded",
                              options={"xatol": 1e-15})
        assert cost(fit) <= res.fun * (1 + 1e-9), (cost(fit), res.fun)


def test_golden_min_ends_at_float_resolution():
    """A tolerance finer than the float spacing at the bracket still ends the
    search, at the minimum; a searched point no better than the anchor
    returns the anchor."""
    x = g._golden_min(lambda v: (v - 1234.5) ** 2, 0.0, 3000.0, 1e-15, 0.0)
    assert x == pytest.approx(1234.5, abs=1e-9)
    assert g._golden_min(lambda v: 0.0, 0.0, 1.0, 1e-6, 0.25) == 0.25


def test_projection3d_columns_match_inverse_homography(rng):
    hom, p_true, _ = make_projection(rng)
    p3 = g.Projection3D(p_true)
    hinv = hom.hinv
    assert np.allclose(p3.p[:, [0, 1, 3]], hinv)
    # planar recovery round-trips
    assert np.allclose(p3.homography().h, hom.h)


def test_projection3d_all_samples_on_ground(rng):
    hom, p_true, _ = make_projection(rng)
    b = project_p(p_true, np.array([[4000.0, 8000.0, 0.0]]))[0]
    t = project_p(p_true, np.array([[4000.0, 8000.0, 10.0]]))[0]
    with pytest.raises(InsufficientHeightInfo):
        g.fit_projection3d(hom, [(ImagePoint(*b), ImagePoint(*t)),
                                 (ImagePoint(b[0] + 50, b[1]), ImagePoint(t[0] + 40, t[1]))],
                           [(StatePlanePoint(4000.0, 8000.0, 0.0), ImagePoint(*b))])


def test_parallel_verticals_rejected():
    l1 = (ImagePoint(10.0, 10.0), ImagePoint(10.0, 100.0))
    l2 = (ImagePoint(200.0, 10.0), ImagePoint(200.0, 100.0))
    with pytest.raises(ParallelVerticals):
        g.intersect_lines([l1, l2])


def test_prism_projection_z0_matches_homography(rng):
    hom, p_true, _ = make_projection(rng)
    p3 = g.Projection3D(p_true)
    corners = np.zeros((8, 3))
    base = np.array([[4000.0, 8000.0], [4000.0, 8006.0],
                     [4000.0, 8000.0], [4000.0, 8006.0],
                     [4016.0, 8000.0], [4016.0, 8006.0],
                     [4016.0, 8000.0], [4016.0, 8006.0]])
    corners[:, :2] = base
    prism = Prism3D(corners)
    via_p = g.project_prism_to_image(p3, prism)
    via_h = g._project_h(hom.hinv, base)
    for got, want in zip(via_p, via_h):
        assert abs(got.x - want[0]) < 1e-9 and abs(got.y - want[1]) < 1e-9


def test_prism_from_footprint_follows_corner_order():
    footprint = [[4000.0, 8000.0], [4000.0, 7994.0], [4016.0, 8000.0], [4016.0, 7994.0]]
    prism = Prism3D.from_footprint(footprint, 5.0)
    corner = dict(zip(g.CORNER_ORDER, prism.corners.tolist()))
    for name, (x, y) in zip(("bbl", "bbr", "fbl", "fbr"), footprint):
        assert corner[name] == [x, y, 0.0]
        assert corner[name[0] + "t" + name[2]] == [x, y, 5.0]
    assert prism.dims == (16.0, 6.0, 5.0)


def test_prism_dims_of_a_turned_prism():
    u, n = np.array([np.cos(0.7), np.sin(0.7)]), np.array([-np.sin(0.7), np.cos(0.7)])
    bbl = np.array([4000.0, 8000.0])
    prism = Prism3D.from_footprint([bbl, bbl - 8.5 * n, bbl + 60.0 * u,
                                    bbl + 60.0 * u - 8.5 * n], 13.0)
    assert prism.dims == pytest.approx((60.0, 8.5, 13.0), abs=1e-12)
    assert prism.back_bottom_center[:2] == pytest.approx(bbl - 4.25 * n, abs=1e-12)


def test_prism_projection_direct_multiply_oracle(rng):
    hom, p_true, _ = make_projection(rng)
    p3 = g.Projection3D(p_true)
    corners = np.zeros((8, 3))
    corners[:, :2] = [[4000, 8000], [4000, 8004], [4000, 8000], [4000, 8004],
                      [4010, 8000], [4010, 8004], [4010, 8000], [4010, 8004]]
    corners[[2, 3, 6, 7], 2] = 7.0
    prism = Prism3D(corners)
    got = g.project_prism_to_image(p3, prism)
    want = project_p(p_true, corners)
    assert np.abs(np.array([[q.x, q.y] for q in got]) - want).max() < 1e-9


def test_raising_prism_moves_tops_toward_vanishing_point(rng):
    hom, p_true, vp = make_projection(rng)
    p3 = g.Projection3D(p_true)
    base = np.array([4200.0, 8300.0])
    p0 = project_p(p_true, np.array([[base[0], base[1], 0.0]]))[0]
    p5 = project_p(p_true, np.array([[base[0], base[1], 5.0]]))[0]
    # p0, p5 and the vanishing point are collinear
    v1 = p5 - p0
    v2 = vp - p0
    cross = v1[0] * v2[1] - v1[1] * v2[0]
    assert abs(cross) / (np.linalg.norm(v1) * np.linalg.norm(v2)) < 1e-9
    # and p5 lies between p0 and the vanishing point
    assert 0.0 < np.dot(v1, v2) / np.dot(v2, v2) < 1.0


# ---------------------------------------------------------------------------
# lift

def lifted_fixture(rng, height):
    hom, p_true, _ = make_projection(rng)
    p3 = g.Projection3D(p_true)
    base = np.array([[4100.0, 8100.0], [4100.0, 8106.0],
                     [4115.0, 8100.0], [4115.0, 8106.0]])
    foot = [ImagePoint(*q) for q in g._project_h(hom.hinv, base)]
    tops = [ImagePoint(*q) for q in
            project_p(p_true, np.hstack([base, np.full((4, 1), height)]))]
    return p3, foot, tops


def test_lift_zero_height(rng):
    p3, foot, _ = lifted_fixture(rng, 0.0)
    prism = g.lift_image_box_to_prism(p3, foot, foot)
    assert prism.height < 1e-3


def test_lift_recovers_injected_height(rng):
    p3, foot, tops = lifted_fixture(rng, 6.0)
    prism = g.lift_image_box_to_prism(p3, foot, tops)
    assert abs(prism.height - 6.0) < 0.01


def test_lift_horizon_footprint_raises(rng):
    p3, foot, tops = lifted_fixture(rng, 6.0)
    h = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1e-3, 1.0]])
    hinv = np.linalg.inv(h)
    bad_p3 = g.Projection3D(np.column_stack(
        [hinv[:, 0], hinv[:, 1], 1e-6 * np.array([900.0, -4e4, 1.0]), hinv[:, 2]]))
    bad = [ImagePoint(0.0, 1000.0)] * 4
    with pytest.raises(HorizonPoint):
        g.lift_image_box_to_prism(bad_p3, bad, bad)


def lift_height_by_projection(p3, foot, tops):
    """Reference lift height: every evaluation of the cost projects the
    four top corners through P with _project_h."""
    base = g._project_h(p3.homography().h, np.array([[q.x, q.y] for q in foot]))
    hints = np.array([[q.x, q.y] for q in tops])

    def cost(height):
        try:
            proj = g._project_h(p3.p, np.hstack([base, np.full((4, 1), height)]))
        except HorizonPoint:
            return 1e12
        return float(np.linalg.norm(proj - hints, axis=1).mean())

    return cost, g._golden_min(cost, 0.0, g.HEIGHT_MAX_FT, g.HEIGHT_TOL_FT, 0.0)


def test_lift_cost_matches_per_evaluation_projection():
    gen = np.random.default_rng(11)
    for _ in range(40):
        hom, p_true, _ = make_projection(gen)
        p3 = g.Projection3D(p_true)
        x, y = gen.uniform(3900.0, 4300.0), gen.uniform(7900.0, 8300.0)
        length, width = gen.uniform(10.0, 60.0), gen.uniform(5.0, 9.0)
        base = np.array([[x, y], [x, y + width], [x + length, y], [x + length, y + width]])
        foot = [ImagePoint(*q) for q in g._project_h(hom.hinv, base)]
        tops3 = np.hstack([base, np.full((4, 1), gen.uniform(0.0, 15.0))])
        tops = [ImagePoint(*q) for q in project_p(p_true, tops3) + gen.normal(0.0, 2.0, (4, 2))]
        cost_ref, want = lift_height_by_projection(p3, foot, tops)
        cost = g._lift_cost(p3, g._project_h(hom.h, np.array([[q.x, q.y] for q in foot])),
                            np.array([[q.x, q.y] for q in tops]))
        for height in (0.0, 3.7, want, g.HEIGHT_MAX_FT):
            assert cost(height) == pytest.approx(cost_ref(height), rel=1e-9, abs=1e-9)
        assert abs(g.lift_image_box_to_prism(p3, foot, tops).height - want) <= g.HEIGHT_TOL_FT


def test_lift_cost_of_a_top_corner_at_the_horizon():
    # P maps (x, y, z) to (x, y, z - 5): at height 5 every top corner's
    # denominator vanishes
    p3 = g.Projection3D(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                  [0.0, 0.0, 1.0, -5.0]]))
    base = np.array([[1.0, 2.0], [1.0, 3.0], [4.0, 2.0], [4.0, 3.0]])
    cost = g._lift_cost(p3, base, base)
    assert cost(5.0) == 1e12
    assert cost(4.0) < 1e12


# ---------------------------------------------------------------------------
# point sets

def test_point_set_holds_arrays_and_rows(rng):
    pts, _ = points_from_h(random_homography(rng), grid_pixels())
    ps = g.PointSet(pts)
    assert len(ps) == len(pts) and list(ps) == pts and ps[3] == pts[3]
    assert ps.image.tolist() == [[p.image.x, p.image.y] for p in pts]
    assert ps.world.tolist() == [[p.world.x, p.world.y] for p in pts]
    assert ps.columns.tolist() == [[p.image.x for p in pts], [p.image.y for p in pts],
                                   [1.0] * len(pts)]
    assert ps.row_of == {p.id: i for i, p in enumerate(pts)}
    assert not ps.image.flags.writeable and not ps.world.flags.writeable
    assert ps == g.PointSet(list(pts)) and ps != g.PointSet(pts[:-1])
    assert g.PointSet.of(ps) is ps and g.PointSet.of(pts) == ps


# ---------------------------------------------------------------------------
# anchor decode

def decode_by_hand(anchor, reg):
    """Direct evaluation of all 8 corner formulas, written out longhand."""
    x_a, y_a, w_a, h_a = anchor
    x_c, y_c, x_l, y_l, x_w, y_w, x_h, y_h = reg
    return [
        (x_a + (x_c - x_l / 2 - x_w / 2 + x_h / 2) * w_a,
         y_a + (y_c - y_l / 2 - y_w / 2 + y_h / 2) * h_a),
        (x_a + (x_c - x_l / 2 + x_w / 2 + x_h / 2) * w_a,
         y_a + (y_c - y_l / 2 + y_w / 2 + y_h / 2) * h_a),
        (x_a + (x_c - x_l / 2 - x_w / 2 - x_h / 2) * w_a,
         y_a + (y_c - y_l / 2 - y_w / 2 - y_h / 2) * h_a),
        (x_a + (x_c - x_l / 2 + x_w / 2 - x_h / 2) * w_a,
         y_a + (y_c - y_l / 2 + y_w / 2 - y_h / 2) * h_a),
        (x_a + (x_c + x_l / 2 - x_w / 2 + x_h / 2) * w_a,
         y_a + (y_c + y_l / 2 - y_w / 2 + y_h / 2) * h_a),
        (x_a + (x_c + x_l / 2 + x_w / 2 + x_h / 2) * w_a,
         y_a + (y_c + y_l / 2 + y_w / 2 + y_h / 2) * h_a),
        (x_a + (x_c + x_l / 2 - x_w / 2 - x_h / 2) * w_a,
         y_a + (y_c + y_l / 2 - y_w / 2 - y_h / 2) * h_a),
        (x_a + (x_c + x_l / 2 + x_w / 2 - x_h / 2) * w_a,
         y_a + (y_c + y_l / 2 + y_w / 2 - y_h / 2) * h_a),
    ]


def test_decode_zero_regression_collapses_to_anchor():
    out = g.decode_anchor_detection((10.0, 20.0, 3.0, 4.0), (0.0,) * 8)
    for q in out:
        assert (q.x, q.y) == (10.0, 20.0)


def test_decode_matches_hand_expansion():
    anchor = (0.0, 0.0, 1.0, 1.0)
    reg = (0.5, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    out = g.decode_anchor_detection(anchor, reg)
    want = decode_by_hand(anchor, reg)
    assert (out[0].x, out[0].y) == (0.0, 0.5)  # back-bottom-left
    for got, (wx, wy) in zip(out, want):
        assert got.x == pytest.approx(wx, abs=1e-12)
        assert got.y == pytest.approx(wy, abs=1e-12)


def test_decode_random_against_hand_expansion(rng):
    for _ in range(20):
        anchor = tuple(rng.uniform(0.5, 100.0, 4))
        reg = tuple(rng.uniform(-2.0, 2.0, 8))
        out = g.decode_anchor_detection(anchor, reg)
        want = decode_by_hand(anchor, reg)
        for got, (wx, wy) in zip(out, want):
            assert abs(got.x - wx) < 1e-9 and abs(got.y - wy) < 1e-9


def test_decode_scales_with_anchor_dims():
    reg = (0.1, -0.2, 0.5, 0.3, 0.2, 0.1, 0.4, 0.6)
    a = g.decode_anchor_detection((5.0, 5.0, 2.0, 3.0), reg)
    b = g.decode_anchor_detection((5.0, 5.0, 4.0, 6.0), reg)
    for qa, qb in zip(a, b):
        assert (qb.x - 5.0) == pytest.approx(2 * (qa.x - 5.0))
        assert (qb.y - 5.0) == pytest.approx(2 * (qa.y - 5.0))


@given(dx=st.floats(-500.0, 500.0), dy=st.floats(-500.0, 500.0))
@settings(max_examples=30, deadline=None)
def test_decode_commutes_with_anchor_translation(dx, dy):
    reg = (0.3, 0.1, 0.5, 0.2, 0.4, 0.3, 0.2, 0.7)
    a = g.decode_anchor_detection((0.0, 0.0, 2.0, 3.0), reg)
    b = g.decode_anchor_detection((dx, dy, 2.0, 3.0), reg)
    for qa, qb in zip(a, b):
        assert qb.x - qa.x == pytest.approx(dx, abs=1e-9)
        assert qb.y - qa.y == pytest.approx(dy, abs=1e-9)


def test_labeled_image_point_bounds():
    ImagePoint.labeled(0.0, 0.0)
    ImagePoint.labeled(1920.0, 1080.0)
    with pytest.raises(ValueError):
        ImagePoint.labeled(-1.0, 50.0)
    with pytest.raises(ValueError):
        ImagePoint.labeled(100.0, 2000.0)
