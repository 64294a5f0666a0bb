import numpy as np
import pytest

from curvitrack import roadway as rw
from curvitrack.errors import AmbiguousMedian, NonMonotonic, OutOfExtent, TooShort
from curvitrack.geometry import Prism3D
from curvitrack.roadway import RoadwayBox, fit_centerline
from curvitrack.simulator import (ARC_MAX_TURN_RAD, ROAD_PAD_FT, RoadConfig, SceneConfig,
                                  _road_yellow_lines)


def straight_road(length=3000.0, gamma=24.0):
    xs = np.arange(0.0, length + 1, 20.0)
    eb = np.column_stack([xs, np.full_like(xs, gamma)])
    wb = np.column_stack([xs, np.full_like(xs, -gamma)])
    return fit_centerline(eb, wb)


def ground_point(x, y):
    """Zero-size prism at a ground-plane point."""
    return Prism3D.from_footprint(np.tile([x, y], (4, 1)), 0.0)


def arc_road(radius=20000.0, length=3000.0, gamma=24.0):
    """Gentle circular arc; centerline arc length is known analytically."""
    theta = np.arange(0.0, length / radius, 20.0 / radius)
    cx, cy = 0.0, radius
    out = {}
    for name, r in (("EB", radius - gamma), ("WB", radius + gamma)):
        out[name] = np.column_stack([cx + r * np.sin(theta),
                                     cy - r * np.cos(theta)])
    return fit_centerline(out["EB"], out["WB"]), radius, theta


# ---------------------------------------------------------------------------
# fitting

def test_straight_centerline_is_y_zero():
    sp = straight_road()
    s = np.linspace(100.0, sp.extent[1] - 100.0, 25)
    pts = sp.point(s)
    assert np.abs(pts[:, 1]).max() < 1e-6


def test_straight_arc_length_equals_x():
    sp = straight_road()
    for s in (100.0, 500.0, 1500.0, 2500.0):
        assert sp.point(s)[0] == pytest.approx(s + sp.point(0.0)[0], abs=1e-3)


def test_straight_gamma_is_constant():
    sp = straight_road(gamma=24.0)
    for s in (50.0, 1000.0, 2800.0):
        assert sp.gamma(s, "EB") == pytest.approx(24.0, abs=1e-3)
        assert sp.gamma(s, "WB") == pytest.approx(-24.0, abs=1e-3)


def test_arc_length_matches_circle_formula():
    sp, radius, theta = arc_road()
    # Points at known fractions of the arc: s should match R * theta.
    for frac in (0.2, 0.5, 0.8):
        th = theta[-1] * frac
        p = np.array([radius * np.sin(th), radius - radius * np.cos(th)])
        s = rw._nearest_arc(sp, p)
        assert s == pytest.approx(radius * th, rel=1e-3)


def scene_road(extent, radius):
    """The simulator's road: straight (radius None) or a circular arc."""
    road = RoadConfig() if radius is None else RoadConfig(kind="arc", radius_ft=radius)
    eb, wb, _ = _road_yellow_lines(SceneConfig(extent_ft=extent, road=road))
    return fit_centerline(eb, wb)


@pytest.mark.parametrize("extent", [1000.0, 3000.0, 22000.0])
@pytest.mark.parametrize("turn", [None, 1.0, 3.0], ids=["straight", "min-radius", "3x-radius"])
def test_nearest_arc_finds_the_known_arc_position(extent, turn):
    """A point at lateral offset y on the normal through arc position s is
    nearest the centerline at s.  On the tightest arc the scene config takes
    for each extent, and at three times its radius, every offset up to 70 ft
    along the whole extent converges there in a few Newton steps; at either
    end, and beyond it, the endpoint is refused."""
    radius = None if turn is None else turn * (extent + 2 * ROAD_PAD_FT) / ARC_MAX_TURN_RAD
    sp = scene_road(extent, radius)
    lo, hi = sp.extent
    steps, point = [], sp.point

    def counted(s, der=0):
        steps.append(der == 2)
        return point(s, der)

    sp.point = counted
    worst, most = 0.0, 0
    for s in np.linspace(lo + 0.01, hi - 0.01, 201):
        base, normal = point(s), sp.normal(s)
        for y in (-70.0, -60.0, -35.0, -5.0, 5.0, 35.0, 60.0, 70.0):
            steps.clear()
            worst = max(worst, abs(rw._nearest_arc(sp, base + y * normal) - s))
            most = max(most, sum(steps))
    assert worst <= 1e-9
    assert most < rw.NEWTON_MAX_ITER
    assert most <= 6    # quadratic convergence; without the curvature term it takes 15
    for s, along in ((lo, 0.0), (lo, -25.0), (hi, 0.0), (hi, 25.0)):
        for y in (-70.0, 5.0, 70.0):
            p = point(s) + along * sp.frame(s)[1] + y * sp.normal(s)
            with pytest.raises(OutOfExtent):
                rw._nearest_arc(sp, p)


ROADS = pytest.mark.parametrize("extent", [1000.0, 3000.0, 22000.0])
TURNS = pytest.mark.parametrize("turn", [None, 1.0, 3.0],
                                ids=["straight", "min-radius", "3x-radius"])


def yellow_lines(extent, turn):
    """The simulator's yellow lines, on the tightest arc the scene config
    takes for the extent (turn 1), at `turn` times its radius, or straight."""
    road = RoadConfig() if turn is None else RoadConfig(
        kind="arc", radius_ft=turn * (extent + 2 * ROAD_PAD_FT) / ARC_MAX_TURN_RAD)
    return _road_yellow_lines(SceneConfig(extent_ft=extent, road=road))[:2]


@ROADS
@TURNS
def test_spline_fit_and_evaluation_match_fitpack(extent, turn):
    """The least-squares fit equals scipy's splrep(k=2, task=-1) on the same
    knots, for the yellow lines and for 0.1 ft samples of their fit, and the
    value and both derivatives equal splev's, beyond either end as well."""
    from scipy import interpolate

    for xy in yellow_lines(extent, turn):
        dense = rw._resample(xy, 0.1)[2]
        for u, values in ((rw._chord(xy), xy), (rw._chord(dense), dense)):
            t, c = rw._fit(u, values)
            uu = np.linspace(u[0] - 50.0, u[-1] + 50.0, 2001)
            jet = rw._spline(t, c, uu, der=2)
            for k in range(2):
                ref = interpolate.splrep(u, values[:, k], k=2, task=-1, t=t[3:-3])
                assert np.array_equal(ref[0], t)
                assert np.abs(c[:, k] - ref[1]).max() <= 1e-12 * np.abs(ref[1]).max()
                for der in range(3):
                    ref_jet = interpolate.splev(uu, ref, der=der)
                    assert np.abs(jet[der][:, k] - ref_jet).max() <= 1e-9


@ROADS
@TURNS
def test_nearest_sample_matches_kd_tree(extent, turn):
    """The nearest 1 ft yellow-line sample, for each EB sample and for each
    gamma grid point of the centerline, is the one scipy's cKDTree finds."""
    from scipy.spatial import cKDTree

    eb, wb = yellow_lines(extent, turn)
    sides = [rw._resample(xy, 1.0) for xy in (eb, wb)]
    sp = fit_centerline(eb, wb)
    center = sp.point(sp.gamma_grid)
    for line, q in ((sides[1], sides[0][2]), (sides[0], center), (sides[1], center)):
        index, dist = rw._nearest_sample(line, q)
        ref_dist, ref_index = cKDTree(line[2]).query(q)
        assert np.array_equal(index, ref_index)
        assert np.allclose(dist, ref_dist, rtol=1e-15, atol=0.0)


def test_too_short_raises():
    xs = np.arange(0.0, 100.0, 20.0)
    eb = np.column_stack([xs, np.full_like(xs, 24.0)])
    wb = np.column_stack([xs, np.full_like(xs, -24.0)])
    with pytest.raises(TooShort):
        fit_centerline(eb, wb)


def test_non_monotonic_raises():
    xs = np.arange(0.0, 3000.0, 20.0)
    eb = np.column_stack([xs, np.full_like(xs, 24.0)])
    eb[10, 0] = eb[9, 0] - 5.0
    wb = np.column_stack([xs, np.full_like(xs, -24.0)])
    with pytest.raises(NonMonotonic):
        fit_centerline(eb, wb)


# ---------------------------------------------------------------------------
# coordinate conversion

def test_eastbound_side_at_negative_state_plane_y_is_positive_y():
    # the EB yellow line lies right of the direction of travel along x,
    # so the normal that points toward it is flipped
    xs = np.arange(0.0, 3001.0, 20.0)
    sp = fit_centerline(np.column_stack([xs, np.full_like(xs, -24.0)]),
                        np.column_stack([xs, np.full_like(xs, 24.0)]))
    assert sp.eb_sign == -1
    box = rw.world_to_roadway(sp, ground_point(1500.0, -18.0))
    assert box.y == pytest.approx(6.0, abs=1e-2)
    for box, y_st in ((RoadwayBox(800.0, 6.0, 16.0, 6.0, 5.0), -18.0),
                      (RoadwayBox(1600.0, -30.0, 60.0, 8.5, 13.0), 42.0)):
        prism = rw.roadway_to_world(sp, box)
        assert prism.back_bottom_center[1] == pytest.approx(y_st, abs=1e-2)
        round_trip(sp, box)


def test_shift_example_lane_offset():
    # gamma = 24, target +12: a point at raw lateral 18 lands at 18 + (12-24) = 6
    sp = straight_road(gamma=24.0)
    box = rw.world_to_roadway(sp, ground_point(1500.0, 18.0))
    assert box.y == pytest.approx(6.0, abs=1e-2)


def test_centerline_point_without_shift_is_zero():
    # the raw lateral of a centerline point is zero, which the shift refuses
    sp = straight_road()
    p = sp.point(1200.0)
    base, _, normal = sp.frame(rw._nearest_arc(sp, p))
    assert abs(float((p - base) @ normal)) < 1e-4
    with pytest.raises(AmbiguousMedian):
        rw.world_to_roadway(sp, ground_point(p[0], p[1]))


def test_yellow_line_points_map_to_twelve():
    sp = straight_road(gamma=24.0)
    for y_raw, want in ((24.0, 12.0), (-24.0, -12.0)):
        box = rw.world_to_roadway(sp, ground_point(900.0, y_raw))
        assert box.y == pytest.approx(want, abs=1e-2)


def test_direction_follows_sign_of_y():
    assert RoadwayBox(10.0, 5.0).direction == "EB"
    assert RoadwayBox(10.0, -5.0).direction == "WB"


def test_ambiguous_median_raises():
    sp = straight_road()
    with pytest.raises(AmbiguousMedian):
        rw.world_to_roadway(sp, ground_point(900.0, 0.2))


def test_out_of_extent_raises():
    sp = straight_road()
    with pytest.raises(OutOfExtent):
        rw.roadway_to_world(sp, RoadwayBox(sp.extent[1] + 500.0, 6.0))


def round_trip(sp, box):
    prism = rw.roadway_to_world(sp, box)
    back = rw.world_to_roadway(sp, prism)
    for attr in ("x", "y", "l", "w", "h"):
        assert getattr(back, attr) == pytest.approx(getattr(box, attr), abs=1e-3)


def test_round_trip_straight():
    sp = straight_road()
    for box in (RoadwayBox(500.0, 6.0, 16.0, 6.0, 5.0),
                RoadwayBox(1500.0, -18.0, 70.0, 8.5, 13.0),
                RoadwayBox(2400.0, 30.0, 14.0, 6.0, 5.0)):
        round_trip(sp, box)


def test_round_trip_arc():
    sp, _, _ = arc_road()
    for box in (RoadwayBox(600.0, 6.0, 16.0, 6.0, 5.0),
                RoadwayBox(1800.0, -18.0, 70.0, 8.5, 13.0)):
        round_trip(sp, box)


def test_eastbound_corner_expansion_by_hand():
    # On a straight road the corners are axis-aligned and easily written out.
    sp = straight_road(gamma=24.0)
    box = RoadwayBox(1000.0, 6.0, 16.0, 6.0, 5.0)
    prism = rw.roadway_to_world(sp, box)
    x0 = sp.point(0.0)[0]
    c = prism.corners
    # back-bottom-center at (x0 + 1000, 6 - (12 - 24) = 18); front extends +x for EB
    assert np.allclose(c[0, :2], [x0 + 1000.0, 15.0], atol=1e-3)   # bbl
    assert np.allclose(c[1, :2], [x0 + 1000.0, 21.0], atol=1e-3)   # bbr
    assert np.allclose(c[4, :2], [x0 + 1016.0, 15.0], atol=1e-3)   # fbl
    assert np.allclose(c[5, :2], [x0 + 1016.0, 21.0], atol=1e-3)   # fbr
    assert np.allclose(c[[2, 3, 6, 7], 2], 5.0)
    assert np.allclose(c[[0, 1, 4, 5], 2], 0.0)


def test_westbound_front_extends_negative_x():
    sp = straight_road()
    box = RoadwayBox(1000.0, -18.0, 20.0, 6.0, 5.0)
    prism = rw.roadway_to_world(sp, box)
    c = prism.corners
    assert (c[4:8, 0] < c[0:4, 0]).all()


def test_spline_serialization_round_trip():
    sp = straight_road()
    sp2 = rw.RoadwaySpline.from_dict(sp.to_dict())
    s = np.linspace(100.0, sp.extent[1] - 100.0, 10)
    assert np.allclose(sp.point(s), sp2.point(s), atol=1e-9)
    assert sp2.extent == sp.extent
    assert sp2.gamma(1000.0, "EB") == sp.gamma(1000.0, "EB")
