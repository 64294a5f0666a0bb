"""Curvilinear roadway coordinate system.

The centerline is an arc-length-parameterized quadratic spline fit midway
between the two interior yellow lines; boxes convert between state-plane
and roadway coordinates (x along the centerline, y lateral with the
eastbound side positive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import interpolate
from scipy.spatial import cKDTree

from .errors import AmbiguousMedian, NonMonotonic, OutOfExtent, TooShort
from .geometry import Prism3D, StatePlanePoint

KNOT_SPACING_FT = 200.0
GAMMA_SPACING_FT = 5.0
MIN_SPAN_FT = 400.0
YELLOW_LINE_Y = 12.0  # desired constant |y| of each yellow line post-shift
MEDIAN_AMBIGUITY_FT = 0.5
NEWTON_MAX_ITER = 20       # nearest-arc Newton steps; 5 reach 1e-11 ft on the tightest arc
NEWTON_TOL_FT = 1e-9       # step length that ends the nearest-arc search


@dataclass(frozen=True)
class RoadwayBox:
    """Box in roadway coordinates: back-bottom-center reference point."""

    x: float
    y: float
    l: float = 0.0
    w: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.l < 0 or self.w < 0 or self.h < 0:
            raise ValueError("box dimensions must be non-negative")

    @property
    def direction(self) -> str:
        return "WB" if self.y < 0 else "EB"


class RoadwaySpline:
    """Arc-length centerline spline plus per-side yellow-line offset table."""

    def __init__(self, tck_x, tck_y, tck_inv, gamma_grid, gamma_eb, gamma_wb,
                 extent, eb_sign):
        self._tck_x = tck_x
        self._tck_y = tck_y
        self._tck_inv = tck_inv
        self.gamma_grid = np.asarray(gamma_grid, dtype=float)
        self.gamma_eb = np.asarray(gamma_eb, dtype=float)
        self.gamma_wb = np.asarray(gamma_wb, dtype=float)
        self.extent = (float(extent[0]), float(extent[1]))
        self.eb_sign = int(eb_sign)

    # -- evaluation ---------------------------------------------------------

    def point(self, s, der: int = 0):
        """Centerline point at arc position s, or its der-th derivative in s."""
        return np.stack([interpolate.splev(s, self._tck_x, der=der),
                         interpolate.splev(s, self._tck_y, der=der)], axis=-1)

    def tangent(self, s):
        d = self.point(s, der=1)
        return d / np.linalg.norm(d, axis=-1, keepdims=True)

    def normal(self, s):
        """Unit lateral direction; positive side is eastbound."""
        t = self.tangent(s)
        n = np.stack([-t[..., 1], t[..., 0]], axis=-1)
        return self.eb_sign * n

    def inverse_hint(self, x_st: float) -> float:
        s = float(interpolate.splev(x_st, self._tck_inv))
        return float(np.clip(s, self.extent[0], self.extent[1]))

    def gamma(self, s: float, direction: str) -> float:
        """Signed yellow-line y-coordinate at arc position s (nearest sample)."""
        idx = int(np.clip(np.round((s - self.gamma_grid[0]) / GAMMA_SPACING_FT),
                          0, len(self.gamma_grid) - 1))
        if direction == "EB":
            return float(self.gamma_eb[idx])
        return float(-self.gamma_wb[idx])

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        def pack(tck):
            return {"t": list(map(float, tck[0])),
                    "c": list(map(float, tck[1])),
                    "k": int(tck[2])}
        return {
            "centerline_x": pack(self._tck_x),
            "centerline_y": pack(self._tck_y),
            "inverse_hint": pack(self._tck_inv),
            "gamma_grid": self.gamma_grid.tolist(),
            "gamma_eb": self.gamma_eb.tolist(),
            "gamma_wb": self.gamma_wb.tolist(),
            "extent": list(self.extent),
            "eb_sign": self.eb_sign,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RoadwaySpline":
        def unpack(obj):
            return (np.array(obj["t"]), np.array(obj["c"]), int(obj["k"]))
        return cls(unpack(d["centerline_x"]), unpack(d["centerline_y"]),
                   unpack(d["inverse_hint"]), d["gamma_grid"], d["gamma_eb"],
                   d["gamma_wb"], d["extent"], d["eb_sign"])


def line_span(xy: np.ndarray) -> float:
    """Length in feet of the polyline through sampled yellow-line points."""
    return float(np.linalg.norm(np.diff(xy, axis=0), axis=1).sum())


def _fit_param_spline(xy: np.ndarray):
    """Quadratic least-squares splines x(u), y(u) with chord parameter u."""
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    keep = np.concatenate([[True], seg > 1e-9])
    xy = xy[keep]
    seg = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    u = np.concatenate([[0.0], np.cumsum(seg)])
    knots = np.arange(KNOT_SPACING_FT, u[-1] - KNOT_SPACING_FT / 2.0, KNOT_SPACING_FT)
    tck_x = interpolate.splrep(u, xy[:, 0], k=2, task=-1, t=knots)
    tck_y = interpolate.splrep(u, xy[:, 1], k=2, task=-1, t=knots)
    return tck_x, tck_y, u[-1]


def _sample(tck_x, tck_y, umax: float, step: float) -> np.ndarray:
    u = np.arange(0.0, umax + step / 2.0, step)
    return np.stack([interpolate.splev(u, tck_x), interpolate.splev(u, tck_y)], axis=1)


def fit_centerline(yellow_eb, yellow_wb) -> RoadwaySpline:
    """Build the roadway frame from labeled yellow-line points.

    Fits a spline per side, takes midpoints from fine EB samples to the
    nearest WB point, fits a median spline, reparameterizes it by cumulative
    arc length, and samples the per-side gamma offset table.
    """
    sides = {}
    for name, pts in (("EB", yellow_eb), ("WB", yellow_wb)):
        xy = np.asarray(pts, dtype=float)[:, :2]
        if xy.shape[0] < 3:
            raise TooShort(f"{name} yellow line needs >= 3 points")
        if np.any(np.diff(xy[:, 0]) <= 0):
            raise NonMonotonic(f"{name} yellow line x must be strictly increasing")
        span = line_span(xy)
        if span < MIN_SPAN_FT:
            raise TooShort(f"{name} yellow line spans {span:.0f} ft < {MIN_SPAN_FT:.0f}")
        sides[name] = _fit_param_spline(xy)

    eb_x, eb_y, eb_umax = sides["EB"]
    wb_x, wb_y, wb_umax = sides["WB"]
    eb_pts = _sample(eb_x, eb_y, eb_umax, 1.0)
    wb_pts = _sample(wb_x, wb_y, wb_umax, 1.0)
    mid = (eb_pts + wb_pts[cKDTree(wb_pts).query(eb_pts)[1]]) / 2.0

    med_x, med_y, med_umax = _fit_param_spline(mid)
    fine = _sample(med_x, med_y, med_umax, 0.1)
    seg = np.linalg.norm(np.diff(fine, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])

    knots = np.arange(KNOT_SPACING_FT, s[-1] - KNOT_SPACING_FT / 2.0, KNOT_SPACING_FT)
    tck_x = interpolate.splrep(s, fine[:, 0], k=2, task=-1, t=knots)
    tck_y = interpolate.splrep(s, fine[:, 1], k=2, task=-1, t=knots)

    x_st = fine[:, 0]
    if np.any(np.diff(x_st) <= 0):
        raise NonMonotonic("centerline x^(st) must be strictly increasing")
    inv_knots = x_st[0] + np.arange(
        KNOT_SPACING_FT, (x_st[-1] - x_st[0]) - KNOT_SPACING_FT / 2.0, KNOT_SPACING_FT)
    tck_inv = interpolate.splrep(x_st, s, k=2, task=-1, t=inv_knots)

    extent = (0.0, float(s[-1]))
    spline = RoadwaySpline(tck_x, tck_y, tck_inv, [0.0], [0.0], [0.0], extent, 1)

    # Orient the normal toward the EB yellow line.
    s_mid = s[-1] / 2.0
    p_mid = spline.point(s_mid)
    n0 = spline.normal(s_mid)
    nearest_eb = eb_pts[cKDTree(eb_pts).query(p_mid[None, :])[1][0]]
    if float((nearest_eb - p_mid) @ n0) < 0:
        spline.eb_sign = -1

    # Gamma offset table at 5 ft sampling.
    grid = np.arange(0.0, s[-1] + GAMMA_SPACING_FT / 2.0, GAMMA_SPACING_FT)
    center = spline.point(grid)
    eb_tree, wb_tree = cKDTree(eb_pts), cKDTree(wb_pts)
    spline.gamma_grid = grid
    spline.gamma_eb = eb_tree.query(center)[0]
    spline.gamma_wb = wb_tree.query(center)[0]
    return spline


# ---------------------------------------------------------------------------
# conversions

def _yellow_shift(spline: RoadwaySpline, s: float, direction: str) -> float:
    """The constant-yellow-line offset at arc position s: added to y on the
    way into roadway coordinates and subtracted on the way back."""
    c_target = YELLOW_LINE_Y if direction == "EB" else -YELLOW_LINE_Y
    return c_target - spline.gamma(s, direction)


def _nearest_arc(spline: RoadwaySpline, p: np.ndarray) -> float:
    """Arc coordinate of the closest centerline point: Newton steps on
    d/ds |P(s) - p|^2 / 2 from the hint, each clamped to the extent."""
    lo, hi = spline.extent
    s = spline.inverse_hint(p[0])
    for _ in range(NEWTON_MAX_ITER):
        d, d1, d2 = spline.point(s) - p, spline.point(s, der=1), spline.point(s, der=2)
        step = (d @ d1) / (d1 @ d1 + d @ d2)
        s, last = float(min(max(s - step, lo), hi)), s
        if abs(s - last) <= NEWTON_TOL_FT:
            break
    eps = 1e-3
    if s - lo < eps or hi - s < eps:
        raise OutOfExtent(f"nearest centerline point at s={s:.1f} is an endpoint")
    return s


def world_to_roadway(spline: RoadwaySpline, prism: Prism3D,
                     yellow_shift: bool = True) -> RoadwayBox:
    """Convert a state-plane prism to a roadway box.

    Dimensions are mean opposing-corner distances; x is the arc coordinate
    of the closest centerline point to the back-bottom-center; y is the
    signed lateral distance, then shifted by the constant-yellow-line rule.
    """
    length, width, height = prism.dims
    o_c = prism.back_bottom_center[:2]

    s = _nearest_arc(spline, o_c)
    d = o_c - spline.point(s)
    y = float(d @ spline.normal(s))
    if yellow_shift:
        if abs(y) < MEDIAN_AMBIGUITY_FT:
            raise AmbiguousMedian(f"|y|={abs(y):.3f} ft too close to the median")
        y += _yellow_shift(spline, s, "EB" if y > 0 else "WB")
    return RoadwayBox(s, y, length, width, height)


def roadway_to_world(spline: RoadwaySpline, box: RoadwayBox,
                     yellow_shift: bool = True) -> Prism3D:
    """Convert a roadway box back to a state-plane prism.

    The inverse yellow-line shift is applied first; corners are built from
    the unit tangent and the EB-positive unit normal, with the front offset
    negated for westbound boxes.
    """
    if not (spline.extent[0] <= box.x <= spline.extent[1]):
        raise OutOfExtent(f"x={box.x:.1f} outside extent {spline.extent}")
    y = box.y
    direction = box.direction
    if yellow_shift:
        y -= _yellow_shift(spline, box.x, direction)

    u_f = spline.tangent(box.x)
    u_perp = spline.normal(box.x)
    sign = 1.0 if direction == "EB" else -1.0
    o_c = spline.point(box.x) + y * u_perp

    left = -sign * u_perp
    front = sign * box.l * u_f
    bbl = o_c + (box.w / 2.0) * left
    bbr = o_c - (box.w / 2.0) * left
    return Prism3D.from_footprint([bbl, bbr, bbl + front, bbr + front], box.h)


def point_prism(p: StatePlanePoint) -> Prism3D:
    """Zero-size prism wrapping a single ground-plane point."""
    return Prism3D.from_footprint(np.tile([p.x, p.y], (4, 1)), 0.0)
