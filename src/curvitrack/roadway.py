"""Curvilinear roadway coordinate system.

The centerline is an arc-length-parameterized quadratic spline fit midway
between the two interior yellow lines; boxes convert between state-plane
and roadway coordinates (x along the centerline, y lateral with the
eastbound side positive).  The splines are least-squares fits on fixed
knots (Dierckx, Curve and Surface Fitting with Splines, 1993), evaluated
by de Boor's algorithm, in FITPACK's knot and coefficient layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMedian, NonMonotonic, OutOfExtent, TooShort
from .geometry import Prism3D

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


# ---------------------------------------------------------------------------
# quadratic B-splines (t, c) in FITPACK's layout: each end thrice in t, three zero rows ending c

def _basis(t: np.ndarray, u, der: int = 0):
    """j such that B-splines j, j + 1 and j + 2 are live at each u, and their values
    and derivatives up to der: shape (der + 1, 3) + u.shape.  End pieces extend, as in splev."""
    j = np.searchsorted(t[3:-3], u, side="right")     # u lies in [t[j + 2], t[j + 3])
    h, e0, e2 = t[j + 3] - t[j + 2], t[j + 3] - t[j + 1], t[j + 4] - t[j + 2]
    w = (u - t[j + 2]) / h
    b = np.empty((der + 1, 3) + np.shape(u))
    b[0, 0], b[0, 2] = (1 - w) ** 2 * h / e0, w ** 2 * h / e2
    if der > 0:
        b[1, 0], b[1, 2] = 2 * (w - 1) / e0, 2 * w / e2
    if der > 1:
        b[2, 0], b[2, 2] = 2 / (h * e0), 2 / (h * e2)
    b[:, 1] = -b[:, 0] - b[:, 2]    # the three sum to 1, their derivatives to 0
    b[0, 1] += 1.0
    return j, b


def _spline(t: np.ndarray, c: np.ndarray, u, der: int = 0) -> np.ndarray:
    """The spline (t, c) at u and its derivatives up to der, stacked on a
    leading axis, from one knot-interval lookup (de Boor)."""
    j, b = _basis(t, u, der)
    b = b[..., None]                # broadcast over the columns of c
    return b[:, 0] * c[j] + b[:, 1] * c[j + 1] + b[:, 2] * c[j + 2]


def _fit(u: np.ndarray, values: np.ndarray):
    """(t, c) of the least-squares spline through the rows of values at increasing u,
    knots every KNOT_SPACING_FT: splrep(k=2, task=-1), by banded normal equations."""
    knots = np.arange(KNOT_SPACING_FT, u[-1] - u[0] - KNOT_SPACING_FT / 2.0, KNOT_SPACING_FT)
    t = np.concatenate([[u[0]] * 3, u[0] + knots, [u[-1]] * 3])
    n, (j, b) = len(t) - 3, _basis(t, u)
    gram = sum(np.bincount((j + a) * n + j + k, b[0, a] * b[0, k], n * n)
               for a in range(3) for k in range(3)).reshape(n, n)
    rhs = [sum(np.bincount(j + a, b[0, a] * v, n) for a in range(3)) for v in values.T]
    c = np.linalg.solve(gram, np.array(rhs).T)
    return t, np.concatenate([c, np.zeros((3, c.shape[1]))])


def _foot(jet, p: np.ndarray, s, lo: float, hi: float):
    """Newton steps on d/ds |P(s) - p|^2 / 2 from s (a seed per row of p), each
    clamped to [lo, hi], until none exceeds NEWTON_TOL_FT; jet(s) stacks P, P', P''."""
    for _ in range(NEWTON_MAX_ITER):
        d, d1, d2 = jet(s)
        d = d - p
        step = (d * d1).sum(-1) / ((d1 * d1).sum(-1) + (d * d2).sum(-1))
        s, last = np.minimum(np.maximum(s - step, lo), hi), s
        if np.abs(s - last).max() <= NEWTON_TOL_FT:
            break
    return s


class RoadwaySpline:
    """Arc-length centerline spline (t, c), c's columns x(s) and y(s), the
    inverse hint (t, c) of s(x), and the per-side yellow-line offset table."""

    def __init__(self, centerline, inverse, gamma_grid, gamma_eb, gamma_wb,
                 extent, eb_sign):
        self._centerline, self._inverse = centerline, inverse
        self.gamma_grid, self.gamma_eb, self.gamma_wb = (
            np.asarray(g, dtype=float) for g in (gamma_grid, gamma_eb, gamma_wb))
        self.extent = (float(extent[0]), float(extent[1]))
        self.eb_sign = int(eb_sign)

    def point(self, s, der: int = 0):
        """Centerline point at arc position s; for der > 0, the point and
        its derivatives in s up to the der-th, stacked on a leading axis."""
        jet = _spline(*self._centerline, np.asarray(s, dtype=float), der)
        return jet if der else jet[0]

    def frame(self, s):
        """Centerline point, unit tangent and EB-positive unit normal at s."""
        p, d = self.point(s, der=1)
        t = d / np.sqrt((d * d).sum(-1, keepdims=True))
        return p, t, t[..., ::-1] * (-self.eb_sign, self.eb_sign)

    def normal(self, s):
        return self.frame(s)[2]

    def inverse_hint(self, x_st: float) -> float:
        s = float(_spline(*self._inverse, x_st)[0, 0])
        return min(max(s, self.extent[0]), self.extent[1])

    def gamma(self, s: float, direction: str) -> float:
        """Signed yellow-line y-coordinate at arc position s (nearest sample)."""
        idx = min(max(round((s - self.gamma_grid[0]) / GAMMA_SPACING_FT), 0),
                  len(self.gamma_grid) - 1)
        if direction == "EB":
            return float(self.gamma_eb[idx])
        return float(-self.gamma_wb[idx])

    def to_dict(self) -> dict:
        def pack(t, c, k=0):
            return {"t": t.tolist(), "c": c[:, k].tolist(), "k": 2}
        return {
            "centerline_x": pack(*self._centerline),
            "centerline_y": pack(*self._centerline, 1),
            "inverse_hint": pack(*self._inverse),
            "gamma_grid": self.gamma_grid.tolist(),
            "gamma_eb": self.gamma_eb.tolist(),
            "gamma_wb": self.gamma_wb.tolist(),
            "extent": list(self.extent),
            "eb_sign": self.eb_sign,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RoadwaySpline":
        def unpack(*keys):
            return np.array(d[keys[0]]["t"]), np.column_stack([d[k]["c"] for k in keys])
        return cls(unpack("centerline_x", "centerline_y"), unpack("inverse_hint"),
                   d["gamma_grid"], d["gamma_eb"], d["gamma_wb"], d["extent"], d["eb_sign"])


def _chord(xy: np.ndarray) -> np.ndarray:
    """Cumulative chord length along the polyline xy, from 0."""
    return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(xy, axis=0), axis=1))])


def line_span(xy: np.ndarray) -> float:
    """Length in feet of the polyline through sampled yellow-line points."""
    return float(_chord(xy)[-1])


def _resample(xy: np.ndarray, step: float):
    """(t, c) of the spline (x, y)(u) through xy, u the chord length, and its points every step."""
    t, c = _fit(_chord(xy), xy)
    return t, c, _spline(t, c, np.arange(0.0, t[-1] + step / 2.0, step))[0]


def _nearest_sample(line, q: np.ndarray):
    """Index of, and distance to, the sample of line = (t, c, samples at unit steps of u)
    nearest each point of q, as a KD-tree gives them.  Where the line bends little over
    that distance the nearest sample flanks q's foot on the spline, found by Newton."""
    t, c, pts = line
    u = np.interp(q[:, 0], pts[:, 0], np.arange(len(pts), dtype=float))
    u = _foot(lambda v: _spline(t, c, v, der=2), q, u, 0.0, len(pts) - 1.0)
    near = np.minimum(np.floor(u).astype(int)[:, None] + (0, 1), len(pts) - 1)
    dist = np.linalg.norm(pts[near] - q[:, None], axis=-1)
    pick = np.arange(len(q)), dist.argmin(axis=1)
    return near[pick], dist[pick]


def fit_centerline(yellow_eb, yellow_wb) -> RoadwaySpline:
    """Build the roadway frame from labeled yellow-line points.

    Fits a spline per side, takes midpoints from fine EB samples to the
    nearest WB sample, fits a median spline, reparameterizes it by
    cumulative arc length, and samples the per-side gamma offset table.
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
        sides[name] = _resample(xy, 1.0)

    eb, wb = sides["EB"], sides["WB"]
    mid = (eb[2] + wb[2][_nearest_sample(wb, eb[2])[0]]) / 2.0
    fine = _resample(mid, 0.1)[2]
    s = _chord(fine)
    if np.any(np.diff(fine[:, 0]) <= 0):
        raise NonMonotonic("centerline x^(st) must be strictly increasing")
    spline = RoadwaySpline(_fit(s, fine), _fit(fine[:, 0], s[:, None]), [0.0], [0.0], [0.0],
                           (0.0, float(s[-1])), 1)

    # Orient the normal toward the EB yellow line.
    p_mid, _, n_mid = spline.frame(s[-1] / 2.0)
    if float((eb[2][_nearest_sample(eb, p_mid[None, :])[0][0]] - p_mid) @ n_mid) < 0:
        spline.eb_sign = -1

    # Gamma offset table at 5 ft sampling.
    spline.gamma_grid = np.arange(0.0, s[-1] + GAMMA_SPACING_FT / 2.0, GAMMA_SPACING_FT)
    center = spline.point(spline.gamma_grid)
    spline.gamma_eb, spline.gamma_wb = (_nearest_sample(line, center)[1] for line in (eb, wb))
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
    s = float(_foot(lambda u: spline.point(u, der=2), p, spline.inverse_hint(p[0]), lo, hi))
    if min(s - lo, hi - s) < 1e-3:
        raise OutOfExtent(f"nearest centerline point at s={s:.1f} is an endpoint")
    return s


def world_to_roadway(spline: RoadwaySpline, prism: Prism3D) -> RoadwayBox:
    """Convert a state-plane prism to a roadway box.

    Dimensions are mean opposing-corner distances; x is the arc coordinate
    of the closest centerline point to the back-bottom-center; y is the
    signed lateral distance, then shifted by the constant-yellow-line rule.
    """
    length, width, height = prism.dims
    o_c = prism.back_bottom_center[:2]

    s = _nearest_arc(spline, o_c)
    base, _, normal = spline.frame(s)
    y = float((o_c - base) @ normal)
    if abs(y) < MEDIAN_AMBIGUITY_FT:
        raise AmbiguousMedian(f"|y|={abs(y):.3f} ft too close to the median")
    y += _yellow_shift(spline, s, "EB" if y > 0 else "WB")
    return RoadwayBox(s, y, length, width, height)


def roadway_to_world(spline: RoadwaySpline, box: RoadwayBox) -> Prism3D:
    """Convert a roadway box back to a state-plane prism.

    The inverse yellow-line shift is applied first; corners are built from
    the unit tangent and the EB-positive unit normal, with the front offset
    negated for westbound boxes.
    """
    if not (spline.extent[0] <= box.x <= spline.extent[1]):
        raise OutOfExtent(f"x={box.x:.1f} outside extent {spline.extent}")
    y = box.y - _yellow_shift(spline, box.x, box.direction)

    base, u_f, u_perp = spline.frame(box.x)
    sign = 1.0 if box.direction == "EB" else -1.0
    o_c = base + y * u_perp

    front, half = sign * box.l * u_f, (box.w / 2.0) * (sign * u_perp)
    bbl, bbr = o_c - half, o_c + half     # left and right of travel
    return Prism3D.from_footprint([bbl, bbr, bbl + front, bbr + front], box.h)
