"""Planar homography and 3D projective transforms between image pixels,
state-plane coordinates, and 3D bounding boxes.

Conventions: the homography H maps image pixel coordinates to state-plane
feet on the z=0 road plane, normalized so h33 = 1.  The 3x4 matrix P maps
3D state-plane points (feet) back into image pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConfiguration,
    HorizonPoint,
    InsufficientHeightInfo,
    ParallelVerticals,
    SingularFit,
)

FRAME_W = 1920.0
FRAME_H = 1080.0
COND_LIMIT = 1e10
DEFAULT_INLIER_FT = 2.0  # state-plane consensus threshold
RANSAC_ITERS = 200
HEIGHT_MAX_FT = 30.0
HEIGHT_TOL_FT = 1e-3
COLLINEAR_TOL = 1e-8       # relative singular-value floor
LM_MAX_ITER = 100          # Levenberg-Marquardt steps of the homography refine
LM_TOL = 1e-15             # relative change in cost or step that ends the refine
LM_DAMP_START = 1e-6       # damping on unit-scaled columns; the DLT start is close

CORNER_ORDER = ("bbl", "bbr", "btl", "btr", "fbl", "fbr", "ftl", "ftr")
_BOTTOM = (0, 1, 4, 5)
_TOP = (2, 3, 6, 7)
_BACK, _FRONT = (0, 1, 2, 3), (4, 5, 6, 7)
_LEFT, _RIGHT = (0, 2, 4, 6), (1, 3, 5, 7)


@dataclass(frozen=True)
class ImagePoint:
    """A pixel coordinate (column x, row y), origin top-left."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("image point must be finite")

    @classmethod
    def labeled(cls, x: float, y: float) -> "ImagePoint":
        """Construct a point labeled inside a frame; enforces frame bounds."""
        if not (0.0 <= x <= FRAME_W and 0.0 <= y <= FRAME_H):
            raise ValueError(f"labeled point ({x}, {y}) outside frame bounds")
        return cls(x, y)


@dataclass(frozen=True)
class StatePlanePoint:
    """State-plane coordinate in feet; z is height above the road plane."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError("state-plane point must be finite")


@dataclass(frozen=True)
class CorrespondencePoint:
    """A landmark labeled both in image pixels and on the state plane (z=0)."""

    id: str
    image: ImagePoint
    world: StatePlanePoint

    def __post_init__(self):
        if self.world.z != 0.0:
            raise ValueError("correspondence points must lie on the road plane (z=0)")


def _as_matrix(h) -> np.ndarray:
    m = np.asarray(h, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("homography matrix must be 3x3")
    return m


def normalize_h(m: np.ndarray) -> np.ndarray:
    """Scale a projective matrix so its (3,3) entry equals 1."""
    if abs(m[2, 2]) < 1e-15:
        raise SingularFit("cannot normalize: h33 is zero")
    return m / m[2, 2]


def check_conditioned(m: np.ndarray) -> None:
    """Raise SingularFit unless m's condition number is finite and <= COND_LIMIT."""
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularFit(f"homography condition number {cond:.3g} exceeds limit")


@dataclass(frozen=True)
class Homography:
    """3x3 map from image pixels to state-plane feet, normalized h33=1."""

    h: np.ndarray
    camera_id: str = ""
    direction: str = "EB"
    _hinv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = normalize_h(_as_matrix(self.h))
        check_conditioned(m)
        m.setflags(write=False)
        object.__setattr__(self, "h", m)
        hinv = np.linalg.inv(m)
        hinv.setflags(write=False)
        object.__setattr__(self, "_hinv", hinv)

    @property
    def hinv(self) -> np.ndarray:
        """Inverse map (state plane -> image), not renormalized."""
        return self._hinv


@dataclass(frozen=True)
class Projection3D:
    """3x4 map from 3D state-plane points to image pixels.

    Columns 1, 2, 4 equal the columns of the inverse homography; column 3
    points at the vertical vanishing point.
    """

    p: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.p, dtype=float)
        if m.shape != (3, 4):
            raise ValueError("projection matrix must be 3x4")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "p", m)

    def homography(self) -> Homography:
        """Recover the planar (z=0) homography implied by columns 1, 2, 4."""
        hinv = self.p[:, [0, 1, 3]]
        return Homography(np.linalg.inv(hinv))


@dataclass(frozen=True)
class Prism3D:
    """Axis-consistent rectangular prism; corners ordered per CORNER_ORDER."""

    corners: np.ndarray  # 8x3, feet

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (8, 3):
            raise ValueError("prism requires 8 corners of (x, y, z)")
        if np.max(np.abs(c[list(_BOTTOM), 2])) > 1e-6:
            raise ValueError("bottom corners must lie on z=0")
        tops = c[list(_TOP), 2]
        if np.ptp(tops) > 1e-6:
            raise ValueError("top corners must share a common height")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "corners", c)

    @classmethod
    def from_footprint(cls, footprint, height: float) -> "Prism3D":
        """Prism standing `height` over a ground footprint of four (x, y)
        points ordered (bbl, bbr, fbl, fbr)."""
        corners = np.zeros((8, 3))
        corners[list(_BOTTOM), :2] = footprint
        corners[list(_TOP), :2] = footprint
        corners[list(_TOP), 2] = height
        return cls(corners)

    @property
    def dims(self) -> tuple[float, float, float]:
        """(length, width, height): mean distances between opposing corners."""
        c = self.corners
        length = float(np.mean(np.linalg.norm(
            c[list(_FRONT), :2] - c[list(_BACK), :2], axis=1)))
        width = float(np.mean(np.linalg.norm(
            c[list(_RIGHT), :2] - c[list(_LEFT), :2], axis=1)))
        return length, width, self.height

    @property
    def height(self) -> float:
        return float(np.mean(self.corners[list(_TOP), 2] - self.corners[list(_BOTTOM), 2]))

    @property
    def back_bottom_center(self) -> np.ndarray:
        back = self.corners[[0, 1]]
        return np.array([back[:, 0].mean(), back[:, 1].mean(), 0.0])


# ---------------------------------------------------------------------------
# projection primitives

def _project_h(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 3x3 (or 3x4) projective map to Nx2 (or Nx3) points.

    Raises HorizonPoint where the projective denominator vanishes.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ones = np.ones((pts.shape[0], 1))
    q = (m @ np.hstack([pts, ones]).T).T
    denom = q[:, 2]
    if np.any(np.abs(denom) < 1e-12):
        raise HorizonPoint("projective denominator vanished")
    return q[:, :2] / denom[:, None]


def project_image_to_world(h: Homography, p: ImagePoint) -> StatePlanePoint:
    """Map an image pixel to the state plane (z=0)."""
    w = _project_h(h.h, [[p.x, p.y]])[0]
    return StatePlanePoint(w[0], w[1], 0.0)


def project_world_to_image(h: Homography, p: StatePlanePoint) -> ImagePoint:
    """Map a z=0 state-plane point back into the image."""
    q = _project_h(h.hinv, [[p.x, p.y]])[0]
    return ImagePoint(q[0], q[1])


def project_points_image_to_world(h: Homography, pts: np.ndarray) -> np.ndarray:
    """Vectorized image -> state-plane projection for an Nx2 array."""
    return _project_h(h.h, pts)


# ---------------------------------------------------------------------------
# homography fitting

def _dlt(img: np.ndarray, world: np.ndarray) -> np.ndarray:
    """Direct linear transform with Hartley normalization."""

    def norm_transform(pts):
        c = pts.mean(axis=0)
        d = np.sqrt(((pts - c) ** 2).sum(axis=1)).mean()
        s = math.sqrt(2.0) / d if d > 1e-12 else 1.0
        t = np.array([[s, 0, -s * c[0]], [0, s, -s * c[1]], [0, 0, 1.0]])
        return t

    ti = norm_transform(img)
    tw = norm_transform(world)
    ih = _project_h(ti, img)
    wh = _project_h(tw, world)

    x, y = ih[:, 0], ih[:, 1]
    u, v = wh[:, 0], wh[:, 1]
    one, zero = np.ones_like(x), np.zeros_like(x)
    a = np.empty((2 * len(x), 9))
    a[0::2] = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=1)
    a[1::2] = np.stack([zero, zero, zero, x, y, one, -v * x, -v * y, -v], axis=1)
    _, _, vt = np.linalg.svd(a)
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(tw) @ hn @ ti
    return normalize_h(h)


def _refine_lm(h0: np.ndarray, img: np.ndarray, world: np.ndarray) -> np.ndarray:
    """Minimize the squared state-plane reprojection error over all 8 dof.

    Levenberg-Marquardt on the analytic Jacobian, with the normal equations
    scaled to a unit diagonal and solved by one eigendecomposition per
    Jacobian; a projective denominator below 1e-12 is clamped there.
    An accepted step divides the damping by 10.  A step that does not lower
    the cost, or is not finite, is retried with 100 times the damping.
    """
    n = len(img)
    x, y = img[:, 0], img[:, 1]
    basis = np.stack([x, y, np.ones(n)], axis=1)

    def evaluate(p):
        d = p[6] * x + p[7] * y + 1.0
        live = np.abs(d) >= 1e-12
        d = np.where(live, d, 1e-12)
        a = basis / d[:, None]
        u, v = a @ p[0:3], a @ p[3:6]
        jac = np.zeros((2 * n, 8))
        jac[:n, 0:3] = a
        jac[n:, 3:6] = a
        jac[:n, 6:] = -(u * live)[:, None] * a[:, :2]
        jac[n:, 6:] = -(v * live)[:, None] * a[:, :2]
        r = np.concatenate([u - world[:, 0], v - world[:, 1]])
        return r, jac, r @ r

    p = h0.ravel()[:8] / h0[2, 2]
    r, jac, cost = evaluate(p)
    damping, improved = LM_DAMP_START, True
    for _ in range(LM_MAX_ITER):
        if improved:
            gram = jac.T @ jac
            col = np.sqrt(np.diag(gram))
            col[col == 0.0] = 1.0
            w, vec = np.linalg.eigh(gram / np.outer(col, col))
            proj = vec.T @ (jac.T @ r / col)
        step = -(vec @ (proj / (np.maximum(w, 0.0) + damping))) / col
        r_new, jac_new, cost_new = evaluate(p + step)
        improved = cost_new < cost
        if improved:
            done = cost - cost_new <= LM_TOL * cost
            p, r, jac, cost = p + step, r_new, jac_new, cost_new
            damping /= 10.0
        else:
            done = False
            damping *= 100.0
        if done or np.linalg.norm(col * step) <= LM_TOL * np.linalg.norm(col * p):
            break
    return normalize_h(np.append(p, 1.0).reshape(3, 3))


def _collinear(pts: np.ndarray) -> bool:
    """True when 2D points have no spread perpendicular to their best line."""
    if pts.shape[0] < 3:
        return True
    c = pts - pts.mean(axis=0)
    sv = np.linalg.svd(c, compute_uv=False)
    return sv[1] <= COLLINEAR_TOL * max(1.0, sv[0])


def points_collinear_within(pts: np.ndarray, band_ft: float) -> bool:
    """True when all points lie within band_ft of their best-fit line."""
    if pts.shape[0] < 3:
        return True
    c = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(c)
    perp = c @ vt[1]
    return float(np.max(np.abs(perp))) <= band_ft


def _residuals_ft(h: np.ndarray, img: np.ndarray, world: np.ndarray) -> np.ndarray:
    q = (h @ np.hstack([img, np.ones((img.shape[0], 1))]).T).T
    denom = q[:, 2]
    denom = np.where(np.abs(denom) < 1e-12, np.nan, denom)
    proj = q[:, :2] / denom[:, None]
    r = np.linalg.norm(proj - world, axis=1)
    return np.where(np.isnan(r), np.inf, r)


def fit_homography(
    points: list[CorrespondencePoint],
    camera_id: str = "",
    direction: str = "EB",
    seed: int = 0,
) -> tuple[Homography, list[str]]:
    """Fit H to correspondence points with RANSAC consensus.

    Returns the least-squares homography over the inlier set and the ids of
    the inliers (points within DEFAULT_INLIER_FT feet on the state plane).
    """
    if len(points) < 4:
        raise DegenerateConfiguration(f"need >= 4 points, got {len(points)}")
    img = np.array([[p.image.x, p.image.y] for p in points])
    world = np.array([[p.world.x, p.world.y] for p in points])
    ids = [p.id for p in points]
    if _collinear(img) or _collinear(world):
        raise DegenerateConfiguration("points are collinear")

    # Fast path: a fit over everything whose residuals all pass is final.
    try:
        h_all = _refine_lm(_dlt(img, world), img, world)
        if np.all(_residuals_ft(h_all, img, world) <= DEFAULT_INLIER_FT):
            return Homography(h_all, camera_id, direction), ids
    except (np.linalg.LinAlgError, SingularFit):
        pass

    rng = np.random.default_rng(seed)
    best_mask = None
    n = len(points)
    for _ in range(RANSAC_ITERS):
        sample = rng.choice(n, size=4, replace=False)
        if _collinear(img[sample]) or _collinear(world[sample]):
            continue
        try:
            h_try = _dlt(img[sample], world[sample])
        except (np.linalg.LinAlgError, SingularFit):
            continue
        mask = _residuals_ft(h_try, img, world) <= DEFAULT_INLIER_FT
        if best_mask is None or mask.sum() > best_mask.sum():
            best_mask = mask
    if best_mask is None or best_mask.sum() < 4:
        raise DegenerateConfiguration("fewer than 4 inliers under RANSAC consensus")
    sel = np.flatnonzero(best_mask)
    if _collinear(img[sel]) or _collinear(world[sel]):
        raise DegenerateConfiguration("inlier set is collinear")
    h = _refine_lm(_dlt(img[sel], world[sel]), img[sel], world[sel])
    # Re-evaluate consensus once with the refined matrix.
    mask = _residuals_ft(h, img, world) <= DEFAULT_INLIER_FT
    if mask.sum() >= 4 and not _collinear(img[mask]) and not _collinear(world[mask]):
        sel = np.flatnonzero(mask)
        h = _refine_lm(_dlt(img[sel], world[sel]), img[sel], world[sel])
    return Homography(h, camera_id, direction), [ids[i] for i in sel]


# ---------------------------------------------------------------------------
# 3D projection

def intersect_lines(lines: list[tuple[ImagePoint, ImagePoint]]) -> ImagePoint:
    """Least-squares intersection of 2D lines given as point pairs."""
    if len(lines) < 2:
        raise ParallelVerticals("need at least 2 lines")
    dirs = []
    a = np.zeros((2, 2))
    b = np.zeros(2)
    for p1, p2 in lines:
        d = np.array([p2.x - p1.x, p2.y - p1.y])
        norm = np.linalg.norm(d)
        if norm < 1e-9:
            raise ParallelVerticals("degenerate zero-length line")
        d = d / norm
        dirs.append(d)
        nvec = np.array([-d[1], d[0]])
        a += np.outer(nvec, nvec)
        b += nvec * (nvec @ np.array([p1.x, p1.y]))
    max_angle = 0.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            cosang = min(1.0, abs(float(dirs[i] @ dirs[j])))
            max_angle = max(max_angle, math.degrees(math.acos(cosang)))
    if max_angle < 0.5:
        raise ParallelVerticals(f"lines nearly parallel (max angle {max_angle:.4f} deg)")
    v = np.linalg.solve(a, b)
    return ImagePoint(v[0], v[1])


def fit_projection3d(
    h: Homography,
    vertical_lines: list[tuple[ImagePoint, ImagePoint]],
    height_samples: list[tuple[StatePlanePoint, ImagePoint]],
) -> Projection3D:
    """Extend a planar homography to a full 3x4 projection.

    The vertical vanishing point is the least-squares intersection of the
    annotated vertical lines; the remaining scalar p33 is fit by 1-D
    minimization of pixel reprojection error over off-plane height samples.
    """
    if len(vertical_lines) < 2:
        raise ParallelVerticals("need >= 2 vertical lines")
    samples = [(w, i) for (w, i) in height_samples if w.z > 0.0]
    if not samples:
        raise InsufficientHeightInfo("all height samples lie on z=0")
    vp = intersect_lines(vertical_lines)

    hinv = h.hinv
    world = np.array([[w.x, w.y, w.z] for w, _ in samples])
    img = np.array([[i.x, i.y] for _, i in samples])

    def build(p33: float) -> np.ndarray:
        p = np.zeros((3, 4))
        p[:, 0] = hinv[:, 0]
        p[:, 1] = hinv[:, 1]
        p[:, 3] = hinv[:, 2]
        p[:, 2] = p33 * np.array([vp.x, vp.y, 1.0])
        return p

    # Closed-form seed from each sample, then a scalar polish.
    seeds = []
    for (w, i) in samples:
        q = np.array([w.x, w.y, 1.0])
        r1, r2, r3 = hinv[0], hinv[1], hinv[2]
        du = i.x - vp.x
        dv = i.y - vp.y
        if abs(du) > 1e-9:
            seeds.append((r1 @ q - i.x * (r3 @ q)) / (w.z * du))
        if abs(dv) > 1e-9:
            seeds.append((r2 @ q - i.y * (r3 @ q)) / (w.z * dv))
    seed = float(np.median(seeds)) if seeds else 1.0

    def cost(p33: float) -> float:
        try:
            proj = _project_h(build(p33), world)
        except HorizonPoint:
            return 1e12
        return float(((proj - img) ** 2).sum())

    from scipy.optimize import minimize_scalar

    span = max(abs(seed), 1e-6)
    res = minimize_scalar(
        cost, bounds=(seed - span, seed + span), method="bounded",
        options={"xatol": 1e-15},
    )
    p33 = float(res.x) if res.fun <= cost(seed) else seed
    return Projection3D(build(p33))


def project_prism_to_image(p3: Projection3D, prism: Prism3D) -> list[ImagePoint]:
    """Project all 8 prism corners into the image."""
    pts = _project_h(p3.p, prism.corners)
    return [ImagePoint(x, y) for x, y in pts]


def lift_image_box_to_prism(
    p3: Projection3D,
    footprint: list[ImagePoint],
    top_hint: list[ImagePoint],
) -> Prism3D:
    """Lift a 4-corner image footprint plus top-corner hints to a 3D prism.

    The footprint is projected to z=0 through the planar homography; height
    is found by golden-section search minimizing the mean pixel distance
    between reprojected top corners and the hints.
    """
    if len(footprint) != 4 or len(top_hint) != 4:
        raise ValueError("footprint and top_hint must have 4 points each")
    hom = p3.homography()
    base = _project_h(hom.h, np.array([[q.x, q.y] for q in footprint]))
    hints = np.array([[q.x, q.y] for q in top_hint])

    def cost(height: float) -> float:
        tops3 = np.hstack([base, np.full((4, 1), height)])
        try:
            proj = _project_h(p3.p, tops3)
        except HorizonPoint:
            return 1e12
        return float(np.linalg.norm(proj - hints, axis=1).mean())

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, HEIGHT_MAX_FT
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = cost(c), cost(d)
    while b - a >= HEIGHT_TOL_FT:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = cost(d)
    height = (a + b) / 2.0
    if cost(0.0) <= cost(height):
        height = 0.0
    return Prism3D.from_footprint(base, height)


# ---------------------------------------------------------------------------
# anchor-box decode

# (sign_l, sign_w, sign_h) per corner in CORNER_ORDER: back corners carry
# -l/2, left ones -w/2, and bottom ones +h/2 (image rows grow downward).
_DECODE_SIGNS = [(1 if i in _FRONT else -1, 1 if i in _RIGHT else -1,
                  1 if i in _BOTTOM else -1) for i in range(8)]


def decode_anchor_detection(
    anchor: tuple[float, float, float, float],
    regression: tuple[float, float, float, float, float, float, float, float],
) -> list[ImagePoint]:
    """Decode anchor-relative regression outputs into 8 prism corner pixels.

    The regression gives the prism center plus directional pixel components
    of length, width, and height, all relative to the anchor dimensions.
    """
    x_a, y_a, w_a, h_a = anchor
    if w_a <= 0 or h_a <= 0:
        raise ValueError("anchor dimensions must be positive")
    x_c, y_c, x_l, y_l, x_w, y_w, x_h, y_h = regression
    out = []
    for sl, sw, sh in _DECODE_SIGNS:
        x = x_a + (x_c + sl * x_l / 2.0 + sw * x_w / 2.0 + sh * x_h / 2.0) * w_a
        y = y_a + (y_c + sl * y_l / 2.0 + sw * y_w / 2.0 + sh * y_h / 2.0) * h_a
        out.append(ImagePoint(x, y))
    return out
