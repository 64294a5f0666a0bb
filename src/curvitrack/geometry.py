"""Planar homography and 3D projective transforms between image pixels,
state-plane coordinates, and 3D bounding boxes.

Conventions: the homography H maps image pixel coordinates to state-plane
feet on the z=0 road plane, normalized so h33 = 1.  The 3x4 matrix P maps
3D state-plane points (feet) back into image pixels.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
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


@dataclass(frozen=True, eq=False)
class PointSet(Sequence):
    """A camera's reference points: a sequence of CorrespondencePoint that
    also holds their image and world coordinates as read-only (N,2) arrays,
    the image points as _columns, and each id's row.  Two sets are equal
    when their points are."""

    points: tuple
    image: np.ndarray = field(init=False, repr=False)
    world: np.ndarray = field(init=False, repr=False)
    columns: np.ndarray = field(init=False, repr=False)
    row_of: dict = field(init=False, repr=False)

    def __post_init__(self):
        points = tuple(self.points)
        image = np.array([(p.image.x, p.image.y) for p in points], dtype=float).reshape(-1, 2)
        world = np.array([(p.world.x, p.world.y) for p in points], dtype=float).reshape(-1, 2)
        for name, a in (("image", image), ("world", world), ("columns", _columns(image))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "row_of", {p.id: i for i, p in enumerate(points)})

    @classmethod
    def of(cls, points) -> "PointSet":
        """points itself if it is a PointSet, else a PointSet of it."""
        return points if isinstance(points, cls) else cls(points)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, k):
        return self.points[k]

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and self.points == other.points


def _as_matrix(h) -> np.ndarray:
    m = np.asarray(h, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("homography matrix must be 3x3")
    return m


def normalize_h(m: np.ndarray) -> np.ndarray:
    """Scale a projective matrix, or each of a stack, so its (3,3) entry equals 1."""
    if np.any(np.abs(m[..., 2, 2]) < 1e-15):
        raise SingularFit("cannot normalize: h33 is zero")
    return m / m[..., 2:, 2:]


def _condition(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition numbers of m, or of each matrix of a stack (at least 1-D),
    and which of them are finite and <= COND_LIMIT."""
    cond = np.atleast_1d(np.linalg.cond(m))
    return cond, cond <= COND_LIMIT     # False for nan too


def check_conditioned(m: np.ndarray) -> None:
    """Raise SingularFit unless the condition number of m, or of each matrix
    of a stack, is finite and <= COND_LIMIT; the message gives the first
    that is not."""
    cond, ok = _condition(m)
    if not ok.all():
        raise SingularFit(f"homography condition number {cond[ok.argmin()]:.3g} exceeds limit")


@dataclass(frozen=True, slots=True)
class Homography:
    """3x3 map from image pixels to state-plane feet, normalized h33=1."""

    h: np.ndarray
    camera_id: str = ""
    direction: str = "EB"
    _hinv: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = normalize_h(_as_matrix(self.h))
        check_conditioned(m)
        m.setflags(write=False)
        object.__setattr__(self, "h", m)

    @classmethod
    def _checked(cls, m: np.ndarray, camera_id: str, direction: str) -> "Homography":
        """A Homography of a read-only matrix that is already normalized and
        checked, such as one of a checked stack; skips both."""
        hom = object.__new__(cls)
        for name, value in (("h", m), ("camera_id", camera_id), ("direction", direction),
                            ("_hinv", None)):
            object.__setattr__(hom, name, value)
        return hom

    @property
    def hinv(self) -> np.ndarray:
        """Inverse of h (not renormalized), read-only, computed on first use."""
        if self._hinv is None:
            object.__setattr__(self, "_hinv", np.linalg.inv(self.h))
            self._hinv.setflags(write=False)
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

def _columns(pts: np.ndarray) -> np.ndarray:
    """Points (..., N, D) extended by a 1, as columns: a (..., D+1, N) view."""
    return np.concatenate([pts, np.ones(pts.shape[:-1] + (1,))], axis=-1).swapaxes(-1, -2)


def _homogeneous(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """m applied to points extended by a 1: (..., N, 3) from (..., N, 2 or 3)."""
    return (m @ _columns(pts)).swapaxes(-1, -2)


def _project_columns(m: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Apply a projective map, or a stack of K maps, to points given as
    _columns; the results are columns too: (..., 2, N).

    Raises HorizonPoint where the projective denominator vanishes.
    """
    q = m @ cols
    w = q[..., 2:, :]
    if np.count_nonzero(np.abs(w) < 1e-12):
        raise HorizonPoint("projective denominator vanished")
    return q[..., :2, :] / w


def _project_h(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 3x3 (or 3x4) projective map to Nx2 (or Nx3) points, or a
    stack of K maps to KxNx2 points.

    Raises HorizonPoint where the projective denominator vanishes.
    """
    cols = _columns(np.atleast_2d(np.asarray(pts, dtype=float)))
    return _project_columns(m, cols).swapaxes(-1, -2)


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
# homography fitting: one problem (Nx2 points, a 3x3 matrix), or a stack of K
# padded to one N (KxNx2, Kx3x3) with a KxN mask that is False on padding rows

def _mean(pts: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean over the real rows: (..., N, D) -> (..., 1, D)."""
    return (pts * mask[..., None]).sum(axis=-2, keepdims=True) / mask.sum(axis=-1)[..., None, None]


def _dlt(img: np.ndarray, world: np.ndarray, mask=None) -> np.ndarray:
    """Direct linear transform with Hartley normalization; padded rows are
    zero in the design matrix.  One problem whose h33 vanishes raises
    SingularFit; in a stack, that problem comes back nan."""
    mask = np.ones(img.shape[:-1], dtype=bool) if mask is None else mask

    def norm_transform(pts):
        c = _mean(pts, mask)
        d = _mean(np.sqrt(((pts - c) ** 2).sum(axis=-1, keepdims=True)), mask)[..., 0, 0]
        s = math.sqrt(2.0) / np.where(d > 1e-12, d, math.sqrt(2.0))
        t = np.eye(3) * np.stack([s, s, np.ones_like(s)], axis=-1)[..., None]
        t[..., :2, 2] = -s[..., None] * c[..., 0, :]
        return t

    ti, tw = norm_transform(img), norm_transform(world)
    ih, wh = _project_h(ti, img), _project_h(tw, world)
    (x, y), (u, v) = np.moveaxis(ih, -1, 0), np.moveaxis(wh, -1, 0)
    one, zero = np.ones_like(x), np.zeros_like(x)
    a = np.empty(x.shape[:-1] + (2 * x.shape[-1], 9))
    a[..., 0::2, :] = np.stack([x, y, one, zero, zero, zero, -u * x, -u * y, -u], axis=-1)
    a[..., 1::2, :] = np.stack([zero, zero, zero, x, y, one, -v * x, -v * y, -v], axis=-1)
    a *= np.repeat(mask, 2, axis=-1)[..., None]
    _, _, vt = np.linalg.svd(a, full_matrices=a.shape[-2] < 9)   # V is 9x9 either way
    h = np.linalg.inv(tw) @ vt[..., -1, :].reshape(ti.shape) @ ti
    return normalize_h(h) if h.ndim == 2 else h / np.where(
        np.abs(h[:, 2:, 2:]) < 1e-15, np.nan, h[:, 2:, 2:])


def _refine_lm(h0: np.ndarray, img: np.ndarray, world: np.ndarray, mask=None) -> np.ndarray:
    """Minimize the squared state-plane reprojection error over all 8 dof;
    padded rows are zero in the Jacobian and the residual.

    Levenberg-Marquardt on the analytic Jacobian, with the normal equations
    scaled to a unit diagonal and solved by one eigendecomposition per
    Jacobian, which a rejected step reuses; a projective denominator below
    1e-12 is clamped there.  An accepted step divides the damping by 10.
    A step that does not lower the cost, or is not finite, is retried with
    100 times the damping.  Each problem of a stack has its own damping and
    stops on its own; a start that is not finite stays.
    """
    k, n = math.prod(img.shape[:-2]), img.shape[-2]
    mask = np.ones((k, n), dtype=bool) if mask is None else mask.reshape(k, n)
    (x, y), world = np.moveaxis(img.reshape(k, n, 2), -1, 0), world.reshape(k, n, 2)
    basis = np.stack([x, y, np.ones_like(x)], axis=2) * mask[..., None]
    target = np.concatenate([world[..., 0], world[..., 1]], axis=1) * np.tile(mask, 2)

    def evaluate(p, sel):
        d = p[:, 6, None] * x[sel] + p[:, 7, None] * y[sel] + 1.0
        live = np.abs(d) >= 1e-12
        a = basis[sel] / np.where(live, d, 1e-12)[..., None]
        u, v = np.einsum("knj,kij->ikn", a, p[:, :6].reshape(-1, 2, 3))
        jac = np.zeros((len(sel), 2 * n, 8))
        jac[:, :n, 0:3] = jac[:, n:, 3:6] = a
        jac[:, :n, 6:] = -(u * live)[..., None] * a[..., :2]
        jac[:, n:, 6:] = -(v * live)[..., None] * a[..., :2]
        r = np.concatenate([u, v], axis=1) - target[sel]
        return (np.einsum("ki,ki->k", r, r), jac.transpose(0, 2, 1) @ jac,
                np.einsum("kji,kj->ki", jac, r))

    p = h0.reshape(k, 9)[:, :8] / h0.reshape(k, 9)[:, 8:]
    cost, gram, grad = evaluate(p, np.arange(k))   # cost, J'J and J'r
    damping, active = np.full(k, LM_DAMP_START), np.isfinite(p).all(axis=1)
    col, w, vec, proj = np.ones((k, 8)), np.zeros((k, 8)), np.zeros((k, 8, 8)), np.zeros((k, 8))
    fresh = np.flatnonzero(active)   # problems whose J'J is not decomposed yet
    for _ in range(LM_MAX_ITER):
        act = np.flatnonzero(active)
        if not act.size:
            break
        c = np.sqrt(np.diagonal(gram[fresh], axis1=1, axis2=2))
        col[fresh] = c = np.where(c == 0.0, 1.0, c)
        w[fresh], vec[fresh] = np.linalg.eigh(gram[fresh] / (c[:, :, None] * c[:, None, :]))
        proj[fresh] = np.einsum("kji,kj->ki", vec[fresh], grad[fresh] / c)
        lam, ca = np.maximum(w[act], 0.0) + damping[act, None], col[act]
        step = -np.einsum("kij,kj->ki", vec[act], proj[act] / lam) / ca
        cost_new, gram_new, grad_new = evaluate(p[act] + step, act)
        ok = cost_new < cost[act]
        done = ok & (cost[act] - cost_new <= LM_TOL * cost[act])
        kept = act[ok]
        p[kept] += step[ok]
        cost[kept], gram[kept], grad[kept] = cost_new[ok], gram_new[ok], grad_new[ok]
        damping[act] = np.where(ok, damping[act] / 10.0, damping[act] * 100.0)
        small = np.linalg.norm(ca * step, axis=1) <= LM_TOL * np.linalg.norm(ca * p[act], axis=1)
        active[act[done | small]] = False
        fresh = kept[active[kept]]
    return np.concatenate([p, np.ones((k, 1))], axis=1).reshape(h0.shape)


def _collinear(pts: np.ndarray, mask=None):
    """True when 2D points have no spread perpendicular to their best line."""
    mask = np.ones(pts.shape[:-1], dtype=bool) if mask is None else mask
    sv = np.linalg.svd((pts - _mean(pts, mask)) * mask[..., None], compute_uv=False)
    return (mask.sum(axis=-1) < 3) | (sv[..., 1] <= COLLINEAR_TOL * np.maximum(1.0, sv[..., 0]))


def points_collinear_within(pts: np.ndarray, band_ft: float, mask=None):
    """True when all points lie within band_ft of their best-fit line."""
    mask = np.ones(pts.shape[:-1], dtype=bool) if mask is None else mask
    if pts.shape[-2] < 3:
        return mask.sum(axis=-1) < 3
    c = (pts - _mean(pts, mask)) * mask[..., None]
    _, _, vt = np.linalg.svd(c, full_matrices=False)
    perp = np.abs((c * vt[..., 1:2, :]).sum(axis=-1)).max(axis=-1)
    return (mask.sum(axis=-1) < 3) | (perp <= band_ft)


def _residuals_ft(h: np.ndarray, img: np.ndarray, world: np.ndarray) -> np.ndarray:
    q = _homogeneous(h, img)
    denom = np.where(np.abs(q[..., 2:]) < 1e-12, np.nan, q[..., 2:])
    r = np.linalg.norm(q[..., :2] / denom - world, axis=-1)
    return np.where(np.isnan(r), np.inf, r)


def fit_all_points(img: np.ndarray, world: np.ndarray, mask: np.ndarray):
    """Least-squares fits over all points of K stacked problems (Kx3x3), and
    whether each is final without consensus (K booleans): neither point set
    is collinear and every residual is within DEFAULT_INLIER_FT."""
    try:
        h = _refine_lm(_dlt(img, world, mask), img, world, mask)
    except np.linalg.LinAlgError:    # settles none of the stack
        h = np.full(mask.shape[:1] + (3, 3), np.nan)
    ok = ~(_collinear(img, mask) | _collinear(world, mask))
    return h, ok & np.all((_residuals_ft(h, img, world) <= DEFAULT_INLIER_FT) | ~mask, axis=1)


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
    points = PointSet.of(points)
    img, world, ids = points.image, points.world, [p.id for p in points]
    (h_all,), (final,) = fit_all_points(img[None], world[None], np.ones((1, len(ids)), dtype=bool))
    if final:
        with contextlib.suppress(SingularFit):
            return Homography(h_all, camera_id, direction), ids
    if _collinear(img) or _collinear(world):
        raise DegenerateConfiguration("points are collinear")

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

def _golden_min(cost, lo: float, hi: float, tol: float, anchor: float) -> float:
    """Golden-section search of [lo, hi] for a minimum of cost, until the
    bracket is narrower than tol (or than a few float spacings at its ends).
    Returns anchor unless the searched point costs strictly less."""
    tol = max(tol, 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = cost(c), cost(d)
    while b - a >= tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = cost(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = cost(d)
    x = (a + b) / 2.0
    return x if cost(x) < cost(anchor) else anchor


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
    annotated vertical lines; p33 is fit by golden-section search of the squared
    pixel reprojection error over off-plane height samples, in a bracket about
    the median of their closed-form values, doubled until it holds a minimum.
    """
    vp = intersect_lines(vertical_lines)
    samples = [(w, i) for (w, i) in height_samples if w.z > 0.0]
    if not samples:
        raise InsufficientHeightInfo("all height samples lie on z=0")

    hinv = h.hinv
    world = np.array([[w.x, w.y, w.z] for w, _ in samples])
    img = np.array([[i.x, i.y] for _, i in samples])
    column = np.array([vp.x, vp.y, 1.0])

    def build(p33: float) -> np.ndarray:
        return np.column_stack([hinv[:, 0], hinv[:, 1], p33 * column, hinv[:, 2]])

    # Closed-form seed from each sample's column and row, then a scalar polish.
    q = _homogeneous(hinv, world[:, :2])
    off = img - column[:2]
    live = np.abs(off) > 1e-9
    seeds = (q[:, :2] - img * q[:, 2:3])[live] / (world[:, 2:3] * off)[live]
    seed = float(np.median(seeds)) if seeds.size else 1.0

    def cost(p33: float) -> float:
        try:
            proj = _project_h(build(p33), world)
        except HorizonPoint:
            return 1e12
        return float(((proj - img) ** 2).sum())

    span, at_seed = max(abs(seed), 1e-6), cost(seed)
    while min(cost(seed - span), cost(seed + span)) < at_seed:   # nan at inf ends it
        span *= 2.0
    return Projection3D(build(_golden_min(cost, seed - span, seed + span, 1e-15, seed)))


def project_prism_to_image(p3: Projection3D, prism: Prism3D) -> list[ImagePoint]:
    """Project all 8 prism corners into the image."""
    pts = _project_h(p3.p, prism.corners)
    return [ImagePoint(x, y) for x, y in pts]


def _lift_cost(p3: Projection3D, base: np.ndarray, hints: np.ndarray):
    """The mean pixel distance between the top corners over an (4,2) ground
    footprint, reprojected at a height, and (4,2) hints, as a function of
    the height; 1e12 where a projective denominator falls below 1e-12.

    A top corner projects to q0 + height * P[:, 2], with q0 the corner's
    ground point through P's columns 1, 2 and 4, so q0 is taken once."""
    q0 = _homogeneous(p3.p[:, [0, 1, 3]], base).tolist()
    cx, cy, cw = p3.p[:, 2].tolist()
    corners = [(x, y, w, hx, hy) for (x, y, w), (hx, hy) in zip(q0, hints.tolist())]

    def cost(height: float) -> float:
        total = 0.0
        for x, y, w, hx, hy in corners:
            w += height * cw
            if abs(w) < 1e-12:
                return 1e12
            total += math.hypot((x + height * cx) / w - hx, (y + height * cy) / w - hy)
        return total / len(corners)

    return cost


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
    cost = _lift_cost(p3, base, np.array([[q.x, q.y] for q in top_hint]))
    return Prism3D.from_footprint(base, _golden_min(cost, 0.0, HEIGHT_MAX_FT,
                                                    HEIGHT_TOL_FT, 0.0))


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
