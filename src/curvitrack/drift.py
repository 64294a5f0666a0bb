"""Per-camera homography re-estimation over time.

Instantaneous homographies are fit to rediscovered lane-marker points,
then aggregated into a static (outlier-filtered element-wise mean) and a
dynamic (Gaussian-kernel-smoothed, adaptive window) estimate.  Drift and
fitness metrics compare point projections in state-plane feet.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import (AllOutliers, DataInvariantViolation, DegenerateConfiguration,
                     RejectedInstant, SingularFit)
from .geometry import CorrespondencePoint, Homography

MIN_INSTANT_INLIERS = 6
COLLINEAR_BAND_FT = 1.0
OUTLIER_REL = 0.30
OUTLIER_ABS_FLOOR = 1e-9   # |mean| below this -> absolute comparison
OUTLIER_ABS_TOL = 1e-6
GRID_SPACING_S = 10.0
BASE_WINDOW_S = 300.0
MIN_WINDOW_COUNT = 10
STACK_MAX = 256            # snapshots per stacked fit; bounds its working memory


@dataclass(frozen=True)
class RediscoverySnapshot:
    """Rediscovered image positions of reference landmarks at one epoch."""

    epoch: float
    camera_id: str
    direction: str
    points: tuple  # of (id, ImagePoint)

    def __post_init__(self):
        ids = [i for i, _ in self.points]
        if len(ids) != len(set(ids)):
            raise ValueError("snapshot point ids must be unique")
        object.__setattr__(self, "points", tuple(self.points))


@dataclass
class HomographyTimeline:
    """Time-ordered instantaneous fits plus static/dynamic estimates."""

    camera_id: str
    direction: str
    reference: Homography
    instants: list = field(default_factory=list)  # (epoch, Homography, inlier ids)
    sift_maps: list = field(default_factory=list)  # optional (epoch, 3x3 image->image)

    def add_instant(self, epoch: float, h: Homography, inliers: list[str]):
        if self.instants and epoch <= self.instants[-1][0]:
            raise ValueError("instants must be strictly increasing in epoch")
        self.instants.append((float(epoch), h, list(inliers)))


def _join(reference_points: list[CorrespondencePoint], snaps):
    """Each snapshot's points as indices into reference_points, and the
    reference points' world coordinates (Nx2)."""
    row_of = {p.id: i for i, p in enumerate(reference_points)}
    rows = []
    for snap in snaps:
        missing = [i for i, _ in snap.points if i not in row_of]
        if missing:
            raise DataInvariantViolation(f"{snap.camera_id} snapshot at epoch {snap.epoch}: "
                                         f"ids not in reference set: {missing[:5]}")
        rows.append(np.array([row_of[i] for i, _ in snap.points], dtype=np.intp))
    return rows, np.array([[p.world.x, p.world.y] for p in reference_points])


def _fit_one(reference_points, rows: np.ndarray, snap: RediscoverySnapshot):
    """One snapshot through fit_homography (RANSAC consensus): its
    (epoch, Homography, inlier ids), or the RejectedInstant."""
    if len(rows) < MIN_INSTANT_INLIERS:
        return RejectedInstant(f"only {len(rows)} rediscovered points")
    joined = [CorrespondencePoint(i, im, reference_points[r].world)
              for (i, im), r in zip(snap.points, rows)]
    try:
        h, inliers = geometry.fit_homography(joined, snap.camera_id, snap.direction,
                                             seed=int(snap.epoch * 1000) & 0x7FFFFFFF)
    except (DegenerateConfiguration, SingularFit) as exc:
        return RejectedInstant(str(exc))
    if len(inliers) < MIN_INSTANT_INLIERS:
        return RejectedInstant(f"only {len(inliers)} inliers")
    kept = set(inliers)
    world = np.array([[p.world.x, p.world.y] for p in joined if p.id in kept])
    if geometry.points_collinear_within(world, COLLINEAR_BAND_FT):
        return RejectedInstant("collinear")
    return snap.epoch, h, inliers


def _fit_snapshots(reference_points: list[CorrespondencePoint], snaps: list) -> list:
    """(epoch, Homography, inlier ids), or the RejectedInstant, per snapshot.
    geometry.fit_all_points runs on STACK_MAX snapshots at a time; those it
    does not settle, or that fall within the collinear band, take _fit_one."""
    rows, world_of = _join(reference_points, snaps)
    live = [k for k, r in enumerate(rows) if len(r) >= MIN_INSTANT_INLIERS]
    fast = {}
    for chunk in (live[i:i + STACK_MAX] for i in range(0, len(live), STACK_MAX)):
        counts = [len(rows[k]) for k in chunk]
        mask = np.arange(max(counts)) < np.array(counts)[:, None]
        img, world = np.zeros(mask.shape + (2,)), np.zeros(mask.shape + (2,))
        img[mask] = [(p.x, p.y) for k in chunk for _, p in snaps[k].points]
        world[mask] = world_of[np.concatenate([rows[k] for k in chunk])]
        h, ok = geometry.fit_all_points(img, world, mask)
        ok &= ~geometry.points_collinear_within(world, COLLINEAR_BAND_FT, mask)
        for k, h_k in zip(np.array(chunk)[ok], h[ok]):
            with contextlib.suppress(SingularFit):
                fast[k] = (snaps[k].epoch, Homography(h_k, snaps[k].camera_id, snaps[k].direction),
                           [i for i, _ in snaps[k].points])
    return [fast[k] if k in fast else _fit_one(reference_points, rows[k], snap)
            for k, snap in enumerate(snaps)]


def fit_instant(
    reference_points: list[CorrespondencePoint],
    snap: RediscoverySnapshot,
) -> tuple[float, Homography, list[str]]:
    """Fit the instantaneous homography for one snapshot.

    Raises RejectedInstant when too few inliers survive or the surviving
    world points fall within a 1 ft collinear band (single-lane rediscovery).
    """
    fit, = _fit_snapshots(reference_points, [snap])
    if isinstance(fit, RejectedInstant):
        raise fit
    return fit


def build_timeline(
    reference: Homography,
    reference_points: list[CorrespondencePoint],
    snapshots: list[RediscoverySnapshot],
) -> tuple[HomographyTimeline, list[tuple[float, str]]]:
    """Fit all snapshots into a timeline; returns (timeline, rejections)."""
    tl = HomographyTimeline(reference.camera_id, reference.direction, reference)
    rejected = []
    snaps = sorted(snapshots, key=lambda s: s.epoch)
    for snap, fit in zip(snaps, _fit_snapshots(reference_points, snaps)):
        if isinstance(fit, RejectedInstant):
            rejected.append((snap.epoch, fit.reason))
        else:
            tl.add_instant(*fit)
    return tl, rejected


# ---------------------------------------------------------------------------
# aggregation

def _remove_outliers(mats: np.ndarray) -> np.ndarray:
    """Iterative element-wise 30%-deviation filter; returns a survivor mask."""
    keep = np.ones(mats.shape[0], dtype=bool)
    for _ in range(mats.shape[0]):
        mean = mats[keep].mean(axis=0)
        small = np.abs(mean) < OUTLIER_ABS_FLOOR
        dev = np.abs(mats - mean)
        rel_bad = dev > OUTLIER_REL * np.abs(mean)
        abs_bad = dev > OUTLIER_ABS_TOL
        bad_entries = np.where(small, abs_bad, rel_bad)
        bad = bad_entries.any(axis=(1, 2)) & keep
        if not bad.any():
            break
        keep &= ~bad
        if keep.sum() < 3:
            break
    if keep.sum() < 3:
        raise AllOutliers(f"only {int(keep.sum())} instants survive outlier removal")
    return keep


def _surviving(timeline: HomographyTimeline) -> tuple[np.ndarray, np.ndarray]:
    """Epochs and matrices of the instants that survive the outlier filter."""
    if len(timeline.instants) < 3:
        raise AllOutliers("need >= 3 instants")
    epochs = np.array([e for e, _, _ in timeline.instants])
    mats = np.stack([h.h for _, h, _ in timeline.instants])
    keep = _remove_outliers(mats)
    return epochs[keep], mats[keep]


def build_static(timeline: HomographyTimeline) -> Homography:
    """Element-wise mean homography after iterative 30% outlier removal."""
    _, mats = _surviving(timeline)
    return Homography(mats.mean(axis=0), timeline.camera_id, timeline.direction)


def build_dynamic(timeline: HomographyTimeline) -> list[tuple[float, Homography]]:
    """Gaussian-kernel smoothed estimates on a GRID_SPACING_S epoch grid.

    The window half-width starts at BASE_WINDOW_S and doubles until at least
    MIN_WINDOW_COUNT surviving instants fall inside (capped at the full span).
    """
    epochs, mats = _surviving(timeline)
    span = max(epochs[-1] - epochs[0], GRID_SPACING_S)
    grid = epochs[0] + np.arange(0.0, epochs[-1] - epochs[0] + GRID_SPACING_S / 2.0, GRID_SPACING_S)
    halves = BASE_WINDOW_S * 2.0 ** np.arange(64)
    out = []
    for t in np.array_split(grid[:, None], 1 + len(grid) * len(epochs) // 2 ** 20):  # ~1M dists
        dist = np.abs(epochs - t)
        # the first doubling that holds the MIN_WINDOW_COUNT-th nearest instant or the span
        nth = (np.partition(dist, MIN_WINDOW_COUNT - 1, axis=1)[:, MIN_WINDOW_COUNT - 1]
               if len(epochs) >= MIN_WINDOW_COUNT else np.full(len(t), np.inf))
        half = halves[np.searchsorted(halves, np.minimum(nth, span))][:, None]
        w = np.exp(-0.5 * ((epochs - t) / (half / 3.0)) ** 2) * (dist <= half)
        m = (w @ mats.reshape(-1, 9) / w.sum(axis=1, keepdims=True)).reshape(-1, 3, 3)
        out += [(float(tk), Homography(mk, timeline.camera_id, timeline.direction))
                for tk, mk in zip(t[:, 0], m)]
    return out


def build_baseline(timeline: HomographyTimeline) -> list[tuple[float, Homography]]:
    """Feature-matcher baseline: compose the reference homography with the
    inverse of each externally supplied image-to-image alignment map."""
    out = []
    for epoch, m in timeline.sift_maps:
        try:
            inv = np.linalg.inv(np.asarray(m, dtype=float))
        except np.linalg.LinAlgError as exc:
            raise SingularFit(f"alignment map at epoch {epoch} is singular") from exc
        out.append((float(epoch), Homography(timeline.reference.h @ inv,
                                             timeline.camera_id, timeline.direction)))
    return out


def dynamic_at(estimates: list[tuple[float, Homography]], t: float) -> Homography:
    """Estimate whose grid epoch is closest to t."""
    if not estimates:
        raise ValueError("no estimates")
    idx = int(np.argmin([abs(e - t) for e, _ in estimates]))
    return estimates[idx][1]


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class ErrorStats:
    mean: float
    max: float
    std: float
    count: int

    @classmethod
    def from_distances(cls, d: np.ndarray) -> "ErrorStats":
        d = np.asarray(d, dtype=float)
        if d.size == 0:
            return cls(float("nan"), float("nan"), float("nan"), 0)
        return cls(float(d.mean()), float(d.max()), float(d.std()), int(d.size))


def metric_fitness(
    reference_points: list[CorrespondencePoint],
    snap: RediscoverySnapshot,
    h_t: Homography,
) -> ErrorStats:
    """Residual of a fit: rediscovered points projected through their own
    homography versus the reference world positions."""
    (rows,), world_of = _join(reference_points, [snap])
    img = np.array([[p.x, p.y] for _, p in snap.points])
    proj = geometry.project_points_image_to_world(h_t, img)
    return ErrorStats.from_distances(np.linalg.norm(proj - world_of[rows], axis=1))


def metric_full_drift(
    reference_points: list[CorrespondencePoint],
    h_a: Homography,
    h_b: Homography,
) -> ErrorStats:
    """Distance between projections of the full reference image-point set
    under two homographies."""
    img = np.array([[p.image.x, p.image.y] for p in reference_points])
    pa = geometry.project_points_image_to_world(h_a, img)
    pb = geometry.project_points_image_to_world(h_b, img)
    return ErrorStats.from_distances(np.linalg.norm(pa - pb, axis=1))


def metric_sub_drift(
    reference_points: list[CorrespondencePoint],
    snap: RediscoverySnapshot,
    h: Homography,
) -> ErrorStats:
    """Distance between matched reference and rediscovered image points,
    both projected through the same homography."""
    by_id = {p.id: p for p in reference_points}
    ref_img, red_img = [], []
    for pid, im in snap.points:
        if pid in by_id:
            ref_img.append([by_id[pid].image.x, by_id[pid].image.y])
            red_img.append([im.x, im.y])
    if not ref_img:
        return ErrorStats.from_distances(np.array([]))
    pa = geometry.project_points_image_to_world(h, np.array(ref_img))
    pb = geometry.project_points_image_to_world(h, np.array(red_img))
    return ErrorStats.from_distances(np.linalg.norm(pa - pb, axis=1))
