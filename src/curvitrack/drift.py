"""Per-camera homography re-estimation over time.

Instantaneous homographies are fit to rediscovered lane-marker points,
then aggregated into a static (outlier-filtered element-wise mean) and a
dynamic (Gaussian-kernel-smoothed, adaptive window) estimate.  Drift and
fitness metrics compare point projections in state-plane feet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import (AllOutliers, DataInvariantViolation, DegenerateConfiguration,
                     RejectedInstant, SingularFit)
from .geometry import CorrespondencePoint, Homography, ImagePoint

MIN_INSTANT_INLIERS = 6
COLLINEAR_BAND_FT = 1.0
OUTLIER_REL = 0.30
OUTLIER_ABS_FLOOR = 1e-9   # |mean| below this -> absolute comparison
OUTLIER_ABS_TOL = 1e-6
GRID_SPACING_S = 10.0
BASE_WINDOW_S = 300.0
MIN_WINDOW_COUNT = 10


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


def _join(reference_points: list[CorrespondencePoint], snap: RediscoverySnapshot):
    by_id = {p.id: p for p in reference_points}
    missing = [i for i, _ in snap.points if i not in by_id]
    if missing:
        raise DataInvariantViolation(
            f"{snap.camera_id} snapshot at epoch {snap.epoch}: "
            f"ids not in reference set: {missing[:5]}")
    return [
        CorrespondencePoint(i, im, by_id[i].world) for i, im in snap.points
    ]


def fit_instant(
    reference_points: list[CorrespondencePoint],
    snap: RediscoverySnapshot,
) -> tuple[float, Homography, list[str]]:
    """Fit the instantaneous homography for one snapshot.

    Raises RejectedInstant when too few inliers survive or the surviving
    world points fall within a 1 ft collinear band (single-lane rediscovery).
    """
    joined = _join(reference_points, snap)
    if len(joined) < MIN_INSTANT_INLIERS:
        raise RejectedInstant(f"only {len(joined)} rediscovered points")
    try:
        h, inliers = geometry.fit_homography(
            joined,
            camera_id=snap.camera_id, direction=snap.direction,
            seed=int(snap.epoch * 1000) & 0x7FFFFFFF)
    except (DegenerateConfiguration, SingularFit) as exc:
        raise RejectedInstant(str(exc)) from exc
    if len(inliers) < MIN_INSTANT_INLIERS:
        raise RejectedInstant(f"only {len(inliers)} inliers")
    world = np.array([[p.world.x, p.world.y] for p in joined if p.id in set(inliers)])
    if geometry.points_collinear_within(world, COLLINEAR_BAND_FT):
        raise RejectedInstant("collinear")
    return snap.epoch, h, inliers


def build_timeline(
    reference: Homography,
    reference_points: list[CorrespondencePoint],
    snapshots: list[RediscoverySnapshot],
) -> tuple[HomographyTimeline, list[tuple[float, str]]]:
    """Fit all snapshots into a timeline; returns (timeline, rejections)."""
    tl = HomographyTimeline(reference.camera_id, reference.direction, reference)
    rejected = []
    for snap in sorted(snapshots, key=lambda s: s.epoch):
        try:
            epoch, h, inliers = fit_instant(reference_points, snap)
        except RejectedInstant as exc:
            rejected.append((snap.epoch, exc.reason))
            continue
        tl.add_instant(epoch, h, inliers)
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
    mean = geometry.normalize_h(mats.mean(axis=0))
    return Homography(mean, timeline.camera_id, timeline.direction)


def build_dynamic(timeline: HomographyTimeline) -> list[tuple[float, Homography]]:
    """Gaussian-kernel smoothed estimates on a GRID_SPACING_S epoch grid.

    The window half-width starts at BASE_WINDOW_S and doubles until at least
    MIN_WINDOW_COUNT surviving instants fall inside (capped at the full span).
    """
    epochs, mats = _surviving(timeline)
    span = max(epochs[-1] - epochs[0], GRID_SPACING_S)

    out = []
    t0, t1 = epochs[0], epochs[-1]
    grid = t0 + np.arange(0.0, (t1 - t0) + GRID_SPACING_S / 2.0, GRID_SPACING_S)
    for t in grid:
        half = BASE_WINDOW_S
        while np.count_nonzero(np.abs(epochs - t) <= half) < MIN_WINDOW_COUNT and half < span:
            half *= 2.0
        inside = np.abs(epochs - t) <= half
        sigma = half / 3.0
        w = np.exp(-0.5 * ((epochs[inside] - t) / sigma) ** 2)
        m = geometry.normalize_h(
            np.tensordot(w, mats[inside], axes=1) / w.sum())
        out.append((float(t), Homography(m, timeline.camera_id, timeline.direction)))
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
        comp = geometry.normalize_h(timeline.reference.h @ inv)
        out.append((float(epoch),
                    Homography(comp, timeline.camera_id, timeline.direction)))
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
    joined = _join(reference_points, snap)
    img = np.array([[p.image.x, p.image.y] for p in joined])
    world = np.array([[p.world.x, p.world.y] for p in joined])
    proj = geometry.project_points_image_to_world(h_t, img)
    return ErrorStats.from_distances(np.linalg.norm(proj - world, axis=1))


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
