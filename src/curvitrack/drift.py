"""Per-camera homography re-estimation over time.

Instantaneous homographies are fit to rediscovered lane-marker points,
then aggregated into a static (outlier-filtered element-wise mean) and a
dynamic (Gaussian-kernel-smoothed, adaptive window) estimate.  Drift and
fitness metrics compare point projections in state-plane feet.

A rejected snapshot is an (epoch, reason string) pair in `build_timeline`'s
rejections.  The static and dynamic estimates need MIN_INSTANTS instants,
before and after outlier removal; `restim` skips a camera with fewer.

Two records carry the arrays: a camera's reference points are a
`geometry.PointSet`, whose image and world arrays and id rows are built
once, where the points are made or read; the dynamic and baseline
estimates are one `EstimateStack` each, epochs and matrices as arrays,
conditioning checked for the whole stack at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import AllOutliers, DataInvariantViolation, DegenerateConfiguration, SingularFit
from .geometry import CorrespondencePoint, Homography, PointSet

MIN_INSTANT_INLIERS = 6
MIN_INSTANTS = 3           # instants the static and dynamic estimates need
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

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """The image points as read-only geometry._columns, built on first use."""
        cols = geometry._columns(np.array([(p.x, p.y) for _, p in self.points],
                                          dtype=float).reshape(-1, 2))
        cols.setflags(write=False)
        return cols

    @property
    def image(self) -> np.ndarray:
        """The image points, (N,2): a view of columns."""
        return self.columns[:2].T


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


def _rows(points: PointSet, snap) -> list[int]:
    """The row in points of each of the snapshot's ids; -1 where it has none."""
    row_of = points.row_of
    return [row_of.get(i, -1) for i, _ in snap.points]


def _join(points: PointSet, snap) -> np.ndarray:
    """The snapshot's points as rows of points; every id must be there."""
    rows = _rows(points, snap)
    if -1 in rows:
        missing = [i for (i, _), k in zip(snap.points, rows) if k < 0]
        raise DataInvariantViolation(f"{snap.camera_id} snapshot at epoch {snap.epoch}: "
                                     f"ids not in reference set: {missing[:5]}")
    return np.array(rows, dtype=np.intp)


def _fit_one(points: PointSet, rows: np.ndarray, snap: RediscoverySnapshot):
    """One snapshot through fit_homography (RANSAC consensus): its
    (epoch, Homography, inlier ids), or the reason it is rejected."""
    if len(rows) < MIN_INSTANT_INLIERS:
        return f"only {len(rows)} rediscovered points"
    joined = PointSet([CorrespondencePoint(i, im, points[r].world)
                       for (i, im), r in zip(snap.points, rows)])
    try:
        h, inliers = geometry.fit_homography(joined, snap.camera_id, snap.direction,
                                             seed=int(snap.epoch * 1000) & 0x7FFFFFFF)
    except (DegenerateConfiguration, SingularFit) as exc:
        return str(exc)
    if len(inliers) < MIN_INSTANT_INLIERS:
        return f"only {len(inliers)} inliers"
    kept = set(inliers)
    world = joined.world[[p.id in kept for p in joined]]
    if geometry.points_collinear_within(world, COLLINEAR_BAND_FT):
        return "collinear"
    return snap.epoch, h, inliers


def _fit_snapshots(reference_points: list[CorrespondencePoint], snaps: list) -> list:
    """(epoch, Homography, inlier ids), or the rejection reason, per snapshot.
    geometry.fit_all_points runs on STACK_MAX snapshots at a time; those it
    does not settle, or that fall within the collinear band, take _fit_one."""
    points = PointSet.of(reference_points)
    rows = [_join(points, snap) for snap in snaps]
    live = [k for k, r in enumerate(rows) if len(r) >= MIN_INSTANT_INLIERS]
    fast = {}
    for chunk in (live[i:i + STACK_MAX] for i in range(0, len(live), STACK_MAX)):
        counts = [len(rows[k]) for k in chunk]
        mask = np.arange(max(counts)) < np.array(counts)[:, None]
        img, world = np.zeros(mask.shape + (2,)), np.zeros(mask.shape + (2,))
        img[mask] = np.concatenate([snaps[k].image for k in chunk])
        world[mask] = points.world[np.concatenate([rows[k] for k in chunk])]
        h, ok = geometry.fit_all_points(img, world, mask)
        ok &= ~geometry.points_collinear_within(world, COLLINEAR_BAND_FT, mask)
        settled = h[ok]     # h33 is 1, so each is normalized; keep those Homography accepts
        _, fine = geometry._condition(settled)
        settled = settled[fine]
        settled.setflags(write=False)
        for k, h_k in zip(np.array(chunk)[ok][fine], settled):
            snap = snaps[k]
            fast[k] = (snap.epoch, Homography._checked(h_k, snap.camera_id, snap.direction),
                       [i for i, _ in snap.points])
    return [fast[k] if k in fast else _fit_one(points, rows[k], snap)
            for k, snap in enumerate(snaps)]


def build_timeline(
    reference: Homography,
    reference_points: list[CorrespondencePoint],
    snapshots: list[RediscoverySnapshot],
) -> tuple[HomographyTimeline, list[tuple[float, str]]]:
    """Fit all snapshots into a timeline; returns (timeline, rejections).

    A snapshot is rejected, with its reason, when too few of its points or
    inliers remain, or when the inliers' world points fall within a
    COLLINEAR_BAND_FT band (single-lane rediscovery)."""
    tl = HomographyTimeline(reference.camera_id, reference.direction, reference)
    rejected = []
    snaps = sorted(snapshots, key=lambda s: s.epoch)
    for snap, fit in zip(snaps, _fit_snapshots(reference_points, snaps)):
        if isinstance(fit, str):
            rejected.append((snap.epoch, fit))
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
        keep &= ~bad
        if not bad.any() or keep.sum() < MIN_INSTANTS:
            break
    if keep.sum() < MIN_INSTANTS:
        raise AllOutliers(f"only {int(keep.sum())} instants survive outlier removal")
    return keep


def _surviving(timeline: HomographyTimeline) -> tuple[np.ndarray, np.ndarray]:
    """Epochs and matrices of the instants that survive the outlier filter."""
    if len(timeline.instants) < MIN_INSTANTS:
        raise AllOutliers(f"need >= {MIN_INSTANTS} instants")
    epochs = np.array([e for e, _, _ in timeline.instants])
    mats = np.stack([h.h for _, h, _ in timeline.instants])
    keep = _remove_outliers(mats)
    return epochs[keep], mats[keep]


def build_static(timeline: HomographyTimeline) -> Homography:
    """Element-wise mean homography after iterative 30% outlier removal."""
    _, mats = _surviving(timeline)
    return Homography(mats.mean(axis=0), timeline.camera_id, timeline.direction)


@dataclass(frozen=True, eq=False)
class EstimateStack:
    """Homography estimates of one camera at K epochs: epochs (K,) and the
    matrices h (K,3,3), normalized and checked as each Homography would be,
    for the whole stack at once.  Both arrays are read-only.  As a sequence
    it yields (epoch, Homography) pairs; a Homography is built only for the
    item asked for."""

    epochs: np.ndarray
    h: np.ndarray
    camera_id: str
    direction: str

    def __post_init__(self):
        epochs = np.array(self.epochs, dtype=float).reshape(-1)
        h = np.asarray(self.h, dtype=float).reshape(-1, 3, 3)
        if len(h) != len(epochs):
            raise ValueError("one matrix per epoch")
        h = geometry.normalize_h(h)
        geometry.check_conditioned(h)
        for name, a in (("epochs", epochs), ("h", h)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.epochs)

    def __getitem__(self, k: int) -> tuple[float, Homography]:
        return float(self.epochs[k]), Homography._checked(self.h[k], self.camera_id,
                                                          self.direction)

    def __iter__(self):
        return (self[k] for k in range(len(self)))


def build_dynamic(timeline: HomographyTimeline) -> EstimateStack:
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
        out.append(w @ mats.reshape(-1, 9) / w.sum(axis=1, keepdims=True))
    return EstimateStack(grid, np.concatenate(out), timeline.camera_id, timeline.direction)


def build_baseline(timeline: HomographyTimeline) -> EstimateStack:
    """Feature-matcher baseline: compose the reference homography with the
    inverse of each externally supplied image-to-image alignment map."""
    maps = np.array([np.asarray(m, dtype=float) for _, m in timeline.sift_maps]).reshape(-1, 3, 3)
    try:
        inv = np.linalg.inv(maps)
    except np.linalg.LinAlgError:
        for epoch, m in timeline.sift_maps:   # name the first singular map
            try:
                np.linalg.inv(np.asarray(m, dtype=float))
            except np.linalg.LinAlgError as exc:
                raise SingularFit(f"alignment map at epoch {epoch} is singular") from exc
        raise
    return EstimateStack([e for e, _ in timeline.sift_maps], timeline.reference.h @ inv,
                         timeline.camera_id, timeline.direction)


def dynamic_at(estimates: EstimateStack, t: float) -> Homography:
    """The estimate whose epoch is closest to t; of epochs equally close, the
    first in the stack's order."""
    if not len(estimates):
        raise ValueError("no estimates")
    return estimates[int(np.argmin(np.abs(estimates.epochs - t)))][1]


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
        """Mean, max and population std of d, summed as np.mean and np.std
        sum them, so equal to theirs bit for bit."""
        d = np.asarray(d, dtype=float)
        d = d if d.ndim == 1 else d.reshape(-1)
        n = d.size
        if n == 0:
            return cls(float("nan"), float("nan"), float("nan"), 0)
        mean = float(np.add.reduce(d)) / n
        dev = d - mean
        return cls(mean, float(np.maximum.reduce(d)),
                   math.sqrt(float(np.add.reduce(dev * dev)) / n), n)


def _norms(v: np.ndarray) -> np.ndarray:
    """Lengths of the columns of a (2,N) v, as np.linalg.norm(v.T, axis=1)
    computes them."""
    return np.sqrt(np.add.reduce(v * v, axis=0))


def metric_fitness(
    reference_points: PointSet,
    snap: RediscoverySnapshot,
    h_t: Homography,
) -> ErrorStats:
    """Residual of a fit: rediscovered points projected through their own
    homography versus the reference world positions."""
    points = PointSet.of(reference_points)
    world = points.world.take(_join(points, snap), axis=0).T
    return ErrorStats.from_distances(_norms(geometry._project_columns(h_t.h, snap.columns) - world))


def metric_full_drift(
    reference_points: PointSet,
    h_a: Homography,
    h_b: Homography,
) -> ErrorStats:
    """Distance between projections of the full reference image-point set
    under two homographies."""
    pa, pb = geometry._project_columns(np.array([h_a.h, h_b.h]),
                                       PointSet.of(reference_points).columns)
    return ErrorStats.from_distances(_norms(pa - pb))


def metric_sub_drift(
    reference_points: PointSet,
    snap: RediscoverySnapshot,
    h: Homography,
) -> ErrorStats:
    """Distance between matched reference and rediscovered image points,
    both projected through the same homography; ids the reference set lacks
    are skipped."""
    points = PointSet.of(reference_points)
    rows = np.array(_rows(points, snap), dtype=np.intp)
    found = rows >= 0
    if not found.any():
        return ErrorStats.from_distances(np.array([]))
    pa = geometry._project_h(h.h, points.image[rows[found]])
    pb = geometry._project_h(h.h, snap.image[found])
    return ErrorStats.from_distances(_norms((pa - pb).T))
