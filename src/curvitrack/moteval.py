"""Tracking evaluation on roadway-coordinate trajectories.

The `eval` stage scores `gt_tracks.jsonl`, the trajectory of every vehicle,
sampled on a fixed STEP_S grid and counted where 0 <= x <= 23,000 ft.  The
paper's ground truth is sparse (corrected GPS passes of a few vehicles), so
detection accuracy is the FP-free DetA* = TP / (TP + FN) of `det_a_star`,
which also gives Recall at the working threshold, and association
accuracy is accumulated only over ground-truth instants.  HOTA is the
alpha-averaged sqrt(DetA* * AssA).

Matching rule: DetA* and AssA at each threshold alpha come from their own
per-frame Hungarian matching on cost 1 - IOU over the pairs with
IOU >= alpha (most matches first, then least total cost).  This departs
from the HOTA paper (Luiten et al., IJCV 2021), which matches once per
frame on an association-weighted similarity and then keeps, at each alpha,
the matched pairs with IOU >= alpha; the two rules can give different TP
counts.

Cost follows the feasible pairs, not objects x frames: every series is
resampled over its own time window only, and one sweep over the gt and
track samples of all frames together (tracking.candidate_pairs) yields the
same-frame gt-track pairs that overlap in x, the only ones that can reach
an alpha (all above 0).  At each alpha, one tracking._assign over the
pairs that reach it matches every frame at once: a pair sharing neither
its row nor its column is taken as it is, and each connected component
of the others is solved on its own submatrix.  Disjoint components match
independently, so the matches are those of a Hungarian pass on the whole
frame, except that among equally good matchings (exact IOU ties, as
between identical duplicate tracks) the one chosen may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tracking import (_assign, _rect_iou, candidate_pairs, footprint_rect,  # noqa: F401
                       hungarian_match, iou_matrix, time_grid)   # perfbench wraps these two

STEP_S = 0.1                # evaluation grid
MATCH_IOU = 0.1             # working threshold of Recall, IDs, LCSS and MOTP
HOTA_ALPHAS = tuple(np.round(np.arange(0.05, 0.951, 0.05), 2).tolist())
X_CLIP_FT = (0.0, 23000.0)  # ground truth counts only within this x range


@dataclass(frozen=True)
class TrajectorySeries:
    """A trajectory sampled at one or more increasing times with (x,y,l,w,h)
    boxes."""

    id: str
    times: np.ndarray
    boxes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "boxes",
                           np.asarray(self.boxes, dtype=float).reshape(-1, 5))
        if len(self.times) == 0:
            raise ValueError(f"trajectory series {self.id!r} has no samples")


def series_from_tracklet(tracklet) -> TrajectorySeries:
    """Tracklet -> series with per-state dims replaced by its median dims."""
    boxes = tracklet.boxes.copy()
    boxes[:, 2:5] = tracklet.dims
    return TrajectorySeries(str(tracklet.id), tracklet.times, boxes)


def resample(series: TrajectorySeries, times: np.ndarray) -> np.ndarray:
    """Interpolated (N,5) boxes at the requested times; rows outside the
    series' span are NaN (no extrapolation)."""
    times = np.asarray(times, dtype=float)
    out = np.full((len(times), 5), np.nan)
    inside = (times >= series.times[0] - 1e-9) & (times <= series.times[-1] + 1e-9)
    for j in range(5):
        out[inside, j] = np.interp(times[inside], series.times, series.boxes[:, j])
    return out


def match_frame(gt_boxes: np.ndarray, tr_boxes: np.ndarray, alphas) -> tuple:
    """Match one frame at every IOU threshold in `alphas`.

    Returns (rows, cols, iou, matched): the gt index, track index and IOU
    of every pair with IOU >= min(alphas), in row-major order, and a
    (len(alphas), pairs) mask of the pairs matched at each threshold: the
    tracking._assign on 1 - IOU of the pairs that clear it.
    """
    gt, tr = (_Samples(np.zeros(len(b), dtype=int), np.zeros(len(b), dtype=int),
                       np.asarray(b, dtype=float)) for b in (gt_boxes, tr_boxes))
    return _match_frames(gt, tr, alphas)


@dataclass
class TrajectoryScore:
    gt_id: str
    instants: int
    matched: int
    ids: int
    lcss_t: float
    lcss_d: float
    motp_i: float | None
    motp_e: float | None

    @property
    def recall(self) -> float:
        return self.matched / self.instants if self.instants else 0.0


@dataclass
class EvalReport:
    hota: float
    det_a: float
    ass_a: float
    recall: float
    ids_per_gt: float
    lcss_t: float
    lcss_d: float
    motp_i: float
    motp_e: float
    td: float
    n_gt: int
    n_tracklets: int
    per_trajectory: list = field(default_factory=list)

    COLUMNS = ("HOTA", "DetA", "AssA", "Recall", "IDs/GT",
               "LCSS_t", "LCSS_d", "MOTP_i", "MOTP_e", "TD")

    def row(self) -> tuple:
        return (self.hota, self.det_a, self.ass_a, self.recall,
                self.ids_per_gt, self.lcss_t, self.lcss_d,
                self.motp_i, self.motp_e, self.td)

    def to_dict(self) -> dict:
        d = dict(zip(self.COLUMNS, self.row()))
        d["n_gt"] = self.n_gt
        d["n_tracklets"] = self.n_tracklets
        d["per_trajectory"] = [
            {"gt_id": s.gt_id, "instants": s.instants, "matched": s.matched,
             "recall": s.recall, "ids": s.ids, "lcss_t": s.lcss_t,
             "lcss_d": s.lcss_d, "motp_i": s.motp_i, "motp_e": s.motp_e}
            for s in self.per_trajectory]
        return d


def det_a_star(matched: int, gt_instants: int) -> float:
    """Detection accuracy without a false-positive term: TP / (TP + FN)."""
    return matched / gt_instants if gt_instants else 0.0


def lcss(seq: list, gt_x: np.ndarray, step: float) -> tuple[float, float]:
    """Longest run of strictly consecutive instants matched to one id.

    `seq` holds the matched id (None when unmatched) at each instant.
    Returns (duration seconds, longitudinal distance feet) of that run.
    """
    codes = {}
    code = np.array([-1 if s is None else codes.setdefault(s, len(codes))
                     for s in seq], dtype=int)
    t, d = _longest_runs(code, np.zeros(len(code), dtype=int),
                         np.asarray(gt_x, dtype=float), step, 1)
    return float(t[0]), float(d[0])


def _longest_runs(code: np.ndarray, owner: np.ndarray, x: np.ndarray,
                  step: float, n_owner: int) -> tuple[np.ndarray, np.ndarray]:
    """Per owner, the first longest run of consecutive instants with one
    id code (>= 0): its (duration seconds, |x end - x start| feet).

    `owner` is sorted; an owner with no matched instant gets (0, 0).
    """
    hit = code >= 0
    cont = np.zeros(len(code), dtype=bool)
    cont[1:] = hit[1:] & (code[1:] == code[:-1]) & (owner[1:] == owner[:-1])
    start = np.flatnonzero(hit & ~cont)
    length = np.bincount(np.cumsum(hit & ~cont)[hit] - 1, minlength=len(start))
    run_owner = owner[start]
    order = np.lexsort((start, -length, run_owner))
    first = np.ones(len(order), dtype=bool)
    first[1:] = run_owner[order][1:] != run_owner[order][:-1]
    best = order[first]
    t, d = np.zeros(n_owner), np.zeros(n_owner)
    i0, i1 = start[best], start[best] + length[best] - 1
    t[run_owner[best]] = (i1 - i0) * step
    d[run_owner[best]] = np.abs(x[i1] - x[i0])
    return t, d


@dataclass(frozen=True)
class _Samples:
    """Present samples of a series list on the evaluation grid, ordered by
    series, then frame."""

    owner: np.ndarray   # series index
    frame: np.ndarray   # grid index
    boxes: np.ndarray   # (N,5)


def _samples(series_list: list, grid: np.ndarray, x_clip=None) -> _Samples:
    """Each series resampled over its own grid window only."""
    parts = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 5)))]
    for i, s in enumerate(series_list):
        lo = int(np.searchsorted(grid, s.times[0] - 1e-9, "left"))
        hi = int(np.searchsorted(grid, s.times[-1] + 1e-9, "right"))
        b = resample(s, grid[lo:hi])
        keep = ~np.isnan(b[:, 0])
        if x_clip is not None:
            keep &= (b[:, 0] >= x_clip[0]) & (b[:, 0] <= x_clip[1])
        parts.append((np.full(int(keep.sum()), i), np.arange(lo, hi)[keep], b[keep]))
    return _Samples(*(np.concatenate(p) for p in zip(*parts)))


def _match_frames(gt: _Samples, tr: _Samples, alphas) -> tuple:
    """match_frame over every frame at once: (gt sample, track sample, iou,
    matched) per pair, ordered by frame, gt sample and track sample.  One
    sweep over both sample sets finds the pairs, of which the gt-track ones
    are kept; within a frame, samples come in series order."""
    alphas = np.asarray(alphas, dtype=float)
    n = len(gt.frame)
    rect = footprint_rect(np.concatenate([gt.boxes, tr.boxes]))
    rows, cols = candidate_pairs(np.concatenate([gt.frame, tr.frame]), rect[:, 0], rect[:, 2])
    cross = (rows < n) & (cols >= n)
    rows, cols = rows[cross], cols[cross]
    vals = _rect_iou(rect[rows], rect[cols])
    keep = np.flatnonzero(vals >= alphas.min())
    keep = keep[np.lexsort((cols[keep], rows[keep], gt.frame[rows[keep]]))]
    rows, cols, vals = rows[keep], cols[keep] - n, vals[keep]
    matched, cost = vals >= alphas[:, None], 1.0 - vals
    for m in matched:
        e = np.flatnonzero(m)
        m[e] = _assign(rows[e], cols[e], cost[e])
    return rows, cols, vals, matched


def _ass_a(g: np.ndarray, t: np.ndarray, gt_count: np.ndarray, n_tr: int):
    """Mean over matches of TPA / (TPA + FNA + FPA).

    The matches come in (frame, gt) order and are summed one by one in that
    order (cumsum, not np.sum's pairwise sum), as a loop over them would.
    """
    pair = np.unique(g * n_tr + t, return_inverse=True)[1]
    tpa = np.bincount(pair)[pair].astype(float)
    fna = gt_count[g] - tpa
    fpa = np.bincount(t, minlength=n_tr)[t].astype(float) - tpa
    return np.cumsum(tpa / (tpa + fna + fpa))[-1] / len(g)


def evaluate(gt_series: list, track_series: list) -> EvalReport:
    tracks = [s if isinstance(s, TrajectorySeries)
              else series_from_tracklet(s) for s in track_series]

    td = (float(np.mean([s.times[-1] - s.times[0] for s in tracks]))
          if tracks else 0.0)

    if not gt_series:
        return EvalReport(0, 0, 0, 0, 0, 0, 0, 0, 0, td, 0, len(tracks))

    grid = time_grid(min(s.times[0] for s in gt_series),
                     max(s.times[-1] for s in gt_series), STEP_S)

    gt = _samples(gt_series, grid, X_CLIP_FT)
    tr = _samples(tracks, grid)
    n_gt, n_tr = len(gt_series), len(tracks)

    eg, et, eiou, matched = _match_frames(gt, tr, HOTA_ALPHAS)
    working = HOTA_ALPHAS.index(MATCH_IOU)

    total_gt = len(gt.owner)
    gt_count = np.bincount(gt.owner, minlength=n_gt).astype(float)
    hotas, detas, assas = [], [], []
    for k in range(len(HOTA_ALPHAS)):
        m = matched[k]
        tp = int(m.sum())
        deta = det_a_star(tp, total_gt)
        assa = _ass_a(gt.owner[eg[m]], tr.owner[et[m]], gt_count, n_tr) if tp else 0.0
        detas.append(deta)
        assas.append(assa)
        hotas.append(float(np.sqrt(deta * assa)))

    # per-trajectory statistics at the working threshold, over gt samples
    sel = np.flatnonzero(matched[working])
    sel = sel[np.argsort(eg[sel], kind="stable")]    # (gt, frame) order
    gs, ts = eg[sel], et[sel]
    id_codes = {}
    track_code = np.array([id_codes.setdefault(s.id, len(id_codes)) for s in tracks],
                          dtype=int)
    code = np.full(total_gt, -1)
    code[gs] = track_code[tr.owner[ts]]
    lcss_t, lcss_d = _longest_runs(code, gt.owner, gt.boxes[:, 0], STEP_S, n_gt)
    diff = gt.boxes[gs, :2] - tr.boxes[ts, :2]
    # batched x.dot(x), the same kernel np.linalg.norm applies to one vector
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    ious = eiou[sel]
    owner = gt.owner[gs]
    ids = np.bincount(np.unique(np.column_stack([owner, code[gs]]), axis=0)[:, 0],
                      minlength=n_gt)
    cuts = np.searchsorted(owner, np.arange(n_gt + 1))

    scores = []
    for g, series in enumerate(gt_series):
        a, b = cuts[g], cuts[g + 1]
        scores.append(TrajectoryScore(
            series.id, int(gt_count[g]), int(b - a), int(ids[g]),
            float(lcss_t[g]), float(lcss_d[g]),
            float(np.mean(ious[a:b])) if b > a else None,
            float(np.mean(dist[a:b])) if b > a else None))

    with_match = [s for s in scores if s.matched > 0]
    return EvalReport(
        hota=float(np.mean(hotas)),
        det_a=float(np.mean(detas)),
        ass_a=float(np.mean(assas)),
        recall=det_a_star(sum(s.matched for s in scores), total_gt),
        ids_per_gt=float(np.mean([s.ids for s in scores])),
        lcss_t=float(np.mean([s.lcss_t for s in with_match])) if with_match else 0.0,
        lcss_d=float(np.mean([s.lcss_d for s in with_match])) if with_match else 0.0,
        motp_i=float(np.mean([s.motp_i for s in with_match])) if with_match else 0.0,
        motp_e=float(np.mean([s.motp_e for s in with_match])) if with_match else 0.0,
        td=td,
        n_gt=n_gt,
        n_tracklets=n_tr,
        per_trajectory=scores,
    )
