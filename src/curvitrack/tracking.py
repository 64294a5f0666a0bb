"""Tracking-by-detection baselines on fused roadway-coordinate detections.

All trackers consume a time-sorted detection stream (objects with .t, .box
= (x, y, l, w, h), .conf) and emit Tracklets.  Boxes are axis-aligned in
roadway coordinates; the box reference point is the back-bottom-center, so
the footprint extends along +x for eastbound (y > 0) and -x for westbound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

T_MAX_S = 2.0   # max gap before termination
T_MIN_S = 2.0   # min matched duration to emit

_BIG = 1e9


def footprint_rect(boxes: np.ndarray) -> np.ndarray:
    """(N,5) roadway boxes -> (N,4) rectangles (x0, y0, x1, y1)."""
    boxes = np.atleast_2d(np.asarray(boxes, dtype=float))
    x, y, l, w = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    front = x + np.where(y < 0, -1.0, 1.0) * l
    half_w = w / 2.0
    return np.stack([np.minimum(x, front), y - half_w,
                     np.maximum(x, front), y + half_w], axis=1)


def _rect_iou(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """IOU of broadcastable (..., 4) rectangle arrays (x0, y0, x1, y1)."""
    ix = np.clip(np.minimum(ra[..., 2], rb[..., 2])
                 - np.maximum(ra[..., 0], rb[..., 0]), 0.0, None)
    iy = np.clip(np.minimum(ra[..., 3], rb[..., 3])
                 - np.maximum(ra[..., 1], rb[..., 1]), 0.0, None)
    inter = ix * iy
    union = ((ra[..., 2] - ra[..., 0]) * (ra[..., 3] - ra[..., 1])
             + (rb[..., 2] - rb[..., 0]) * (rb[..., 3] - rb[..., 1]) - inter)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0, inter / union, 0.0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise footprint IOU between two (N,5)/(M,5) box arrays."""
    return _rect_iou(footprint_rect(boxes_a)[:, None, :],
                     footprint_rect(boxes_b)[None, :, :])


def iou_footprint(box_a, box_b) -> float:
    return float(iou_matrix(np.array([box_a]), np.array([box_b]))[0, 0])


def hungarian_match(cost: np.ndarray, max_cost: float) -> list[tuple[int, int]]:
    """Minimum-cost bipartite assignment; pairs costing > max_cost dropped.

    Infeasible entries may be +inf; they are never returned.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    if cost.size == 0:
        return []
    capped = np.where(np.isfinite(cost) & (cost <= max_cost), cost, _BIG)
    rows, cols = linear_sum_assignment(capped)
    keep = capped[rows, cols] < _BIG
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


@dataclass(frozen=True)
class TrackerParams:
    """Algorithm settings; defaults follow the benchmarked configurations."""

    similarity: str = "iou"     # association cost: "iou" or "l2" (center distance)
    kalman: bool = True         # predict with a CV Kalman filter; else keep last box
    two_stage: bool = False     # ByteTrack: low-confidence detections rescue tracks
    sigma_high: float = 0.5     # min confidence to enter the detection set
    phi_nms: float = 0.1        # NMS IOU threshold (cross-camera fusion)
    phi_min: float = 0.1        # min IOU for a match (IOU-based trackers)
    d_max: float = 10.0         # max center distance for a match (ft)
    tau_high: float = 0.4       # first-stage confidence (ByteTrack)
    f_track: float = 10.0       # tracking step rate (Hz)
    t_max: float = T_MAX_S
    t_min: float = T_MIN_S
    process_std: tuple = (1.0, 0.3, 0.1, 0.1, 0.1, 3.0, 0.5)  # x y l w h vx vy
    measure_std: float = 1.0
    confirm_hits: int = 2


# The benchmarked baselines: SORT associates Kalman predictions by center
# distance, the IOU tracker (IOUT) by overlap with the last box, KIOU by
# overlap with the Kalman prediction, and ByteTrack adds a second stage in
# which low-confidence detections rescue still-unmatched tracks.
ALGORITHMS: dict[str, TrackerParams] = {
    "sort": TrackerParams(similarity="l2"),
    "iout": TrackerParams(kalman=False, f_track=15.0),
    "kiou": TrackerParams(),
    "byte-l2": TrackerParams(similarity="l2", two_stage=True, sigma_high=0.01),
    "byte-iou": TrackerParams(two_stage=True, sigma_high=0.01),
}


@dataclass
class Tracklet:
    id: int
    times: list = field(default_factory=list)
    boxes: list = field(default_factory=list)   # (x, y, l, w, h)
    dims_reported: list = field(default_factory=list)

    @property
    def median_dims(self) -> tuple:
        d = np.asarray(self.dims_reported, dtype=float)
        if d.size == 0:
            return (0.0, 0.0, 0.0)
        return tuple(np.median(d, axis=0))

    @property
    def duration(self) -> float:
        return self.times[-1] - self.times[0] if len(self.times) > 1 else 0.0


class _KalmanCV:
    """Constant-velocity Kalman filter on (x, y, l, w, h, vx, vy)."""

    def __init__(self, box, dt: float, params: TrackerParams):
        self.dt = dt
        self.x = np.array(list(box) + [0.0, 0.0], dtype=float)
        r = params.measure_std ** 2
        self.P = np.diag([r, r, r, r, r, 400.0, 25.0])
        self.F = np.eye(7)
        self.F[0, 5] = dt
        self.F[1, 6] = dt
        self.Q = np.diag(np.asarray(params.process_std, dtype=float) ** 2)
        self.R = r * np.eye(5)
        self.H = np.zeros((5, 7))
        self.H[:5, :5] = np.eye(5)

    def predict(self):
        self.x = self.F @ self.x
        self.P = self.F @ self.P @ self.F.T + self.Q

    def update(self, z):
        z = np.asarray(z, dtype=float)
        y = z - self.H @ self.x
        s = self.H @ self.P @ self.H.T + self.R
        k = self.P @ self.H.T @ np.linalg.inv(s)
        self.x = self.x + k @ y
        self.P = (np.eye(7) - k @ self.H) @ self.P

    @property
    def box(self) -> tuple:
        return tuple(self.x[:5])


class _Track:
    __slots__ = ("tid", "kf", "box", "times", "boxes", "dims", "hits",
                 "confirmed", "last_match_t", "last_match_idx", "first_match_t")

    def __init__(self, tid, t, box, kf):
        self.tid = tid
        self.kf = kf
        self.box = tuple(box)
        self.times = [t]
        self.boxes = [tuple(box)]
        self.dims = [tuple(box[2:5])]
        self.hits = 1
        self.confirmed = False
        self.last_match_t = t
        self.last_match_idx = 0
        self.first_match_t = t


def _nms(dets: list, phi_nms: float) -> list:
    """Greedy cross-camera NMS per timestamp, keeping higher confidence."""
    if len(dets) <= 1:
        return dets
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].conf, i))
    boxes = np.array([dets[i].box for i in order])
    iou = iou_matrix(boxes, boxes)
    keep = []
    for pos, i in enumerate(order):
        if all(iou[pos, kept_pos] < phi_nms for kept_pos in keep):
            keep.append(pos)
    kept_idx = sorted(order[p] for p in keep)
    return [dets[i] for i in kept_idx]


def _frames(detections, params: TrackerParams):
    """Bucket detections onto the tracking grid and apply NMS + conf gate."""
    dt = 1.0 / params.f_track
    buckets = {}
    for d in detections:
        if d.conf < params.sigma_high:
            continue
        k = int(round(d.t / dt))
        buckets.setdefault(k, []).append(d)
    out = {}
    for k, group in buckets.items():
        out[k] = _nms(group, params.phi_nms)
    return out, dt


def _assoc_cost(tracks, dets, params: TrackerParams):
    """Cost matrix plus feasibility threshold for one association stage."""
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets))), 0.0
    tboxes = np.array([t.box for t in tracks])
    dboxes = np.array([d.box for d in dets])
    if params.similarity == "l2":
        dist = np.linalg.norm(
            tboxes[:, None, :2] - dboxes[None, :, :2], axis=2)
        cost = np.where(dist <= params.d_max, dist, np.inf)
        return cost, params.d_max
    iou = iou_matrix(tboxes, dboxes)
    cost = np.where(iou >= params.phi_min, 1.0 - iou, np.inf)
    return cost, 1.0 - params.phi_min


def _run_stream(detections, params: TrackerParams, id_start: int):
    """Shared tracking loop. Returns (tracklets, next_id)."""
    frames, dt = _frames(detections, params)
    if not frames:
        return [], id_start
    next_id = id_start
    active: list[_Track] = []
    done: list[Tracklet] = []

    def finalize(tr: _Track):
        dur = tr.last_match_t - tr.first_match_t
        if not tr.confirmed or dur < params.t_min:
            return
        n = tr.last_match_idx + 1  # drop trailing coasted states
        done.append(Tracklet(tr.tid, tr.times[:n], tr.boxes[:n], tr.dims))

    for k in range(min(frames), max(frames) + 1):
        t = k * dt
        dets = frames.get(k, [])
        # predict
        for tr in active:
            if params.kalman:
                tr.kf.predict()
                tr.box = tr.kf.box
            # IOUT keeps its last box as the prediction

        if params.two_stage:
            high = [d for d in dets if d.conf >= params.tau_high]
            low = [d for d in dets if d.conf < params.tau_high]
            stages = [(high, True), (low, False)]
        else:
            stages = [(dets, True)]

        matched_tracks = set()
        matched_dets_new = []
        pool = active
        for stage_dets, spawn in stages:
            cost, max_cost = _assoc_cost(pool, stage_dets, params)
            pairs = hungarian_match(cost, max_cost) if len(pool) and stage_dets else []
            hit_det = set()
            for ti, di in pairs:
                tr = pool[ti]
                d = stage_dets[di]
                if params.kalman:
                    tr.kf.update(d.box)
                    tr.box = tr.kf.box
                else:
                    tr.box = tuple(d.box)
                tr.times.append(t)
                tr.boxes.append(tr.box)
                tr.dims.append(tuple(d.box[2:5]))
                tr.hits += 1
                if tr.hits >= params.confirm_hits:
                    tr.confirmed = True
                tr.last_match_t = t
                tr.last_match_idx = len(tr.times) - 1
                matched_tracks.add(id(tr))
                hit_det.add(di)
            if spawn:
                matched_dets_new = [d for i, d in enumerate(stage_dets)
                                    if i not in hit_det]
            pool = [tr for tr in pool if id(tr) not in matched_tracks]

        survivors = []
        for tr in active:
            if id(tr) in matched_tracks:
                survivors.append(tr)
                continue
            # coast
            tr.times.append(t)
            tr.boxes.append(tr.box)
            if t - tr.last_match_t > params.t_max:
                finalize(tr)
            elif not tr.confirmed:
                pass  # tentative track missed before confirmation: drop
            else:
                survivors.append(tr)
        active = survivors

        for d in matched_dets_new:
            kf = _KalmanCV(d.box, dt, params) if params.kalman else None
            tr = _Track(next_id, t, d.box, kf)
            next_id += 1
            active.append(tr)

    for tr in active:
        finalize(tr)
    return done, next_id


def run_tracker(algo: str, detections) -> list[Tracklet]:
    """Run the ALGORITHMS entry `algo`; eastbound (y >= 0) and westbound
    detections are tracked as separate streams."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown tracker {algo!r}")
    params = ALGORITHMS[algo]
    out = []
    next_id = 0
    eastbound = [d for d in detections if d.box[1] >= 0]
    westbound = [d for d in detections if d.box[1] < 0]
    for stream in (eastbound, westbound):
        stream = sorted(stream, key=lambda d: d.t)
        tracklets, next_id = _run_stream(stream, params, next_id)
        out.extend(tracklets)
    return out


# ---------------------------------------------------------------------------
# oracle

def _smooth_irregular(t: np.ndarray, v: np.ndarray, half_window: float) -> np.ndarray:
    """Windowed local quadratic regression over irregularly sampled values.

    Unlike a plain moving average, the polynomial fit stays unbiased at
    segment edges where the window becomes one-sided and the signal has a
    trend; the quadratic term absorbs smooth accelerations.  Falls back to
    linear / mean where the window is too small.
    """
    t = t - t[0]  # improve conditioning of the power sums
    lo = np.searchsorted(t, t - half_window, side="left")
    hi = np.searchsorted(t, t + half_window, side="right")

    def win_sum(x):
        cs = np.concatenate([[0.0], np.cumsum(x)])
        return cs[hi] - cs[lo]

    s = [win_sum(t ** k) for k in range(5)]
    sv = [win_sum(v * t ** k) for k in range(3)]
    # moments of u = t - t_i from binomial shifts of the raw power sums
    c = -t
    m = [s[0],
         s[1] + c * s[0],
         s[2] + 2 * c * s[1] + c ** 2 * s[0],
         s[3] + 3 * c * s[2] + 3 * c ** 2 * s[1] + c ** 3 * s[0],
         s[4] + 4 * c * s[3] + 6 * c ** 2 * s[2] + 4 * c ** 3 * s[1] + c ** 4 * s[0]]
    b = [sv[0],
         sv[1] + c * sv[0],
         sv[2] + 2 * c * sv[1] + c ** 2 * sv[0]]

    out = b[0] / m[0]  # windowed mean fallback
    lin_det = m[0] * m[2] - m[1] ** 2
    ok_lin = lin_det > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = (b[0] * m[2] - m[1] * b[1]) / lin_det
    out = np.where(ok_lin, lin, out)

    quad_ok = m[0] >= 5
    if quad_ok.any():
        idx = np.flatnonzero(quad_ok)
        a_mat = np.empty((len(idx), 3, 3))
        for r in range(3):
            for col in range(3):
                a_mat[:, r, col] = m[r + col][idx]
        rhs = np.stack([b[0][idx], b[1][idx], b[2][idx]], axis=1)
        try:
            coef = np.linalg.solve(a_mat, rhs[..., None])[:, 0, 0]
            good = np.isfinite(coef)
            out[idx[good]] = coef[good]
        except np.linalg.LinAlgError:
            pass
    return out


def run_oracle(detections, gt_traces, phi_min: float = 0.1,
               f_track: float = 10.0, t_max: float = T_MAX_S,
               t_min: float = T_MIN_S, smooth_s: float = 2.5):
    """Upper-bound tracker: claim detections overlapping each ground-truth
    trace, average concurrent claims, smooth, and interpolate between them."""
    dets = sorted(detections, key=lambda d: d.t)
    if dets:
        dt_arr = np.array([d.t for d in dets])
        dboxes = np.array([d.box for d in dets])
    tracklets = []
    next_id = 0
    dt = 1.0 / f_track
    for trace in gt_traces:
        times = np.asarray(trace.times, dtype=float)
        if not dets or len(times) < 2:
            continue
        lo = np.searchsorted(dt_arr, times[0] - 1e-9)
        hi = np.searchsorted(dt_arr, times[-1] + 1e-9)
        if hi <= lo:
            continue
        cand_t = dt_arr[lo:hi]
        cand_b = dboxes[lo:hi]
        gx = np.interp(cand_t, times, trace.x)
        gy = np.interp(cand_t, times, trace.y)
        l, w, h = trace.dims
        gt_boxes = np.stack([gx, gy, np.full_like(gx, l),
                             np.full_like(gx, w), np.full_like(gx, h)], axis=1)
        # elementwise IOU of each candidate against the trace at its time
        iou = _rect_iou(footprint_rect(gt_boxes), footprint_rect(cand_b))
        mask = iou >= phi_min
        if not mask.any():
            continue
        ct, cb = cand_t[mask], cand_b[mask]
        # average concurrent claims (overlapping cameras)
        order = np.argsort(ct, kind="stable")
        ct, cb = ct[order], cb[order]
        new = np.concatenate([[True], np.diff(ct) > 1e-9])
        group = np.cumsum(new) - 1
        n_groups = group[-1] + 1
        counts = np.bincount(group, minlength=n_groups).astype(float)
        cb = np.stack([np.bincount(group, weights=cb[:, j],
                                   minlength=n_groups) / counts
                       for j in range(5)], axis=1)
        ct = ct[new]
        if smooth_s > 0:
            for j in range(2):
                cb[:, j] = _smooth_irregular(ct, cb[:, j], smooth_s)
        # split into contiguous segments
        breaks = np.flatnonzero(np.diff(ct) > t_max)
        starts = np.concatenate([[0], breaks + 1])
        ends = np.concatenate([breaks, [len(ct) - 1]])
        for s, e in zip(starts, ends):
            seg_t, seg_b = ct[s:e + 1], cb[s:e + 1]
            if seg_t[-1] - seg_t[0] < t_min:
                continue
            k0 = int(math.ceil(seg_t[0] / dt - 1e-9))
            k1 = int(math.floor(seg_t[-1] / dt + 1e-9))
            grid = np.arange(k0, k1 + 1) * dt
            cols = [np.interp(grid, seg_t, seg_b[:, j]) for j in range(5)]
            tl = Tracklet(next_id,
                          list(map(float, grid)),
                          [tuple(float(c[j_i]) for c in cols) for j_i in range(len(grid))],
                          [tuple(b[2:5]) for b in seg_b])
            next_id += 1
            tracklets.append(tl)
    return tracklets
