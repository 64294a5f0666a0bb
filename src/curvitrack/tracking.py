"""Tracking-by-detection baselines on fused roadway-coordinate detections.

Detections travel as one columnar record, `Detections`, from `simulate`
and `io_formats.read_detections` to the trackers.  The trackers take a
`Detections`, or any sequence of records with .t, .box = (x, y, l, w, h)
and .conf, in any order, and emit Tracklets.  Boxes are axis-aligned in
roadway coordinates; the box reference point is the back-bottom-center,
so the footprint extends along +x for eastbound (y > 0) and -x for
westbound.  The columns are sorted by time once per run (`_arrays`), and
one pass gates, suppresses (NMS) and schedules both travel directions
(`_frames`).  The two directions are tracked in one loop over frames, as
two blocks of tracks and detections that never associate or suppress each
other: each association stage costs both in one NaN-padded block, eastbound
tracklets come first, and ids follow each direction's spawn order,
westbound after every eastbound spawn.  The Kalman filter runs axis by
axis, on 9 covariance numbers per track.
A Tracklet holds arrays too, from the tracker through `tracks.jsonl` to
`moteval.evaluate`: its times, its (x, y, l, w, h) states and the median
l, w, h of the detections it matched, taken once where it is cut.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

T_MAX_S = 2.0   # max gap before termination
T_MIN_S = 2.0   # min matched duration to emit
ORACLE_PHI_MIN = 0.1    # min IOU for the oracle to claim a detection
ORACLE_F_TRACK = 10.0   # oracle output rate (Hz)
ORACLE_SMOOTH_S = 2.5   # half-window of the oracle's x/y smoothing
PHI_NMS = 0.1       # NMS IOU threshold (cross-camera fusion)
PHI_MIN = 0.1       # min IOU for a match (IOU-based trackers)
D_MAX = 10.0        # max center distance for a match (ft; L2 trackers)
TAU_HIGH = 0.4      # first-stage confidence (ByteTrack)
# matched hits that confirm a track; at least 2, since a track is confirmed
# on a match, never at spawn
CONFIRM_HITS = 2
PROCESS_STD = (1.0, 0.3, 0.1, 0.1, 0.1, 3.0, 0.5)   # x y l w h vx vy
MEASURE_STD = 1.0

_BIG = 1e9


def time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """The multiples of dt in [t0, t1], with 1e-9 of slack at each end."""
    k0 = int(math.ceil(t0 / dt - 1e-9))
    k1 = int(math.floor(t1 / dt + 1e-9))
    return np.arange(k0, k1 + 1) * dt


def footprint_rect(boxes: np.ndarray) -> np.ndarray:
    """(N,5) roadway boxes -> (N,4) rectangles (x0, y0, x1, y1)."""
    boxes = np.atleast_2d(np.asarray(boxes, dtype=float))
    x, y, l, w = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    front = x + np.where(y < 0, -1.0, 1.0) * l
    half_w = w / 2.0
    out = np.empty((len(boxes), 4))
    np.minimum(x, front, out=out[:, 0])
    np.subtract(y, half_w, out=out[:, 1])
    np.maximum(x, front, out=out[:, 2])
    np.add(y, half_w, out=out[:, 3])
    return out


def candidate_pairs(key, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Each pair (i, j), i < j, with key[i] == key[j] and closed intervals
    [lo[i], hi[i]] and [lo[j], hi[j]] that meet, once and in no set order.

    Sort and sweep (Cohen et al., I-COLLIDE, 1995) on exact (key, start) ranks:
    of two intervals that meet, the one whose start sorts first holds the
    other's start, so each is paired with the later starts up to its end.
    """
    _, key = np.unique(key, return_inverse=True)
    xs, x = np.unique(lo, return_inverse=True)
    start = key * len(xs) + x
    del x
    end = key * len(xs) + np.searchsorted(xs, hi, "right") - 1
    del key, xs
    order = np.argsort(start, kind="stable")
    after = np.arange(1, len(start) + 1)
    count = np.searchsorted(start[order], end[order], "right") - after
    del start, end      # the pair arrays below need only the order and the counts
    u = np.repeat(order, count)
    v = order[np.arange(len(u)) + np.repeat(after - np.cumsum(count) + count, count)]
    del order, after, count
    return np.minimum(u, v), np.maximum(u, v, out=v)


def _rect_iou(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """IOU of broadcastable (..., 4) rectangle arrays (x0, y0, x1, y1)."""
    overlap = np.maximum(np.minimum(ra[..., 2:], rb[..., 2:])
                         - np.maximum(ra[..., :2], rb[..., :2]), 0.0)
    inter = overlap[..., 0] * overlap[..., 1]
    side_a, side_b = ra[..., 2:] - ra[..., :2], rb[..., 2:] - rb[..., :2]
    union = side_a[..., 0] * side_a[..., 1] + side_b[..., 0] * side_b[..., 1] - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise footprint IOU between two (N,5)/(M,5) box arrays."""
    return _rect_iou(footprint_rect(boxes_a)[:, None, :],
                     footprint_rect(boxes_b)[None, :, :])


def iou_footprint(box_a, box_b) -> float:
    return float(iou_matrix(np.array([box_a]), np.array([box_b]))[0, 0])


def hungarian_match(cost: np.ndarray, max_cost: float) -> list[tuple[int, int]]:
    """Minimum-cost bipartite assignment over the feasible pairs, by row.

    A pair is feasible when its cost is finite and at most max_cost.  The
    matching has the most feasible pairs, then the least total cost: the
    dense form of `_assign`, over the feasible cells.
    """
    cost = np.atleast_2d(np.asarray(cost, dtype=float))
    rows, cols = np.nonzero(np.isfinite(cost) & (cost <= max_cost))
    taken = _assign(rows, cols, cost[rows, cols])
    return list(zip(rows[taken].tolist(), cols[taken].tolist()))


def _assign(rows: np.ndarray, cols: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignment over the pairs (rows[k], cols[k]) at cost[k]:
    a mask of the pairs taken, the most pairs, then the least total cost.
    A pair sharing neither its row nor its column is taken as it is; each
    connected component of the others goes to _lsap on its submatrix of
    sorted rows and columns, with _BIG in the cells that hold no pair.
    """
    taken = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    shared = np.flatnonzero(~taken)
    r, c, v = rows[shared].tolist(), cols[shared].tolist(), cost[shared].tolist()
    for comp in _components(r, c):
        r_at = {i: k for k, i in enumerate(sorted({r[e] for e in comp}))}
        c_at = {j: k for k, j in enumerate(sorted({c[e] for e in comp}))}
        sub, pair = [[_BIG] * len(c_at) for _ in r_at], {}
        for e in comp:
            sub[r_at[r[e]]][c_at[c[e]]] = v[e]
            pair[r_at[r[e]], c_at[c[e]]] = shared[e]
        taken[[pair[ij] for ij in _lsap(sub) if ij in pair]] = True
    return taken


def _components(rows: list, cols: list) -> list[list[int]]:
    """Edge indices of each connected component of the bipartite graph
    with edges (rows[k], cols[k])."""
    parent = {}     # union-find over rows and columns; a root has no entry
    for r, c in zip(rows, cols):
        c = ~c      # columns are the negative nodes
        while r in parent:
            r = parent[r]
        while c in parent:
            c = parent[c]
        if r != c:
            parent[r] = c
    groups = {}
    for k, r in enumerate(rows):
        while r in parent:
            r = parent[r]
        groups.setdefault(r, []).append(k)
    return list(groups.values())


def _lsap(cost: list[list[float]]) -> list[tuple[int, int]]:
    """Minimum-cost assignment of a full cost matrix, as (row, col) by row.

    Crouse's shortest augmenting path (IEEE TAES 2016), ported from scipy's
    rectangular_lsap with the same float operations and tie rules, so it
    returns what linear_sum_assignment returns.
    """
    nr, nc = len(cost), len(cost[0])
    transpose = nc < nr
    if transpose:
        cost, nr, nc = list(zip(*cost)), nc, nr
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        i, sink, min_val, seen = cur, -1, 0.0, []
        remaining, short = list(range(nc - 1, -1, -1)), [math.inf] * nc
        while sink == -1:
            index, lowest, row, ui = -1, math.inf, cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < short[j]:
                    path[j], short[j] = i, r
                # on a tie, a free column wins: it ends the path
                if short[j] < lowest or (short[j] == lowest and row4col[j] == -1):
                    lowest, index = short[j], it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for j in seen:      # each seen column but the sink led to its row
            if j != sink:
                u[row4col[j]] += min_val - short[j]
            v[j] -= min_val - short[j]
        j, i = sink, -1
        while i != cur:
            i = path[j]
            row4col[j], col4row[i], j = i, j, col4row[i]
    if transpose:
        return sorted((c, r) for r, c in enumerate(col4row))
    return list(enumerate(col4row))


@dataclass(frozen=True)
class TrackerParams:
    """Algorithm settings; defaults follow the benchmarked configurations."""

    similarity: str = "iou"     # association cost: "iou" or "l2" (center distance)
    kalman: bool = True         # predict with a CV Kalman filter; else keep last box
    two_stage: bool = False     # ByteTrack: low-confidence detections rescue tracks
    sigma_high: float = 0.5     # min confidence to enter the detection set
    f_track: float = 10.0       # tracking step rate (Hz)


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
TRACKER_NAMES = sorted(ALGORITHMS) + ["oracle"]   # the `track --algo` choices


@dataclass(frozen=True)
class Detection:
    """One detector output: one row of `Detections`."""

    t: float
    camera: str
    box: tuple  # (x, y, l, w, h) roadway feet
    cls: str
    conf: float


def _codes(strings) -> tuple[tuple, np.ndarray]:
    """(table of the distinct strings in first-seen order, each string's
    index in it)."""
    table = {}
    codes = np.array([table.setdefault(s, len(table)) for s in strings], dtype=np.int32)
    return tuple(table), codes


@dataclass(frozen=True, eq=False)
class Detections:
    """Detector outputs as columns: the record `simulate` emits, `track`
    reads and the trackers consume.  Row i is `Detection(t[i],
    cameras[camera[i]], box[i], classes[cls[i]], conf[i])`; the record
    takes len(), integer indexing (a `Detection`), slicing (a
    `Detections`), iteration (`Detection`s) and == (row by row, strings
    included)."""

    t: np.ndarray       # (N,) seconds
    box: np.ndarray     # (N,5) (x, y, l, w, h) roadway feet
    conf: np.ndarray    # (N,)
    camera: np.ndarray  # (N,) int codes into `cameras`
    cls: np.ndarray     # (N,) int codes into `classes`
    cameras: tuple      # camera ids
    classes: tuple      # vehicle classes

    @classmethod
    def of(cls, records) -> Detections:
        """`records` unchanged if a Detections, else the columns of a
        sequence of Detection-like records."""
        if isinstance(records, Detections):
            return records
        cameras, camera = _codes([d.camera for d in records])
        classes, codes = _codes([d.cls for d in records])
        return cls(*_record_columns(records), camera, codes, cameras, classes)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, t=self.t[i], box=self.box[i], conf=self.conf[i],
                           camera=self.camera[i], cls=self.cls[i])
        return Detection(float(self.t[i]), self.cameras[self.camera[i]],
                         tuple(self.box[i].tolist()), self.classes[self.cls[i]],
                         float(self.conf[i]))

    def __iter__(self):
        cameras, classes = self.cameras, self.classes
        for t, c, box, k, conf in zip(self.t.tolist(), self.camera.tolist(),
                                      self.box.tolist(), self.cls.tolist(),
                                      self.conf.tolist()):
            yield Detection(t, cameras[c], tuple(box), classes[k], conf)

    def _strings(self):
        """Each row's (camera, class)."""
        cameras, classes = self.cameras, self.classes
        return [(cameras[c], classes[k])
                for c, k in zip(self.camera.tolist(), self.cls.tolist())]

    def __eq__(self, other):
        if not isinstance(other, Detections):
            return NotImplemented
        return (len(self) == len(other) and np.array_equal(self.t, other.t)
                and np.array_equal(self.box, other.box)
                and np.array_equal(self.conf, other.conf)
                and self._strings() == other._strings())


@dataclass
class Tracklet:
    """One track's states on its tracking grid; `dims` is the median (l, w, h)
    of the detections it matched, the size `evaluate` scores it at."""

    id: int
    times: np.ndarray   # (N,)
    boxes: np.ndarray   # (N,5) states (x, y, l, w, h)
    dims: np.ndarray    # (3,)


def _record_columns(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, box (N,5), conf) of a sequence of records with .t, .box and
    .conf, in their order."""
    return (np.array([d.t for d in records], dtype=float),
            np.array([d.box for d in records], dtype=float).reshape(-1, 5),
            np.array([d.conf for d in records], dtype=float))


def _arrays(detections) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, boxes (N,5), conf) of a `Detections`, or of records with .t,
    .box and .conf, stably sorted by t."""
    t, boxes, conf = (detections.t, detections.box, detections.conf) \
        if isinstance(detections, Detections) else _record_columns(detections)
    order = np.argsort(t, kind="stable")
    return t[order], boxes[order], conf[order]


def _frames(detections, params: TrackerParams):
    """Confidence gate, greedy cross-camera NMS and frame schedule of one
    detection stream, both travel directions in one pass.

    A detection's frame is round(t / dt) on the tracking grid; it is
    eastbound when y >= 0.  Within a (frame, direction) group, detections
    are ranked by (-conf, time order), and one is kept unless a kept,
    higher-ranked one overlaps it with IOU >= PHI_NMS > 0, which only the
    pairs candidate_pairs finds in its group can reach.

    Returns the kept boxes and rects, the number of eastbound ones, each
    direction's last frame (None if it keeps none), the first frame f0 and
    `cut`: frame f0 + i holds stage 1 eastbound, stage 1 westbound, stage 2
    eastbound and stage 2 westbound detections, each in time order (stable),
    between cut[4 * i:4 * i + 5].  A one-stage tracker has no stage 2.
    """
    t, boxes, conf = _arrays(detections)
    gate = ~(conf < params.sigma_high)
    frame = np.rint(t[gate] / (1.0 / params.f_track)).astype(np.int64)
    boxes, conf = boxes[gate], conf[gate]
    west, rects = ~(boxes[:, 1] >= 0), footprint_rect(boxes)
    order = np.lexsort((-conf, west, frame))
    ranked = rects[order]
    a, b = candidate_pairs((2 * frame + west)[order], ranked[:, 0], ranked[:, 2])
    hit = np.flatnonzero(_rect_iou(ranked[a], ranked[b]) >= PHI_NMS)
    hit = hit[np.lexsort((b[hit], a[hit]))]
    keep = [True] * len(order)
    # in (a, b) order, a's fate is settled before its own pairs come up: its
    # rivals rank higher
    for i, j in zip(a[hit].tolist(), b[hit].tolist()):
        if keep[i]:
            keep[j] = False
    kept = np.sort(order[np.array(keep, dtype=bool)])
    frame, west = frame[kept], west[kept]
    last = [int(f[-1]) if len(f) else None for f in (frame[~west], frame[west])]
    key = 4 * frame + 2 * ((conf[kept] < TAU_HIGH) & params.two_stage) + west
    order = np.argsort(key, kind="stable")
    key, order = key[order], kept[order]
    f0, f1 = (int(key[0]) // 4, int(key[-1]) // 4) if len(key) else (0, -1)
    cut = np.searchsorted(key, np.arange(4 * f0, 4 * f1 + 5))
    return boxes[order], rects[order], len(kept) - int(west.sum()), last, f0, cut.tolist()


def _associate(tkeys, t_east: int, dkeys, d_east: int, params: TrackerParams):
    """(track rows, detection cols) matched in one association stage, from
    the tracks' and the detections' keys, each stacked [eastbound |
    westbound] with `t_east` and `d_east` eastbound rows: centres (x, y) for
    "l2", footprint rectangles for "iou".

    Each side's keys are padded with NaN, which is never feasible, into one
    (2, R, k) array, so one (2, R, C) block costs both directions and no
    cell pairs a track with the other direction's detection.  A one-to-one
    feasible set is taken before `_assign`, which would take it whole: on
    the many small one-to-one stages this set test is about six times
    faster than `_assign`'s bincount test.
    """
    t, d = (np.full((2, max(e, len(keys) - e), keys.shape[1]), np.nan)
            for keys, e in ((tkeys, t_east), (dkeys, d_east)))
    t[0, :t_east], t[1, :len(tkeys) - t_east] = tkeys[:t_east], tkeys[t_east:]
    d[0, :d_east], d[1, :len(dkeys) - d_east] = dkeys[:d_east], dkeys[d_east:]
    if params.similarity == "l2":
        dx = t[:, :, None, 0] - d[:, None, :, 0]
        dy = t[:, :, None, 1] - d[:, None, :, 1]
        cost = np.sqrt(dx * dx + dy * dy)   # np.linalg.norm's bits, no strided reduce
        feasible = cost <= D_MAX
    else:
        iou = _rect_iou(t[:, :, None, :], d[:, None, :, :])
        cost, feasible = 1.0 - iou, iou >= PHI_MIN
    side, r, c = np.nonzero(feasible)
    rows, cols = r + side * t_east, c + side * d_east
    if len(set(rows.tolist())) == len(rows) == len(set(cols.tolist())):
        return rows, cols
    taken = _assign(rows, cols, cost[side, r, c])
    return rows[taken], cols[taken]


def _run_stream(detections, params: TrackerParams) -> list[Tracklet]:
    """Track both travel directions of one detection stream in one loop
    over the frame schedule `_frames` builds.

    Active tracks are stacked as [eastbound | westbound], with `ne`
    eastbound rows: `state` holds (id, matched detection or -1, hits, first
    frame, last matched frame) per track and X (N,7) the constant-velocity
    Kalman filter's (x, y, l, w, h, vx, vy); without Kalman, X[:, :5] is
    the last matched box.  The noises and the initial covariance are
    diagonal, and the motion couples only x with vx and y with vy, so a
    track's covariance keeps 9 numbers, P (N,9): the variances of x, y, l,
    w, h, vx and vy, then cov(x, vx) and cov(y, vy).  Predict and update
    are elementwise column operations: S is diagonal and the gain a
    division, so a track's states depend on no other live track and on no
    BLAS build.  Each stage's detections are stacked the same way, and
    each stage costs both directions in one padded block (`_associate`).
    Stage 2 takes only the tracks stage 1 left unmatched, so one Kalman
    update per frame, after both stages, is exact.

    Eastbound ids count eastbound spawns from 0.  Westbound ids count from
    the number of eastbound detections, a bound on the eastbound spawns,
    and are renumbered at the end to follow the last eastbound id.
    Eastbound tracklets come first, each direction's in the order its
    tracks ended.
    """
    boxes, rects, n_east, last, f0, cut = _frames(detections, params)
    if not len(boxes):
        return []
    dt = 1.0 / params.f_track
    dkeys = boxes[:, :2] if params.similarity == "l2" else rects
    q = np.square(PROCESS_STD + (0.0, 0.0))     # Q, in P's columns
    p0 = np.array([MEASURE_STD ** 2] * 5 + [400.0, 25.0, 0.0, 0.0])
    # each state's measured axis, and P's column of their covariance
    axis, cross_col = np.r_[0:5, 0:2], np.r_[0:5, 7:9]
    state = np.zeros((0, 5), dtype=np.int64)
    X, P = np.zeros((0, 7)), np.zeros((0, 9))
    ne, next_east, next_west = 0, 0, n_east
    # history, one row per track and frame: (id, matched detection) and X[:, :5]
    pairs, states = array("q"), array("d")
    ended = []      # state rows of terminated tracks, in termination order

    for i in range(len(cut) // 4):
        k = f0 + i
        lo, mid1, lo2, mid2, hi = cut[4 * i:4 * i + 5]
        n = len(state)
        if not n and lo == hi:
            continue
        if n and params.kalman:     # X <- F X and P <- F P F^T + Q, axis by axis
            X[:, :2] += dt * X[:, 5:]
            cov = P[:, 7:] + dt * P[:, 5:7]
            P[:, :2] += dt * (P[:, 7:] + cov)
            P[:, 7:] = cov
            P += q
        state[:, 1] = -1
        matched, unmatched = [], lo2 - lo     # unmatched stage-1 detections spawn
        if n and lo < hi:
            tkeys = X[:, :2] if params.similarity == "l2" else footprint_rect(X[:, :5])
            for a, mid, b in ((lo, mid1, lo2), (lo2, mid2, hi)):
                pool = np.flatnonzero(state[:, 1] < 0) if a < b else ()  # unmatched so far
                if not len(pool):
                    continue
                ti, di = _associate(tkeys[pool], int(np.searchsorted(pool, ne)),
                                    dkeys[a:b], mid - a, params)
                ti, di = pool[ti], di + a
                state[ti, 1] = di
                matched.append((ti, di))
                if b == lo2:    # stage 1
                    unmatched -= len(di)
        if matched:
            ti, di = matched[0] if len(matched) == 1 else (np.concatenate(c) for c in zip(*matched))
            if params.kalman:   # S = P[:, :5] + R is diagonal, so the gain is a division
                x, p = X[ti], P[ti]
                cross = p[:, cross_col]
                gain = cross / (p[:, :5] + MEASURE_STD ** 2)[:, axis]
                X[ti] = x + gain * (boxes[di] - x[:, :5])[:, axis]
                p[:, :7] -= gain * cross
                p[:, 7:] -= gain[:, :2] * cross[:, 5:]
                P[ti] = p
            else:
                X[ti, :5] = boxes[di]
            state[ti, 2] += 1
            state[ti, 4] = k
        missed = state[:, 1] < 0
        if missed.any():
            gone = state[missed]
            expired = k * dt - gone[:, 4] * dt > T_MAX_S
            ended.append(gone[expired])
            drop = expired | (gone[:, 2] < CONFIRM_HITS)
            if drop.any():
                keep = ~missed
                keep[missed] = ~drop
                ne = int(np.count_nonzero(keep[:ne]))
                state, X, P = state[keep], X[keep], P[keep]
        if unmatched:
            fresh = np.ones(hi - lo, dtype=bool)
            fresh[state[state[:, 1] >= 0, 1] - lo] = False
            spawn = np.flatnonzero(fresh[:lo2 - lo]) + lo
            m, m_east = len(spawn), int(np.searchsorted(spawn, mid1))
            ids = np.concatenate([np.arange(next_east, next_east + m_east),
                                  np.arange(next_west, next_west + m - m_east)])
            next_east, next_west = next_east + m_east, next_west + m - m_east
            new = np.column_stack([ids, spawn, np.ones(m, dtype=np.int64), np.full((m, 2), k)])
            new_x = np.column_stack([boxes[spawn], np.zeros((m, 2))])
            new_p = np.broadcast_to(p0, (m, 9))
            state = np.concatenate([state[:ne], new[:m_east], state[ne:], new[m_east:]])
            X = np.concatenate([X[:ne], new_x[:m_east], X[ne:], new_x[m_east:]])
            P = np.concatenate([P[:ne], new_p[:m_east], P[ne:], new_p[m_east:]])
            ne += m_east
        pairs.frombytes(state[:, :2].tobytes())
        states.frombytes(X[:, :5].tobytes())
        if k == last[0]:    # the eastbound detections end
            ended.append(state[:ne])
            state, X, P, ne = state[ne:], X[ne:], P[ne:], 0
        if k == last[1]:
            ended.append(state[ne:])
            state, X, P = state[:ne], X[:ne], P[:ne]
    ended = np.concatenate(ended)
    lasted = ended[:, 4] * dt - ended[:, 3] * dt
    ended = ended[(ended[:, 2] >= CONFIRM_HITS) & ~(lasted < T_MIN_S)]
    ended = ended[np.argsort(ended[:, 0] >= n_east, kind="stable")]     # eastbound first
    history = np.frombuffer(pairs, dtype=np.int64).reshape(-1, 2)
    out = _cut_tracklets(history[:, 0], history[:, 1], np.frombuffer(states).reshape(-1, 5),
                         ended, boxes, dt)
    for tl in out:      # westbound ids follow the last eastbound id
        if tl.id >= n_east:
            tl.id -= n_east - next_east
    return out


def _cut_tracklets(ids, source, states, ended, boxes, dt: float) -> list:
    """Tracklets of the `ended` state rows, in order, each cut after its
    last matched frame, with the median dims of the boxes it matched.
    Row r of the history is track ids[r]'s state and matched detection
    (or -1) in one frame, a track's rows in frame order from its spawn."""
    if not len(ended):
        return []
    order = np.argsort(ids, kind="stable")      # rows by id, then frame
    counts = np.bincount(ids)
    start = (np.cumsum(counts) - counts)[ended[:, 0]]
    out = []
    for i, a, first, stop in zip(ended[:, 0].tolist(), start.tolist(),
                                 ended[:, 3].tolist(), ended[:, 4].tolist()):
        rows = order[a:a + stop - first + 1]
        matched = source[rows]
        out.append(Tracklet(i, np.arange(first, stop + 1) * dt, states[rows],
                            np.median(boxes[matched[matched >= 0], 2:5], axis=0)))
    return out


def run_tracker(algo: str, detections) -> list[Tracklet]:
    """Run the ALGORITHMS entry `algo`; eastbound (y >= 0) and westbound
    detections never associate, and eastbound tracklets come first."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown tracker {algo!r}")
    return _run_stream(detections, ALGORITHMS[algo])


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


def run_oracle(detections, gt_traces):
    """Upper-bound tracker: claim detections overlapping each ground-truth
    trace, average concurrent claims, smooth, and interpolate between them.
    A trace is any record of increasing `times` and (N,5) `boxes`, such as a
    VehicleTrack or a TrajectorySeries, scored at its boxes' median l, w, h."""
    dt_arr, dboxes, _ = _arrays(detections)
    tracklets = []
    for trace in gt_traces:
        times, boxes = trace.times, trace.boxes
        if not len(dt_arr) or len(times) < 2:
            continue
        lo = np.searchsorted(dt_arr, times[0] - 1e-9)
        hi = np.searchsorted(dt_arr, times[-1] + 1e-9)
        if hi <= lo:
            continue
        cand_t, cand_b = dt_arr[lo:hi], dboxes[lo:hi]
        gt_boxes = np.column_stack([np.interp(cand_t, times, boxes[:, j]) for j in (0, 1)] + [
            np.full_like(cand_t, d) for d in np.median(boxes[:, 2:5], axis=0)])
        # elementwise IOU of each candidate against the trace at its time
        iou = _rect_iou(footprint_rect(gt_boxes), footprint_rect(cand_b))
        mask = iou >= ORACLE_PHI_MIN
        if not mask.any():
            continue
        ct, cb = cand_t[mask], cand_b[mask]     # sorted by time, as _arrays sorts
        # average concurrent claims (overlapping cameras)
        new = np.concatenate([[True], np.diff(ct) > 1e-9])
        group = np.cumsum(new) - 1
        n_groups = group[-1] + 1
        counts = np.bincount(group, minlength=n_groups).astype(float)
        cb = np.stack([np.bincount(group, weights=cb[:, j],
                                   minlength=n_groups) / counts
                       for j in range(5)], axis=1)
        ct = ct[new]
        for j in range(2):
            cb[:, j] = _smooth_irregular(ct, cb[:, j], ORACLE_SMOOTH_S)
        # split into contiguous segments
        breaks = np.flatnonzero(np.diff(ct) > T_MAX_S) + 1
        for seg_t, seg_b in zip(np.split(ct, breaks), np.split(cb, breaks)):
            if seg_t[-1] - seg_t[0] < T_MIN_S:
                continue
            grid = time_grid(seg_t[0], seg_t[-1], 1.0 / ORACLE_F_TRACK)
            grid_b = np.column_stack([np.interp(grid, seg_t, seg_b[:, j]) for j in range(5)])
            tracklets.append(Tracklet(len(tracklets), grid, grid_b,
                                      np.median(seg_b[:, 2:5], axis=0)))
    return tracklets
