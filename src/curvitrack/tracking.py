"""Tracking-by-detection baselines on fused roadway-coordinate detections.

Detections travel as one columnar record, `Detections`, from `simulate`
and `io_formats.read_detections` to the trackers.  The trackers take a
`Detections`, or any sequence of records with .t, .box = (x, y, l, w, h)
and .conf, in any order, and emit Tracklets.  Boxes are axis-aligned in
roadway coordinates; the box reference point is the back-bottom-center,
so the footprint extends along +x for eastbound (y > 0) and -x for
westbound.  The columns are sorted by time once per run (`_arrays`), and
each travel direction is a mask on those arrays, tracked as its own
stream.
A Tracklet holds arrays too, from the tracker through `tracks.jsonl` to
`moteval.evaluate`: its times, its (x, y, l, w, h) states and the median
l, w, h of the detections it matched, taken once where it is cut.
"""

from __future__ import annotations

import math
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

# the constant-velocity Kalman filter's noises and initial covariance
_Q = np.diag(np.asarray(PROCESS_STD) ** 2)
_R = MEASURE_STD ** 2 * np.eye(5)
_P0 = np.diag([MEASURE_STD ** 2] * 5 + [400.0, 25.0])

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


def candidate_pairs(key_a, lo_a, hi_a, key_b, lo_b, hi_b) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), sorted by (i, j), with key_a[i] == key_b[j] and
    closed intervals [lo_a[i], hi_a[i]] and [lo_b[j], hi_b[j]] that meet.

    Sort and sweep (Cohen et al., I-COLLIDE, 1995) on exact (key, start) ranks:
    of two intervals that meet, the one whose start sorts first holds the
    other's start, so each is paired with the later starts up to its end.
    """
    _, key = np.unique(np.concatenate([key_a, key_b]), return_inverse=True)
    xs, x = np.unique(np.concatenate([lo_a, lo_b]), return_inverse=True)
    lo = key * len(xs) + x
    del x
    hi = key * len(xs) + np.searchsorted(xs, np.concatenate([hi_a, hi_b]), "right") - 1
    del key, xs
    order = np.argsort(lo, kind="stable")
    after = np.arange(1, len(lo) + 1)
    count = np.searchsorted(lo[order], hi[order], "right") - after
    del lo, hi          # the pair arrays below need only the order and the counts
    u = np.repeat(order, count)
    v = order[np.arange(len(u)) + np.repeat(after - np.cumsum(count) + count, count)]
    del order, after, count
    cross = (u < len(lo_a)) != (v < len(lo_a))
    i, j = np.minimum(u, v)[cross], np.maximum(u, v)[cross] - len(lo_a)
    del u, v, cross
    order = np.lexsort((j, i))
    return i[order], j[order]


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


def _frames(t, boxes, conf, params: TrackerParams):
    """Confidence gate and greedy cross-camera NMS over one detection stream,
    given as _arrays gives it.

    A detection's frame is round(t / dt) on the tracking grid.  Within a
    frame, detections are ranked by (-conf, time order), and one is kept
    unless a kept, higher-ranked one overlaps it with IOU >= PHI_NMS > 0,
    which only the same-frame pairs candidate_pairs finds can reach.
    Returns the kept detections' frames, boxes, rects and confidences in
    time order (stable, so input order within a time).
    """
    dt = 1.0 / params.f_track
    gate = ~(conf < params.sigma_high)
    frame = np.rint(t[gate] / dt).astype(np.int64)
    boxes, conf = boxes[gate], conf[gate]
    rects = footprint_rect(boxes)
    order = np.lexsort((-conf, frame))
    ranked, key = rects[order], frame[order]
    a, b = candidate_pairs(key, ranked[:, 0], ranked[:, 2], key, ranked[:, 0], ranked[:, 2])
    hit = (a < b) & (_rect_iou(ranked[a], ranked[b]) >= PHI_NMS)
    keep = [True] * len(order)
    # in (a, b) order, a's fate is settled before its own pairs come up: its
    # rivals rank higher
    for i, j in zip(a[hit].tolist(), b[hit].tolist()):
        if keep[i]:
            keep[j] = False
    kept = np.sort(order[np.array(keep, dtype=bool)])
    return frame[kept], boxes[kept], rects[kept], conf[kept]


def _associate(tboxes, dboxes, drects, params: TrackerParams):
    """(track rows, detection cols) matched in one association stage.

    A one-to-one feasible set is taken before `_assign`, which would take it
    whole: on the many small one-to-one stages this set test is about six
    times faster than `_assign`'s bincount test.
    """
    if params.similarity == "l2":
        cost = np.linalg.norm(tboxes[:, None, :2] - dboxes[None, :, :2], axis=2)
        feasible = cost <= D_MAX
    else:
        iou = _rect_iou(footprint_rect(tboxes)[:, None, :], drects[None, :, :])
        cost, feasible = 1.0 - iou, iou >= PHI_MIN
    rows, cols = np.nonzero(feasible)
    if len(set(rows.tolist())) == len(rows) == len(set(cols.tolist())):
        return rows, cols
    taken = _assign(rows, cols, cost[rows, cols])
    return rows[taken], cols[taken]


def _run_stream(t, boxes, conf, params: TrackerParams, id_start: int):
    """Track one detection stream, given as _arrays gives it.

    Active tracks are stacked: `state` holds (id, hits, first frame, last
    matched frame) per track and X (N,7) / P (N,7,7) the constant-velocity
    Kalman filter on (x, y, l, w, h, vx, vy); without Kalman, X[:, :5] is
    the last matched box.  Returns (tracklets, next_id).
    """
    frame, boxes, rects, conf = _frames(t, boxes, conf, params)
    if not len(frame):
        return [], id_start
    dt = 1.0 / params.f_track
    cut = np.searchsorted(frame, np.arange(frame[0], frame[-1] + 2))
    # high-confidence detections first within a frame, each part in input
    # order; a one-stage tracker has no low-confidence part
    low = (conf < TAU_HIGH) & params.two_stage
    order = np.lexsort((low, frame))
    boxes, rects = boxes[order], rects[order]
    n_high = np.concatenate([[0], np.cumsum(~low[order])])
    mid = cut[:-1] + n_high[cut[1:]] - n_high[cut[:-1]]
    bounds = zip(range(int(frame[0]), int(frame[-1]) + 1),
                 cut[:-1].tolist(), mid.tolist(), cut[1:].tolist())

    F = np.eye(7)
    F[0, 5] = F[1, 6] = dt
    state = np.zeros((0, 4), dtype=np.int64)
    X, P = np.zeros((0, 7)), np.zeros((0, 7, 7))
    next_id = id_start
    history = []    # per frame: (track ids, boxes, matched detection or -1, frame)
    ended = []      # state rows of terminated tracks, in termination order

    for k, lo, mid, hi in bounds:
        n = len(state)
        if not n and lo == hi:
            continue
        if n and params.kalman:
            X = X @ F.T
            P = F @ P @ F.T + _Q
        source = np.full(n, -1)
        fresh = np.ones(mid - lo, dtype=bool)      # stage-1 detections left unmatched
        for a, b, spawning in ((lo, mid, True), (mid, hi, False)):
            pool = np.flatnonzero(source < 0)
            if a == b or not len(pool):
                continue
            ti, di = _associate(X[pool, :5], boxes[a:b], rects[a:b], params)
            ti, di = pool[ti], di + a
            if params.kalman and len(ti):
                x, p = X[ti], P[ti]
                pt = p.transpose(0, 2, 1)
                gain_t = np.linalg.solve(pt[:, :5, :5] + _R, pt[:, :5, :])   # K^T
                innovation = boxes[di] - x[:, :5]
                X[ti] = x + (innovation[:, None, :] @ gain_t)[:, 0, :]
                P[ti] = p - gain_t.transpose(0, 2, 1) @ p[:, :5, :]
            elif len(ti):
                X[ti, :5] = boxes[di]
            state[ti, 1] += 1
            state[ti, 3] = k
            source[ti] = di
            if spawning:
                fresh[di - lo] = False
        if n:
            history.append((state[:, 0].copy(), X[:, :5].copy(), source, k))
            missed = state[source < 0]
            expired = k * dt - missed[:, 3] * dt > T_MAX_S
            ended.append(missed[expired])
            drop = expired | (missed[:, 1] < CONFIRM_HITS)
            if drop.any():
                keep = source >= 0
                keep[~keep] = ~drop
                state, X, P = state[keep], X[keep], P[keep]
        spawn = np.flatnonzero(fresh) + lo
        if len(spawn):
            m = len(spawn)
            ids = np.arange(next_id, next_id + m)
            next_id += m
            state = np.concatenate([state, np.column_stack(
                [ids, np.ones(m, dtype=np.int64), np.full((m, 2), k)])])
            X = np.concatenate([X, np.column_stack([boxes[spawn], np.zeros((m, 2))])])
            P = np.concatenate([P, np.broadcast_to(_P0, (m, 7, 7))])
            history.append((ids, boxes[spawn], spawn, k))
    ended = np.concatenate(ended + [state])
    lasted = ended[:, 3] * dt - ended[:, 2] * dt
    emit = (ended[:, 1] >= CONFIRM_HITS) & ~(lasted < T_MIN_S)
    return _cut_tracklets(history, ended[emit], boxes, dt), next_id


def _cut_tracklets(history, ended, boxes, dt: float) -> list:
    """Tracklets of the `ended` state rows, in order, each cut after its
    last matched frame, with the median dims of the boxes it matched."""
    if not len(ended):
        return []
    ids, states, source, frames = zip(*history)
    frame = np.repeat(frames, [len(i) for i in ids])
    ids = np.concatenate(ids)
    order = np.argsort(ids, kind="stable")      # rows by id, then frame
    states, source = np.concatenate(states), np.concatenate(source)
    start = np.searchsorted(ids[order], ended[:, 0])
    stop = start + ended[:, 3] - frame[order[start]] + 1
    out = []
    for i, a, b in zip(ended[:, 0].tolist(), start.tolist(), stop.tolist()):
        rows = order[a:b]
        matched = source[rows]
        out.append(Tracklet(i, frame[rows] * dt, states[rows],
                            np.median(boxes[matched[matched >= 0], 2:5], axis=0)))
    return out


def run_tracker(algo: str, detections) -> list[Tracklet]:
    """Run the ALGORITHMS entry `algo`; eastbound (y >= 0) and westbound
    detections are tracked as separate streams."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown tracker {algo!r}")
    t, boxes, conf = _arrays(detections)
    out, next_id = [], 0
    for side in (boxes[:, 1] >= 0, boxes[:, 1] < 0):
        tracklets, next_id = _run_stream(t[side], boxes[side], conf[side],
                                         ALGORITHMS[algo], next_id)
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
