import itertools
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvitrack import simulator
from curvitrack import tracking as tk
from curvitrack.simulator import DetectionConfig, SceneConfig
from curvitrack.tracking import (ALGORITHMS, hungarian_match,
                                 iou_footprint, iou_matrix, run_oracle,
                                 run_tracker)


@dataclass(frozen=True)
class Det:
    t: float
    box: tuple
    conf: float = 0.8
    camera: str = "c0"
    cls: str = "sedan"


def vehicle_dets(x0=100.0, v=90.0, y=6.0, dims=(16.0, 6.0, 5.0),
                 t0=0.0, t1=10.0, rate=10.0, conf=0.8, drop=None):
    out = []
    for i, t in enumerate(np.arange(t0, t1, 1.0 / rate)):
        if drop and drop(i):
            continue
        out.append(Det(float(t), (x0 + v * (t - t0), y) + dims, conf))
    return out


# ---------------------------------------------------------------------------
# iou

def test_iou_identical_boxes():
    b = (100.0, 6.0, 16.0, 6.0, 5.0)
    assert iou_footprint(b, b) == pytest.approx(1.0)


def test_iou_disjoint_boxes():
    assert iou_footprint((0.0, 6.0, 16.0, 6.0, 5.0),
                         (100.0, 6.0, 16.0, 6.0, 5.0)) == 0.0


def test_iou_half_overlap():
    # Same footprint shifted by half a length: inter = 0.5, union = 1.5.
    a = (0.0, 6.0, 16.0, 6.0, 5.0)
    b = (8.0, 6.0, 16.0, 6.0, 5.0)
    assert iou_footprint(a, b) == pytest.approx(0.5 / 1.5)


def test_iou_matrix_shape_and_symmetry(rng):
    boxes = np.column_stack([rng.uniform(0, 100, 6), rng.uniform(2, 10, 6),
                             rng.uniform(10, 20, 6), rng.uniform(5, 8, 6),
                             rng.uniform(4, 7, 6)])
    m = iou_matrix(boxes, boxes)
    assert m.shape == (6, 6)
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 1.0)


def test_elementwise_iou_equals_pairwise_diagonal(rng):
    # run_oracle scores each candidate against the trace elementwise with
    # the kernel iou_matrix broadcasts pairwise; the two must agree exactly.
    a = np.column_stack([rng.uniform(0, 60, 20), rng.uniform(-10, 10, 20),
                         rng.uniform(10, 20, 20), rng.uniform(5, 8, 20),
                         rng.uniform(4, 7, 20)])
    b = a + rng.normal(0.0, 4.0, a.shape) * [1, 0.2, 0.1, 0.1, 0.1]
    elementwise = tk._rect_iou(tk.footprint_rect(a), tk.footprint_rect(b))
    assert elementwise.shape == (20,)
    assert np.array_equal(elementwise, np.diag(iou_matrix(a, b)))
    assert (elementwise > 0).any() and (elementwise < 1).all()


# few distinct values, so intervals touch, nest and have zero width; the
# last two differ by one ulp, which any rounding of the sort would merge
_X = [-1.0, 0.0, 0.5, 1.0, 2.0, 1e6, float(np.nextafter(1e6, np.inf))]
_INTERVALS = st.lists(st.tuples(st.integers(0, 2), st.sampled_from(_X),
                                st.sampled_from(_X)), max_size=12)


@settings(max_examples=400, deadline=None)
@given(_INTERVALS)
@example([])
@example([(0, 0.0, 1.0)])
@example([(0, 0.0, 1.0), (0, 1.0, 1.0), (1, 0.0, 1.0)])
def test_candidate_pairs_equal_brute_force(a):
    key = np.array([k for k, _, _ in a], dtype=np.int64)
    lo = np.array([min(p, q) for _, p, q in a], dtype=float)
    hi = np.array([max(p, q) for _, p, q in a], dtype=float)
    i, j = tk.candidate_pairs(key, lo, hi)
    want = [(p, q) for p in range(len(a)) for q in range(p + 1, len(a))
            if key[p] == key[q] and lo[p] <= hi[q] and lo[q] <= hi[p]]
    # each pair once, smaller index first, in no set order
    assert sorted(zip(i.tolist(), j.tolist())) == want


# ---------------------------------------------------------------------------
# hungarian matching

def test_hungarian_diagonal():
    cost = np.array([[0.0, 5.0], [5.0, 0.0]])
    assert sorted(hungarian_match(cost, 10.0)) == [(0, 0), (1, 1)]


def test_hungarian_all_above_max_cost():
    cost = np.full((3, 3), 7.0)
    assert hungarian_match(cost, 5.0) == []


def test_hungarian_threshold_inclusive():
    cost = np.array([[5.0]])
    assert hungarian_match(cost, 5.0) == [(0, 0)]


def brute_force_min_cost(cost, max_cost):
    """Exhaustive minimum-cost assignment over feasible pairs."""
    n, m = cost.shape
    best, best_pairs = np.inf, []
    rows = list(range(n))
    for k in range(min(n, m), -1, -1):
        for rsub in itertools.combinations(rows, k):
            for csub in itertools.permutations(range(m), k):
                pairs = [(r, c) for r, c in zip(rsub, csub)
                         if cost[r, c] <= max_cost]
                if len(pairs) != k:
                    continue
                total = sum(cost[r, c] for r, c in pairs)
                if k > len(best_pairs) or (k == len(best_pairs) and total < best):
                    best, best_pairs = total, pairs
    return best_pairs


def test_hungarian_matches_brute_force(rng):
    for trial in range(100):
        g = np.random.default_rng(trial)
        cost = g.uniform(0.0, 10.0, (g.integers(1, 5), g.integers(1, 5)))
        got = hungarian_match(cost, 6.0)
        want = brute_force_min_cost(cost, 6.0)
        assert len(got) == len(want)
        assert sum(cost[r, c] for r, c in got) == pytest.approx(
            sum(cost[r, c] for r, c in want), abs=1e-9)


def whole_matrix_match(cost, max_cost):
    """The whole-matrix rule: scipy on the matrix with 1e9 in every
    infeasible cell, then the feasible pairs of its assignment."""
    from scipy.optimize import linear_sum_assignment

    capped = np.where(np.isfinite(cost) & (cost <= max_cost), cost, tk._BIG)
    rows, cols = linear_sum_assignment(capped)
    keep = capped[rows, cols] < tk._BIG
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


def random_cost(g, shape, kind):
    if kind == "uniform":
        return g.uniform(0.0, 10.0, shape)
    if kind == "decimal":   # sums that round differently in another order
        return g.choice([0.1, 0.2, 0.3, 0.6, 0.7], shape)
    cost = g.integers(0, 3, shape).astype(float)      # ties
    if kind == "ties":
        return cost
    if kind == "constant":
        return np.full(shape, 2.5)
    cost[g.uniform(size=shape) < 0.4] = np.inf if kind == "inf" else 1e9
    return cost


def test_lsap_equals_scipy():
    # scipy's linear_sum_assignment is the reference for the port
    from scipy.optimize import linear_sum_assignment

    g = np.random.default_rng(0)
    shapes = {"wide": 0, "tall": 0, "square": 0}
    for trial in range(3000):
        shape = tuple(g.integers(1, 9, 2).tolist())
        cost = random_cost(g, shape, ("uniform", "decimal", "ties", "constant", "inf",
                                      "big")[trial % 6])
        try:
            rows, cols = linear_sum_assignment(cost)
            want = list(zip(rows.tolist(), cols.tolist()))
        except ValueError:              # no complete assignment avoids inf
            with pytest.raises(ValueError, match="infeasible"):
                tk._lsap(cost.tolist())
            continue
        assert tk._lsap(cost.tolist()) == want, cost
        shapes["wide" if shape[0] < shape[1] else "tall" if shape[0] > shape[1]
               else "square"] += 1
    assert min(shapes.values()) > 300


def dense_cost(rows, cols, cost):
    """The matrix a pair list makes: each pair's cost in its cell, inf in
    the others."""
    out = np.full((int(rows.max(initial=-1)) + 1, int(cols.max(initial=-1)) + 1), np.inf)
    out[rows, cols] = cost
    return out


def assigned_pairs(rows, cols, cost):
    taken = tk._assign(rows, cols, cost)
    return sorted(zip(rows[taken].tolist(), cols[taken].tolist()))


def test_hungarian_equals_whole_matrix_rule_on_tracker_frames(monkeypatch):
    """_assign, split into components, returns what one scipy pass over the
    whole matrix returns, on every pair list the trackers pass it in a
    crowded scene."""
    calls = []
    real = tk._assign
    monkeypatch.setattr(tk, "_assign", lambda *a: calls.append(a) or real(*a))
    dets = scene_detections(**EQUIVALENCE_SCENES["dense"])
    for algo in ALGORITHMS:
        run_tracker(algo, dets)
    monkeypatch.undo()
    assert len(calls) > 50
    assert any(min(len(set(r.tolist())), len(set(c.tolist()))) > 10 for r, c, _ in calls)
    for rows, cols, cost in calls:
        assert assigned_pairs(rows, cols, cost) == whole_matrix_match(
            dense_cost(rows, cols, cost), np.inf)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
       kind=st.sampled_from(["uniform", "decimal", "ties", "one-to-one", "empty"]),
       density=st.floats(0.0, 0.3))
def test_assign_equals_whole_matrix_rule_on_sparse_pairs(seed, shape, kind, density):
    # pairs in any order, at most a few per row or column; on a 4x4 matrix
    # or smaller, the count and cost of an exhaustive search as well
    g = np.random.default_rng(seed)
    if kind == "one-to-one":
        k = int(g.integers(0, min(shape) + 1))
        rows, cols = (g.choice(n, k, replace=False) for n in shape)
        cost = random_cost(g, k, "uniform")
    else:
        rows, cols = np.nonzero(g.uniform(size=shape) < (0.0 if kind == "empty" else density))
        cost = random_cost(g, len(rows), kind)
    order = g.permutation(len(rows))
    rows, cols, cost = rows[order], cols[order], cost[order]
    dense = dense_cost(rows, cols, cost)
    got = assigned_pairs(rows, cols, cost)
    wants = [whole_matrix_match(dense, np.inf)]
    if kind in ("uniform", "one-to-one"):     # no two matchings cost the same
        assert got == wants[0]
    if max(shape) <= 4:
        wants.append(brute_force_min_cost(dense, 10.0))
    for want in wants:
        assert len(got) == len(want)
        assert sum(dense[r, c] for r, c in got) == pytest.approx(
            sum(dense[r, c] for r, c in want), abs=1e-9)


def test_hungarian_equals_whole_matrix_rule_on_sparse_patterns():
    # up to 40 tracks and detections spread over four lanes of a road, at
    # most a few feasible pairs per row, as in a tracker's frame (in 2-D:
    # on a line, distance sums tie exactly)
    g = np.random.default_rng(1)
    for trial in range(300):
        tracks, dets = (np.column_stack([g.uniform(0.0, 600.0, n),
                                         g.integers(0, 4, n) * 12.0 + g.normal(0.0, 1.0, n)])
                        for n in g.integers(1, 41, 2))
        dist = np.linalg.norm(tracks[:, None] - dets[None, :], axis=2)
        cost = np.where(dist <= 10.0, dist, np.inf)
        assert hungarian_match(cost, 10.0) == whole_matrix_match(cost, 10.0), trial
        iou_cost = np.where(dist <= 12.0, 1.0 - np.exp(-dist / 5.0), np.inf)
        assert hungarian_match(iou_cost, 0.9) == whole_matrix_match(iou_cost, 0.9), trial


# ---------------------------------------------------------------------------
# the Detections record

@dataclass
class Bare:
    """A detection record with only the fields the trackers read."""

    t: float
    box: list
    conf: float


DETECTION_ROWS = [
    tk.Detection(0.2, "P02C01", (100.0, 6.0, 16.0, 6.0, 5.0), "sedan", 0.9),
    tk.Detection(0.1, "P01C01", (-3.0, -6.5, 15.0, 6.0, 5.0), "van", 0.7),
    tk.Detection(0.1, "caf\u00e9", (7.0, 2.0 ** 70, 0.0, -0.0, 1e-300), "sedan", 1.0),
    tk.Detection(0.3, "P02C01", (1.5, 6.0, 16.0, 6.0, 5.0), "", 0.5),
]


def test_detections_behaves_as_the_list_of_its_rows():
    rows = DETECTION_ROWS
    dets = tk.Detections.of(rows)
    assert tk.Detections.of(dets) is dets
    assert len(dets) == len(rows) and list(dets) == rows
    assert [dets[i] for i in range(-4, 4)] == [rows[i] for i in range(-4, 4)]
    assert dets[np.int64(2)] == rows[2]
    with pytest.raises(IndexError):
        dets[4]
    for part in (slice(None), slice(1, 3), slice(None, None, -1), slice(3, 1), slice(0, 4, 2)):
        assert isinstance(dets[part], tk.Detections)
        assert list(dets[part]) == rows[part] and dets[part] == tk.Detections.of(rows[part])
    # == compares rows, whatever order the string tables are in
    assert tk.Detections.of(rows[::-1])[::-1] == dets
    for changed in (dict(camera="P01C02"), dict(cls="van"), dict(conf=0.5), dict(t=0.0),
                    dict(box=(7.0, 2.0 ** 70, 0.0, 0.0, 2e-300))):
        other = rows[:2] + [replace(rows[2], **changed)] + rows[3:]
        assert tk.Detections.of(other) != dets
    assert dets != dets[:3] and len(tk.Detections.of([])) == 0


@pytest.mark.parametrize("rows", [DETECTION_ROWS, [], "scene"])
def test_arrays_of_a_list_and_of_its_record_are_the_same_bits(rows):
    if rows == "scene":
        rows = list(scene_detections(**EQUIVALENCE_SCENES["noisy"]))
    for a, b in zip(tk._arrays(rows), tk._arrays(tk.Detections.of(rows))):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_trackers_take_records_with_only_t_box_and_conf():
    rows = list(scene_detections(**EQUIVALENCE_SCENES["ladder"]))
    bare = [Bare(d.t, list(d.box), d.conf) for d in rows]
    for a, b in zip(tk._arrays(bare), tk._arrays(tk.Detections.of(rows))):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    got, want = run_tracker("kiou", bare), run_tracker("kiou", rows)
    assert [tl.id for tl in got] == [tl.id for tl in want] and got
    for g, w in zip(got, want):
        assert np.array_equal(g.times, w.times) and np.array_equal(g.boxes, w.boxes)


# ---------------------------------------------------------------------------
# trackers

def test_sort_single_vehicle_single_tracklet():
    dets = vehicle_dets()
    out = run_tracker("sort", dets)
    assert len(out) == 1
    assert out[0].times[-1] - out[0].times[0] == pytest.approx(9.9, abs=1e-9)


def test_gap_beyond_t_max_splits_track():
    dets = vehicle_dets(drop=lambda i: 40 <= i < 65)  # 2.5 s hole
    out = run_tracker("sort", dets)
    assert len(out) == 2


def test_gap_within_t_max_bridged():
    dets = vehicle_dets(drop=lambda i: 40 <= i < 55)  # 1.5 s hole
    out = run_tracker("sort", dets)
    assert len(out) == 1


def test_two_parallel_vehicles_no_swap():
    a = vehicle_dets(x0=100.0, y=6.0)
    b = vehicle_dets(x0=150.0, y=18.0)
    out = run_tracker("sort", sorted(a + b, key=lambda d: d.t))
    assert len(out) == 2
    for tr in out:
        ys = np.array([bx[1] for bx in tr.boxes])
        assert np.ptp(ys) < 2.0  # each tracklet stays in its lane


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("shared", [True, False], ids=["same-frames", "own-frames"])
def test_opposite_directions_never_associate(algo, shared):
    # Stopped traffic on both sides of the median, footprints overlapping:
    # eastbound [100, 116] x [-2, 4], westbound [92, 108] x [-4, 2], so IOU
    # is 0.2 and the reference points are 8.2 ft apart.  In shared frames
    # the two would suppress each other in NMS.  In their own frames,
    # westbound missing while eastbound is seen, eastbound's detections
    # would extend the westbound track.
    east_steps = set(range(30, 100)) if shared else {30, 31, 50, 51, 70, 71, 90, 91}
    west = vehicle_dets(x0=108.0, v=0.0, y=-1.0, drop=lambda i: not shared and i in east_steps)
    east = vehicle_dets(x0=100.0, v=0.0, y=1.0, drop=lambda i: i not in east_steps)
    assert iou_footprint(east[0].box, west[0].box) == pytest.approx(0.2)
    assert np.hypot(8.0, 2.0) < tk.D_MAX
    out = run_tracker(algo, sorted(west + east, key=lambda d: d.t))
    assert len(out) == 2
    assert (out[0].boxes[:, 1] > 0).all() and (out[1].boxes[:, 1] < 0).all()


def test_iout_fragments_fast_vehicle_where_kiou_does_not():
    # ~105 ft/s with every third detection missing: without a motion model
    # the previous box no longer overlaps the next detection.
    dets = vehicle_dets(v=105.0, dims=(15.0, 6.0, 5.0),
                        drop=lambda i: i % 3 == 2)
    assert len(run_tracker("kiou", dets)) == 1
    assert len(run_tracker("iout", dets)) == 0  # fragments too short to keep


def test_short_tracks_suppressed():
    dets = vehicle_dets(t1=1.5)  # < t_min worth of observations
    assert run_tracker("sort", dets) == []


def test_confidence_below_sigma_high_ignored():
    dets = vehicle_dets(conf=0.3)
    assert run_tracker("sort", dets) == []  # sigma_high = 0.5 for SORT


def test_byte_equals_sort_when_all_high_confidence():
    dets = vehicle_dets(conf=0.9)
    a = run_tracker("sort", dets)
    b = run_tracker("byte-l2", dets)
    assert len(a) == len(b) == 1
    assert np.allclose(a[0].boxes, b[0].boxes)


def test_byte_bridges_low_confidence_stretches():
    # Alternate 0.9 / 0.2 confidence: SORT drops every other frame but the
    # second-stage association keeps the track alive through them.
    dets = []
    for i, d in enumerate(vehicle_dets()):
        conf = 0.9 if i % 2 == 0 else 0.2
        dets.append(Det(d.t, d.box, conf))
    out = run_tracker("byte-l2", dets)
    assert len(out) == 1
    assert len(out[0].times) > 95  # low-conf frames matched, not coasted


def test_byte_low_conf_never_spawns():
    dets = vehicle_dets(conf=0.2)
    assert run_tracker("byte-l2", dets) == []


def test_median_dims_robust_to_one_bad_frame():
    dets = vehicle_dets()
    bad = dets[50]
    dets[50] = Det(bad.t, bad.box[:2] + (60.0, 20.0, 15.0), bad.conf)
    out = run_tracker("sort", dets)
    assert out[0].dims.tolist() == [16.0, 6.0, 5.0]


def test_tracklet_times_on_grid():
    dets = [Det(t + 0.003, (100.0 + 90 * t, 6.0, 16.0, 6.0, 5.0))
            for t in np.arange(0.0, 8.0, 0.1)]
    out = run_tracker("sort", dets)
    ks = np.array(out[0].times) * 10.0
    assert np.allclose(ks, np.round(ks), atol=1e-9)


def test_run_tracker_dispatch():
    dets = vehicle_dets()
    for algo in ALGORITHMS:
        out = run_tracker(algo, dets)
        assert isinstance(out, list)
    with pytest.raises(ValueError):
        run_tracker("nonexistent", dets)


def test_algorithms_table():
    assert sorted(ALGORITHMS) == ["byte-iou", "byte-l2", "iout", "kiou", "sort"]
    assert ALGORITHMS["sort"].similarity == "l2" and ALGORITHMS["sort"].kalman
    assert not ALGORITHMS["iout"].kalman and ALGORITHMS["iout"].f_track == 15.0
    assert ALGORITHMS["kiou"] == tk.TrackerParams()
    for algo, similarity in (("byte-l2", "l2"), ("byte-iou", "iou")):
        p = ALGORITHMS[algo]
        assert p.two_stage and p.similarity == similarity
        assert p.sigma_high == 0.01
    assert not any(ALGORITHMS[a].two_stage for a in ("sort", "iout", "kiou"))


def test_table_keeps_only_settings_that_vary():
    # a setting every tracker shares is a module constant, not a table column
    for f in fields(tk.TrackerParams):
        assert len({getattr(p, f.name) for p in ALGORITHMS.values()}) >= 2, f.name


def test_determinism():
    dets = vehicle_dets() + vehicle_dets(x0=300.0, y=18.0)
    dets = sorted(dets, key=lambda d: d.t)
    a = run_tracker("kiou", dets)
    b = run_tracker("kiou", dets)
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.times, tb.times) and np.array_equal(ta.boxes, tb.boxes)
        assert np.array_equal(ta.dims, tb.dims)


# ---------------------------------------------------------------------------
# stacked tracker core against the per-track reference loop

class _RefKalmanCV:
    """Constant-velocity Kalman filter on (x, y, l, w, h, vx, vy)."""

    def __init__(self, box, dt, params):
        self.dt = dt
        self.x = np.array(list(box) + [0.0, 0.0], dtype=float)
        r = tk.MEASURE_STD ** 2
        self.P = np.diag([r, r, r, r, r, 400.0, 25.0])
        self.F = np.eye(7)
        self.F[0, 5] = dt
        self.F[1, 6] = dt
        self.Q = np.diag(np.asarray(tk.PROCESS_STD, dtype=float) ** 2)
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
    def box(self):
        return tuple(self.x[:5])


class _RefTrack:
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


def _ref_nms(dets, phi_nms):
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
    return [dets[i] for i in sorted(order[p] for p in keep)]


def _ref_frames(detections, params):
    dt = 1.0 / params.f_track
    buckets = {}
    for d in detections:
        if d.conf < params.sigma_high:
            continue
        buckets.setdefault(int(round(d.t / dt)), []).append(d)
    return {k: _ref_nms(g, tk.PHI_NMS) for k, g in buckets.items()}, dt


def _ref_assoc_cost(tracks, dets, params):
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets))), 0.0
    tboxes = np.array([t.box for t in tracks])
    dboxes = np.array([d.box for d in dets])
    if params.similarity == "l2":
        dist = np.linalg.norm(tboxes[:, None, :2] - dboxes[None, :, :2], axis=2)
        return np.where(dist <= tk.D_MAX, dist, np.inf), tk.D_MAX
    iou = iou_matrix(tboxes, dboxes)
    return np.where(iou >= tk.PHI_MIN, 1.0 - iou, np.inf), 1.0 - tk.PHI_MIN


def _ref_run_stream(detections, params, id_start):
    """The per-track tracking loop the stacked core replaced."""
    frames, dt = _ref_frames(detections, params)
    if not frames:
        return [], id_start
    next_id = id_start
    active, done = [], []

    def finalize(tr):
        if not tr.confirmed or tr.last_match_t - tr.first_match_t < tk.T_MIN_S:
            return
        n = tr.last_match_idx + 1
        done.append(tk.Tracklet(tr.tid, np.array(tr.times[:n]), np.array(tr.boxes[:n]),
                                np.median(tr.dims, axis=0)))

    for k in range(min(frames), max(frames) + 1):
        t = k * dt
        dets = frames.get(k, [])
        for tr in active:
            if params.kalman:
                tr.kf.predict()
                tr.box = tr.kf.box
        if params.two_stage:
            stages = [([d for d in dets if d.conf >= tk.TAU_HIGH], True),
                      ([d for d in dets if d.conf < tk.TAU_HIGH], False)]
        else:
            stages = [(dets, True)]
        matched, new_dets, pool = set(), [], active
        for stage_dets, spawn in stages:
            cost, max_cost = _ref_assoc_cost(pool, stage_dets, params)
            pairs = hungarian_match(cost, max_cost) if len(pool) and stage_dets else []
            hit = set()
            for ti, di in pairs:
                tr, d = pool[ti], stage_dets[di]
                if params.kalman:
                    tr.kf.update(d.box)
                    tr.box = tr.kf.box
                else:
                    tr.box = tuple(d.box)
                tr.times.append(t)
                tr.boxes.append(tr.box)
                tr.dims.append(tuple(d.box[2:5]))
                tr.hits += 1
                if tr.hits >= tk.CONFIRM_HITS:
                    tr.confirmed = True
                tr.last_match_t = t
                tr.last_match_idx = len(tr.times) - 1
                matched.add(id(tr))
                hit.add(di)
            if spawn:
                new_dets = [d for i, d in enumerate(stage_dets) if i not in hit]
            pool = [tr for tr in pool if id(tr) not in matched]
        survivors = []
        for tr in active:
            if id(tr) in matched:
                survivors.append(tr)
                continue
            tr.times.append(t)
            tr.boxes.append(tr.box)
            if t - tr.last_match_t > tk.T_MAX_S:
                finalize(tr)
            elif tr.confirmed:
                survivors.append(tr)
        active = survivors
        for d in new_dets:
            kf = _RefKalmanCV(d.box, dt, params) if params.kalman else None
            active.append(_RefTrack(next_id, t, d.box, kf))
            next_id += 1
    for tr in active:
        finalize(tr)
    return done, next_id


def reference_run_tracker(algo, detections):
    """run_tracker as it was with one Python object per track."""
    params = ALGORITHMS[algo]
    out, next_id = [], 0
    for east in (True, False):
        stream = sorted((d for d in detections if (d.box[1] >= 0) == east),
                        key=lambda d: d.t)
        tracklets, next_id = _ref_run_stream(stream, params, next_id)
        out.extend(tracklets)
    return out


def assert_same_tracklets(got, want):
    assert [tl.id for tl in got] == [tl.id for tl in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.times, w.times)
        assert np.array_equal(g.dims, w.dims)
        assert np.abs(g.boxes - w.boxes).max() <= 1e-9


def scene_detections(vehicles, duration_s, seed, **detection):
    cfg = SceneConfig(extent_ft=3000.0, vehicle_count=vehicles, duration_s=duration_s,
                      seed=seed, detection=DetectionConfig(**detection))
    return simulator.simulate(cfg).detections


EQUIVALENCE_SCENES = {
    # ladder density: one vehicle per 3 s
    "ladder": dict(vehicles=20, duration_s=60.0, seed=3, miss_rate=0.2, noise_ft=1.0),
    # cli-dense density (100 vehicles in 30 s): crowded frames reach Hungarian
    "dense": dict(vehicles=34, duration_s=10.0, seed=4, miss_rate=0.2, noise_ft=1.0),
    # noisy boxes and confidences around ByteTrack's tau_high = 0.4
    "noisy": dict(vehicles=20, duration_s=40.0, seed=5, miss_rate=0.3, noise_ft=3.0,
                  conf_mean=0.45, conf_std=0.2),
}


@pytest.mark.parametrize("scene", sorted(EQUIVALENCE_SCENES))
def test_stacked_core_matches_reference(scene):
    dets = scene_detections(**EQUIVALENCE_SCENES[scene])
    for algo in ALGORITHMS:
        assert_same_tracklets(run_tracker(algo, dets), reference_run_tracker(algo, dets))


def test_stacked_core_matches_reference_on_low_confidence_frames():
    # every other frame holds only low-confidence detections (stage 2 only)
    dets = [Det(d.t, d.box, 0.9 if i % 2 == 0 else 0.2)
            for i, d in enumerate(vehicle_dets() + vehicle_dets(x0=130.0, y=10.0))]
    dets.sort(key=lambda d: d.t)
    for algo in ("byte-l2", "byte-iou"):
        got = run_tracker(algo, dets)
        assert len(got) == 2
        assert_same_tracklets(got, reference_run_tracker(algo, dets))


def one_track_against_several():
    """Eastbound holds one live track for 10 s while westbound holds three;
    x and y carry 1 ft of noise."""
    dets = vehicle_dets(v=87.3) + [d for i in range(3) for d in vehicle_dets(
        x0=2000.0 - 300.0 * i, v=-60.0 - 15.0 * i, y=-6.0 - 12.0 * i)]
    noise = np.random.default_rng(0).normal(0.0, 1.0, (len(dets), 2))
    return sorted((replace(d, box=(d.box[0] + dx, d.box[1] + dy) + d.box[2:])
                   for d, (dx, dy) in zip(dets, noise.tolist())), key=lambda d: d.t)


@pytest.mark.parametrize("scene", sorted(EQUIVALENCE_SCENES) + ["one-against-several"])
def test_both_directions_together_equal_each_alone(scene):
    """One loop over both directions gives each direction's tracklets the
    bits they have when it is tracked alone: eastbound first with the same
    ids, then westbound with ids shifted by one constant."""
    dets = (list(scene_detections(**EQUIVALENCE_SCENES[scene])) if scene in EQUIVALENCE_SCENES
            else one_track_against_several())
    east = [d for d in dets if d.box[1] >= 0]
    west = [d for d in dets if d.box[1] < 0]
    emitted = [0, 0]
    for algo in ALGORITHMS:
        both = run_tracker(algo, dets)
        alone_east, alone_west = run_tracker(algo, east), run_tracker(algo, west)
        emitted = [emitted[0] + len(alone_east), emitted[1] + len(alone_west)]
        assert len(both) == len(alone_east) + len(alone_west)
        got_east, got_west = both[:len(alone_east)], both[len(alone_east):]
        assert [tl.id for tl in got_east] == [tl.id for tl in alone_east]
        assert len({g.id - a.id for g, a in zip(got_west, alone_west)}) <= 1
        assert all(g.id > e.id for g in got_west for e in got_east)
        for g, a in zip(got_east + got_west, alone_east + alone_west):
            assert g.times.tobytes() == a.times.tobytes()
            assert g.boxes.tobytes() == a.boxes.tobytes()
            assert g.dims.tobytes() == a.dims.tobytes()
    assert min(emitted) > 0


@pytest.mark.parametrize("algo", ["sort", "kiou", "byte-l2", "byte-iou"])
def test_a_tracks_states_do_not_depend_on_other_live_tracks(algo):
    """A noisy eastbound vehicle's states have the same bits alone and with
    a second eastbound vehicle 2,000 ft ahead in another lane: no batched
    product rounds a row by how many tracks are live."""
    noise = np.random.default_rng(0).normal(0.0, 1.0, (100, 2)).tolist()
    one = [replace(d, box=(d.box[0] + dx, d.box[1] + dy) + d.box[2:])
           for d, (dx, dy) in zip(vehicle_dets(v=87.3), noise)]
    ahead = vehicle_dets(x0=2100.0, v=80.0, y=18.0)
    (alone,) = run_tracker(algo, one)
    together = [tl for tl in run_tracker(algo, sorted(one + ahead, key=lambda d: d.t))
                if tl.boxes[0, 0] < 1000.0]
    assert len(together) == 1
    assert together[0].times.tobytes() == alone.times.tobytes()
    assert together[0].boxes.tobytes() == alone.boxes.tobytes()


def _pairs(rows, cols):
    return sorted(zip(rows.tolist(), cols.tolist()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), algo=st.sampled_from(["kiou", "sort"]),
       n=st.integers(0, 12), m=st.integers(0, 12), data=st.data())
def test_padded_association_equals_each_direction_alone(seed, algo, n, m, data):
    # tracks and detections crowd 60 ft of two lanes per direction, the
    # inner ones 2 ft apart across the median, so pairs share rows and
    # columns and cross it; keys are rects (IOU) or centres (L2)
    t_east, d_east = data.draw(st.integers(0, n)), data.draw(st.integers(0, m))
    g = np.random.default_rng(seed)
    params = ALGORITHMS[algo]

    def keys(count, east):
        y = (1.0 + 6.0 * g.integers(0, 2, count)) * np.where(np.arange(count) < east, 1, -1)
        boxes = np.column_stack([g.uniform(0.0, 60.0, count), y + g.normal(0.0, 1.0, count),
                                 g.uniform(12.0, 20.0, count), np.full(count, 6.0),
                                 np.full(count, 5.0)])
        return boxes[:, :2] if params.similarity == "l2" else tk.footprint_rect(boxes)

    tkeys, dkeys = keys(n, t_east), keys(m, d_east)
    want = _pairs(*tk._associate(tkeys[:t_east], t_east, dkeys[:d_east], d_east, params))
    rows, cols = tk._associate(tkeys[t_east:], n - t_east, dkeys[d_east:], m - d_east, params)
    want += _pairs(rows + t_east, cols + d_east)
    got = _pairs(*tk._associate(tkeys, t_east, dkeys, d_east, params))
    assert got == sorted(want)


@pytest.mark.parametrize("algo", ["kiou", "sort"])
def test_padded_association_never_pairs_across_the_median(algo):
    # eastbound [100, 116] x [-2, 4] and westbound [92, 108] x [-4, 2]:
    # IOU 0.2 and centres 8.2 ft apart, each feasible within its direction
    east, west = (100.0, 1.0, 16.0, 6.0, 5.0), (108.0, -1.0, 16.0, 6.0, 5.0)
    assert iou_footprint(east, west) >= tk.PHI_MIN and np.hypot(8.0, 2.0) < tk.D_MAX
    params = ALGORITHMS[algo]
    boxes = np.array([east, west])
    keys = boxes[:, :2] if params.similarity == "l2" else tk.footprint_rect(boxes)
    for t_keys, t_east, d_keys, d_east in ((keys[:1], 1, keys[1:], 0),
                                           (keys[1:], 0, keys[:1], 1)):
        assert _pairs(*tk._associate(t_keys, t_east, d_keys, d_east, params)) == []
    assert _pairs(*tk._associate(keys, 1, keys, 1, params)) == [(0, 0), (1, 1)]


def test_nms_chain_keeps_third_box():
    # A suppresses B; B would suppress C, but B is gone, so C stays.
    dets = [Det(0.0, (120.0, 6.0, 16.0, 6.0, 5.0), 0.7),   # C: IOU(B, C) = 0.23, IOU(A, C) = 0
            Det(0.0, (100.0, 6.0, 16.0, 6.0, 5.0), 0.9),   # A
            Det(0.0, (110.0, 6.0, 16.0, 6.0, 5.0), 0.8)]   # B: IOU(A, B) = 0.23
    boxes, _, n_east, _, f0, cut = tk._frames(dets, ALGORITHMS["kiou"])
    assert (n_east, f0, cut) == (2, 0, [0, 2, 2, 2, 2])     # both kept in frame 0
    assert boxes.tolist() == [list(dets[0].box), list(dets[1].box)]
    assert [list(d.box) for d in _ref_nms(dets, 0.1)] == boxes.tolist()


@pytest.mark.parametrize("confs", [(0.9, 0.8), (0.8, 0.9)])
def test_nms_never_suppresses_across_the_median(confs):
    # eastbound [100, 116] x [-2, 4] and westbound [92, 108] x [-4, 2] in
    # one frame: IOU 0.2, which would suppress within one direction
    east, west = (100.0, 1.0, 16.0, 6.0, 5.0), (108.0, -1.0, 16.0, 6.0, 5.0)
    assert iou_footprint(east, west) >= tk.PHI_NMS
    dets = [Det(0.0, east, confs[0]), Det(0.0, west, confs[1])]
    boxes, _, n_east, last, f0, cut = tk._frames(dets, ALGORITHMS["kiou"])
    assert boxes.tolist() == [list(east), list(west)]
    assert (n_east, last, f0, cut) == (1, [0, 0], 0, [0, 1, 2, 2, 2])


def test_one_to_one_frames_skip_hungarian(monkeypatch):
    def refuse(*args):
        raise AssertionError("_assign called on a one-to-one frame")

    dets = sorted(vehicle_dets() + vehicle_dets(x0=400.0, y=18.0)
                  + vehicle_dets(y=-6.0), key=lambda d: d.t)
    monkeypatch.setattr(tk, "_assign", refuse)
    for algo in ALGORITHMS:
        assert len(run_tracker(algo, dets)) == 3


# ---------------------------------------------------------------------------
# oracle

def oracle_scene():
    times = np.arange(0.0, 10.0, 0.1)
    x = 100.0 + 90.0 * times
    y = np.full_like(times, 6.0)
    trace = simulator.VehicleTrack("V0000", "EB", "sedan", (16.0, 6.0, 5.0), times, x, y)
    dets = [Det(float(t), (float(xi), 6.0, 16.0, 6.0, 5.0))
            for t, xi in zip(times, x)]
    return trace, dets


def test_oracle_perfect_detections_single_exact_tracklet():
    trace, dets = oracle_scene()
    out = run_oracle(dets, [trace])
    assert len(out) == 1
    xs = np.array([b[0] for b in out[0].boxes])
    want = np.interp(out[0].times, trace.times, trace.x)
    assert np.abs(xs - want).max() < 0.05


def test_oracle_no_nearby_detections_yields_nothing():
    trace, _ = oracle_scene()
    far = [Det(float(t), (5000.0, 6.0, 16.0, 6.0, 5.0))
           for t in trace.times]
    assert run_oracle(far, [trace]) == []


def test_oracle_averages_concurrent_claims():
    trace, dets = oracle_scene()
    # Duplicate every detection offset +2 ft; the claim should average.
    dup = [Det(d.t, (d.box[0] + 2.0,) + d.box[1:], d.conf) for d in dets]
    out = run_oracle(sorted(dets + dup, key=lambda d: d.t), [trace])
    assert len(out) == 1
    xs = np.array([b[0] for b in out[0].boxes])
    want = np.interp(out[0].times, trace.times, trace.x) + 1.0
    assert np.abs(xs - want).max() < 0.05


def test_oracle_splits_on_long_gaps():
    trace, dets = oracle_scene()
    kept = [d for d in dets if not (3.0 <= d.t < 6.0)]
    out = run_oracle(kept, [trace])
    assert len(out) == 2
