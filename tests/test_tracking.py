import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from curvitrack import tracking as tk
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


@dataclass(frozen=True)
class Trace:
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    dims: tuple


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


# ---------------------------------------------------------------------------
# trackers

def test_sort_single_vehicle_single_tracklet():
    dets = vehicle_dets()
    out = run_tracker("sort", dets)
    assert len(out) == 1
    assert out[0].duration == pytest.approx(9.9, abs=1e-9)


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


def test_opposite_directions_never_associate():
    a = vehicle_dets(y=6.0)
    b = vehicle_dets(y=-6.0)
    out = run_tracker("sort", sorted(a + b, key=lambda d: d.t))
    assert len(out) == 2
    signs = sorted(np.sign(tr.boxes[0][1]) for tr in out)
    assert signs == [-1.0, 1.0]


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
    assert out[0].median_dims == pytest.approx((16.0, 6.0, 5.0))


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


def test_determinism():
    dets = vehicle_dets() + vehicle_dets(x0=300.0, y=18.0)
    dets = sorted(dets, key=lambda d: d.t)
    a = run_tracker("kiou", dets)
    b = run_tracker("kiou", dets)
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.times == tb.times and ta.boxes == tb.boxes


# ---------------------------------------------------------------------------
# oracle

def oracle_scene():
    times = np.arange(0.0, 10.0, 0.1)
    x = 100.0 + 90.0 * times
    y = np.full_like(times, 6.0)
    trace = Trace(times, x, y, (16.0, 6.0, 5.0))
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
