import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from curvitrack import moteval as me
from curvitrack import tracking as tk
from curvitrack.moteval import (HOTA_ALPHAS, TrajectorySeries, det_a_star,
                                evaluate, lcss, match_frame, resample,
                                series_from_tracklet)
from curvitrack.simulator import DetectionConfig, SceneConfig, simulate
from curvitrack.tracking import (Tracklet, hungarian_match, iou_matrix,
                                 run_oracle, run_tracker)


def series(sid, t0, t1, v=100.0, x0=0.0, y=6.0, dims=(16.0, 6.0, 5.0),
           step=0.1):
    t = np.round(np.arange(t0, t1 + 1e-9, step), 10)
    boxes = np.column_stack([x0 + v * (t - t0), np.full_like(t, y),
                             np.full_like(t, dims[0]), np.full_like(t, dims[1]),
                             np.full_like(t, dims[2])])
    return TrajectorySeries(sid, t, boxes)


# ---------------------------------------------------------------------------
# resample

def test_resample_exact_on_grid():
    s = series("a", 0.0, 5.0)
    out = resample(s, s.times)
    assert np.allclose(out, s.boxes)


def test_resample_interpolates_midpoints():
    s = series("a", 0.0, 5.0, v=100.0)
    out = resample(s, np.array([1.05]))
    assert out[0, 0] == pytest.approx(105.0)


def test_resample_no_extrapolation():
    s = series("a", 1.0, 5.0)
    out = resample(s, np.array([0.0, 3.0, 6.0]))
    assert np.isnan(out[0]).all()
    assert np.isnan(out[2]).all()
    assert not np.isnan(out[1]).any()


# ---------------------------------------------------------------------------
# frame matching

def matched_pairs(gt, tr, min_iou):
    rows, cols, iou, matched = match_frame(gt, tr, [min_iou])
    m = matched[0]
    return sorted(zip(rows[m].tolist(), cols[m].tolist(), iou[m].tolist()))


def test_match_frame_identity():
    boxes = np.array([[0.0, 6.0, 16.0, 6.0, 5.0], [100.0, 6.0, 16.0, 6.0, 5.0]])
    pairs = matched_pairs(boxes, boxes, 0.1)
    assert [(g, t) for g, t, _ in pairs] == [(0, 0), (1, 1)]
    assert all(iou == pytest.approx(1.0) for _, _, iou in pairs)


def test_match_frame_below_threshold_unmatched():
    a = np.array([[0.0, 6.0, 16.0, 6.0, 5.0]])
    b = np.array([[15.0, 6.0, 16.0, 6.0, 5.0]])  # IOU = 1/31 ~ 0.032
    assert matched_pairs(a, b, 0.1) == []


def test_match_frame_resolves_crossing_greedily_optimal():
    # One-to-one assignment maximizing total IOU, not nearest-first.
    gt = np.array([[0.0, 6.0, 16.0, 6.0, 5.0], [10.0, 6.0, 16.0, 6.0, 5.0]])
    tr = np.array([[2.0, 6.0, 16.0, 6.0, 5.0], [9.0, 6.0, 16.0, 6.0, 5.0]])
    pairs = matched_pairs(gt, tr, 0.1)
    assert [(g, t) for g, t, _ in pairs] == [(0, 0), (1, 1)]


def test_match_frame_thresholds_each_alpha():
    # A lone pair is matched at every alpha it clears; a shared column is
    # resolved by Hungarian separately at each alpha.
    gt = np.array([[0.0, 6.0, 16.0, 6.0, 5.0], [10.0, 6.0, 16.0, 6.0, 5.0],
                   [500.0, 6.0, 16.0, 6.0, 5.0]])
    tr = np.array([[4.0, 6.0, 16.0, 6.0, 5.0], [508.0, 6.0, 16.0, 6.0, 5.0]])
    rows, cols, iou, matched = match_frame(gt, tr, [0.1, 0.5, 0.9])
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (1, 0), (2, 1)]
    assert iou == pytest.approx([12 / 20, 10 / 22, 8 / 24])
    assert matched.tolist() == [[True, False, True],
                                [True, False, False],
                                [False, False, False]]


def test_match_frame_alpha_order_only_permutes_rows():
    # Thresholds are walked in ascending order whatever order the caller
    # gives; the rows of `matched` stay in the caller's order.
    rng = np.random.default_rng(11)
    alphas = np.asarray(HOTA_ALPHAS)
    shared = 0
    for _ in range(20):
        gt = np.column_stack([rng.uniform(0.0, 60.0, 8), rng.choice([6.0, 18.0], 8),
                              np.full(8, 16.0), np.full(8, 6.0), np.full(8, 5.0)])
        tr = gt[rng.permutation(8)[:6]] + np.column_stack(
            [rng.normal(0.0, 4.0, 6), np.zeros((6, 4))])
        rows, cols, iou, matched = match_frame(gt, tr, alphas)
        shared += len(rows) > len(set(rows.tolist())) or len(cols) > len(set(cols.tolist()))
        for order in (alphas.argsort()[::-1], rng.permutation(len(alphas))):
            r, c, v, m = match_frame(gt, tr, alphas[order])
            assert np.array_equal(r, rows) and np.array_equal(c, cols)
            assert np.array_equal(v, iou)
            assert np.array_equal(m, matched[order])
    assert shared >= 10    # most frames reach Hungarian


def _sample_set(draws):
    """_Samples of (series, frame, x, y) draws: one sample per series and
    frame, ordered by series, then frame, as _samples orders them."""
    rows = sorted({(o, f): (x, y) for o, f, x, y in draws}.items())
    boxes = np.array([(x, y, 16.0, 6.0, 5.0) for _, (x, y) in rows]).reshape(-1, 5)
    return me._Samples(np.array([o for (o, _), _ in rows], dtype=int),
                       np.array([f for (_, f), _ in rows], dtype=int), boxes)


# few series, frames and places, so frames share samples and boxes overlap
_DRAWS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                            st.sampled_from([0.0, 4.0, 10.0, 30.0]),
                            st.sampled_from([-3.0, 3.0])), max_size=14)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_DRAWS, _DRAWS)
@example([], [(0, 0, 0.0, 3.0)])
@example([(0, 2, 0.0, 3.0), (1, 1, 0.0, 3.0), (1, 2, 4.0, 3.0)],
         [(0, 1, 0.0, 3.0), (0, 2, 0.0, 3.0), (1, 2, 10.0, 3.0)])
def test_match_frames_pairs_equal_a_per_frame_join(gt_draws, tr_draws):
    gt, tr = _sample_set(gt_draws), _sample_set(tr_draws)
    rows, cols, iou, matched = me._match_frames(gt, tr, HOTA_ALPHAS)
    rect = tk.footprint_rect
    want = [(g, t, float(tk._rect_iou(rect(gt.boxes[g]), rect(tr.boxes[t]))[0]))
            for f in sorted(set(gt.frame.tolist()))
            for g in np.flatnonzero(gt.frame == f).tolist()
            for t in np.flatnonzero(tr.frame == f).tolist()]
    want = [w for w in want if w[2] >= min(HOTA_ALPHAS)]
    assert list(zip(rows.tolist(), cols.tolist(), iou.tolist())) == want
    assert matched.shape == (len(HOTA_ALPHAS), len(want))


# ---------------------------------------------------------------------------
# helpers

def test_det_a_star():
    assert det_a_star(0, 0) == 0.0
    assert det_a_star(3, 4) == 0.75
    assert det_a_star(4, 4) == 1.0


def test_lcss_full_sequence():
    t, d = lcss(["a"] * 11, np.linspace(0.0, 100.0, 11), 0.1)
    assert t == pytest.approx(1.0)
    assert d == pytest.approx(100.0)


def test_lcss_switch_takes_longest_run():
    seq = ["a"] * 4 + ["b"] * 7
    gt_x = np.arange(11) * 10.0
    t, d = lcss(seq, gt_x, 0.1)
    assert t == pytest.approx(0.6)
    assert d == pytest.approx(60.0)


def test_lcss_gap_breaks_run():
    seq = ["a", "a", None, "a", "a", "a"]
    t, d = lcss(seq, np.arange(6) * 10.0, 0.1)
    assert t == pytest.approx(0.2)
    assert d == pytest.approx(20.0)


def test_lcss_brute_force_toy():
    def brute(seq, gt_x, step):
        best = (0.0, 0.0)
        for i in range(len(seq)):
            for j in range(i, len(seq)):
                window = seq[i:j + 1]
                if None in window or len(set(window)) != 1:
                    continue
                cand = ((j - i) * step, abs(gt_x[j] - gt_x[i]))
                if cand[0] > best[0]:
                    best = cand
        return best

    rng = np.random.default_rng(11)
    for _ in range(50):
        seq = [rng.choice(["a", "b", None]) for _ in range(12)]
        seq = [None if s is None else str(s) for s in seq]
        gt_x = np.sort(rng.uniform(0, 100, 12))
        assert lcss(seq, gt_x, 0.1) == pytest.approx(brute(seq, gt_x, 0.1))


def test_lcss_empty():
    assert lcss([None, None], np.array([0.0, 1.0]), 0.1) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# evaluate

def test_perfect_tracking_scores_one():
    gt = [series("g1", 0.0, 10.0), series("g2", 0.0, 10.0, y=18.0, x0=200.0)]
    tr = [series("t1", 0.0, 10.0), series("t2", 0.0, 10.0, y=18.0, x0=200.0)]
    rep = evaluate(gt, tr)
    assert rep.hota == pytest.approx(1.0)
    assert rep.det_a == pytest.approx(1.0)
    assert rep.ass_a == pytest.approx(1.0)
    assert rep.recall == pytest.approx(1.0)
    assert rep.ids_per_gt == 1.0
    assert rep.lcss_t == pytest.approx(10.0)
    assert rep.lcss_d == pytest.approx(1000.0)
    assert rep.motp_i == pytest.approx(1.0)
    assert rep.motp_e == pytest.approx(0.0)
    assert rep.td == pytest.approx(10.0)


def test_split_coverage_association_is_half():
    # One GT over [0, 9.9] (100 instants); two exact tracklets covering the
    # halves. TPA = 50 for each pair, FNA = 50, FPA = 0, so A(c) = 0.5 at
    # every instant and for every alpha: HOTA = sqrt(0.5).
    gt = [series("g", 0.0, 9.9)]
    tr = [series("t1", 0.0, 4.9), series("t2", 5.0, 9.9, x0=500.0)]
    rep = evaluate(gt, tr)
    assert rep.det_a == pytest.approx(1.0)
    assert rep.ass_a == pytest.approx(0.5)
    assert rep.hota == pytest.approx(np.sqrt(0.5))
    assert rep.ids_per_gt == 2.0
    assert rep.lcss_t == pytest.approx(4.9)


def test_missing_second_half_detection_accuracy():
    gt = [series("g", 0.0, 9.9)]
    tr = [series("t", 0.0, 4.9)]
    rep = evaluate(gt, tr)
    assert rep.det_a == pytest.approx(0.5)
    assert rep.recall == pytest.approx(0.5)


def test_recall_equals_det_a_for_pooled_single_threshold():
    # DetA has no FP term here, so with matching at the working threshold
    # only, recall equals DetA* computed at alpha = 0.1.
    gt = [series("g1", 0.0, 9.9), series("g2", 0.0, 4.9, y=18.0)]
    tr = [series("t1", 0.0, 7.4), series("t2", 0.0, 4.9, y=18.0)]
    rep = evaluate(gt, tr)
    matched = sum(s.matched for s in rep.per_trajectory)
    total = sum(s.instants for s in rep.per_trajectory)
    assert rep.recall == pytest.approx(det_a_star(matched, total))


def test_motp_e_exact_offset():
    gt = [series("g", 0.0, 9.9)]
    tr = [series("t", 0.0, 9.9, x0=2.0)]
    rep = evaluate(gt, tr)
    assert rep.motp_e == pytest.approx(2.0)
    assert rep.motp_i < 1.0


def test_unmatched_gt_excluded_from_motp_and_lcss():
    gt = [series("g1", 0.0, 9.9), series("far", 0.0, 9.9, x0=9000.0)]
    tr = [series("t1", 0.0, 9.9)]
    rep = evaluate(gt, tr)
    assert rep.motp_e == pytest.approx(0.0)   # only the matched gt counts
    assert rep.lcss_t == pytest.approx(9.9)   # 100 instants -> 99 steps
    assert rep.recall == pytest.approx(0.5)   # pooled over both


def test_td_mean_tracklet_duration():
    tr = [series("t1", 0.0, 4.0), series("t2", 0.0, 6.0, y=18.0)]
    rep = evaluate([series("g", 0.0, 9.9)], tr)
    assert rep.td == pytest.approx(5.0)


def test_x_clip_excludes_out_of_range_gt():
    gt = [series("g", 0.0, 9.9, x0=22999.0, v=100.0)]  # leaves range quickly
    tr = [series("t", 0.0, 9.9, x0=22999.0, v=100.0)]
    rep = evaluate(gt, tr)
    # only instants with x <= 23000 count as gt-present
    present = sum(s.instants for s in rep.per_trajectory)
    assert present < 100
    assert rep.det_a == pytest.approx(1.0)


def test_track_id_relabeling_invariance():
    gt = [series("g", 0.0, 9.9)]
    tr_a = [series("alpha", 0.0, 4.9), series("beta", 5.0, 9.9, x0=500.0)]
    tr_b = [series("x9", 0.0, 4.9), series("xK", 5.0, 9.9, x0=500.0)]
    ra, rb = evaluate(gt, tr_a), evaluate(gt, tr_b)
    assert ra.row() == rb.row()


def test_duplicated_track_hurts_association():
    gt = [series("g", 0.0, 9.9)]
    clean = evaluate(gt, [series("t", 0.0, 9.9)])
    dup = evaluate(gt, [series("t", 0.0, 9.9), series("t2", 0.0, 9.9)])
    assert dup.hota <= clean.hota
    assert dup.det_a == pytest.approx(clean.det_a)  # no FP term in DetA


def test_series_from_tracklet_uses_median_dims():
    boxes = np.array([(10.0 * i, 6.0, 16.0 + i, 6.0, 5.0) for i in range(5)])
    tk = Tracklet(3, np.arange(5) * 0.1, boxes, np.array([18.0, 6.0, 5.0]))
    s = series_from_tracklet(tk)
    assert s.id == "3"
    assert np.array_equal(s.times, tk.times)
    assert np.array_equal(s.boxes[:, :2], boxes[:, :2])
    assert (s.boxes[:, 2:5] == [18.0, 6.0, 5.0]).all()
    assert tk.boxes[:, 2].tolist() == [16.0, 17.0, 18.0, 19.0, 20.0]   # a copy is scored


def test_alpha_grid_is_nineteen_thresholds():
    assert len(HOTA_ALPHAS) == 19
    assert HOTA_ALPHAS[0] == pytest.approx(0.05)
    assert HOTA_ALPHAS[-1] == pytest.approx(0.95)


def test_empty_tracks():
    rep = evaluate([series("g", 0.0, 9.9)], [])
    assert rep.hota == 0.0 and rep.recall == 0.0
    assert rep.n_tracklets == 0


def test_series_without_samples_is_refused():
    """An empty ground-truth series or tracklet is refused by name, not met
    with an IndexError inside evaluate."""
    with pytest.raises(ValueError, match="'g-empty' has no samples"):
        evaluate([series("g", 0.0, 9.9), TrajectorySeries("g-empty", [], [])], [])
    with pytest.raises(ValueError, match="'7' has no samples"):
        evaluate([series("g", 0.0, 9.9)],
                 [Tracklet(7, np.zeros(0), np.zeros((0, 5)), np.array([16.0, 6.0, 5.0]))])


# ---------------------------------------------------------------------------
# equivalence with the per-frame, per-alpha Hungarian evaluation

def reference_evaluate(gt_series, track_series):
    """The dense evaluation `evaluate` replaced, kept as its oracle: every
    series resampled onto the whole (G, F, 5) grid, and one Hungarian pass
    per frame and alpha on the full frame."""
    step = me.STEP_S
    tracks = [s if isinstance(s, TrajectorySeries)
              else series_from_tracklet(s) for s in track_series]
    td = (float(np.mean([s.times[-1] - s.times[0] for s in tracks]))
          if tracks else 0.0)
    if not gt_series:
        return me.EvalReport(0, 0, 0, 0, 0, 0, 0, 0, 0, td, 0, len(tracks))

    t_lo = min(s.times[0] for s in gt_series)
    t_hi = max(s.times[-1] for s in gt_series)
    k0, k1 = int(np.ceil(t_lo / step - 1e-9)), int(np.floor(t_hi / step + 1e-9))
    grid = np.arange(k0, k1 + 1) * step
    nf = len(grid)
    gt_s = np.stack([resample(s, grid) for s in gt_series])
    tr_s = (np.stack([resample(s, grid) for s in tracks])
            if tracks else np.zeros((0, nf, 5)))
    lo, hi = me.X_CLIP_FT
    gt_present = (~np.isnan(gt_s[:, :, 0])) & (gt_s[:, :, 0] >= lo) & (gt_s[:, :, 0] <= hi)
    tr_present = ~np.isnan(tr_s[:, :, 0]) if tracks else np.zeros((0, nf), bool)

    n_gt, n_tr = len(gt_series), len(tracks)
    frame_ious = []
    for f in range(nf):
        gi = np.flatnonzero(gt_present[:, f])
        ti = np.flatnonzero(tr_present[:, f])
        if len(gi) and len(ti):
            frame_ious.append((gi, ti, iou_matrix(gt_s[gi, f], tr_s[ti, f])))
        else:
            frame_ious.append((gi, ti, None))

    def match_all(alpha):
        out = []
        for f, (gi, ti, iou) in enumerate(frame_ious):
            if iou is None:
                continue
            cost = np.where(iou >= alpha, 1.0 - iou, np.inf)
            for r, c in hungarian_match(cost, 1.0 - alpha):
                out.append((f, int(gi[r]), int(ti[c]), float(iou[r, c])))
        return out

    def lcss_loop(seq, gt_x):
        best_len, best_span = 0, (0, 0)
        run_len, run_start = 0, 0
        prev = None
        for i, tid in enumerate(seq):
            if tid is not None and tid == prev:
                run_len += 1
            elif tid is not None:
                run_len, run_start = 1, i
            else:
                run_len = 0
            prev = tid
            if run_len > best_len:
                best_len = run_len
                best_span = (run_start, i)
        if best_len == 0:
            return 0.0, 0.0
        i0, i1 = best_span
        return (i1 - i0) * step, float(abs(gt_x[i1] - gt_x[i0]))

    total_gt = int(gt_present.sum())
    hotas, detas, assas = [], [], []
    matches_at_working = None
    for alpha in HOTA_ALPHAS:
        matches = match_all(alpha)
        tp = len(matches)
        deta = tp / total_gt if total_gt else 0.0
        if abs(alpha - me.MATCH_IOU) < 1e-9:
            matches_at_working = matches
        if tp == 0:
            detas.append(deta)
            assas.append(0.0)
            hotas.append(0.0)
            continue
        tpa = np.zeros((n_gt, n_tr))
        pr_matched = np.zeros(n_tr)
        for _, g, t, _ in matches:
            tpa[g, t] += 1
            pr_matched[t] += 1
        gt_count = gt_present.sum(axis=1).astype(float)
        acc = 0.0
        for _, g, t, _ in matches:
            fna = gt_count[g] - tpa[g, t]
            fpa = pr_matched[t] - tpa[g, t]
            acc += tpa[g, t] / (tpa[g, t] + fna + fpa)
        assa = acc / tp
        detas.append(deta)
        assas.append(assa)
        hotas.append(float(np.sqrt(deta * assa)))
    if matches_at_working is None:
        matches_at_working = match_all(me.MATCH_IOU)

    per_frame_id = [[None] * nf for _ in range(n_gt)]
    ious_by_gt = [[] for _ in range(n_gt)]
    dists_by_gt = [[] for _ in range(n_gt)]
    for f, g, t, iou in matches_at_working:
        per_frame_id[g][f] = tracks[t].id
        ious_by_gt[g].append(iou)
        dists_by_gt[g].append(float(np.linalg.norm(gt_s[g, f, :2] - tr_s[t, f, :2])))

    scores = []
    for g, s in enumerate(gt_series):
        frames = np.flatnonzero(gt_present[g])
        seq = [per_frame_id[g][f] for f in frames]
        lcss_t, lcss_d = lcss_loop(seq, gt_s[g, frames, 0])
        scores.append(me.TrajectoryScore(
            s.id, len(frames), sum(1 for x in seq if x is not None),
            len({x for x in seq if x is not None}), lcss_t, lcss_d,
            float(np.mean(ious_by_gt[g])) if ious_by_gt[g] else None,
            float(np.mean(dists_by_gt[g])) if dists_by_gt[g] else None))

    with_match = [s for s in scores if s.matched > 0]

    def mean_of(attr):
        return float(np.mean([getattr(s, attr) for s in with_match])) if with_match else 0.0

    return me.EvalReport(
        hota=float(np.mean(hotas)), det_a=float(np.mean(detas)),
        ass_a=float(np.mean(assas)),
        recall=(sum(s.matched for s in scores) / total_gt) if total_gt else 0.0,
        ids_per_gt=float(np.mean([s.ids for s in scores])),
        lcss_t=mean_of("lcss_t"), lcss_d=mean_of("lcss_d"),
        motp_i=mean_of("motp_i"), motp_e=mean_of("motp_e"),
        td=td, n_gt=n_gt, n_tracklets=n_tr, per_trajectory=scores)


def random_scene(seed, n_gt=10, duration=30.0, exact_duplicates=False):
    """Ground truth in three lanes at mixed speeds (so boxes cross and one
    gt can overlap two tracks), tracked by noisy, fragmented, off-grid
    tracks, some duplicated and some spurious.  A duplicate gets its own
    jitter and length unless `exact_duplicates`; an exact copy ties its
    original's IOU with every gt."""
    g = np.random.default_rng(seed)
    gts, trs = [], []
    for i in range(n_gt):
        t0 = round(float(g.uniform(0.0, duration / 2)), 1)
        t1 = round(t0 + float(g.uniform(3.0, duration / 2)), 1)
        y = float(g.choice([6.0, 18.0, -6.0]))
        v = float(g.uniform(40.0, 110.0)) * (1.0 if y > 0 else -1.0)
        gt = series(f"g{i}", t0, t1, v=v, x0=float(g.uniform(0.0, 300.0)), y=y,
                    dims=(float(g.uniform(14.0, 20.0)), 6.0, 5.0))
        gts.append(gt)
        cuts = np.sort(g.uniform(t0, t1, int(g.integers(0, 3))))
        edges = np.concatenate([[t0], cuts, [t1]])
        for k in range(len(edges) - 1):
            a = edges[k] + float(g.uniform(0.0, 0.5))
            times = np.arange(a, edges[k + 1], 0.1) + float(g.uniform(-0.04, 0.04))
            if len(times) < 2:
                continue
            boxes = resample(gt, np.clip(times, t0, t1))
            boxes[:, 0] += g.normal(0.0, 2.0, len(times))
            boxes[:, 1] += g.normal(0.0, 0.4, len(times))
            boxes[:, 2] += float(g.normal(0.0, 1.0))
            trs.append(TrajectorySeries(f"t{len(trs)}", times, boxes))
            if g.uniform() < 0.3:
                dup = boxes.copy()
                if not exact_duplicates:
                    dup[:, 0] += g.normal(0.0, 1.0, len(times))
                    dup[:, 2] += float(g.normal(0.0, 1.0))
                trs.append(TrajectorySeries(f"t{len(trs)}", times, dup))
    for _ in range(int(g.integers(0, 4))):
        a = float(g.uniform(0.0, duration - 2.0))
        times = np.arange(a, a + 2.0, 0.1)
        trs.append(TrajectorySeries(f"t{len(trs)}", times, np.column_stack(
            [g.uniform(0.0, 2000.0) + 80.0 * (times - a), np.full_like(times, 6.0),
             np.full_like(times, 16.0), np.full_like(times, 6.0),
             np.full_like(times, 5.0)])))
    return gts, trs


def same_report(gts, trs):
    got = json.dumps(evaluate(gts, trs).to_dict())
    want = json.dumps(reference_evaluate(gts, trs).to_dict())
    return got == want


@pytest.fixture
def lsap_calls(monkeypatch):
    """The submatrix of every tracking._lsap call, the solver under
    moteval's one _assign per alpha."""
    calls = []
    real = tk._lsap
    monkeypatch.setattr(tk, "_lsap", lambda sub: calls.append(sub) or real(sub))
    return calls


def test_evaluate_matches_reference_on_random_scenes(lsap_calls):
    solved = 0      # evaluate's own calls; the reference's go through _lsap too
    for seed in range(12):
        gts, trs = random_scene(seed)
        evaluate(gts, trs)
        solved += len(lsap_calls)
        lsap_calls.clear()
        assert same_report(gts, trs), seed
    assert solved      # the scenes do have shared rows or columns


def test_exact_ties_change_only_which_track_is_matched():
    # Among equally good matchings the reference's choice comes from the
    # layout of the whole frame, the component's from its own submatrix.
    # Either way every gt gets the same number of matches at the same IOU.
    for seed in range(4):
        gts, trs = random_scene(seed, exact_duplicates=True)
        got, want = evaluate(gts, trs), reference_evaluate(gts, trs)
        assert (got.det_a, got.recall, got.motp_i) == (want.det_a, want.recall, want.motp_i)
        assert ([(s.matched, s.motp_i) for s in got.per_trajectory]
                == [(s.matched, s.motp_i) for s in want.per_trajectory])


def test_evaluate_matches_reference_on_simulated_trackers():
    res = simulate(SceneConfig(extent_ft=1500.0, vehicle_count=15, duration_s=60.0,
                               seed=5, detection=DetectionConfig(miss_rate=0.2,
                                                                 noise_ft=1.0)))
    gts = [TrajectorySeries(t.vehicle_id, t.times, np.column_stack(
        [t.x, t.y, np.full_like(t.x, t.dims[0]), np.full_like(t.x, t.dims[1]),
         np.full_like(t.x, t.dims[2])])) for t in res.ground_truth.trajectories]
    runs = {algo: run_tracker(algo, res.detections)
            for algo in ("sort", "iout", "kiou", "byte-l2", "byte-iou")}
    runs["oracle"] = run_oracle(res.detections, res.ground_truth.trajectories)
    for algo, tracklets in runs.items():
        assert same_report(gts, tracklets), algo


# ---------------------------------------------------------------------------
# matching mechanism and rule

def test_one_to_one_frames_skip_hungarian(lsap_calls):
    gt = [series("g1", 0.0, 9.9), series("g2", 0.0, 9.9, x0=200.0)]
    evaluate(gt, [series("t1", 0.0, 9.9, x0=3.0), series("t2", 0.0, 9.9, x0=198.0)])
    assert lsap_calls == []
    # one gt overlapping two tracks (IOU 0.68 and 0.52) in all 100 frames:
    # one pass per frame at each of the ten alphas up to 0.50
    evaluate(gt[:1], [series("t1", 0.0, 9.9, x0=3.0), series("t2", 0.0, 9.9, x0=-5.0)])
    assert len(lsap_calls) == 100 * 10
    assert all((len(sub), len(sub[0])) == (1, 2) for sub in lsap_calls)


def test_matching_rule_is_hungarian_per_alpha():
    # One frame.  gt A overlaps track 1 (IOU 0.905) and track 2 (0.176);
    # gt B overlaps track 1 only (0.212).  Hungarian per alpha matches A-2
    # and B-1 at alpha 0.05 (most matches first) and A-1 at 0.5.  Luiten et
    # al. match once per frame, maximising alignment score x IOU (A-1 here),
    # then threshold that one matching: one TP at both alphas.
    box = lambda x, l=10.0: np.array([[x, 6.0, l, 6.0, 5.0]])
    gt, tr = [box(0.0), box(7.0)], [box(0.5), box(-7.0)]
    sim = iou_matrix(np.vstack(gt), np.vstack(tr))
    assert sim.round(3).tolist() == [[0.905, 0.176], [0.212, 0.0]]

    # HOTA paper rule on this one frame (TrackEval's global alignment score)
    overlap = sim / (sim.sum(0)[None, :] + sim.sum(1)[:, None] - sim)
    rows, cols = linear_sum_assignment(-(overlap / (2.0 - overlap)) * sim)
    paper_tp = [int((sim[rows, cols] >= a).sum()) for a in (0.05, 0.5)]
    assert paper_tp == [1, 1]

    matched = match_frame(np.vstack(gt), np.vstack(tr), [0.05, 0.5])[3]
    assert matched.sum(1).tolist() == [2, 1]

    # Over the 19 alphas: 2 TPs up to 0.15, A-1 alone from 0.20 to 0.90 and
    # none at 0.95.
    one = lambda sid, b: TrajectorySeries(sid, [0.0], b)
    rep = evaluate([one("A", gt[0]), one("B", gt[1])],
                   [one("1", tr[0]), one("2", tr[1])])
    assert rep.det_a == (3 * 2 / 2 + 15 * 1 / 2) / 19
