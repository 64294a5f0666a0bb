import numpy as np
import pytest

from curvitrack import gps
from curvitrack.errors import DataInvariantViolation, InsufficientAnnotations
from curvitrack.gps import GpsTrace, PoleAnnotation, refine


def make_trace(duration=60.0, v0=90.0, accel=0.0, bias=0.0, offset=0.0,
               vid="v1", y=6.0):
    """Trace whose reported clock leads truth by `offset` seconds."""
    true_t = np.arange(0.0, duration, 0.1)
    x_true = 100.0 + v0 * true_t + 0.5 * accel * true_t ** 2
    return GpsTrace(vid, true_t + offset, x_true + bias,
                    np.full_like(true_t, y)), true_t, x_true


def annotations_from(true_t, x_true, every=50, vid="v1", y=6.0, offset=0.0):
    out = []
    for k, i in enumerate(range(every, len(true_t) - every, every)):
        out.append(PoleAnnotation(vid, float(true_t[i] + offset),
                                  float(x_true[i]), y, k))
    return out


# ---------------------------------------------------------------------------
# invariants

def test_length_mismatch_rejected():
    with pytest.raises(DataInvariantViolation):
        GpsTrace("v", [0.0, 0.1], [1.0, 2.0], [0.0])


def test_non_increasing_times_rejected():
    with pytest.raises(DataInvariantViolation):
        GpsTrace("v", [0.0, 0.1, 0.1], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_off_grid_sample_period_rejected():
    with pytest.raises(DataInvariantViolation):
        GpsTrace("v", [0.0, 0.13], [1.0, 2.0], [0.0, 0.0])


def test_gaps_on_grid_allowed():
    GpsTrace("v", [0.0, 0.1, 0.5, 0.6], [1.0, 2.0, 3.0, 4.0],
             [0.0, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# sawtooth filter

def test_sawtooth_clean_trace_untouched():
    trace, _, _ = make_trace()
    out, dropped = gps.sawtooth_filter(trace)
    assert dropped == 0 and out is trace


def test_sawtooth_drops_multipath_spikes():
    trace, _, _ = make_trace()
    x = trace.x.copy()
    x[100:103] += 400.0  # implies > 150 ft/s jumps
    spiked = GpsTrace("v1", trace.times, x, trace.y)
    out, dropped = gps.sawtooth_filter(spiked)
    assert dropped == 3
    assert np.array_equal(out.x, np.delete(x, [100, 101, 102]))


# ---------------------------------------------------------------------------
# bias

def test_bias_zero_for_exact_trace():
    trace, tt, xt = make_trace()
    out, bias = gps.correct_bias(trace, annotations_from(tt, xt))
    assert bias == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(out.x, trace.x)


def test_bias_recovers_injected_constant():
    trace, tt, xt = make_trace(bias=8.0)
    out, bias = gps.correct_bias(trace, annotations_from(tt, xt))
    assert bias == pytest.approx(8.0, abs=1e-9)
    assert np.allclose(out.x, xt)


def test_bias_requires_annotations():
    trace, tt, xt = make_trace()
    with pytest.raises(InsufficientAnnotations):
        gps.correct_bias(trace, [])
    with pytest.raises(InsufficientAnnotations):
        gps.correct_bias(trace, annotations_from(tt, xt, vid="other"))


# ---------------------------------------------------------------------------
# time offset

def test_offset_zero_for_aligned_trace():
    trace, tt, xt = make_trace(accel=1.5)
    out, offset, degenerate = gps.correct_time_offset(
        trace, annotations_from(tt, xt))
    assert offset == 0.0 and not degenerate
    assert np.array_equal(out.times, trace.times)


def test_offset_recovered_on_accelerating_trace():
    trace, tt, xt = make_trace(accel=1.5, offset=0.7)
    out, offset, degenerate = gps.correct_time_offset(
        trace, annotations_from(tt, xt))
    assert not degenerate
    assert offset == pytest.approx(0.7, abs=0.05)
    assert np.allclose(out.times, trace.times - offset)


def test_offset_degenerate_for_constant_velocity():
    # With zero acceleration a clock shift is indistinguishable from bias.
    trace, tt, xt = make_trace(accel=0.0, offset=0.5)
    out, offset, degenerate = gps.correct_time_offset(
        trace, annotations_from(tt, xt))
    assert degenerate
    assert offset == 0.0
    assert out.times is trace.times


def test_offset_needs_three_annotations():
    trace, tt, xt = make_trace(accel=1.5)
    anns = annotations_from(tt, xt)[:2]
    with pytest.raises(InsufficientAnnotations):
        gps.correct_time_offset(trace, anns)


# ---------------------------------------------------------------------------
# residual x

def test_residual_noop_on_exact_trace():
    trace, tt, xt = make_trace()
    out = gps.correct_residual_x(trace, annotations_from(tt, xt))
    assert np.allclose(out.x, trace.x, atol=1e-9)


def test_residual_cancels_linear_drift_exactly_at_annotations():
    trace, tt, xt = make_trace()
    drift = 0.05 * tt  # slowly growing longitudinal error
    drifted = GpsTrace("v1", trace.times, xt + drift, trace.y)
    out = gps.correct_residual_x(drifted, annotations_from(tt, xt))
    anns = annotations_from(tt, xt)
    for a in anns:
        got = np.interp(a.epoch, out.times, out.x)
        assert got == pytest.approx(a.x, abs=1e-9)


def test_residual_midpoint_interpolates():
    # Residuals 0 and 2 ft at two annotations: midway correction is 1 ft.
    t = np.arange(0.0, 10.0, 0.1)
    x = 100.0 + 90.0 * t
    err = np.interp(t, [2.0, 8.0], [0.0, 2.0])
    trace = GpsTrace("v1", t, x + err, np.zeros_like(t))
    anns = [PoleAnnotation("v1", 2.0, float(np.interp(2.0, t, x)), 0.0, 0),
            PoleAnnotation("v1", 8.0, float(np.interp(8.0, t, x)), 0.0, 1)]
    out = gps.correct_residual_x(trace, anns)
    mid = np.interp(5.0, out.times, out.x)
    assert mid == pytest.approx(np.interp(5.0, t, x), abs=1e-9)


# ---------------------------------------------------------------------------
# lateral

def test_lateral_replaced_by_annotation_interpolation():
    trace, tt, xt = make_trace(y=6.0)
    noisy = GpsTrace("v1", trace.times, trace.x,
                     trace.y + np.sin(tt))  # junk lateral channel
    anns = [PoleAnnotation("v1", 5.0, 550.0, 4.0, 0),
            PoleAnnotation("v1", 55.0, 5050.0, 8.0, 1)]
    out = gps.correct_lateral(noisy, anns)
    assert np.interp(5.0, out.times, out.y) == pytest.approx(4.0)
    assert np.interp(30.0, out.times, out.y) == pytest.approx(6.0, abs=1e-9)


# ---------------------------------------------------------------------------
# full refinement

def test_refine_exact_trace_is_fixpoint():
    trace, tt, xt = make_trace(accel=0.8)
    res = refine(trace, annotations_from(tt, xt))
    assert res.bias_ft == pytest.approx(0.0, abs=1e-9)
    assert res.time_offset_s == 0.0
    assert res.sawtooth_dropped == 0
    assert np.allclose(res.trace.x, trace.x, atol=1e-9)


def test_refine_recovers_bias_and_offset():
    trace, tt, xt = make_trace(accel=0.8, bias=8.0, offset=0.7)
    res = refine(trace, annotations_from(tt, xt))
    assert res.bias_ft == pytest.approx(8.0, abs=0.2)
    assert res.time_offset_s == pytest.approx(0.7, abs=0.05)
    assert not res.degenerate_offset
    # corrected positions line up with truth away from the edges
    inner = (res.trace.times > tt[0] + 5.0) & (res.trace.times < tt[-1] - 5.0)
    want = np.interp(res.trace.times[inner], tt, xt)
    assert np.abs(res.trace.x[inner] - want).max() < 0.5


def test_refine_idempotent():
    trace, tt, xt = make_trace(accel=0.8, bias=8.0, offset=0.3)
    anns = annotations_from(tt, xt)
    first = refine(trace, anns)
    second = refine(first.trace, anns)
    assert abs(second.bias_ft) < 1e-6
    assert abs(second.time_offset_s) < 0.02
    assert np.abs(second.trace.x - first.trace.x).max() < 1e-6


def test_refine_without_annotations_raises():
    trace, tt, xt = make_trace()
    with pytest.raises(InsufficientAnnotations):
        refine(trace, [])
