"""GPS trajectory refinement against surveyed pole-crossing annotations.

Traces carry roadway coordinates (x along the road, y signed lateral).
Refinement removes a constant longitudinal bias, a receiver clock offset,
slowly varying residual longitudinal error, and replaces the noisy lateral
channel with interpolated annotation values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataInvariantViolation, InsufficientAnnotations

MAX_SPEED_FT_S = 150.0      # sawtooth pre-filter threshold
OFFSET_RANGE_S = 2.0
OFFSET_STEP_S = 0.01
DEGENERATE_REL_VAR = 1e-9


SAMPLE_PERIOD_S = 0.1


@dataclass(frozen=True)
class GpsTrace:
    vehicle_id: str
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if not (len(self.times) == len(self.x) == len(self.y)):
            raise DataInvariantViolation(
                f"trace {self.vehicle_id}: channel lengths differ")
        if len(self.times) >= 2:
            d = np.diff(self.times)
            if np.any(d <= 0):
                raise DataInvariantViolation(
                    f"trace {self.vehicle_id}: timestamps not strictly increasing")
            # samples sit on a 0.1 s grid (gaps from dropped samples allowed)
            steps = d / SAMPLE_PERIOD_S
            if np.any(np.abs(steps - np.round(steps)) > 1e-5):
                raise DataInvariantViolation(
                    f"trace {self.vehicle_id}: sample period is not a multiple "
                    f"of {SAMPLE_PERIOD_S} s")


@dataclass(frozen=True)
class PoleAnnotation:
    vehicle_id: str
    epoch: float
    x: float
    y: float
    pole: int


@dataclass
class RefineResult:
    trace: GpsTrace
    bias_ft: float
    time_offset_s: float
    degenerate_offset: bool
    sawtooth_dropped: int


def _ann_arrays(trace: GpsTrace, annotations) -> tuple[np.ndarray, ...]:
    anns = sorted((a for a in annotations if a.vehicle_id == trace.vehicle_id
                   and trace.times[0] <= a.epoch <= trace.times[-1]),
                  key=lambda a: a.epoch)
    if not anns:
        raise InsufficientAnnotations(
            f"no usable annotations for trace {trace.vehicle_id}")
    t = np.array([a.epoch for a in anns])
    x = np.array([a.x for a in anns])
    y = np.array([a.y for a in anns])
    return t, x, y


def sawtooth_filter(trace: GpsTrace) -> tuple[GpsTrace, int]:
    """Drop samples whose implied longitudinal speed from the previous kept
    sample exceeds MAX_SPEED_FT_S (GPS multipath sawtooth artifacts); a nan
    speed counts as exceeding.

    Up to the first sample whose speed from its predecessor exceeds the
    limit, every sample is kept, so the previous kept sample is the
    previous one; the loop over kept samples starts there."""
    over = np.flatnonzero(~(np.abs(np.diff(trace.x)) / np.diff(trace.times) <= MAX_SPEED_FT_S))
    if not over.size:
        return trace, 0
    x, t = trace.x.tolist(), trace.times.tolist()
    keep = list(range(over[0] + 1))
    for i in range(over[0] + 1, len(t)):
        j = keep[-1]
        if abs(x[i] - x[j]) / (t[i] - t[j]) <= MAX_SPEED_FT_S:
            keep.append(i)
    dropped = len(t) - len(keep)
    k = np.asarray(keep)
    return GpsTrace(trace.vehicle_id, trace.times[k],
                    trace.x[k], trace.y[k]), dropped


def correct_bias(trace: GpsTrace, annotations) -> tuple[GpsTrace, float]:
    """Subtract the mean longitudinal offset against annotations."""
    at, ax, _ = _ann_arrays(trace, annotations)
    bias = float(np.mean(np.interp(at, trace.times, trace.x) - ax))
    return replace(trace, x=trace.x - bias), bias


def _offset_grid(trace: GpsTrace, at: np.ndarray, ax: np.ndarray):
    """(shifts, variance of the residuals at annotation epochs per shift)."""
    n = int(round(OFFSET_RANGE_S / OFFSET_STEP_S))
    deltas = np.arange(-n, n + 1) * OFFSET_STEP_S
    return deltas, np.var(np.interp(at + deltas[:, None], trace.times, trace.x) - ax, axis=1)


def correct_time_offset(trace: GpsTrace, annotations) -> tuple[GpsTrace, float, bool]:
    """Estimate the receiver clock offset by grid search.

    Tries shifting the trace clock and keeps the shift minimizing the
    variance of longitudinal residuals at annotation epochs.  Returns
    (corrected trace, offset, degenerate).  The offset is the amount the
    raw timestamps lead truth; corrected times = times - offset.  At least
    three annotations are required (two leave the variance unconstrained).
    A near-constant variance profile (constant-velocity trace) is flagged
    degenerate and left unshifted.

    The whole grid is one array program: the trace is read at every
    annotation epoch under every shift in one `np.interp` call, so memory is
    O(shifts x annotations), never O(shifts x samples).  Reading the
    unshifted trace at `epoch + shift` rounds differently from reading the
    shifted trace at `epoch`, so variances may differ from a per-shift loop
    in the last bits.
    """
    at, ax, _ = _ann_arrays(trace, annotations)
    if len(at) < 3:
        raise InsufficientAnnotations(
            f"trace {trace.vehicle_id}: need >= 3 annotations, got {len(at)}")
    deltas, variances = _offset_grid(trace, at, ax)
    spread = variances.max() - variances.min()
    if spread <= DEGENERATE_REL_VAR * max(1.0, float(variances.max())):
        return trace, 0.0, True
    # tie-break toward zero shift
    order = np.lexsort((np.abs(deltas), variances))
    best = float(deltas[order[0]])
    return replace(trace, times=trace.times - best), best, False


def correct_residual_x(trace: GpsTrace, annotations) -> GpsTrace:
    """Remove the piecewise-linear longitudinal residual through annotation
    epochs (constant extrapolation beyond the first/last annotation)."""
    at, ax, _ = _ann_arrays(trace, annotations)
    offsets = np.interp(at, trace.times, trace.x) - ax
    correction = np.interp(trace.times, at, offsets)
    return replace(trace, x=trace.x - correction)


def correct_lateral(trace: GpsTrace, annotations) -> GpsTrace:
    """Replace the lateral channel by interpolated annotation positions."""
    at, _, ay = _ann_arrays(trace, annotations)
    return replace(trace, y=np.interp(trace.times, at, ay))


def refine(trace: GpsTrace, annotations) -> RefineResult:
    """Full refinement: sawtooth filter, bias, clock offset, residual
    longitudinal correction, lateral replacement — applied once, in order.

    The reported bias is the total constant longitudinal offset measured
    after clock alignment, so it is comparable to the physical sensor bias
    even when the raw bias estimate absorbs part of the clock error.
    """
    trace, dropped = sawtooth_filter(trace)
    trace, bias0 = correct_bias(trace, annotations)
    trace, offset, degenerate = correct_time_offset(trace, annotations)
    at, ax, _ = _ann_arrays(trace, annotations)
    residual_mean = float(np.mean(np.interp(at, trace.times, trace.x) - ax))
    trace = correct_residual_x(trace, annotations)
    trace = correct_lateral(trace, annotations)
    return RefineResult(trace, bias0 + residual_mean, offset, degenerate, dropped)
