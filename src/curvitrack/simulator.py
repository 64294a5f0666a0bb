"""Synthetic roadway scene generator.

Produces a road (straight or circular arc), camera poles with per-camera
reference homographies and correspondence points, drifting true
homographies (pole tilt modeled as a slow state-plane translation),
vehicles with noisy detections, biased GPS traces, per-pole annotations,
and rediscovery snapshots.  Everything is a pure function of the config
and seed.  All draws come from one generator, so their order is part of
the output: a change that draws the same values in another order, or in
bulk, changes every scene.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import geometry, roadway
from .errors import ConfigInvalid
from .geometry import CorrespondencePoint, Homography, ImagePoint, PointSet, StatePlanePoint
from .gps import SAMPLE_PERIOD_S, GpsTrace, PoleAnnotation
from .drift import RediscoverySnapshot
from .io_formats import MAX_DURATION_S, _int64
from .roadway import MIN_SPAN_FT, line_span
from .tracking import Detections, time_grid

VEHICLE_CLASSES = {
    "sedan": (15.0, 6.0, 5.0),
    "midsize": (17.0, 6.5, 6.0),
    "van": (19.0, 7.0, 7.5),
    "pickup": (19.0, 7.0, 6.5),
    "semi": (60.0, 8.5, 13.0),
    "truck": (30.0, 8.0, 11.0),
}
STATE_OFFSET = (5000.0, 2000.0)   # state-plane origin of the road, feet
YELLOW_OFFSET_FT = 24.0
LANES_PER_DIRECTION = 4
LANE_WIDTH_FT = 12.0
SIFT_BIAS_FT = 2.0      # non-ground-plane bias of the matcher baseline
SIFT_NOISE_FT = 0.2
ROAD_PAD_FT = 200.0     # road beyond each end of the extent, so it sits inside the spline
ARC_MAX_TURN_RAD = 0.9 * math.pi   # the padded arc stays short of a half circle
MAX_CAMERAS = 1000      # poles x 2 x (cameras_per_pole // 2); the paper has 234
# Work caps: every vehicle gets a 10 Hz grid over the whole scene, every
# camera a snapshot per interval, the cameras' snapshots of one interval hold
# lane points in proportion to extent_ft, the road is resampled at 0.1 ft,
# and detections sample at rate_hz.
MAX_VEHICLES = 10_000           # the paper has 500+ vehicles in view at once
MAX_VEHICLE_S = 2_000_000       # vehicle_count x duration_s
MAX_SNAPSHOTS = 100_000         # cameras x duration_s / snapshot_interval_s
MAX_DETECTION_RATE_HZ = 30


def _setting(default, within=None):
    """A scene-config field.  Its kind is its default's type, and `within`
    its range: an interval such as "(0, 30]" for a number, or a tuple of the
    strings a string field takes.  SceneConfig.validate checks both."""
    return field(default=default, metadata={"range": within})


def _number(v) -> bool:
    """A real number (not a bool) that converts to a finite float."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:   # an int beyond the float range
        return False


# a setting's kind by its default's type: its test and what a refusal asks for
_KINDS = {
    float: (_number, "a finite number"),
    int: (_int64, "an integer"),
    type(None): (lambda v: v is None or _int64(v), "an integer or null"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _check_settings(config, prefix: str = "") -> None:
    """Refuse a setting of `config`, or of a section within it, whose value
    is not of its default's kind or lies outside its declared range, naming
    the dotted setting and the value."""
    for f in fields(config):
        name, v, rng = prefix + f.name, getattr(config, f.name), f.metadata.get("range")
        if f.default is MISSING:   # a section
            ok, want = isinstance(v, f.default_factory), f"a {f.default_factory.__name__}"
        elif isinstance(rng, tuple):
            ok, want = v in rng, " or ".join(f'"{c}"' for c in rng)
        else:
            test, want = _KINDS[type(f.default)]
            ok = test(v)
            if rng:
                lo, hi = map(float, rng[1:-1].split(","))
                ok = ok and (lo < v if rng[0] == "(" else lo <= v) and (
                    v < hi if rng[-1] == ")" else v <= hi)
                want = f"{want} in {rng}"
        if not ok:
            raise ConfigInvalid(f"{name} must be {want}, got {v!r}")
        if f.default is MISSING:
            _check_settings(v, name + ".")


@dataclass(frozen=True)
class RoadConfig:
    kind: str = _setting("straight", ("straight", "arc"))
    radius_ft: float = _setting(5000.0, "(0, inf)")   # arc roads only


@dataclass(frozen=True)
class DriftConfig:
    amplitude_ft: float = 5.0
    period_s: float = _setting(2400.0, "(0, inf)")
    bias_ft: float = 3.0
    noise_ft: float = _setting(0.1, "[0, inf)")   # per-point rediscovery noise (world feet)


@dataclass(frozen=True)
class DetectionConfig:
    miss_rate: float = _setting(0.1, "[0, 1]")
    noise_ft: float = _setting(0.5, "[0, inf)")
    dims_noise_ft: float = _setting(0.1, "[0, inf)")
    rate_hz: float = _setting(10.0, f"(0, {MAX_DETECTION_RATE_HZ}]")
    conf_mean: float = 0.8
    conf_std: float = _setting(0.1, "[0, inf)")


@dataclass(frozen=True)
class GpsConfig:
    bias_x_ft: float = 8.0
    lateral_noise_ft: float = _setting(1.0, "[0, inf)")
    time_offset_s: float = _setting(0.7, "[-2, 2]")
    long_noise_ft: float = _setting(0.1, "[0, inf)")
    fraction: float = _setting(1.0, "[0, 1]")


@dataclass(frozen=True)
class SceneConfig:
    road: RoadConfig = field(default_factory=RoadConfig)
    extent_ft: float = _setting(3000.0, "(0, 100000]")
    pole_spacing_ft: float = _setting(500.0, "(0, inf)")
    cameras_per_pole: int = _setting(6, "[2, inf)")
    vehicle_count: int = _setting(20, f"[1, {MAX_VEHICLES}]")
    duration_s: float = _setting(60.0, f"(0, {MAX_DURATION_S}]")
    seed: int = _setting(0, "[0, inf)")
    drift: DriftConfig = field(default_factory=DriftConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    gps: GpsConfig = field(default_factory=GpsConfig)
    snapshot_interval_s: float = _setting(30.0, "(0, inf)")
    snapshot_dropout: float = _setting(0.0, "[0, 1]")
    pole_outage: int | None = None

    def validate(self):
        """Check each setting by its kind and range, then the rules that
        join settings."""
        _check_settings(self)
        min_radius = (self.extent_ft + 2 * ROAD_PAD_FT) / ARC_MAX_TURN_RAD
        if self.road.kind == "arc" and self.road.radius_ft < min_radius:
            raise ConfigInvalid(
                f"road.radius_ft {self.road.radius_ft} is too small for extent_ft "
                f"{self.extent_ft}: the padded arc must stay short of a half circle, "
                f"so radius_ft >= {min_radius:.1f}")
        if self.road.kind == "arc":
            span = min(map(line_span, _road_yellow_lines(self)[:2]))
            if span < MIN_SPAN_FT:
                # no radius gives the inner line more span than a straight road has
                straight = _road_yellow_lines(replace(self, road=RoadConfig()))[0]
                key = "road.radius_ft" if line_span(straight) > MIN_SPAN_FT else "extent_ft"
                raise ConfigInvalid(
                    f"{key}: an arc road of extent_ft {self.extent_ft} and radius_ft "
                    f"{self.road.radius_ft} has a yellow line spanning {span:.0f} ft, "
                    f"short of the {MIN_SPAN_FT:.0f} ft the roadway frame needs")
        per_pole = 2 * (self.cameras_per_pole // 2)
        # the ratio test first: math.ceil cannot take the inf of a tiny spacing
        if (self.extent_ft / self.pole_spacing_ft > MAX_CAMERAS
                or self.poles * per_pole > MAX_CAMERAS):
            raise ConfigInvalid(
                f"pole_spacing_ft {self.pole_spacing_ft} and cameras_per_pole "
                f"{self.cameras_per_pole} ask for more than {MAX_CAMERAS} cameras "
                f"over extent_ft {self.extent_ft}")
        if self.pole_outage is not None and not 0 <= self.pole_outage < self.poles:
            raise ConfigInvalid(f"pole_outage must be null or in [0, {self.poles}), "
                                f"got {self.pole_outage!r}")
        caps = (
            ("vehicle_count x duration_s", self.vehicle_count * self.duration_s, MAX_VEHICLE_S),
            ("cameras x duration_s / snapshot_interval_s",
             self.poles * per_pole * self.duration_s / self.snapshot_interval_s, MAX_SNAPSHOTS),
            ("extent_ft x duration_s / snapshot_interval_s",     # lane points held
             self.extent_ft * self.duration_s / self.snapshot_interval_s, 10_000_000),
        )
        for name, value, cap in caps:
            if value > cap:
                raise ConfigInvalid(f"{name} must be at most {cap:,}, got {value:,}")

    @property
    def poles(self) -> int:
        return max(1, math.ceil(self.extent_ft / self.pole_spacing_ft))


@dataclass
class Camera:
    camera_id: str
    direction: str
    pole: int
    fov: tuple  # (x_r_min, x_r_max)
    reference: Homography
    points: PointSet


@dataclass
class VehicleTrack:
    vehicle_id: str
    direction: str
    cls: str
    dims: tuple  # (l, w, h)
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @property
    def boxes(self) -> np.ndarray:
        """(N,5) boxes (x, y, l, w, h) at `times`."""
        return np.column_stack([self.x, self.y, np.tile(self.dims, (len(self.x), 1))])


@dataclass
class GroundTruth:
    trajectories: list  # of VehicleTrack
    drift_dir: dict     # pole -> unit vector (2,)
    drift_phase: dict   # pole -> phase


@dataclass
class SimulationResult:
    config: SceneConfig
    spline: roadway.RoadwaySpline
    cameras: list
    ground_truth: GroundTruth
    detections: Detections
    gps_traces: list
    annotations: list
    snapshots: list          # RediscoverySnapshot
    sift_maps: dict          # camera_id -> list of (epoch, 3x3 ndarray)

    def camera(self, camera_id: str) -> Camera:
        for c in self.cameras:
            if c.camera_id == camera_id:
                return c
        raise KeyError(camera_id)

    def drift_vector(self, pole: int, t: float) -> np.ndarray:
        d = self.config.drift
        g = self.ground_truth
        mag = d.bias_ft + d.amplitude_ft * math.sin(
            2.0 * math.pi * t / d.period_s + g.drift_phase[pole])
        return mag * g.drift_dir[pole]

    def true_homography(self, camera_id: str, t: float) -> Homography:
        """Reference homography composed with the pole's drift translation."""
        cam = self.camera(camera_id)
        v = self.drift_vector(cam.pole, t)
        trans = np.array([[1.0, 0.0, v[0]], [0.0, 1.0, v[1]], [0.0, 0.0, 1.0]])
        return Homography(trans @ cam.reference.h, camera_id, cam.direction)


# ---------------------------------------------------------------------------
# geometry construction

def _road_yellow_lines(cfg: SceneConfig):
    """Sampled state-plane points of the EB (+) and WB (-) yellow lines."""
    off = np.asarray(STATE_OFFSET, dtype=float)
    g = YELLOW_OFFSET_FT
    length = cfg.extent_ft + 2 * ROAD_PAD_FT
    s = np.arange(0.0, length + 1.0, 50.0)
    if cfg.road.kind == "straight":
        base = np.stack([s, np.zeros_like(s)], axis=1)
        normal = np.tile([0.0, 1.0], (len(s), 1))
    else:
        r = cfg.road.radius_ft
        theta = (s - length / 2.0) / r
        base = np.stack([r * np.sin(theta), r * np.cos(theta) - r], axis=1)
        base[:, 0] += length / 2.0
        normal = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    eb = base + g * normal + off
    wb = base - g * normal + off
    return eb, wb, ROAD_PAD_FT


def _make_camera(cfg, spline, pole, idx, direction, fov, rng) -> Camera:
    cam_id = f"P{pole + 1:02d}C{idx + 1:02d}"
    a, b = fov
    sign = 1.0 if direction == "EB" else -1.0
    # ground[i, j] = P(x_r[i]) + y_r[j] N(x_r[i]): columns 0 and 1 hold the
    # image corners' arc positions and offsets, the rest the lane-line points
    x_r = np.concatenate(([a, b], np.arange(a + 5.0, b - 4.0, 20.0)))
    y_r = sign * np.array([5.0, 60.0, 12.0, 24.0, 36.0, 48.0])
    ground = spline.point(x_r)[:, None] + y_r[:, None] * spline.normal(x_r)[:, None]

    world = ground[[0, 1, 1, 0], [0, 0, 1, 1]]
    jit = rng.uniform(-40.0, 40.0, size=(4, 2))
    img = np.array([[120.0, 980.0], [1800.0, 980.0],
                    [1500.0, 220.0], [420.0, 220.0]]) + jit
    ref = Homography(geometry._dlt(img, world), cam_id, direction)

    pts = ground[2:, 2:].reshape(-1, 2)
    im = geometry._project_h(ref.hinv, pts[:, None])[:, 0]
    points = [CorrespondencePoint(f"{cam_id}_{direction}_{k:03d}", ImagePoint(*q),
                                  StatePlanePoint(*p, 0.0))
              for k, (q, p) in enumerate(zip(im.tolist(), pts.tolist()))]
    return Camera(cam_id, direction, pole, fov, ref, PointSet(points))


def _build_cameras(cfg: SceneConfig, spline, pad, rng) -> list:
    cams = []
    per_dir = cfg.cameras_per_pole // 2
    for pole in range(cfg.poles):
        if cfg.pole_outage is not None and pole == cfg.pole_outage:
            continue
        lo = pad + pole * cfg.pole_spacing_ft
        hi = pad + min((pole + 1) * cfg.pole_spacing_ft, cfg.extent_ft)
        width = (hi - lo) / per_dir
        for direction, base_idx in (("EB", 0), ("WB", per_dir)):
            for c in range(per_dir):
                a = lo + c * width - 25.0
                b = lo + (c + 1) * width + 25.0
                a = max(a, spline.extent[0] + 10.0)
                b = min(b, spline.extent[1] - 10.0)
                cams.append(_make_camera(cfg, spline, pole, base_idx + c,
                                         direction, (a, b), rng))
    return cams


# ---------------------------------------------------------------------------
# traffic

def _build_vehicles(cfg: SceneConfig, pad, rng) -> list:
    vehicles = []
    classes = list(VEHICLE_CLASSES)
    lo, hi = pad + 10.0, pad + cfg.extent_ft - 10.0
    for i in range(cfg.vehicle_count):
        direction = "EB" if i % 2 == 0 else "WB"
        cls = classes[rng.integers(len(classes))]
        dims = VEHICLE_CLASSES[cls]
        lane = int(rng.integers(LANES_PER_DIRECTION))
        lane_y = 12.0 + LANE_WIDTH_FT * (lane + 0.5)
        if direction == "WB":
            lane_y = -lane_y
        speed = float(np.clip(rng.normal(105.0, 8.0), 70.0, 130.0))
        transit = (hi - lo) / speed
        t0 = float(rng.uniform(-transit, cfg.duration_s))
        # speed modulation amplitude; keeps peak speed below the GPS
        # sawtooth-filter threshold (130 + 14 < 150 ft/s)
        amp = float(rng.uniform(8.0, 14.0))
        per = float(rng.uniform(30.0, 60.0))
        phase = float(rng.uniform(0.0, 2 * math.pi))
        y_amp = float(rng.uniform(0.0, 0.4))
        y_per = float(rng.uniform(20.0, 60.0))
        y_phase = float(rng.uniform(0.0, 2 * math.pi))

        t = np.arange(0.0, cfg.duration_s + 1e-9, 0.1)
        rel = t - t0
        # longitudinal jitter: sinusoidal speed modulation integrated in closed form
        disp = speed * rel + amp * per / (2 * math.pi) * (
            np.cos(phase) - np.cos(2 * math.pi * rel / per + phase))
        x = lo + disp if direction == "EB" else hi - disp
        y = lane_y + y_amp * np.sin(2 * math.pi * t / y_per + y_phase)
        inside = (x >= lo) & (x <= hi) & (rel >= 0)
        if inside.sum() < 5:
            continue
        vehicles.append(VehicleTrack(
            f"V{i:04d}", direction, cls, dims,
            t[inside].copy(), x[inside].copy(), y[inside].copy()))
    return vehicles


def _emit_detections(cfg: SceneConfig, vehicles, cameras, rng) -> Detections:
    """Each vehicle's (sample, camera) candidates, in row-major order from a
    mask over its direction's fields of view, each with its scalar draws;
    the detections ordered by (t, camera id)."""
    det_cfg = cfg.detection
    miss, noise, dims_noise = det_cfg.miss_rate, det_cfg.noise_ft, det_cfg.dims_noise_ft
    conf_mean, conf_std = det_cfg.conf_mean, det_cfg.conf_std
    random, normal = rng.random, rng.normal
    dt = 1.0 / det_cfg.rate_hz
    cam_ids = sorted(c.camera_id for c in cameras)     # a camera's code is its rank
    rank = {cid: k for k, cid in enumerate(cam_ids)}
    classes = list(VEHICLE_CLASSES)
    fovs = {}
    for direction in ("EB", "WB"):
        cams = [c for c in cameras if c.direction == direction]
        lo, hi = np.array([c.fov for c in cams], dtype=float).reshape(-1, 2).T
        fovs[direction] = (lo, hi, [c.fov for c in cams], [rank[c.camera_id] for c in cams])
    rows = array("d")   # per detection: t, camera code, x, y, l, w, h, conf, class code
    for v in vehicles:
        lo, hi, fov, codes = fovs[v.direction]
        ts = time_grid(v.times[0], v.times[-1], dt)
        xs = np.interp(ts, v.times, v.x)
        ys = np.interp(ts, v.times, v.y)
        hits, cols = np.nonzero((lo <= xs[:, None]) & (xs[:, None] <= hi))
        ts, xs, ys = ts.tolist(), xs.tolist(), ys.tolist()
        l, w, h = v.dims
        k = classes.index(v.cls)
        for i, c in zip(hits.tolist(), cols.tolist()):
            if random() < miss:
                continue
            nx = xs[i] + normal(0.0, noise)
            ny = ys[i] + normal(0.0, noise * 0.5)
            a, b = fov[c]
            if not (a <= nx <= b):
                continue
            rows.extend((ts[i], codes[c], nx, ny, max(0.5, l + normal(0.0, dims_noise)),
                         max(0.5, w + normal(0.0, dims_noise)),
                         max(0.5, h + normal(0.0, dims_noise)),
                         min(max(normal(conf_mean, conf_std), 0.05), 1.0), k))
    rows = np.frombuffer(rows).reshape(-1, 9)
    order = np.lexsort((rows[:, 1], rows[:, 0]))    # stable, as a sort on (t, camera id)
    return Detections(rows[order, 0], rows[order, 2:7], rows[order, 7],
                      rows[order, 1].astype(np.int32), rows[order, 8].astype(np.int32),
                      tuple(cam_ids), tuple(classes))


def _emit_gps(cfg: SceneConfig, vehicles, rng) -> list:
    g = cfg.gps
    traces = []
    for v in vehicles:
        if rng.random() > g.fraction:
            continue
        # reported timestamps lag truth by time_offset
        ts = time_grid(v.times[0] + g.time_offset_s, v.times[-1] + g.time_offset_s,
                       SAMPLE_PERIOD_S)
        true_t = ts - g.time_offset_s
        x = np.interp(true_t, v.times, v.x) + g.bias_x_ft \
            + rng.normal(0.0, g.long_noise_ft, len(ts))
        y = np.interp(true_t, v.times, v.y) \
            + rng.normal(0.0, g.lateral_noise_ft, len(ts))
        traces.append(GpsTrace(v.vehicle_id, ts, x, y))
    return traces


def _emit_annotations(cfg: SceneConfig, vehicles, pad) -> list:
    pole_x = [pad + (i + 0.5) * cfg.pole_spacing_ft for i in range(cfg.poles)]
    anns = []
    for v in vehicles:
        for i, xp in enumerate(pole_x):
            xs = v.x if v.direction == "EB" else v.x[::-1]
            ts = v.times if v.direction == "EB" else v.times[::-1]
            if xp < xs[0] or xp > xs[-1]:
                continue
            t_cross = float(np.interp(xp, xs, ts))
            y = float(np.interp(t_cross, v.times, v.y))
            anns.append(PoleAnnotation(v.vehicle_id, t_cross, xp, y, i))
    anns.sort(key=lambda a: (a.vehicle_id, a.epoch))
    return anns


# ---------------------------------------------------------------------------
# drift observations

def _emit_snapshots(cfg: SceneConfig, result_stub, cameras, rng):
    d = cfg.drift
    random, normal, dropout = rng.random, rng.normal, cfg.snapshot_dropout
    snapshots = []
    sift_maps = {c.camera_id: [] for c in cameras}
    epochs = np.arange(0.0, cfg.duration_s + 1e-9, cfg.snapshot_interval_s).tolist()
    for cam in cameras:
        hinv, world, ids = cam.reference.hinv, cam.points.world, [p.id for p in cam.points]
        for t in epochs:
            v = result_stub.drift_vector(cam.pole, t)
            kept, noise = [], []
            for k in range(len(ids)):
                if random() < dropout:
                    continue
                kept.append(k)
                noise.append(normal(0.0, d.noise_ft, 2))
            if len(kept) >= 4:
                # a stack of one-point projections: the bits of one call per point
                im = geometry._project_h(hinv, (world[kept] - v + noise)[:, None])[:, 0]
                snapshots.append(RediscoverySnapshot(t, cam.camera_id, cam.direction, tuple(
                    (ids[k], ImagePoint(*q)) for k, q in zip(kept, im.tolist()))))
            # feature-matcher map: captures the drift plus an off-plane bias
            b = SIFT_BIAS_FT * result_stub.ground_truth.drift_dir[cam.pole]
            vs = v + b + normal(0.0, SIFT_NOISE_FT, 2)
            trans = np.array([[1.0, 0.0, -vs[0]], [0.0, 1.0, -vs[1]], [0, 0, 1.0]])
            m = geometry.normalize_h(hinv @ trans @ cam.reference.h)
            sift_maps[cam.camera_id].append((t, m))
    return snapshots, sift_maps


# ---------------------------------------------------------------------------

def simulate(config: SceneConfig) -> SimulationResult:
    """Generate a full synthetic scene; deterministic given config.seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    eb, wb, pad = _road_yellow_lines(config)
    spline = roadway.fit_centerline(eb, wb)
    cameras = _build_cameras(config, spline, pad, rng)

    drift_dir, drift_phase = {}, {}
    for pole in range(config.poles):
        ang = rng.uniform(0.0, 2 * math.pi)
        drift_dir[pole] = np.array([math.cos(ang), math.sin(ang)])
        drift_phase[pole] = float(rng.uniform(0.0, 2 * math.pi))

    vehicles = _build_vehicles(config, pad, rng)
    gt = GroundTruth(vehicles, drift_dir, drift_phase)

    result = SimulationResult(
        config=config, spline=spline, cameras=cameras, ground_truth=gt,
        detections=[], gps_traces=[], annotations=[], snapshots=[],
        sift_maps={})

    result.detections = _emit_detections(config, vehicles, cameras, rng)
    result.gps_traces = _emit_gps(config, vehicles, rng)
    result.annotations = _emit_annotations(config, vehicles, pad)
    result.snapshots, result.sift_maps = _emit_snapshots(config, result, cameras, rng)
    return result
