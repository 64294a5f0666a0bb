"""Synthetic roadway scene generator.

Produces a road (straight or circular arc), camera poles with per-camera
reference homographies and correspondence points, drifting true
homographies (pole tilt modeled as a slow state-plane translation),
vehicles with noisy detections, biased GPS traces, per-pole annotations,
and rediscovery snapshots.  Everything is a pure function of the config
and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry, roadway
from .errors import ConfigInvalid
from .geometry import CorrespondencePoint, Homography, ImagePoint, PointSet, StatePlanePoint
from .gps import SAMPLE_PERIOD_S, GpsTrace, PoleAnnotation
from .drift import RediscoverySnapshot
from .io_formats import MAX_DURATION_S
from .roadway import MIN_SPAN_FT, line_span
from .tracking import Detection, time_grid

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
MAX_CAMERAS = 1000      # poles x 2 x max(1, cameras_per_pole // 2); the paper has 234
# Work caps: every vehicle gets a 10 Hz grid over the whole scene, every
# camera a snapshot per interval, and detections sample at rate_hz.
MAX_VEHICLES = 10_000           # the paper has 500+ vehicles in view at once
MAX_VEHICLE_S = 2_000_000       # vehicle_count x duration_s
MAX_SNAPSHOTS = 100_000         # cameras x duration_s / snapshot_interval_s
MAX_DETECTION_RATE_HZ = 30


@dataclass(frozen=True)
class RoadConfig:
    kind: str = "straight"        # "straight" | "arc"
    radius_ft: float = 5000.0     # arc roads only


@dataclass(frozen=True)
class DriftConfig:
    amplitude_ft: float = 5.0
    period_s: float = 2400.0
    bias_ft: float = 3.0
    noise_ft: float = 0.1         # per-point rediscovery noise (world feet)


@dataclass(frozen=True)
class DetectionConfig:
    miss_rate: float = 0.1
    noise_ft: float = 0.5
    dims_noise_ft: float = 0.1
    rate_hz: float = 10.0
    conf_mean: float = 0.8
    conf_std: float = 0.1


@dataclass(frozen=True)
class GpsConfig:
    bias_x_ft: float = 8.0
    lateral_noise_ft: float = 1.0
    time_offset_s: float = 0.7
    long_noise_ft: float = 0.1
    fraction: float = 1.0


@dataclass(frozen=True)
class SceneConfig:
    road: RoadConfig = field(default_factory=RoadConfig)
    extent_ft: float = 3000.0
    pole_spacing_ft: float = 500.0
    cameras_per_pole: int = 6
    vehicle_count: int = 20
    duration_s: float = 60.0
    seed: int = 0
    drift: DriftConfig = field(default_factory=DriftConfig)
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    gps: GpsConfig = field(default_factory=GpsConfig)
    snapshot_interval_s: float = 30.0
    snapshot_dropout: float = 0.0
    pole_outage: int | None = None

    def validate(self):
        rates = {
            "miss_rate": self.detection.miss_rate,
            "snapshot_dropout": self.snapshot_dropout,
            "gps.fraction": self.gps.fraction,
        }
        for name, r in rates.items():
            if not (0.0 <= r <= 1.0):
                raise ConfigInvalid(f"{name} must be in [0,1], got {r}")
        if self.pole_spacing_ft <= 0:
            raise ConfigInvalid("pole spacing must be positive")
        if self.drift.period_s <= 0:
            raise ConfigInvalid("drift period must be positive")
        if not (-2.0 <= self.gps.time_offset_s <= 2.0):
            raise ConfigInvalid("gps time offset must be in [-2, 2] s")
        if self.road.kind not in ("straight", "arc"):
            raise ConfigInvalid(f"unknown road kind {self.road.kind!r}")
        if self.road.radius_ft <= 0:
            raise ConfigInvalid("road radius must be positive")
        if self.extent_ft <= 0 or self.duration_s <= 0:
            raise ConfigInvalid("extent and duration must be positive")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be non-negative, got {self.seed}")
        if self.detection.rate_hz <= 0 or self.snapshot_interval_s <= 0:
            raise ConfigInvalid("detection rate and snapshot interval must be positive")
        scales = {
            "detection.noise_ft": self.detection.noise_ft,
            "detection.dims_noise_ft": self.detection.dims_noise_ft,
            "detection.conf_std": self.detection.conf_std,
            "drift.noise_ft": self.drift.noise_ft,
            "gps.lateral_noise_ft": self.gps.lateral_noise_ft,
            "gps.long_noise_ft": self.gps.long_noise_ft,
        }
        for name, scale in scales.items():
            if scale < 0:
                raise ConfigInvalid(f"{name} must be non-negative, got {scale}")
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
        per_pole = 2 * max(1, self.cameras_per_pole // 2)
        # the ratio test first: math.ceil cannot take the inf of a tiny spacing
        if (self.extent_ft / self.pole_spacing_ft > MAX_CAMERAS
                or self.poles * per_pole > MAX_CAMERAS):
            raise ConfigInvalid(
                f"pole_spacing_ft {self.pole_spacing_ft} and cameras_per_pole "
                f"{self.cameras_per_pole} ask for more than {MAX_CAMERAS} cameras "
                f"over extent_ft {self.extent_ft}")
        caps = (
            ("vehicle_count", self.vehicle_count, MAX_VEHICLES),
            ("duration_s", self.duration_s, MAX_DURATION_S),
            ("vehicle_count x duration_s", self.vehicle_count * self.duration_s, MAX_VEHICLE_S),
            ("detection.rate_hz", self.detection.rate_hz, MAX_DETECTION_RATE_HZ),
            ("cameras x duration_s / snapshot_interval_s",
             self.poles * per_pole * self.duration_s / self.snapshot_interval_s, MAX_SNAPSHOTS),
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
    detections: list
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
    y_near, y_far = (5.0, 60.0) if direction == "EB" else (-5.0, -60.0)

    def ground(x_r, y_r):
        p = spline.point(x_r) + y_r * spline.normal(x_r)
        return p

    world = np.array([ground(a, y_near), ground(b, y_near),
                      ground(b, y_far), ground(a, y_far)])
    jit = rng.uniform(-40.0, 40.0, size=(4, 2))
    img = np.array([[120.0, 980.0], [1800.0, 980.0],
                    [1500.0, 220.0], [420.0, 220.0]]) + jit
    h = geometry._dlt(img, world)
    ref = Homography(h, cam_id, direction)

    points = []
    lane_lines = [12.0, 24.0, 36.0, 48.0]
    sign = 1.0 if direction == "EB" else -1.0
    k = 0
    for x_r in np.arange(a + 5.0, b - 4.0, 20.0):
        for y_line in lane_lines:
            p = ground(x_r, sign * y_line)
            im = geometry._project_h(ref.hinv, p[None, :])[0]
            points.append(CorrespondencePoint(
                f"{cam_id}_{direction}_{k:03d}",
                ImagePoint(im[0], im[1]),
                StatePlanePoint(p[0], p[1], 0.0)))
            k += 1
    return Camera(cam_id, direction, pole, fov, ref, PointSet(points))


def _build_cameras(cfg: SceneConfig, spline, pad, rng) -> list:
    cams = []
    per_dir = max(1, cfg.cameras_per_pole // 2)
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


def _emit_detections(cfg: SceneConfig, vehicles, cameras, rng) -> list:
    det_cfg = cfg.detection
    dt = 1.0 / det_cfg.rate_hz
    by_dir = {"EB": [], "WB": []}
    for cam in cameras:
        by_dir[cam.direction].append(cam)
    dets = []
    for v in vehicles:
        ts = time_grid(v.times[0], v.times[-1], dt)
        xs = np.interp(ts, v.times, v.x)
        ys = np.interp(ts, v.times, v.y)
        for t, x, y in zip(ts, xs, ys):
            for cam in by_dir[v.direction]:
                if not (cam.fov[0] <= x <= cam.fov[1]):
                    continue
                if rng.random() < det_cfg.miss_rate:
                    continue
                nx = x + rng.normal(0.0, det_cfg.noise_ft)
                ny = y + rng.normal(0.0, det_cfg.noise_ft * 0.5)
                if not (cam.fov[0] <= nx <= cam.fov[1]):
                    continue
                dims = tuple(
                    max(0.5, d + rng.normal(0.0, det_cfg.dims_noise_ft))
                    for d in v.dims)
                conf = float(np.clip(
                    rng.normal(det_cfg.conf_mean, det_cfg.conf_std), 0.05, 1.0))
                dets.append(Detection(float(t), cam.camera_id,
                                      (float(nx), float(ny)) + dims, v.cls, conf))
    dets.sort(key=lambda d: (d.t, d.camera))
    return dets


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
    snapshots = []
    sift_maps = {c.camera_id: [] for c in cameras}
    epochs = np.arange(0.0, cfg.duration_s + 1e-9, cfg.snapshot_interval_s)
    for cam in cameras:
        hinv = cam.reference.hinv
        for t in epochs:
            v = result_stub.drift_vector(cam.pole, float(t))
            pts = []
            for cp in cam.points:
                if rng.random() < cfg.snapshot_dropout:
                    continue
                w = np.array([cp.world.x, cp.world.y])
                noisy = w - v + rng.normal(0.0, d.noise_ft, 2)
                im = geometry._project_h(hinv, noisy[None, :])[0]
                pts.append((cp.id, ImagePoint(im[0], im[1])))
            if len(pts) >= 4:
                snapshots.append(RediscoverySnapshot(
                    float(t), cam.camera_id, cam.direction, tuple(pts)))
            # feature-matcher map: captures the drift plus an off-plane bias
            b = SIFT_BIAS_FT * result_stub.ground_truth.drift_dir[cam.pole]
            vs = v + b + rng.normal(0.0, SIFT_NOISE_FT, 2)
            trans = np.array([[1.0, 0.0, -vs[0]], [0.0, 1.0, -vs[1]], [0, 0, 1.0]])
            m = geometry.normalize_h(hinv @ trans @ cam.reference.h)
            sift_maps[cam.camera_id].append((float(t), m))
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
