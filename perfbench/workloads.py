"""The benchmark's three workloads.

Each workload generates its inputs from the seed in `setup`, splits one
pass over them into timed steps in `steps`, and checks the outputs of
complete passes in `check`.  Library workloads call the package's public
functions through their modules (so the tracer's wrappers see the calls);
`cli-dense` runs each pipeline stage as its own process.  Every call that
can fail and every output check is one operation in `Ops`; a failed
operation makes the run incorrect.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from curvitrack import (drift, geometry, gps, io_formats, moteval, roadway,
                        simulator, tracking)
from curvitrack.errors import AllOutliers, InsufficientAnnotations
from curvitrack.moteval import TrajectorySeries
from curvitrack.roadway import RoadwayBox
from curvitrack.simulator import DetectionConfig, SceneConfig

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
STAGE_RUNNER = os.path.join(HERE, "stage_runner.py")
STAGE_TIMEOUT_S = 120.0
LOCALIZE_TOL_FT = 1e-3      # acceptance criterion 1's roadway round trip
LOCALIZE_CHUNK = 50         # boxes per timed localize step
ORACLE_MIN_HOTA = 0.95      # acceptance criterion 6
INJECTED_GPS_BIAS_FT = simulator.GpsConfig().bias_x_ft


class Ops:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args):
        """fn(*args), counting a raised exception as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return None


@dataclass
class PassResult:
    wall_s: float
    data: dict = field(default_factory=dict)


def run_pass(wl, index: int, ops: Ops, tr=None) -> PassResult:
    """Every step of one pass of workload `wl`, one after another."""
    data, wall = {}, 0.0
    for name, step in wl.steps(index, tr):
        seconds, data[name] = step(ops)
        wall += seconds
    return PassResult(wall, data)


def _tracklet_digest(tracklets) -> str:
    h = hashlib.sha256()
    for tl in tracklets:
        h.update(repr((tl.id, list(tl.times), [tuple(b) for b in tl.boxes])).encode())
    return h.hexdigest()


def _dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def _self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _all_equal(values) -> bool:
    return len(set(values)) == 1


# ---------------------------------------------------------------------------

class Ladder:
    """Library path: five trackers plus the oracle, each evaluated."""

    name = "ladder"
    in_process = True
    scene_s = 180.0
    vehicles = 60            # one vehicle per 3 s of scene (criterion-6 density)
    trackers = ("sort", "iout", "kiou", "byte-l2", "byte-iou")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.scene = None
        self.gt = None

    def setup(self, rep: int, tr=None) -> None:
        cfg = SceneConfig(extent_ft=3000.0, vehicle_count=self.vehicles,
                          duration_s=self.scene_s, seed=self.seed,
                          detection=DetectionConfig(miss_rate=0.2, noise_ft=1.0))
        self.scene = simulator.simulate(cfg)
        self.gt = [TrajectorySeries(t.vehicle_id, t.times, np.column_stack(
            [t.x, t.y, np.full_like(t.x, t.dims[0]), np.full_like(t.x, t.dims[1]),
             np.full_like(t.x, t.dims[2])])) for t in self.scene.ground_truth.trajectories]

    def _track(self, algo):
        dets = self.scene.detections
        if algo == "oracle":
            return tracking.run_oracle(dets, self.scene.ground_truth.trajectories)
        return tracking.run_tracker(algo, dets)

    def steps(self, index: int, tr=None):
        return [(algo, functools.partial(self._step, algo))
                for algo in self.trackers + ("oracle",)]

    def _step(self, algo, ops: Ops):
        """Track and evaluate; returns (seconds, (tracklet digest, report))."""
        t0 = time.perf_counter()
        tracklets = ops.call(f"track {algo}", self._track, algo)
        report = None
        if tracklets is not None:
            report = ops.call(f"evaluate {algo}", moteval.evaluate, self.gt, tracklets)
        wall = time.perf_counter() - t0
        return wall, (None if report is None else (_tracklet_digest(tracklets), report))

    def check(self, passes, ops: Ops) -> None:
        last = {a: d for a, d in passes[-1].items() if d is not None}
        hota = {a: r.hota for a, (_, r) in last.items()}
        if ops.check("oracle" in hota and len(hota) == len(self.trackers) + 1,
                     "every tracker produced a report"):
            ops.check(hota["oracle"] >= ORACLE_MIN_HOTA
                      and all(hota["oracle"] >= h for h in hota.values()),
                      f"oracle HOTA >= {ORACLE_MIN_HOTA} and dominant: {hota}")
            ids = {a: last[a][1].ids_per_gt for a in ("iout", "kiou")}
            ops.check(ids["iout"] > ids["kiou"], f"IOUT IDs/GT > KIOU IDs/GT: {ids}")
        for algo in self.trackers + ("oracle",):
            ops.check(_all_equal((p[algo] or (None,))[0] for p in passes),
                      f"{algo} output identical across passes")

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()

    def traced_extras(self, ops: Ops, untraced: PassResult, traced: PassResult) -> dict:
        """Mean HOTA; evaluate's memory growth, from an eval stage process on
        the KIOU tracks; and a GPS refine sweep over the scene's traces, so
        the GPS per-trace cost exists at this density too."""
        hota = float(np.mean([d[1].hota for d in traced.data.values() if d]))
        gt_path = os.path.join(self.workdir, "gt_tracks.jsonl")
        tracks_path = os.path.join(self.workdir, "tracks.jsonl")
        io_formats.write_gt_tracks(gt_path, self.scene.ground_truth.trajectories)
        io_formats.write_tracklets(tracks_path,
                                   tracking.run_tracker("kiou", self.scene.detections))
        peak = _eval_alloc_probe(self.workdir, gt_path, tracks_path, ops)
        anns = [gps.PoleAnnotation(a.vehicle_id, a.epoch, a.x, a.y, a.pole)
                for a in self.scene.annotations]
        traces = [gps.GpsTrace(g.vehicle_id, g.times, g.x, g.y)
                  for g in self.scene.gps_traces]
        probe = tracer.Tracer(f"{self.name}-{self.seed}-gps-probe")
        biases = []
        with tracer.installed(probe):
            for trace in traces:
                try:
                    biases.append(gps.refine(trace, anns).bias_ft)
                except InsufficientAnnotations:
                    pass
        return {"moteval.hota": hota, "moteval.peak_alloc_mb": peak,
                "gps_probe": probe, "gps.bias_err_ft": _bias_err(biases)}

    def facts(self) -> dict:
        return {"vehicles": self.vehicles, "scene_s": self.scene_s,
                "detections": len(self.scene.detections),
                "snapshots": len(self.scene.snapshots),
                "gt_trajectories": len(self.gt)}


def _bias_err(biases) -> float:
    """Mean |refined bias - injected bias| over refined traces, feet."""
    if not biases:
        return 0.0
    return float(np.mean(np.abs(np.asarray(biases) - INJECTED_GPS_BIAS_FT)))


# ---------------------------------------------------------------------------

def _spawn(argv, env, log_path):
    """Run a child process to completion; returns (exit code, wall s, max RSS MB)."""
    t0 = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _child_env() -> dict:
    src = os.path.join(os.getcwd(), "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _eval_alloc_probe(workdir: str, gt_path: str, tracks_path: str, ops: Ops) -> float:
    """Growth of peak RSS across `evaluate`, in a fresh eval stage process."""
    out = os.path.join(workdir, "alloc-probe")
    os.makedirs(out, exist_ok=True)
    dump = os.path.join(out, "dump.json")
    argv = [sys.executable, STAGE_RUNNER, dump, "alloc", "--alloc", "--",
            "eval", "--gt", gt_path, "--tracks", tracks_path,
            "--out", os.path.join(out, "report.json")]
    rc, _, _ = _spawn(argv, _child_env(), os.path.join(out, "stderr.log"))
    if not ops.check(rc == 0, f"eval allocation probe exited {rc}"):
        return 0.0
    with open(dump) as f:
        return json.load(f)["peak_alloc_mb"]


class CliDense:
    """User path: six CLI stage processes on a dense scene."""

    name = "cli-dense"
    in_process = False
    scene_s = 30.0
    vehicles = 100           # ten times ladder's arrival rate

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.log = os.path.join(workdir, "stages.log")
        self.env = _child_env()
        self.setup_digests = {}
        self.peak_rss = 0.0
        self.dump_dir = os.path.join(workdir, "dumps")
        os.makedirs(self.dump_dir, exist_ok=True)

    def _run_dir(self, index: int) -> str:
        return os.path.join(self.workdir, f"run{index}")

    def _stage(self, name, args, tr=None):
        if tr is None:
            argv = [sys.executable, "-m", "curvitrack.cli"] + args
        else:
            dump = os.path.join(self.dump_dir, f"{name}.json")
            argv = [sys.executable, STAGE_RUNNER, dump, tr.pass_id, "--"] + args
        rc, wall, rss = _spawn(argv, self.env, self.log)
        info = {"rc": rc, "wall_s": wall, "rss_mb": rss}
        if tr is not None and rc == 0:
            with open(dump) as f:
                info["dump"] = json.load(f)
            tr.merge(info["dump"])
        return info

    def setup(self, rep: int, tr=None) -> None:
        cfg_path = os.path.join(self.workdir, "scene.json")
        with open(cfg_path, "w") as f:
            json.dump({"extent_ft": 3000.0, "vehicle_count": self.vehicles,
                       "duration_s": self.scene_s, "snapshot_interval_s": 10.0,
                       "detection": {"miss_rate": 0.2, "noise_ft": 1.0}}, f)
        out = self._run_dir(rep)
        info = self._stage("simulate", ["simulate", "--config", cfg_path,
                                        "--seed", str(self.seed), "--out", out], tr)
        if info["rc"] != 0:
            raise RuntimeError(f"simulate exited {info['rc']}; see {self.log}")
        self.setup_digests[rep] = _dir_digest(out)

    def _stage_args(self, d):
        def p(n):
            return os.path.join(d, n)
        return [
            ("calibrate", ["calibrate", "--points", p("points.jsonl"),
                           "--out", p("fitted.json")]),
            ("restim", ["restim", "--points", p("points.jsonl"),
                        "--reference", p("reference.json"),
                        "--snapshots", p("snapshots.jsonl"),
                        "--sift", p("sift_maps.json"), "--out", d]),
            ("track", ["track", "--detections", p("detections.jsonl"),
                       "--algo", "kiou", "--out", p("tracks.jsonl")]),
            ("gps_correct", ["gps-correct", "--gps", p("gps.csv"),
                             "--annotations", p("annotations.csv"), "--out", d]),
            ("eval", ["eval", "--gt", p("gt_tracks.jsonl"),
                      "--tracks", p("tracks.jsonl"), "--out", p("report.json")]),
            ("report", ["report", "--drift", p("drift.csv"),
                        "--eval", p("report.json"), "--out", d]),
        ]

    def steps(self, index: int, tr=None):
        """The six stages on one set-up's run directory; the last also
        digests the directory, outside its timed region."""
        d = self._run_dir(index % len(self.setup_digests))
        stages = self._stage_args(d)

        def step(name, args, ops: Ops):
            info = self._stage(name, args, tr)
            ops.check(info["rc"] == 0, f"stage {name} exited {info['rc']}; see {self.log}")
            if tr is None:
                self.peak_rss = max(self.peak_rss, info["rss_mb"])
            if name == stages[-1][0]:
                info["digest"] = _dir_digest(d)
            return info["wall_s"], info

        return [(name, functools.partial(step, name, args)) for name, args in stages]

    def check(self, passes, ops: Ops) -> None:
        ops.check(_all_equal(self.setup_digests.values()),
                  "simulate output byte-identical across set-ups")
        ops.check(_all_equal(p["report"]["digest"] for p in passes),
                  "run directory byte-identical across passes")

    def peak_rss_mb(self) -> float:
        return self.peak_rss

    def traced_extras(self, ops: Ops, untraced: PassResult, traced: PassResult) -> dict:
        """KIOU HOTA and GPS bias error from the run directory, evaluate's
        memory growth from one more eval stage process, and the per-stage
        times: wall and RSS from the untraced pass, start-up (wall minus the
        time inside `main`) from the traced one."""
        d = self._run_dir(0)
        with open(os.path.join(d, "report.json")) as f:
            hota = json.load(f)["HOTA"]
        with open(os.path.join(d, "gps_summary.json")) as f:
            summary = json.load(f)
        biases = [v["bias_ft"] for v in summary.values() if "bias_ft" in v]
        peak = _eval_alloc_probe(self.workdir, os.path.join(d, "gt_tracks.jsonl"),
                                 os.path.join(d, "tracks.jsonl"), ops)
        out = {"moteval.hota": float(hota), "gps.bias_err_ft": _bias_err(biases),
               "moteval.peak_alloc_mb": peak}
        for name, stage in untraced.data.items():
            out[f"cli.{name}_s"] = stage["wall_s"]
            out[f"cli.{name}_rss_mb"] = stage["rss_mb"]
        startups = [s["wall_s"] - s["dump"]["main_s"]
                    for s in traced.data.values() if "dump" in s]
        out["cli.startup_s"] = statistics.mean(startups) if startups else 0.0
        return out

    def facts(self) -> dict:
        d = self._run_dir(0)
        with open(os.path.join(d, "detections.jsonl")) as f:
            detections = sum(1 for _ in f)
        with open(os.path.join(d, "snapshots.jsonl")) as f:
            snapshots = sum(1 for _ in f)
        return {"vehicles": self.vehicles, "scene_s": self.scene_s,
                "detections": detections, "snapshots": snapshots,
                "detections_bytes": os.path.getsize(os.path.join(d, "detections.jsonl"))}


# ---------------------------------------------------------------------------

@dataclass
class _Camera:
    cam: object
    snapshots: list
    sift: list
    p3: geometry.Projection3D
    truth: dict


class DriftLocalize:
    """Library path: drift re-estimation per camera, then box localization."""

    name = "drift-localize"
    in_process = True
    scene_s = 2400.0         # one drift period, so static error is phase-free
    vehicles = 20
    boxes = 400
    # vertical vanishing-point column of the projection, as in criterion 2
    vp_column = 3e-6 * np.array([900.0, -40000.0, 1.0])

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.scene = None
        self.cameras = []
        self.sample = []
        self.skipped = set()     # cameras restim skipped, as the CLI would

    def setup(self, rep: int, tr=None) -> None:
        cfg = SceneConfig(extent_ft=1000.0, cameras_per_pole=6,
                          vehicle_count=self.vehicles, duration_s=self.scene_s,
                          seed=self.seed, snapshot_interval_s=30.0,
                          snapshot_dropout=0.30)
        scene = simulator.simulate(cfg)
        self.scene = scene
        self.cameras = []
        for cam in scene.cameras:
            snaps = [s for s in scene.snapshots if s.camera_id == cam.camera_id]
            hinv = cam.reference.hinv
            p3 = geometry.Projection3D(np.column_stack(
                [hinv[:, 0], hinv[:, 1], self.vp_column, hinv[:, 2]]))
            truth = {s.epoch: scene.true_homography(cam.camera_id, s.epoch)
                     for s in snaps}
            self.cameras.append(_Camera(cam, snaps, scene.sift_maps[cam.camera_id],
                                        p3, truth))
        p3_of = {c.cam.camera_id: c.p3 for c in self.cameras}
        rng = np.random.default_rng(self.seed)
        dets = scene.detections
        pick = np.sort(rng.choice(len(dets), size=min(self.boxes, len(dets)),
                                  replace=False))
        self.sample = [(p3_of[dets[i].camera], RoadwayBox(*dets[i].box)) for i in pick]

    def _restim(self, c: _Camera):
        """The per-camera chain of the CLI's restim stage.  Like that stage,
        it skips (returns None for) a camera with fewer than three usable
        instants or whose instants the outlier filter all rejects."""
        points, reference = c.cam.points, c.cam.reference
        tl, _ = drift.build_timeline(reference, points, c.snapshots)
        tl.sift_maps = c.sift
        try:
            static = drift.build_static(tl)
            dynamic = drift.build_dynamic(tl)
        except AllOutliers:
            self.skipped.add(c.cam.camera_id)
            return None
        baseline = drift.build_baseline(tl)
        snap_by_epoch = {s.epoch: s for s in c.snapshots}
        for epoch, h_t, _ in tl.instants:
            drift.metric_fitness(points, snap_by_epoch[epoch], h_t)
            drift.metric_full_drift(points, reference, h_t)
            drift.metric_full_drift(points, static, h_t)
            drift.metric_full_drift(points, drift.dynamic_at(dynamic, epoch), h_t)
            drift.metric_full_drift(points, drift.dynamic_at(baseline, epoch), h_t)
        return [e for e, _, _ in tl.instants], static, dynamic

    def _localize(self, p3, box: RoadwayBox) -> float:
        spline = self.scene.spline
        prism = roadway.roadway_to_world(spline, box)
        px = geometry.project_prism_to_image(p3, prism)
        lifted = geometry.lift_image_box_to_prism(
            p3, [px[i] for i in (0, 1, 4, 5)], [px[i] for i in (2, 3, 6, 7)])
        back = roadway.world_to_roadway(spline, lifted)
        return max(abs(back.x - box.x), abs(back.y - box.y), abs(back.l - box.l),
                   abs(back.w - box.w), abs(back.h - box.h))

    def steps(self, index: int, tr=None):
        """One restim step per camera, then the boxes in chunks."""
        steps = [(f"restim {c.cam.camera_id}", functools.partial(self._restim_step, c))
                 for c in self.cameras]
        for k in range(0, len(self.sample), LOCALIZE_CHUNK):
            steps.append((f"localize {k}", functools.partial(
                self._localize_step, self.sample[k:k + LOCALIZE_CHUNK])))
        return steps

    def _restim_step(self, c: _Camera, ops: Ops):
        t0 = time.perf_counter()
        est = ops.call(f"restim {c.cam.camera_id}", self._restim, c)
        return time.perf_counter() - t0, (c, est)

    def _localize_step(self, boxes, ops: Ops):
        t0 = time.perf_counter()
        errors = [ops.call("localize", self._localize, p3, box) for p3, box in boxes]
        wall = time.perf_counter() - t0
        errors = [e for e in errors if e is not None]
        for err in errors:
            ops.check(err < LOCALIZE_TOL_FT, f"round trip error {err:.3g} ft")
        return wall, errors

    def _full_drift(self, data: dict) -> dict:
        """Mean FullDrift of each estimate against the true homography, over
        every accepted instant of one pass."""
        fd = {"uncorrected": [], "static": [], "dynamic": []}
        for name, value in data.items():
            c, est = value if name.startswith("restim") else (None, None)
            if est is None:
                continue
            epochs, static, dynamic = est
            points = c.cam.points
            for e in epochs:
                truth = c.truth[e]
                fd["uncorrected"].append(
                    drift.metric_full_drift(points, c.cam.reference, truth).mean)
                fd["static"].append(drift.metric_full_drift(points, static, truth).mean)
                fd["dynamic"].append(drift.metric_full_drift(
                    points, drift.dynamic_at(dynamic, e), truth).mean)
        return {k: float(np.mean(v)) if v else float("nan") for k, v in fd.items()}

    def check(self, passes, ops: Ops) -> None:
        fd = self._full_drift(passes[-1])
        ops.check(fd["dynamic"] < fd["static"] < fd["uncorrected"],
                  f"FullDrift dynamic < static < uncorrected: {fd}")

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()

    def traced_extras(self, ops: Ops, untraced: PassResult, traced: PassResult) -> dict:
        fd = self._full_drift(traced.data)
        errors = [e for name, errs in traced.data.items()
                  if name.startswith("localize") for e in errs]
        return {"drift.fd_dynamic_ft": fd["dynamic"], "drift.fd_static_ft": fd["static"],
                "roadway.localize_err_ft": max(errors, default=0.0)}

    def facts(self) -> dict:
        return {"vehicles": self.vehicles, "scene_s": self.scene_s,
                "cameras": len(self.cameras),
                "detections": len(self.scene.detections),
                "snapshots": len(self.scene.snapshots),
                "boxes_localized": len(self.sample),
                "restim_skipped": sorted(self.skipped)}


WORKLOADS = {w.name: w for w in (Ladder, CliDense, DriftLocalize)}
