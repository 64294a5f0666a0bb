"""Command-line pipeline: one subcommand per stage of `STAGES`, plus a
manifest-driven runner chaining them.

A stage imports the layers it runs when it starts, so a stage process
loads only those (`simulate` loads them all).

Exit codes: 0 success, 1 malformed input or configuration, 2 data
invariant violation (e.g. non-monotonic timestamps).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from . import io_formats as iof, tracking
from .errors import (AllOutliers, ConfigInvalid, CurvitrackError,
                     DataInvariantViolation, InsufficientAnnotations)
from .io_formats import MalformedInput

log = logging.getLogger("curvitrack")


# `cli.simulate` and `cli.fit_homography` stay reachable by name for callers
# outside the package (the benchmark's tracer wraps both), without loading
# their layers until called.  The stages import the layer functions themselves.
def simulate(config):
    """`simulator.simulate`."""
    from .simulator import simulate
    return simulate(config)


def fit_homography(points, camera_id="", direction="EB", seed=0):
    """`geometry.fit_homography`."""
    from .geometry import fit_homography
    return fit_homography(points, camera_id, direction, seed)


# ---------------------------------------------------------------------------
# stages

def cmd_simulate(args) -> int:
    from .simulator import SceneConfig, simulate

    cfg = iof.read_scene_config(args.config) if args.config else SceneConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    result = simulate(cfg)

    iof.write_json(os.path.join(out, "spline.json"), result.spline.to_dict())
    iof.write_points(os.path.join(out, "points.jsonl"), result.cameras)
    iof.write_homographies(os.path.join(out, "reference.json"),
                           [c.reference for c in result.cameras])
    iof.write_snapshots(os.path.join(out, "snapshots.jsonl"), result.snapshots)
    iof.write_sift_maps(os.path.join(out, "sift_maps.json"), result.sift_maps)
    iof.write_detections(os.path.join(out, "detections.jsonl"),
                         result.detections)
    iof.write_gt_tracks(os.path.join(out, "gt_tracks.jsonl"),
                        result.ground_truth.trajectories)
    iof.write_gps(os.path.join(out, "gps.csv"), result.gps_traces)
    iof.write_annotations(os.path.join(out, "annotations.csv"),
                          result.annotations)
    log.info("simulate: %d cameras, %d detections, %d snapshots",
             len(result.cameras), len(result.detections), len(result.snapshots))
    return 0


def cmd_calibrate(args) -> int:
    from .geometry import fit_homography

    homographies, inliers = [], []
    # each camera's RANSAC seed is the default, so its fit depends on its points alone
    for cam, (direction, points) in sorted(iof.read_points(args.points).items()):
        h, ids = fit_homography(points, camera_id=cam, direction=direction)
        homographies.append(h)
        inliers.append(len(ids))
    iof.write_homographies(args.out, homographies, inliers)
    return 0


def cmd_restim(args) -> int:
    from . import drift

    points_by_cam = iof.read_points(args.points)
    references = iof.read_homographies(args.reference)
    snapshots_by_cam = {}
    for snap in iof.read_snapshots(args.snapshots):
        snapshots_by_cam.setdefault(snap.camera_id, []).append(snap)
    sift = iof.read_sift_maps(args.sift) if args.sift else {}
    os.makedirs(args.out, exist_ok=True)

    timelines = []
    rows = []
    for cam in sorted(references.keys() | points_by_cam.keys() | snapshots_by_cam.keys()):
        snapshots = snapshots_by_cam.get(cam, [])
        lacks = [name for name, absent in (("reference homography", cam not in references),
                                           ("reference points", cam not in points_by_cam),
                                           ("snapshots", not snapshots)) if absent]
        if lacks:
            log.warning("restim: %s has no %s, skipping", cam, " or ".join(lacks))
            continue
        reference, (_, points) = references[cam], points_by_cam[cam]
        tl, rejected = drift.build_timeline(reference, points, snapshots)
        if len(tl.instants) < drift.MIN_INSTANTS:
            log.warning("restim: %s has %d usable instants, skipping",
                        cam, len(tl.instants))
            continue
        tl.sift_maps = sift.get(cam, [])
        try:
            static = drift.build_static(tl)
            dynamic = drift.build_dynamic(tl)
        except AllOutliers as exc:
            log.warning("restim: %s skipped: %s", cam, exc)
            continue
        baseline = drift.build_baseline(tl)

        snap_by_epoch = {s.epoch: s for s in snapshots}
        for epoch, h_t, _ in tl.instants:
            fit = drift.metric_fitness(points, snap_by_epoch[epoch], h_t)
            fd_ref = drift.metric_full_drift(points, reference, h_t)
            fd_stat = drift.metric_full_drift(points, static, h_t)
            fd_dyn = drift.metric_full_drift(
                points, drift.dynamic_at(dynamic, epoch), h_t)
            fd_base = (drift.metric_full_drift(
                points, drift.dynamic_at(baseline, epoch), h_t)
                if baseline else None)
            rows.append((cam, epoch, fit.mean, fd_ref.mean, fd_stat.mean,
                         fd_dyn.mean,
                         fd_base.mean if fd_base is not None else ""))

        timelines.append({
            "camera": cam, "direction": reference.direction,
            "reference": iof.h_to_list(reference.h),
            "instants": [{"epoch": e, "h": iof.h_to_list(h.h),
                          "inliers": inl} for e, h, inl in tl.instants],
            "rejected": [{"epoch": e, "reason": r} for e, r in rejected],
            "static": iof.h_to_list(static.h),
            "dynamic": [{"epoch": e, "h": iof.h_to_list(h.h)}
                        for e, h in dynamic],
            "baseline": [{"epoch": e, "h": iof.h_to_list(h.h)}
                         for e, h in baseline],
        })

    iof.write_json(os.path.join(args.out, "timelines.json"), timelines)
    iof.write_csv(os.path.join(args.out, "drift.csv"),
                  ("camera", "epoch", "fitness_mean", "fd_uncorrected",
                   "fd_static", "fd_dynamic", "fd_baseline"), rows)
    return 0


def cmd_track(args) -> int:
    detections = iof.read_detections(args.detections)
    if args.algo == "oracle":
        if not args.gt:
            raise MalformedInput("oracle tracker requires --gt")
        tracklets = tracking.run_oracle(detections, iof.read_gt_series(args.gt))
    else:
        tracklets = tracking.run_tracker(args.algo, detections)
    iof.write_tracklets(args.out, tracklets)
    log.info("track: %s produced %d tracklets", args.algo, len(tracklets))
    return 0


def cmd_gps_correct(args) -> int:
    from . import gps

    traces = iof.read_gps(args.gps)
    annotations = {}
    for a in iof.read_annotations(args.annotations):
        annotations.setdefault(a.vehicle_id, []).append(a)
    os.makedirs(args.out, exist_ok=True)
    corrected, summary = [], {}
    for trace in traces:
        try:
            res = gps.refine(trace, annotations.get(trace.vehicle_id, []))
        except InsufficientAnnotations as exc:
            summary[trace.vehicle_id] = {"skipped": str(exc)}
            corrected.append(trace)
            continue
        corrected.append(res.trace)
        summary[trace.vehicle_id] = {f.name: getattr(res, f.name)
                                     for f in dataclasses.fields(res) if f.name != "trace"}
    iof.write_gps(os.path.join(args.out, "gps_corrected.csv"), corrected)
    iof.write_json(os.path.join(args.out, "gps_summary.json"), summary)
    return 0


def cmd_eval(args) -> int:
    from . import moteval

    gt_series = iof.read_gt_series(args.gt)
    tracklets = iof.read_tracklets(args.tracks)
    report = moteval.evaluate(gt_series, tracklets)
    iof.write_json(args.out, report.to_dict())
    root, _ = os.path.splitext(args.out)
    iof.write_csv(root + ".csv", report.COLUMNS, [report.row()])
    print("HOTA {:.3f}  DetA {:.3f}  AssA {:.3f}  Recall {:.3f}".format(
        report.hota, report.det_a, report.ass_a, report.recall))
    return 0


def cmd_report(args) -> int:
    from . import plots

    series = iof.read_drift(args.drift) if args.drift else None
    summary = iof.read_eval_summary(args.eval) if args.eval else None
    os.makedirs(args.out, exist_ok=True)
    if series is not None:
        means = {m: float(np.mean(v)) for m, (_, v) in series.items()}
        iof.write_csv(os.path.join(args.out, "drift_summary.csv"),
                      ("method", "mean_fulldrift_ft"),
                      sorted(means.items()))
        plots.line_chart(os.path.join(args.out, "drift_timeline.svg"),
                         series, "FullDrift vs time", "epoch (s)", "drift (ft)")
        items = sorted(means.items())
        plots.bar_chart(os.path.join(args.out, "drift_means.svg"),
                        [k for k, _ in items], [v for _, v in items],
                        "Mean FullDrift by method", "feet")
    if summary is not None:
        iof.write_csv(os.path.join(args.out, "eval_summary.csv"),
                      list(summary), [list(summary.values())])
        plots.bar_chart(os.path.join(args.out, "eval_metrics.svg"),
                        list(summary), list(summary.values()), "Tracking metrics")
    if not args.drift and not args.eval:
        plots.line_chart(os.path.join(args.out, "drift_timeline.svg"),
                         {}, "FullDrift vs time")
    return 0


def cmd_pipeline(args) -> int:
    manifest = iof.read_manifest(args.manifest, STAGES)
    out = manifest.get("out", args.out or "pipeline_out")
    os.makedirs(out, exist_ok=True)

    def p(name):
        return os.path.join(out, name) if name else out

    # Written only when the manifest holds a scene; a stale copy is no input.
    skip = set() if "scene" in manifest else {"scene_config.json"}
    if "scene" in manifest:
        iof.write_json(p("scene_config.json"), manifest["scene"])
    seed = manifest.get("seed")
    by_hand = {"simulate": [] if seed is None else ["--seed", str(seed)],
               "track": ["--algo", manifest.get("track", {}).get("algo", "sort")]}

    for name in manifest.get("stages", list(STAGES)):
        log.info("pipeline: stage %s", name)
        _, _, out_file, files = STAGES[name]
        argv, missing = [name, "--out", p(out_file)], []
        for flag, file, option_help in files:
            if file not in skip and os.path.exists(p(file)):
                argv += [flag, p(file)]
            elif option_help is None:
                missing.append(p(file))
        if missing:
            raise MalformedInput(f"missing stage inputs: {missing}")
        rc = main(argv + by_hand.get(name, []))
        if rc != 0:
            return rc
    return 0


# ---------------------------------------------------------------------------

# Each stage in the pipeline's default order: name -> (help, function, the
# run-directory file `--out` names or "" for the directory, input options). An
# input option is (flag, run-directory file, help), optional exactly when it has help.
STAGES = {
    "simulate": ("generate a synthetic scene", cmd_simulate, "", [
        ("--config", "scene_config.json", "scene config JSON")]),
    "calibrate": ("fit homographies from points", cmd_calibrate, "fitted.json", [
        ("--points", "points.jsonl", None)]),
    "restim": ("re-estimate drifting homographies", cmd_restim, "", [
        ("--points", "points.jsonl", None),
        ("--reference", "reference.json", None),
        ("--snapshots", "snapshots.jsonl", None),
        ("--sift", "sift_maps.json", "image-to-image alignment maps JSON")]),
    "track": ("run a tracker on detections", cmd_track, "tracks.jsonl", [
        ("--detections", "detections.jsonl", None),
        ("--gt", "gt_tracks.jsonl", "ground truth (oracle tracker only)")]),
    "gps-correct": ("refine GPS traces", cmd_gps_correct, "", [
        ("--gps", "gps.csv", None),
        ("--annotations", "annotations.csv", None)]),
    "eval": ("evaluate tracklets against ground truth", cmd_eval, "report.json", [
        ("--gt", "gt_tracks.jsonl", None),
        ("--tracks", "tracks.jsonl", None)]),
    "report": ("summaries and SVG figures", cmd_report, "", [
        ("--drift", "drift.csv", "drift.csv from restim"),
        ("--eval", "report.json", "report.json from eval")]),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="curvitrack",
        description="Multi-camera roadway geometry and tracking pipeline")
    sub = ap.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_, func, _, files) in STAGES.items():
        p = parsers[name] = sub.add_parser(name, help=help_)
        for flag, _, option_help in files:
            p.add_argument(flag, required=option_help is None, help=option_help)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
    parsers["simulate"].add_argument("--seed", type=int, default=None)
    parsers["track"].add_argument("--algo", required=True,
                                  choices=tracking.TRACKER_NAMES)

    p = sub.add_parser("pipeline", help="run stages from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("CURVITRACK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    out_file = STAGES[args.command][2] if args.command in STAGES else ""
    try:
        if out_file and os.path.isdir(args.out):
            raise MalformedInput(f"--out {args.out} is a directory, not a {out_file} file")
        return args.func(args)
    except (MalformedInput, ConfigInvalid, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataInvariantViolation, CurvitrackError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
