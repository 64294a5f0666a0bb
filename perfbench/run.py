"""curvitrack benchmark: one command, three workloads, a traced per-layer run.

    python3 perfbench/run.py --workload {ladder,cli-dense,drift-localize} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the machine and input facts.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

SETUP_REPS = 3
MIN_PASSES = 2
MAX_MEASURE_S = 120.0   # stop starting steps here, whatever --seconds says
PROBE_REF_S = 0.010     # probe time at the reference CPU speed
PROBE_EVERY_S = 0.5     # least time between two probes in the timed passes
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DIR = ".bench_run"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    """Hold BLAS thread pools to at most nproc, before numpy loads."""
    n = _nproc()
    for var in BLAS_VARS:
        try:
            cur = int(os.environ.get(var, n))
        except ValueError:
            cur = n
        os.environ[var] = str(max(1, min(cur, n)))


def _machine_facts(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            **{v: os.environ[v] for v in BLAS_VARS}}


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _probe() -> float:
    """Seconds for one fixed piece of work that calls nothing of the package:
    an interpreter loop, small numpy calls and in-place passes over 2 MB.
    It shows how fast the host is running this process at the moment."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i % 7
    a = np.arange(1000.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    b = np.arange(250_000.0)
    for _ in range(24):
        np.multiply(b, 1.0000001, out=b)
        np.add(b, 1.0, out=b)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# per-layer metrics

def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(setup, pass_, gps_src, extra: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json from the traced run's summaries."""
    t, n, c = pass_.total, pass_.calls, pass_.counts
    trackers = {k.split(":", 1)[1]: v for k, v in t.items()
                if k.startswith("tracking.run_tracker:")}
    kiou_dets = c.get("tracking.dets_in:kiou", 0)
    refine_calls = gps_src.calls["gps.refine"]
    refined = refine_calls - gps_src.counts.get("gps.refine.raised", 0)
    wtr_calls = n["roadway.world_to_roadway"]
    m = {
        "simulator.simulate_s": (setup.total["simulator.simulate"], "s"),
        "simulator.detections": (setup.counts.get("simulator.detections", 0), "count"),
        "simulator.snapshots": (setup.counts.get("simulator.snapshots", 0), "count"),
    }
    for stage in ("calibrate", "restim", "track", "gps_correct", "eval", "report"):
        m[f"cli.{stage}_s"] = (extra.get(f"cli.{stage}_s", 0.0), "s")
        m[f"cli.{stage}_rss_mb"] = (extra.get(f"cli.{stage}_rss_mb", 0.0), "MB")
    m["cli.startup_s"] = (extra.get("cli.startup_s", 0.0), "s")
    m.update({
        "io_formats.read_s": (pass_.prefixed(pass_.outer, "io_formats.read_"), "s"),
        "io_formats.write_s": (pass_.prefixed(pass_.outer, "io_formats.write_"), "s"),
        "io_formats.records_read": (c.get("io_formats.records_read", 0), "count"),
        "io_formats.bytes_read": (c.get("io_formats.bytes_read", 0), "bytes"),
        "io_formats.bytes_written": (c.get("io_formats.bytes_written", 0), "bytes"),
    })
    for algo in ("sort", "iout", "kiou", "byte-l2", "byte-iou"):
        m[f"tracking.{algo}_s"] = (trackers.get(algo, 0.0), "s")
    m.update({
        "tracking.oracle_s": (t["tracking.run_oracle"], "s"),
        "tracking.self_s": (pass_.prefixed(pass_.self_time, "tracking.run_tracker:"), "s"),
        "tracking.iou_matrix_calls": (n["tracking.iou_matrix"], "count"),
        "tracking.iou_cells": (c.get("tracking.iou_cells", 0), "count"),
        "tracking.iou_matrix_s": (t["tracking.iou_matrix"], "s"),
        "tracking.hungarian_calls": (n["tracking.hungarian_match"], "count"),
        "tracking.hungarian_s": (t["tracking.hungarian_match"], "s"),
        "tracking.match_ratio": (_ratio(c.get("tracking.hungarian_pairs", 0),
                                        c.get("tracking.hungarian_min_dim", 0)), "ratio"),
        "tracking.us_per_det": (1e6 * _ratio(trackers.get("kiou", 0.0), kiou_dets), "us"),
        "moteval.evaluate_s": (t["moteval.evaluate"], "s"),
        "moteval.hungarian_calls": (n["moteval.hungarian_match"], "count"),
        "moteval.hungarian_s": (t["moteval.hungarian_match"], "s"),
        "moteval.hungarian_trivial_ratio": (_ratio(c.get("moteval.hungarian_trivial", 0),
                                                   n["moteval.hungarian_match"]), "ratio"),
        "moteval.iou_cells": (c.get("moteval.iou_cells", 0), "count"),
        "moteval.gt_instants": (c.get("moteval.gt_instants", 0), "count"),
        "moteval.us_per_gt_instant": (1e6 * _ratio(t["moteval.evaluate"],
                                                   c.get("moteval.gt_instants", 0)), "us"),
        "moteval.peak_alloc_mb": (extra.get("moteval.peak_alloc_mb", 0.0), "MB"),
        "moteval.hota": (extra.get("moteval.hota", 0.0), "score"),
        "gps.refine_calls": (refine_calls, "count"),
        "gps.refine_s": (gps_src.total["gps.refine"], "s"),
        "gps.correct_time_offset_s": (gps_src.total["gps.correct_time_offset"], "s"),
        "gps.refined_ratio": (_ratio(refined, refine_calls), "ratio"),
        "gps.ms_per_trace": (1e3 * _ratio(gps_src.total["gps.refine"], refine_calls), "ms"),
        "gps.bias_err_ft": (extra.get("gps.bias_err_ft", 0.0), "ft"),
        "drift.build_timeline_s": (t["drift.build_timeline"], "s"),
        "drift.snapshots_in": (c.get("drift.snapshots_in", 0), "count"),
        "drift.instant_accept_ratio": (_ratio(c.get("drift.instants", 0),
                                              c.get("drift.snapshots_in", 0)), "ratio"),
        "drift.build_static_s": (t["drift.build_static"], "s"),
        "drift.build_dynamic_s": (t["drift.build_dynamic"], "s"),
        "drift.build_baseline_s": (t["drift.build_baseline"], "s"),
        "drift.metrics_s": (t["drift.metric_fitness"] + t["drift.metric_full_drift"], "s"),
        "drift.fd_dynamic_ft": (extra.get("drift.fd_dynamic_ft", 0.0), "ft"),
        "drift.fd_static_ft": (extra.get("drift.fd_static_ft", 0.0), "ft"),
        "geometry.fit_homography_calls": (n["geometry.fit_homography"], "count"),
        "geometry.fit_homography_s": (t["geometry.fit_homography"], "s"),
        "geometry.full_consensus_ratio": (_ratio(c.get("geometry.full_consensus", 0),
                                                 n["geometry.fit_homography"]), "ratio"),
        "geometry.lift_calls": (n["geometry.lift_image_box_to_prism"], "count"),
        "geometry.lift_s": (t["geometry.lift_image_box_to_prism"], "s"),
        "geometry.project_prism_s": (t["geometry.project_prism_to_image"], "s"),
        "roadway.world_to_roadway_calls": (wtr_calls, "count"),
        "roadway.world_to_roadway_us_per_call": (
            1e6 * _ratio(t["roadway.world_to_roadway"], wtr_calls), "us"),
        "roadway.roadway_to_world_s": (t["roadway.roadway_to_world"], "s"),
        "roadway.localize_err_ft": (extra.get("roadway.localize_err_ft", 0.0), "ft"),
        "plots.render_s": (t["plots.line_chart"] + t["plots.bar_chart"], "s"),
        "trace.overhead_ratio": (extra["trace.overhead_ratio"], "ratio"),
        "bench.fail_ratio": (extra["bench.fail_ratio"], "ratio"),
    })
    return {k: _metric(v, u) for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------

def _measure(wl, ops, seconds):
    """Untraced run: set up SETUP_REPS times, then timed steps.

    Passes repeat until `seconds` have gone and MIN_PASSES are complete; the
    last pass may stop between steps.  The raw pass time is the sum over the
    pass's steps of each step's mean time.  A shared host's CPU speed
    wanders by up to 2x in spells of tens of seconds to minutes, so the
    times reported are rescaled to the reference speed: multiplied by
    PROBE_REF_S over the mean time of a fixed probe timed around the
    set-ups (for `setup_s`) or between the steps (for `wall_s`).
    """
    setup_probes = [_probe() for _ in range(3)]
    setup_s = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup(rep)
        setup_s.append(time.perf_counter() - t0)
        setup_probes.extend(_probe() for _ in range(3))
    probes, times, passes = [], {}, []
    start = last_probe = time.perf_counter()
    seconds = min(seconds, MAX_MEASURE_S)

    def done():
        return len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds

    while not done():
        data = {}
        for name, step in wl.steps(len(passes)):
            if done():
                break
            if not probes or time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(_probe())
                last_probe = time.perf_counter()
            step_s, data[name] = step(ops)
            times.setdefault(name, []).append(step_s)
        else:
            passes.append(data)
    wl.check(passes, ops)
    setup = statistics.median(setup_s) * PROBE_REF_S / statistics.mean(setup_probes)
    raw_wall = sum(statistics.mean(t) for t in times.values())
    wall = raw_wall * PROBE_REF_S / statistics.mean(probes)
    metrics = {
        "setup_s": _metric(setup, "s"),
        "wall_s": _metric(wall, "s"),
        "realtime_x": _metric(wl.scene_s / wall, "scene-s/s"),
        "peak_rss_mb": _metric(wl.peak_rss_mb(), "MB"),
    }
    facts = {"raw_setup_s": setup_s, "setup_probe_mean_s": statistics.mean(setup_probes),
             "raw_wall_s": raw_wall, "probe_mean_s": statistics.mean(probes),
             "probes": len(setup_probes) + len(probes),
             "passes": len(passes), "step_samples": sum(len(t) for t in times.values()),
             "measured_s": time.perf_counter() - start}
    return metrics, facts


def _traced(wl, ops, tracer, workloads):
    """Traced run: one traced set-up, one untraced and one traced pass."""
    setup_tr = tracer.Tracer(f"{wl.name}-{wl.seed}-setup")
    with tracer.installed(setup_tr if wl.in_process else None):
        wl.setup(0, setup_tr)
    untraced = workloads.run_pass(wl, 0, ops)
    pass_tr = tracer.Tracer(f"{wl.name}-{wl.seed}-pass")
    with tracer.installed(pass_tr if wl.in_process else None):
        traced = workloads.run_pass(wl, 0, ops, pass_tr)
    wl.check([untraced.data, traced.data], ops)
    extra = wl.traced_extras(ops, untraced, traced)
    probe = extra.pop("gps_probe", None)
    extra["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    extra["bench.fail_ratio"] = ops.failed / max(ops.attempted, 1)
    pass_sum = tracer.Summary(pass_tr)
    metrics = per_layer(tracer.Summary(setup_tr), pass_sum,
                        tracer.Summary(probe) if probe else pass_sum, extra)
    facts = {"pass_wall_s": [untraced.wall_s, traced.wall_s]}
    dumps = [setup_tr.dump(), pass_tr.dump()] + ([probe.dump()] if probe else [])
    return metrics, facts, dumps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("ladder", "cli-dense", "drift-localize"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "curvitrack", "__init__.py")):
        print("error: run from a checkout root; src/curvitrack not found",
              file=sys.stderr)
        return 2
    nproc = _nproc()
    _limit_blas_threads()
    if not args.trace:
        # One CPU for the benchmark and its stage processes, so the probe
        # times the CPU the work runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(root, "src"))
    import tracer
    import workloads

    workdir = os.path.join(root, RUN_DIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    ops = workloads.Ops()
    if args.trace:
        metrics, run_facts, dumps = _traced(wl, ops, tracer, workloads)
    else:
        metrics, run_facts = _measure(wl, ops, args.seconds)
    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             **_machine_facts(nproc), **wl.facts(), **run_facts}
    if args.trace:
        out_path = os.path.join(root, RUN_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(out_path, "w") as f:
            json.dump({"facts": facts, "metrics": metrics, "passes": dumps}, f)
    if ops.failed == 0:
        shutil.rmtree(workdir)   # a failed run keeps its inputs and stage logs
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
