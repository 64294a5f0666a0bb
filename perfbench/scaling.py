"""Scaling view: per-unit costs at ladder's and cli-dense's traffic density.

    python3 perfbench/scaling.py [--seed N]

Reads the trace files that traced runs (`run.py --trace 1`) of `ladder` and
`cli-dense` wrote under .bench_run/ -- for seed N, or the newest of each --
and prints, for each per-unit cost, both values and cli-dense / ladder.
cli-dense has ten times ladder's arrival rate, so a ratio well above 1
means the cost grows faster than linearly with per-frame size.
"""

import argparse
import glob
import json
import os
import sys

METRICS = ("tracking.us_per_det", "moteval.us_per_gt_instant", "gps.ms_per_trace")
RUN_DIR = ".bench_run"


def _load(workload, seed):
    pattern = os.path.join(RUN_DIR, f"trace-{workload}-{seed if seed is not None else '*'}.json")
    paths = sorted(glob.glob(pattern), key=os.path.getmtime)
    if not paths:
        raise SystemExit(f"error: no trace file matches {pattern}; "
                         f"run perfbench/run.py --workload {workload} --trace 1 first")
    with open(paths[-1]) as f:
        return paths[-1], json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int)
    args = ap.parse_args(argv)
    (lpath, ladder), (dpath, dense) = _load("ladder", args.seed), _load("cli-dense", args.seed)
    print(f"ladder:    {lpath}\ncli-dense: {dpath}")
    print(f"{'metric':28} {'ladder':>12} {'cli-dense':>12} {'ratio':>8}")
    for name in METRICS:
        a = ladder["metrics"][name]
        b = dense["metrics"][name]
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(f"{name:28} {a['value']:12.2f} {b['value']:12.2f} {ratio:8.2f}  ({a['unit']})")
    for key in ("vehicles", "scene_s", "detections"):
        print(f"{key:28} {ladder['facts'].get(key, '')!s:>12} {dense['facts'].get(key, '')!s:>12}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
