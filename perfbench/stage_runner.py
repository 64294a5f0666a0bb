"""Run one `curvitrack.cli` stage with the benchmark's tracing installed.

    python3 perfbench/stage_runner.py OUT_JSON PASS_ID [--alloc] -- STAGE ARGS...

Installs the tracer's wrappers, calls `curvitrack.cli.main` with the stage
arguments, writes the spans, counts and the time spent inside `main` to
OUT_JSON, and exits with the stage's exit code.  With `--alloc` no spans
are recorded; instead the growth of the process's peak RSS across
`moteval.evaluate` is written.  The package is found through PYTHONPATH.
"""

import json
import sys
import time

import tracer


def main(argv) -> int:
    sep = argv.index("--")
    out_path, pass_id, *flags = argv[:sep]
    stage_argv = argv[sep + 1:]

    from curvitrack import cli, moteval

    tr = tracer.Tracer(pass_id)
    extra = {}
    alloc = "--alloc" in flags
    if alloc:
        evaluate = moteval.evaluate

        def measured(*args, **kwargs):
            report, extra["peak_alloc_mb"] = tracer.rss_growth_mb(
                lambda: evaluate(*args, **kwargs))
            return report

        moteval.evaluate = measured
    with tracer.installed(None if alloc else tr):
        t0 = time.perf_counter()
        rc = cli.main(stage_argv)
        main_s = time.perf_counter() - t0
    with open(out_path, "w") as f:
        json.dump(dict(tr.dump(), main_s=main_s, **extra), f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
