"""One ``apmkit run`` call in a fresh process, measured.

The benchmark starts this script once per pipeline call, so the peak RSS
it reports belongs to that call alone. It drives the user path,
``apmkit.cli.main(["run", "--config", ...])``, and writes a JSON result:
exit code, wall and CPU seconds of the call, peak RSS and, when traced,
per-layer metrics.

    PYTHONPATH=src python3 perfbench/worker.py --config CFG --result OUT [--trace spans|memory]

``--trace spans`` wraps the layer functions listed in ``tracing.PROBES``;
``--trace memory`` does the same under ``tracemalloc`` and also records
each stage's peak traced allocation. The benchmark makes one call of each,
takes span timings from the first only, so that allocation tracing does
not inflate them, and compares the exact counts of the two.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

SRC = Path(__file__).resolve().parent.parent / "src"


def _stage_peaks() -> dict[str, float] | None:
    """Wrap each pipeline stage to record its peak traced allocation (MB).

    Returns the dict the wrappers fill, or None when the stage table is gone.
    """
    import apmkit.pipeline as pipeline

    stages = getattr(pipeline, "_STAGE_FUNCS", None)
    if not isinstance(stages, dict):
        return None
    peaks: dict[str, float] = {}

    def traced(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20

        return wrapper

    for name, fn in list(stages.items()):
        stages[name] = traced(name, fn)
    return peaks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured apmkit run call")
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", choices=("off", "spans", "memory"), default="off")
    parser.add_argument("--spans", help="write the raw spans here (with --trace spans)")
    args = parser.parse_args(argv)

    import apmkit
    from apmkit import cli

    if not Path(apmkit.__file__).resolve().is_relative_to(SRC):
        print(f"worker: apmkit imported from {apmkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer()
    peaks = None
    if args.trace != "off":
        tracing.install(tracer)
    if args.trace == "memory":
        peaks = _stage_peaks()
        tracemalloc.start()
    argv_run = ["run", "--config", args.config]
    start, cpu_start = time.perf_counter(), time.process_time()
    exit_code = cli.main(argv_run) if args.trace == "off" else tracer.run(cli.main, argv_run)
    run_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
    if args.trace == "memory":
        tracemalloc.stop()

    result = {
        "exit_code": exit_code,
        "run_s": run_s,
        "cpu_s": cpu_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace != "off":
        result["layers"], result["absent"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.dump(args.spans)
    if args.trace == "memory":
        result["stage_peak_mb"] = peaks
    Path(args.result).write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
