"""apmkit benchmark: seeded pipeline workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiled-crf --seed 1 --seconds 30 --trace 0

Set-up generates the workload's inputs from the seed in a fresh process,
several times; ``setup_s`` is the median wall time of one such process
(interpreter start, ``import apmkit``, generating and writing the inputs),
and every copy must be byte-identical. Then, for ``--seconds`` and at
least three times, a fresh worker process drives ``apmkit run`` on the
inputs; ``run_s``, ``cpu_s`` and ``peak_rss_mb`` are medians over those
calls. Every call's outputs are checked (checks.py) and must be
byte-identical to the first call's.

With ``--trace 1`` two more calls follow: one with spans around each
layer function, one that also traces allocations; the per-layer metrics
come from them, and their exact counts must agree.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (environment, per-call samples, problems, absent metrics).
"""

from __future__ import annotations

import os

# Pin the environment before numpy loads here or in any child: BLAS and
# OpenMP single-threaded, and no APMKIT_THREADS cap, so the only threads
# are the pipeline's own ("threads" in the workload config).
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("APMKIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
SETUPS = 7
MIN_CALLS = 3
CALL_TIMEOUT_S = 150
END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Call:
    """One worker process: its result, manifest stages and artifact digests."""

    wall_s: float
    result: dict | None = None
    stages: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_setup(workload: str, seed: int, dest: Path) -> float:
    """Generate the inputs in a fresh process; return its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(dest)],
        env=child_env(), capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed: {proc.stderr.strip()[-2000:]}")
    return wall


def run_call(config: dict, work: Path, index: int, trace: str = "off",
             spans: Path | None = None) -> Call:
    """Run one worker process on ``config`` and collect what it left."""
    cfg_path = work / f"config{index}.json"
    res_path = work / f"result{index}.json"
    cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(cfg_path),
           "--result", str(res_path), "--trace", trace]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Call(time.perf_counter() - start, problems=[f"call {index}: timed out"])
    call = Call(time.perf_counter() - start)
    last_error = (proc.stderr.strip().splitlines() or [""])[-1]
    if proc.returncode != 0 or not res_path.is_file():
        call.problems.append(f"call {index}: worker exit {proc.returncode}: {last_error}")
        return call
    call.result = json.loads(res_path.read_text(encoding="utf-8"))
    if call.result["exit_code"] != 0:
        call.problems.append(f"call {index}: apmkit exit {call.result['exit_code']}: {last_error}")
        return call
    manifest = Path(config["output_dir"]) / "manifest.json"
    call.stages = json.loads(manifest.read_text(encoding="utf-8")).get("stages", [])
    return call


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def layer_values(workload, spans_call: Call, memory_call: Call, frame_valid: int,
                 untraced_run_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from the two traced calls; absent ones read 0."""
    values = dict(spans_call.result["layers"])
    absent = list(spans_call.result["absent"])
    units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}

    steps = values.get("crf.pixel_steps")
    units["crf.useful_ratio"] = "ratio"
    if steps is None:
        absent.append("crf.useful_ratio")
    else:
        values["crf.useful_ratio"] = frame_valid * inputs.CRF_ITERATIONS / steps if steps else 0.0

    walls = {s.get("name"): s.get("wall_time_s") for s in spans_call.stages}
    peaks = memory_call.result.get("stage_peak_mb")
    for stage in inputs.ALL_STAGES:
        for metric, unit, source in (
            (f"pipeline.stage.{stage}_s", "s", walls),
            (f"pipeline.stage.{stage}_peak_mb", "MB", peaks),
        ):
            units[metric] = unit
            if source is None or (stage in workload.stages and source.get(stage) is None):
                absent.append(metric)
            else:
                values[metric] = source.get(stage, 0.0)

    units["trace.overhead_s"] = "s"
    values["trace.overhead_s"] = spans_call.result["run_s"] - untraced_run_s
    for name in absent:
        values[name] = 0
    return {name: {"value": values[name], "unit": units[name]} for name in units}, absent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="apmkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    args.seed %= 2**32  # numpy and apmkit seed streams take non-negative seeds

    if not (SRC / "apmkit" / "__init__.py").is_file():
        print(f"perfbench: no apmkit source under {SRC}", file=sys.stderr)
        return 2
    import checks  # imports apmkit

    workload = inputs.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    work = scratch / f"{workload.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        setups = [run_setup(workload.name, args.seed, work / f"inputs{i}") for i in range(SETUPS)]
        input_dir = work / "inputs0"
        first = checks.artifact_digests(input_dir)
        for i in range(1, SETUPS):
            if checks.artifact_digests(work / f"inputs{i}") != first:
                problems.append(f"input generation is not deterministic (copy {i})")

        reference: dict | None = None

        def call(index: int, trace: str = "off", spans: Path | None = None) -> Call:
            nonlocal reference
            out = work / f"out{index}"
            result = run_call(inputs.pipeline_config(workload, args.seed, input_dir, out),
                              work, index, trace, spans)
            if not result.failed:
                result.digests = checks.artifact_digests(out)
                if reference is None:
                    result.problems += checks.check_outputs(workload, input_dir, out)
                    result.problems += checks.spot_oracles(workload, args.seed, input_dir, out)
                    if not result.failed:
                        reference = result.digests
                elif result.digests != reference:
                    changed = sorted(
                        name for name in result.digests.keys() | reference.keys()
                        if result.digests.get(name) != reference.get(name)
                    )
                    result.problems.append(
                        f"call {index}: artifacts differ from the first call's: {changed}"
                    )
            shutil.rmtree(out, ignore_errors=True)
            return result

        calls: list[Call] = []
        measured = 0.0
        while len(calls) < MIN_CALLS or measured < args.seconds:
            calls.append(call(len(calls)))
            measured += calls[-1].wall_s
        traced: list[Call] = []
        if args.trace:
            scratch.mkdir(exist_ok=True)
            spans_path = scratch / f"spans-{workload.name}-s{args.seed}.json"
            traced = [call(len(calls), "spans", spans_path), call(len(calls) + 1, "memory")]
            if not any(c.failed for c in traced):
                a, b = (c.result["layers"] for c in traced)
                drift = [n for n in tracing.EXACT_COUNTS if a.get(n) != b.get(n)]
                if drift:
                    problems.append(f"exact counts drift between traced calls: {drift}")
        frame_valid = int((~checks.frame_mask(workload, input_dir)).sum())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = calls + traced
    failed = sum(c.failed for c in every)
    for c in every:
        problems += c.problems
    good = [c.result for c in calls if not c.failed]
    samples = {name: [r[name] for r in good] for name in ("run_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "environment": environment(),
        "samples": samples,
        "quartiles": {n: quartiles(v) for n, v in samples.items() if v},
        "fail_frac": failed / len(every),
        "problems": problems,
    }
    if not good or (args.trace and any(c.failed for c in traced)):
        print(json.dumps(info, sort_keys=True))
        print("perfbench: no successful call to report", file=sys.stderr)
        return 1
    if args.trace:
        metrics, info["absent"] = layer_values(
            workload, traced[0], traced[1], frame_valid, statistics.median(samples["run_s"])
        )
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
