"""Self-tests of the benchmark's own machinery. Run from the checkout root:

    python3 perfbench/selftest.py

They cover input determinism, span self-time arithmetic, and that the
output checks reject a corrupted artifact and a failing call.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading
import time

import run  # pins the thread environment and puts src/ on the path first
from run import ROOT

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from apmkit import RasterGrid, load_raster, save_raster  # noqa: E402
from tracing import ROOT as RUN_SPAN, Span  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "selftest"
TINY = inputs.Workload(
    name="tiny", why="", size=128, stages=inputs.ALL_STAGES, positives=6, others=12,
    tile_size=96, overlap=0.5,
)


def test_generator_determinism() -> None:
    for workload in (*inputs.WORKLOADS.values(), TINY):
        digests = []
        for copy, seed in (("a", 3), ("b", 3), ("c", 4)):
            out = SCRATCH / f"gen-{workload.name}-{copy}"
            inputs.generate(workload, seed, out)
            digests.append(checks.artifact_digests(out))
        assert digests[0] == digests[1], f"{workload.name}: same seed, different inputs"
        assert digests[0] != digests[2], f"{workload.name}: seed does not reach the inputs"


def test_self_time_arithmetic() -> None:
    # root [0, 10] with children A [1, 4] and B [3, 6] on two threads, C [8, 9];
    # A has a child D [2, 3]. Children cover [1, 6] and [8, 9] of the root.
    spans = [
        Span(0, None, "root", 1, 0.0, 10.0),
        Span(1, 0, "a", 2, 1.0, 4.0),
        Span(2, 0, "b", 3, 3.0, 6.0),
        Span(3, 0, "c", 1, 8.0, 9.0),
        Span(4, 1, "d", 2, 2.0, 3.0),
    ]
    assert tracing.self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert tracing.covered_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == 3.0


def _sleepy(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def test_tracer_threads_and_absence() -> None:
    module = sys.modules[__name__]
    tracer = tracing.Tracer()
    tracer.wrap(__name__, "_sleepy", "sleepy", {"naps": lambda a, k, r: 1})
    tracer.wrap(__name__, "no_such_function", "gone", {"gone.count": lambda a, k, r: 1})

    def body() -> None:
        threads = [threading.Thread(target=module._sleepy, args=(0.05,)) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    tracer.run(body)
    module._sleepy = module._sleepy.__wrapped__
    root = next(s for s in tracer.spans if s.name == RUN_SPAN)
    naps = [s for s in tracer.spans if s.name == "sleepy"]
    assert len(naps) == 2 and all(s.parent == root.id for s in naps)
    assert len({s.thread for s in naps}) == 2
    assert tracer.counts["naps"] == 2
    assert "gone" not in tracer.present and "gone.count" not in tracer.present
    summary = tracer.summary()
    # The naps overlap: together they cover at least 0.05 s of the root, not
    # their summed 0.1 s, and the root's self time stays non-negative.
    assert summary["sleepy"]["total"] >= 0.1
    assert 0.0 <= summary[RUN_SPAN]["self"] <= root.duration - 0.05


def test_checks_reject_bad_outputs() -> None:
    work = SCRATCH / "checks"
    input_dir = work / "inputs"
    inputs.generate(TINY, 5, input_dir)
    out = work / "out0"
    config = inputs.pipeline_config(TINY, 5, input_dir, out)
    call = run.run_call(config, work, 0)
    assert not call.failed, call.problems
    assert checks.check_outputs(TINY, input_dir, out) == []
    assert checks.spot_oracles(TINY, 5, input_dir, out) == []

    surface = out / "lamap_surface.grid"
    blob = surface.read_bytes()
    surface.write_bytes(blob[: len(blob) // 2])
    assert any("does not load" in p for p in checks.check_outputs(TINY, input_dir, out))
    surface.write_bytes(blob)

    report = out / "report.json"
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["metrics"]["auroc"] = 0.5
    report.write_text(json.dumps(doc), encoding="utf-8")
    assert any("AUROC" in p for p in checks.check_outputs(TINY, input_dir, out))

    for name, band, expect in (
        ("lamap_surface.grid", "potential", "ECDF oracle"),
        ("stack.grid", "dist_roads", "brute-force"),
    ):
        grid = load_raster(out / name)
        data = grid.data.copy()
        data[grid.band_index(band)] *= 0.99
        save_raster(RasterGrid(data, grid.geotransform, grid.nodata_mask,
                               grid.band_names, grid.meta), out / name)
        assert any(expect in p for p in checks.spot_oracles(TINY, 5, input_dir, out)), name

    config["inputs"]["dem"] = str(input_dir / "missing.grid")
    bad = run.run_call(config | {"output_dir": str(work / "out1")}, work, 1)
    assert bad.failed and "apmkit exit" in bad.problems[0], bad.problems


def test_benchmark_json_matches_the_harness() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {(w["name"], w["why"]) for w in doc["workloads"]} == {
        (w.name, w.why) for w in inputs.WORKLOADS.values()
    }
    assert {(m["name"], m["unit"]) for m in doc["end_to_end"]} == set(run.END_TO_END.items())
    # A traced call that saw nothing still reports every per-layer metric.
    empty = run.Call(0.0, result={"layers": {}, "absent": list(tracing.LAYER_METRICS), "run_s": 1.0})
    metrics, _ = run.layer_values(TINY, empty, run.Call(0.0, result={}), 0, 1.0)
    assert {(m["name"], m["unit"]) for m in doc["per_layer"]} == {
        (name, m["unit"]) for name, m in metrics.items()
    }


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        for test in tests:
            test()
            print(f"ok  {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
