"""End-to-end subcommand tests on temporary workspaces."""

import json
import re
import weakref

import numpy as np
import pytest

import apmkit.cli as cli_module
from apmkit import crf
from apmkit.cli import main
from apmkit.folds import FoldAssignment
from apmkit.lamap import LamapConfig, build_site_models, lamap_surface
from apmkit.metrics import MetricsReport
from apmkit.pipeline import build_feature_stack, evaluate_surface
from apmkit.pseudolabel import BranchPair, DplConfig, confident_pseudolabel, dpl_objective
from apmkit.raster.grid import RasterGrid, load_raster, save_raster
from apmkit.raster.sites import SiteRecord, write_sites_csv
from apmkit.raster.tiling import extract_window, load_plan, plan_windows


def synth_dem(h=24, w=32):
    r = np.arange(h)[:, None]
    c = np.arange(w)[None, :]
    z = 0.1 * r + 0.06 * c + np.sin(c / 5.0)
    return RasterGrid.from_array(z.astype(np.float32), (0.0, 0.0, 1.0, -1.0))


def synth_sites():
    return [
        SiteRecord("p1", 8.5, -8.5, "Roman Imperial", "positive", 9),
        SiteRecord("p2", 20.5, -15.5, "Roman Imperial", "positive", 4),
        SiteRecord("n1", 28.5, -4.5, "Roman Imperial", "negative", 1),
    ]


def synth_prob(seed, h=24, w=32):
    rng = np.random.default_rng(seed)
    vals = np.clip(rng.random((h, w)), 0.01, 0.99).astype(np.float32)
    return RasterGrid.from_array(vals, (0.0, 0.0, 1.0, -1.0))


@pytest.fixture
def ws(tmp_path):
    save_raster(synth_dem(), tmp_path / "dem.grid")
    write_sites_csv(tmp_path / "sites.csv", synth_sites())
    save_raster(synth_prob(1), tmp_path / "branch1.grid")
    save_raster(synth_prob(2), tmp_path / "branch2.grid")
    (tmp_path / "targets.json").write_text(
        json.dumps({"points": [[4.0, -4.0]], "lines": [[[0.0, -20.0], [31.0, -20.0]]]})
    )
    return tmp_path


class TestFeatureCommands:
    def test_derive_features_matches_library(self, ws):
        out = ws / "stack.grid"
        code = main(["derive-features", "--dem", str(ws / "dem.grid"), "--out", str(out)])
        assert code == 0
        got = load_raster(out)
        want = build_feature_stack(load_raster(ws / "dem.grid"))
        assert got.band_names == want.band_names
        assert np.array_equal(got.data, want.data, equal_nan=True)

    def test_derive_features_with_targets(self, ws):
        out = ws / "stack.grid"
        code = main([
            "derive-features", "--dem", str(ws / "dem.grid"),
            "--targets", str(ws / "targets.json"), "--out", str(out),
        ])
        assert code == 0
        assert load_raster(out).band_names[-1] == "dist_targets"

    def test_distance_map(self, ws):
        out = ws / "dist.grid"
        code = main([
            "distance-map", "--grid", str(ws / "dem.grid"),
            "--targets", str(ws / "targets.json"), "--out", str(out),
        ])
        assert code == 0
        dist = load_raster(out)
        r, c = dist.pixel_of(4.0, -4.0)
        assert dist.band(0)[r, c] == pytest.approx(0.0, abs=1e-6)

    def test_rasterize_labels(self, ws):
        out = ws / "labels.grid"
        code = main([
            "rasterize-labels", "--grid", str(ws / "dem.grid"),
            "--sites", str(ws / "sites.csv"), "--radius", "2.5", "--out", str(out),
        ])
        assert code == 0
        labels = load_raster(out)
        vals = labels.band(0)[~labels.nodata_mask]
        assert set(np.unique(vals)) <= {0.0, 1.0}


class TestSurfaceCommands:
    def test_lamap_matches_library(self, ws):
        out = ws / "lamap.grid"
        code = main([
            "lamap", "--stack", str(ws / "dem.grid"), "--sites", str(ws / "sites.csv"),
            "--catchment", "3", "--bandwidth", "10", "--out", str(out),
        ])
        assert code == 0
        cfg = LamapConfig(catchment_radius=3.0, kernel_bandwidth=10.0)
        stack = load_raster(ws / "dem.grid")
        positives = [s for s in synth_sites() if s.polarity == "positive"]
        want = lamap_surface(stack, build_site_models(stack, positives, cfg), cfg)
        got = load_raster(out)
        assert np.array_equal(got.data, want.data, equal_nan=True)

    def test_lamap_band_subset_by_name(self, ws):
        main(["derive-features", "--dem", str(ws / "dem.grid"), "--out", str(ws / "stack.grid")])
        code = main([
            "lamap", "--stack", str(ws / "stack.grid"), "--sites", str(ws / "sites.csv"),
            "--catchment", "3", "--bandwidth", "10", "--bands", "elevation,slope",
            "--out", str(ws / "s.grid"),
        ])
        assert code == 0

    def test_crf_refine_frees_guidance_before_steps(self, ws, monkeypatch):
        # The guidance is read for its features alone: its data is freed
        # before the first mean-field step.
        stack = build_feature_stack(load_raster(ws / "dem.grid"))
        save_raster(stack, ws / "stack.grid")
        refs, alive = [], []
        load, step = cli_module.load_raster, crf.mean_field_step

        def recording_load(path):
            grid = load(path)
            if str(path) == str(ws / "stack.grid"):
                refs.append(weakref.ref(grid.data))
            return grid

        def recording_step(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return step(*args, **kwargs)

        monkeypatch.setattr(cli_module, "load_raster", recording_load)
        monkeypatch.setattr(crf, "mean_field_step", recording_step)
        code = main([
            "crf-refine", "--logits", str(ws / "branch1.grid"),
            "--guidance", str(ws / "stack.grid"), "--iters", "3",
            "--out", str(ws / "refined.grid"),
        ])
        assert code == 0
        assert len(refs) == 1
        assert alive == [[False]] * 3

    def test_crf_refine_with_overrides(self, ws):
        logit_vals = (synth_prob(3).band(0) * 4.0 - 2.0).astype(np.float32)
        save_raster(
            RasterGrid.from_array(logit_vals, (0.0, 0.0, 1.0, -1.0)),
            ws / "logits.grid",
        )
        config = ws / "crf.json"
        config.write_text(json.dumps({"crf_temperature": 2.0, "iterations": 4}))
        out = ws / "refined.grid"
        code = main([
            "crf-refine", "--logits", str(ws / "logits.grid"),
            "--guidance", str(ws / "dem.grid"), "--config", str(config),
            "--sigma", "2.0", "--iters", "2", "--out", str(out),
        ])
        assert code == 0
        refined = load_raster(out)
        assert refined.meta["sigma"] == 2.0
        assert refined.meta["iterations"] == 2
        assert refined.meta["temperature"] == 2.0
        vals = refined.band(0)[~refined.nodata_mask]
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_pseudolabel_outputs(self, ws):
        out_raster = ws / "pseudo.grid"
        out_json = ws / "loss.json"
        code = main([
            "pseudolabel", "--branch1", str(ws / "branch1.grid"),
            "--branch2", str(ws / "branch2.grid"), "--alpha", "0.5",
            "--step", "10", "--out-raster", str(out_raster),
            "--out-json", str(out_json),
        ])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert {"supervised", "pseudolabel", "consistency", "entropy", "total"} <= set(doc)
        assert doc["step"] == 10
        grid = load_raster(out_raster)
        assert grid.meta["alpha"] == 0.5

    def test_pseudolabel_alpha_sets_the_loss(self, ws):
        pair = BranchPair(load_raster(ws / "branch1.grid"), load_raster(ws / "branch2.grid"))
        outputs = []
        for seed in (0, 1):
            out = ws / f"seed{seed}"
            code = main([
                "pseudolabel", "--branch1", str(ws / "branch1.grid"),
                "--branch2", str(ws / "branch2.grid"), "--alpha", "0.5",
                "--seed", str(seed), "--out-raster", f"{out}.grid",
                "--out-json", f"{out}.json",
            ])
            assert code == 0
            pseudolabel = confident_pseudolabel(pair, DplConfig(), 0.5)
            want = dpl_objective(pair, None, DplConfig(), 0, pseudolabel)
            doc = json.loads((ws / f"seed{seed}.json").read_text())
            assert doc["pseudolabel"] == want.pseudolabel
            assert doc["total"] == want.total
            outputs.append(((ws / f"seed{seed}.grid").read_bytes(), doc))
        # A fixed alpha leaves nothing to the seed.
        assert outputs[0] == outputs[1]

    def test_pseudolabel_breakdown_scores_the_written_raster(self, ws):
        # The seeded alpha mixes the raster; the loss is that raster's loss.
        pair = BranchPair(load_raster(ws / "branch1.grid"), load_raster(ws / "branch2.grid"))
        code = main([
            "pseudolabel", "--branch1", str(ws / "branch1.grid"),
            "--branch2", str(ws / "branch2.grid"), "--seed", "1",
            "--out-raster", str(ws / "p.grid"), "--out-json", str(ws / "p.json"),
        ])
        assert code == 0
        want = dpl_objective(pair, None, DplConfig(), 0, load_raster(ws / "p.grid"))
        doc = json.loads((ws / "p.json").read_text())
        assert doc == {"step": 0, "loss_kind": "dice", **want.as_dict()}

    @pytest.mark.parametrize("labels", [False, True])
    def test_pseudolabel_matches_the_pipeline_stage(self, ws, labels):
        stages = ["labels", "pseudolabel"] if labels else ["pseudolabel"]
        inputs = {
            "stack": str(ws / "dem.grid"), "sites": str(ws / "sites.csv"),
            "branch1": str(ws / "branch1.grid"), "branch2": str(ws / "branch2.grid"),
        }
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(ws / "run"), "stages": stages, "seed": 9, "step": 40,
            "inputs": inputs,
        }))
        assert main(["run", "--config", str(cfg_path)]) == 0
        extra = ["--labels", str(ws / "run" / "labels.grid")] if labels else []
        code = main([
            "pseudolabel", "--branch1", inputs["branch1"], "--branch2", inputs["branch2"],
            *extra, "--seed", "9", "--step", "40", "--out-raster", str(ws / "cli.grid"),
            "--out-json", str(ws / "cli.json"),
        ])
        assert code == 0
        run = ws / "run"
        assert (ws / "cli.grid").read_bytes() == (run / "pseudolabel.grid").read_bytes()
        assert (ws / "cli.json").read_bytes() == (run / "loss_breakdown.json").read_bytes()


class TestSplitAndStitch:
    def test_split_folds_uniform(self, ws):
        out = ws / "folds.json"
        code = main([
            "split-folds", "--sites", str(ws / "sites.csv"), "--k", "3",
            "--strategy", "uniform", "--out", str(out),
        ])
        assert code == 0
        fa = FoldAssignment.load(out)
        assert fa.k == 3
        assert sorted(fa.fold_sizes()) == [1, 1, 1]

    def test_split_folds_stratified(self, ws):
        out = ws / "folds.json"
        code = main([
            "split-folds", "--sites", str(ws / "sites.csv"),
            "--stack", str(ws / "dem.grid"), "--k", "2", "--catchment", "3",
            "--out", str(out),
        ])
        assert code == 0
        fa = FoldAssignment.load(out)
        assert fa.strategy == "stratified"
        assert fa.imbalance is not None

    def test_stratified_requires_stack(self, ws, capsys):
        code = main([
            "split-folds", "--sites", str(ws / "sites.csv"), "--k", "2",
            "--out", str(ws / "folds.json"),
        ])
        assert code == 2
        assert "requires --stack" in capsys.readouterr().err

    @pytest.mark.parametrize("catchment", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("with_labels", [False, True], ids=["derived", "labels"])
    def test_out_of_range_catchment_is_config_error(self, ws, capsys, catchment, with_labels):
        labels = []
        if with_labels:
            assert main([
                "rasterize-labels", "--grid", str(ws / "dem.grid"), "--sites",
                str(ws / "sites.csv"), "--radius", "3", "--out", str(ws / "labels.grid"),
            ]) == 0
            labels = ["--labels", str(ws / "labels.grid")]
        out = ws / "folds.json"
        code = main([
            "split-folds", "--sites", str(ws / "sites.csv"), "--stack", str(ws / "dem.grid"),
            *labels, "--catchment", catchment, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--catchment must be finite and >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_stitch_plan_and_identity(self, ws):
        plan_path = ws / "plan.json"
        code = main([
            "stitch", "--grid", str(ws / "dem.grid"), "--tile", "8",
            "--overlap", "0.5", "--out-plan", str(plan_path),
        ])
        assert code == 0
        windows, shape, gt = load_plan(plan_path)
        dem = load_raster(ws / "dem.grid")
        assert shape == dem.shape
        assert windows == plan_windows(dem.height, dem.width, 8, 0.5)

        pred_paths = []
        for i, w in enumerate(windows):
            sub = np.ascontiguousarray(extract_window(dem.data, w))
            p = ws / f"pred_{i}.grid"
            save_raster(RasterGrid.from_array(sub, gt), p)
            pred_paths.append(str(p))
        out = ws / "stitched.grid"
        code = main(["stitch", "--plan", str(plan_path), "--pred", *pred_paths,
                     "--out", str(out)])
        assert code == 0
        assert np.allclose(load_raster(out).band(0), dem.band(0), atol=1e-6)

    def test_stitch_count_mismatch(self, ws):
        plan_path = ws / "plan.json"
        main(["stitch", "--grid", str(ws / "dem.grid"), "--tile", "8",
              "--overlap", "0.0", "--out-plan", str(plan_path)])
        code = main([
            "stitch", "--plan", str(plan_path),
            "--pred", str(ws / "branch1.grid"), "--out", str(ws / "x.grid"),
        ])
        assert code == 3

    def test_stitch_grid_without_mode(self, ws):
        with pytest.raises(SystemExit):
            main(["stitch", "--grid", str(ws / "dem.grid")])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--out-plan", "{plan}"],
            ["--grid", "{dem}", "--out-plan", "{plan}", "--plan", "{plan}"],
            ["--grid", "{dem}", "--out-plan", "{plan}", "--out", "{out}"],
            ["--plan", "{plan}", "--pred", "{dem}"],
            ["--plan", "{plan}", "--pred", "{dem}", "--out", "{out}", "--grid", "{dem}"],
            ["--plan", "{plan}", "--pred", "{dem}", "--out", "{out}", "--out-plan", "{plan}"],
            [],
        ],
        ids=["out-plan-alone", "plan-with-plan", "plan-with-out", "stitch-without-out",
             "stitch-with-grid", "stitch-with-out-plan", "no-mode"],
    )
    def test_stitch_mode_errors_exit_2(self, ws, capsys, argv):
        paths = {"dem": ws / "dem.grid", "plan": ws / "p.json", "out": ws / "s.grid"}
        with pytest.raises(SystemExit) as exc:
            main(["stitch", *(a.format(**paths) for a in argv)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (ws / "p.json").exists() and not (ws / "s.grid").exists()

    def test_stitch_masked_window_predictions(self, ws):
        rng = np.random.default_rng(5)
        mask = rng.random((8, 8)) < 0.25
        mask[2:4, 5:7] = True
        frame = RasterGrid.from_array(rng.normal(size=(8, 8)).astype(np.float32),
                                      (0.0, 0.0, 1.0, -1.0), mask)
        save_raster(frame, ws / "frame.grid")
        plan_path = ws / "plan.json"
        assert main(["stitch", "--grid", str(ws / "frame.grid"), "--tile", "4",
                     "--overlap", "0.5", "--out-plan", str(plan_path)]) == 0
        windows, _, gt = load_plan(plan_path)
        pred_paths = []
        for i, w in enumerate(windows):
            sub = RasterGrid.from_array(np.array(extract_window(frame.data, w)), gt,
                                        np.array(extract_window(frame.nodata_mask, w)))
            save_raster(sub, ws / f"pred_{i}.grid")
            pred_paths.append(str(ws / f"pred_{i}.grid"))
        out = ws / "stitched.grid"
        assert main(["stitch", "--plan", str(plan_path), "--pred", *pred_paths,
                     "--out", str(out)]) == 0
        got = load_raster(out)
        assert np.array_equal(got.nodata_mask, mask)
        assert np.allclose(got.band(0)[~mask], frame.band(0)[~mask], atol=1e-6)


class TestEvaluate:
    def test_report(self, ws):
        out = ws / "report.json"
        code = main([
            "evaluate", "--pred", str(ws / "branch1.grid"),
            "--sites", str(ws / "sites.csv"), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["metrics"]["auroc"] is not None
        assert len(doc["bins"]) == 6

    def test_volume_gain_against_baseline(self, ws):
        base_report = evaluate_surface(
            load_raster(ws / "branch2.grid"), synth_sites(),
            metadata={"surface": "baseline_run"},
        )
        base_path = ws / "base.json"
        base_path.write_text(json.dumps(base_report.to_dict()))
        out = ws / "report.json"
        code = main([
            "evaluate", "--pred", str(ws / "branch1.grid"),
            "--sites", str(ws / "sites.csv"),
            "--baseline-report", str(base_path), "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["volume_gain"] is not None
        assert doc["baseline_name"] == "baseline_run"


    GOOD_METRICS = {"auroc": 0.7, "aul": 0.6, "dice": 0.5, "iou": 0.4, "f1": 0.5, "accuracy": 0.6}

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"auroc": "x"},
            {"bins": []},
            {"metrics": [0.7, 0.6]},
            {"metrics": {**GOOD_METRICS, "auroc": "x"}},
            {"metrics": GOOD_METRICS, "bins": {"lo": 0.0}},
            {"metrics": GOOD_METRICS, "bins": [{"lo": 0.0, "hi": 0.5}]},
            {"metrics": GOOD_METRICS, "density_histogram": ["a"]},
            {"metrics": GOOD_METRICS, "metadata": 5},
            {"metrics": GOOD_METRICS, "schema_version": "1"},
        ],
        ids=[
            "array", "no-metrics", "metrics-missing", "metrics-list", "metric-string",
            "bins-object", "bin-missing-count", "histogram-string", "metadata-number",
            "version-string",
        ],
    )
    def test_malformed_baseline_report_is_config_error(self, ws, capsys, doc):
        base_path = ws / "base.json"
        base_path.write_text(json.dumps(doc))
        out = ws / "report.json"
        code = main([
            "evaluate", "--pred", str(ws / "branch1.grid"),
            "--sites", str(ws / "sites.csv"),
            "--baseline-report", str(base_path), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        # The message names the report, as "report ..." or "unknown report key ...".
        assert re.match(r"apmkit: error: (unknown )?report ", err) and "Traceback" not in err
        assert not out.exists()

    def test_multi_band_surface_is_data_error(self, tmp_path, capsys):
        # A per-class raster [1 - p, p]: its band 0 would score AUROC 0
        # where the one-band surface p scores 1.
        p = np.linspace(0.05, 0.95, 64, dtype=np.float32).reshape(8, 8)
        gt = (0.0, 0.0, 1.0, -1.0)
        save_raster(RasterGrid.from_array(p, gt), tmp_path / "p.grid")
        save_raster(RasterGrid.from_array(np.stack([1.0 - p, p]), gt), tmp_path / "classes.grid")
        write_sites_csv(tmp_path / "sites.csv", [
            SiteRecord("p1", 7.5, -7.5, "Roman Imperial", "positive", 1),
            SiteRecord("n1", 0.5, -0.5, "Roman Imperial", "negative", 1),
        ])
        args = ["evaluate", "--sites", str(tmp_path / "sites.csv"), "--out"]
        assert main([*args, str(tmp_path / "p.json"), "--pred", str(tmp_path / "p.grid")]) == 0
        assert json.loads((tmp_path / "p.json").read_text())["metrics"]["auroc"] == 1.0
        out = tmp_path / "classes.json"
        assert main([*args, str(out), "--pred", str(tmp_path / "classes.grid")]) == 3
        err = capsys.readouterr().err
        assert "single-band, got 2 bands" in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_bins_is_config_error_with_positives_only(self, tmp_path, capsys):
        # With one labeled class no bins are computed, so the flag's range
        # must be checked before the sites are looked at.
        save_raster(synth_prob(3, 8, 8), tmp_path / "prob.grid")
        write_sites_csv(tmp_path / "sites.csv", [
            SiteRecord("p1", 2.5, -2.5, "Roman Imperial", "positive", 1),
            SiteRecord("p2", 5.5, -6.5, "Roman Imperial", "positive", 2),
        ])
        out = tmp_path / "report.json"
        code = main([
            "evaluate", "--pred", str(tmp_path / "prob.grid"),
            "--sites", str(tmp_path / "sites.csv"), "--bins", "0", "--out", str(out),
        ])
        assert code == 2
        assert "n_bins" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_without_radar_value_is_data_error(self, ws, capsys):
        base_path = ws / "base.json"
        base_path.write_text(json.dumps({"metrics": {**self.GOOD_METRICS, "iou": None}}))
        code = main([
            "evaluate", "--pred", str(ws / "branch1.grid"),
            "--sites", str(ws / "sites.csv"),
            "--baseline-report", str(base_path), "--out", str(ws / "report.json"),
        ])
        assert code == 3
        assert "radar metric 'iou'" in capsys.readouterr().err


    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_report_write_keeps_previous_file(self, ws, monkeypatch, previous):
        out = ws / "reports" / "report.json"
        out.parent.mkdir()
        if previous:
            out.write_text("{}\n")
        # The report cannot be serialised, so the write fails part way.
        monkeypatch.setattr(MetricsReport, "to_dict", lambda self: {"a": 1, "z": object()})
        with pytest.raises(TypeError):
            main([
                "evaluate", "--pred", str(ws / "branch1.grid"),
                "--sites", str(ws / "sites.csv"), "--out", str(out),
            ])
        assert (out.read_text() if out.exists() else None) == ("{}\n" if previous else None)
        assert [p.name for p in out.parent.iterdir()] == (["report.json"] if previous else [])


class TestRunAndErrors:
    def test_run_pipeline(self, ws):
        cfg = {
            "output_dir": str(ws / "out"),
            "stages": ["derive-features"],
            "inputs": {"dem": str(ws / "dem.grid")},
        }
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (ws / "out" / "stack.grid").exists()
        assert (ws / "out" / "manifest.json").exists()

    def test_labels_without_a_frame_fails_before_any_output(self, ws, capsys):
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(ws / "out"),
            "stages": ["labels"],
            "inputs": {"dem": str(ws / "dem.grid"), "sites": str(ws / "sites.csv")},
        }))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "stage 'labels' requires inputs.stack" in capsys.readouterr().err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["rasterize-labels", "evaluate", "run"])
    def test_non_finite_site_coordinate_is_data_error(self, ws, capsys, coord, command):
        bad = ws / "bad_sites.csv"
        bad.write_text(f"{(ws / 'sites.csv').read_text()}a,{coord},5,Roman Imperial,positive,\n")
        (ws / "cfg.json").write_text(json.dumps({
            "output_dir": str(ws / "out"), "stages": ["labels"],
            "inputs": {"stack": str(ws / "dem.grid"), "sites": str(bad)},
        }))
        argv = {
            "rasterize-labels": ["--grid", str(ws / "dem.grid"), "--out", str(ws / "out")],
            "evaluate": ["--pred", str(ws / "branch1.grid"), "--out", str(ws / "out")],
            "run": ["--config", str(ws / "cfg.json")],
        }[command]
        sites = [] if command == "run" else ["--sites", str(bad)]
        assert main([command, *argv, *sites]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "bad_sites.csv:5: site 'a': coordinates must be finite" in err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--pred", "missing.grid", "--sites", "missing.csv"],
            ["lamap", "--stack", "missing.grid", "--sites", "missing.csv", "--out", "o.grid"],
            ["rasterize-labels", "--grid", "missing.grid", "--sites", "missing.csv",
             "--out", "o.grid"],
        ],
        ids=["evaluate", "lamap", "rasterize-labels"],
    )
    def test_unknown_period_flag_exits_2_before_any_read(self, tmp_path, capsys, argv):
        # The inputs do not exist: a read would be exit 3.
        with pytest.raises(SystemExit) as exc:
            main([*(str(tmp_path / a) if "." in a else a for a in argv), "--period", "Bronze"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'Bronze'" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_run_unknown_period_fails_before_output_dir(self, ws, capsys):
        (ws / "cfg.json").write_text(json.dumps({
            "output_dir": str(ws / "out"), "stages": ["labels"], "period": "Bronze Age",
            "inputs": {"stack": str(ws / "dem.grid"), "sites": str(ws / "sites.csv")},
        }))
        assert main(["run", "--config", str(ws / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "unknown period 'Bronze Age'" in err and "Traceback" not in err
        assert not (ws / "out").exists()

    def test_run_negative_seed_fails_before_output_dir(self, ws, capsys):
        (ws / "cfg.json").write_text(json.dumps({
            "output_dir": str(ws / "out"), "seed": -1,
            "stages": ["derive-features", "labels", "lamap", "crf", "pseudolabel", "evaluate"],
            "inputs": {
                "dem": str(ws / "dem.grid"), "sites": str(ws / "sites.csv"),
                "branch1": str(ws / "branch1.grid"), "branch2": str(ws / "branch2.grid"),
            },
        }))
        assert main(["run", "--config", str(ws / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not (ws / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["lamap", "--stack", "{dem}", "--sites", "{sites}", "--bands", "", "--out", "{out}"],
            ["pseudolabel", "--branch1", "{branch1}", "--branch2", "{branch2}", "--labels", "",
             "--out-raster", "{out}", "--out-json", "{out}.json"],
            ["crf-refine", "--logits", "{branch1}", "--guidance", "{dem}", "--config", "",
             "--out", "{out}"],
            ["pseudolabel", "--branch1", "{branch1}", "--branch2", "{branch2}", "--config", "",
             "--out-raster", "{out}", "--out-json", "{out}.json"],
            ["evaluate", "--pred", "{branch1}", "--sites", "{sites}", "--baseline-report", "",
             "--out", "{out}"],
            ["split-folds", "--sites", "{sites}", "--stack", "{dem}", "--labels", "",
             "--out", "{out}"],
        ],
        ids=[
            "lamap-bands", "pseudolabel-labels", "crf-refine-config", "pseudolabel-config",
            "evaluate-baseline-report", "split-folds-labels",
        ],
    )
    def test_empty_optional_flag_is_config_error(self, ws, capsys, argv):
        # An empty value is not an absent flag: it exits 2 and writes nothing.
        paths = {
            "dem": ws / "dem.grid", "sites": ws / "sites.csv", "branch1": ws / "branch1.grid",
            "branch2": ws / "branch2.grid", "out": ws / "out" / "result",
        }
        (ws / "out").mkdir()
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "given but empty" in err and "Traceback" not in err
        assert list((ws / "out").glob("*")) == []

    def test_missing_file_is_data_error(self, ws, capsys):
        code = main([
            "evaluate", "--pred", str(ws / "nope.grid"),
            "--sites", str(ws / "sites.csv"), "--out", str(ws / "r.json"),
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("json_errors", [False, True], ids=["plain", "json"])
    def test_run_missing_input_is_data_error(self, ws, capsys, json_errors):
        # The subcommands exit 3 on a missing file; a run exits 3 as well.
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(ws / "out"), "stages": ["features"],
            "inputs": {"dem": str(ws / "missing.grid")},
        }))
        code = main(["--json-errors"] * json_errors + ["run", "--config", str(cfg_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if json_errors:
            doc = json.loads(err.strip().splitlines()[-1])
            assert (doc["error"], doc["exit_code"]) == ("DataError", 3)
            err = doc["message"]
        assert "stage 'features' failed" in err and "missing.grid" in err
        assert list((ws / "out").iterdir()) == []

    def test_crf_refine_off_the_guidance_frame_is_data_error(self, tmp_path, capsys):
        logits = RasterGrid.from_array(np.zeros((16, 16), np.float32), (0.0, 0.0, 1.0, -1.0))
        stack = RasterGrid.from_array(
            np.zeros((2, 16, 16), np.float32), (500.0, 900.0, 10.0, -10.0)
        )
        save_raster(logits, tmp_path / "logits.grid")
        save_raster(stack, tmp_path / "stack.grid")
        out = tmp_path / "out.grid"
        code = main([
            "crf-refine", "--logits", str(tmp_path / "logits.grid"),
            "--guidance", str(tmp_path / "stack.grid"), "--out", str(out),
        ])
        assert code == 3
        assert "different frames" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["logits.grid", "stack.grid"]

    def test_bad_config_is_config_error(self, ws):
        bad = ws / "bad.json"
        bad.write_text("{broken")
        code = main([
            "crf-refine", "--logits", str(ws / "branch1.grid"),
            "--guidance", str(ws / "dem.grid"), "--config", str(bad),
            "--out", str(ws / "x.grid"),
        ])
        assert code == 2

    def test_json_errors_channel(self, ws, capsys):
        code = main([
            "--json-errors", "evaluate", "--pred", str(ws / "nope.grid"),
            "--sites", str(ws / "sites.csv"), "--out", str(ws / "r.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        doc = json.loads(err.strip().splitlines()[-1])
        assert doc["error"] == "DataError"
        assert doc["exit_code"] == 3
        assert "nope.grid" in doc["message"]

    @pytest.mark.parametrize("flag,value", [
        ("--bandwidth", "0"), ("--catchment", "-1"), ("--catchment", "nan"),
        ("--catchment", "inf"), ("--bandwidth", "nan"), ("--bandwidth", "inf"),
    ])
    def test_lamap_out_of_range_flag_is_config_error(self, ws, capsys, flag, value):
        code = main([
            "lamap", "--stack", str(ws / "dem.grid"), "--sites", str(ws / "sites.csv"),
            flag, value, "--out", str(ws / "lamap.grid"),
        ])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (ws / "lamap.grid").exists()

    # A band named twice, by name and index or by index alone, is a config
    # error: it would count twice in every site's affinity.
    @pytest.mark.parametrize(
        "bands,code", [("-1", 2), ("0,-2", 2), ("99", 3), ("band_1,0", 2), ("0,0", 2)]
    )
    def test_lamap_band_index_exit_code(self, ws, capsys, bands, code):
        assert main([
            "lamap", "--stack", str(ws / "dem.grid"), "--sites", str(ws / "sites.csv"),
            "--catchment", "3", "--bandwidth", "10", f"--bands={bands}",
            "--out", str(ws / "lamap.grid"),
        ]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not list(ws.glob("lamap.grid*"))

    @staticmethod
    def band_run(ws, bands):
        (ws / "out").mkdir()
        (ws / "cfg.json").write_text(json.dumps({
            "output_dir": str(ws / "out"),
            "stages": ["features", "labels", "lamap"],
            "inputs": {"dem": str(ws / "dem.grid"), "sites": str(ws / "sites.csv")},
            "lamap": {"bands": bands},
        }))
        return main(["run", "--config", str(ws / "cfg.json")])

    @pytest.mark.parametrize("bands", [[-1], [], [0, -3], [0, 2, 0]])
    def test_run_bad_lamap_bands_fail_before_any_stage(self, ws, capsys, bands):
        assert self.band_run(ws, bands) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list((ws / "out").glob("*")) == []

    def test_run_band_past_the_stack_is_data_error(self, ws):
        assert self.band_run(ws, [99]) == 3
        assert not (ws / "out" / "lamap_surface.grid").exists()

    @staticmethod
    def far_site_ws(tmp_path):
        """A 64x64 stack of 10 m cells with one positive site near a corner:
        with a 0.5 m kernel bandwidth no site weighs the far pixels."""
        rng = np.random.default_rng(7)
        stack = RasterGrid.from_array(
            rng.normal(size=(64, 64)).astype(np.float32), (0.0, 640.0, 10.0, -10.0)
        )
        save_raster(stack, tmp_path / "stack.grid")
        write_sites_csv(
            tmp_path / "sites.csv",
            [SiteRecord("p1", 25.0, 615.0, "Roman Imperial", "positive", 3)],
        )
        return tmp_path

    def test_lamap_kernel_underflow_is_numeric_error(self, tmp_path, capsys):
        ws = self.far_site_ws(tmp_path)
        code = main([
            "lamap", "--stack", str(ws / "stack.grid"), "--sites", str(ws / "sites.csv"),
            "--catchment", "20", "--bandwidth", "0.5", "--out", str(ws / "lamap.grid"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "bandwidth 0.5" in err
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert not list(ws.glob("lamap.grid*"))

    def test_run_kernel_underflow_is_numeric_error(self, tmp_path):
        ws = self.far_site_ws(tmp_path)
        cfg = {
            "output_dir": str(ws / "out"),
            "stages": ["lamap"],
            "inputs": {"stack": str(ws / "stack.grid"), "sites": str(ws / "sites.csv")},
            "lamap": {"catchment_radius": 20.0, "kernel_bandwidth": 0.5},
        }
        (ws / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(ws / "cfg.json")]) == 4
        assert not (ws / "out" / "lamap_surface.grid").exists()

    @pytest.mark.parametrize("doc", [
        [1, 2], {"iterations": "5"}, {"sigma": [3]},
        # A field given by its name and its alias, in either order.
        {"compression": 2, "compression_factor": 4},
        {"crf_temperature": 2.0, "temperature": 1.0},
    ])
    def test_crf_refine_malformed_config_is_config_error(self, ws, doc):
        config = ws / "crf.json"
        config.write_text(json.dumps(doc))
        code = main([
            "crf-refine", "--logits", str(ws / "branch1.grid"),
            "--guidance", str(ws / "dem.grid"), "--config", str(config),
            "--out", str(ws / "x.grid"),
        ])
        assert code == 2

    def test_crf_refine_cache_beyond_memory_is_data_error(self, ws, capsys, monkeypatch):
        monkeypatch.setattr(crf, "_physical_memory", lambda: 1 << 10)
        config = ws / "crf.json"
        config.write_text(json.dumps({"compress_guidance": False}))
        code = main([
            "crf-refine", "--logits", str(ws / "branch1.grid"),
            "--guidance", str(ws / "dem.grid"), "--config", str(config),
            "--out", str(ws / "x.grid"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "compress_guidance" in err and "Traceback" not in err
        assert not list(ws.glob("x.grid*"))

    @pytest.mark.parametrize("doc", [["dice"], {"class_weights": ["a", "b"]}])
    def test_pseudolabel_malformed_config_is_config_error(self, ws, doc):
        config = ws / "dpl.json"
        config.write_text(json.dumps(doc))
        code = main([
            "pseudolabel", "--branch1", str(ws / "branch1.grid"),
            "--branch2", str(ws / "branch2.grid"), "--config", str(config),
            "--out-raster", str(ws / "p.grid"), "--out-json", str(ws / "p.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"rng_seed": 1}, "rng_seed"),
            (
                {"loss_kind": "tversky", "tversky_alpha": 0, "tversky_beta": 0, "dice_smooth": 0},
                "tversky_alpha",
            ),
            ({"dice_smooth": -1.0}, "dice_smooth"),
        ],
        ids=["rng-seed", "tversky-no-weights", "negative-smoothing"],
    )
    def test_pseudolabel_config_is_checked_before_any_output(self, tmp_path, capsys, doc, key):
        # 4x4 branches of 0.05 and 0.03: every hard pseudolabel target is 0.
        for name, value in (("b1.grid", 0.05), ("b2.grid", 0.03)):
            save_raster(RasterGrid.from_array(np.full((4, 4), value, np.float32)), tmp_path / name)
        (tmp_path / "dpl.json").write_text(json.dumps(doc))
        code = main([
            "pseudolabel", "--branch1", str(tmp_path / "b1.grid"),
            "--branch2", str(tmp_path / "b2.grid"), "--alpha", "0.5",
            "--config", str(tmp_path / "dpl.json"),
            "--out-raster", str(tmp_path / "p.grid"), "--out-json", str(tmp_path / "p.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not list(tmp_path.glob("p.*"))

    def test_pseudolabel_failed_json_write_leaves_no_raster(self, tmp_path, capsys):
        # The JSON's directory is missing: the raster, written first, goes too.
        for name, value in (("b1.grid", 0.2), ("b2.grid", 0.3)):
            save_raster(RasterGrid.from_array(np.full((4, 4), value, np.float32)), tmp_path / name)
        code = main([
            "pseudolabel", "--branch1", str(tmp_path / "b1.grid"),
            "--branch2", str(tmp_path / "b2.grid"), "--alpha", "0.5",
            "--out-raster", str(tmp_path / "out.grid"),
            "--out-json", str(tmp_path / "missing" / "out.json"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        # The error names the path given, not the temp written beside it.
        assert str(tmp_path / "missing" / "out.json") in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["b1.grid", "b2.grid"]

    def test_pseudolabel_json_onto_a_directory_leaves_no_raster(self, tmp_path, capsys):
        # --out-json names an existing directory, which is refused before
        # the raster, written first, is renamed.
        for name, value in (("b1.grid", 0.2), ("b2.grid", 0.3)):
            save_raster(RasterGrid.from_array(np.full((4, 4), value, np.float32)), tmp_path / name)
        (tmp_path / "d").mkdir()
        code = main([
            "pseudolabel", "--branch1", str(tmp_path / "b1.grid"),
            "--branch2", str(tmp_path / "b2.grid"), "--alpha", "0.5",
            "--out-raster", str(tmp_path / "out.grid"), "--out-json", str(tmp_path / "d"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"Is a directory: '{tmp_path / 'd'}'" in err and ".tmp" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["b1.grid", "b2.grid", "d"]

    def test_raster_write_into_missing_directory_names_the_target(self, ws, capsys):
        out = ws / "missing" / "stack.grid"
        code = main(["derive-features", "--dem", str(ws / "dem.grid"), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"No such file or directory: '{out}'" in err and ".tmp" not in err

    def test_run_config_with_dpl_rng_seed_is_config_error(self, ws, capsys):
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(ws / "out"), "stages": ["pseudolabel"], "seed": 3,
            "inputs": {"branch1": str(ws / "branch1.grid"), "branch2": str(ws / "branch2.grid")},
            "dpl": {"rng_seed": 3},
        }))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown config dpl key 'rng_seed'" in capsys.readouterr().err
        assert not (ws / "out").exists() or list((ws / "out").glob("*")) == []

    @pytest.mark.parametrize(
        "section",
        [
            {"lamap": {"bandwidth": 3}},
            {"dpl": {"tau": 0.9}},
            {"crf": {"sigmaa": 2}},
        ],
    )
    def test_bad_sub_config_fails_before_any_stage(self, ws, section):
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(ws / "out"),
            "stages": ["derive-features", "lamap", "crf", "pseudolabel"],
            "inputs": {
                "dem": str(ws / "dem.grid"),
                "sites": str(ws / "sites.csv"),
                "branch1": str(ws / "branch1.grid"),
                "branch2": str(ws / "branch2.grid"),
            },
            **section,
        }))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert list((ws / "out").glob("*")) == []

    @pytest.mark.parametrize(
        "patch",
        [
            {"inputs": {"dem": 5}},
            {"output_dir": 7},
            {"inputs": {"historical_targets": "roads.json"}},
            {"crf": {"compress_guidance": "no"}},
            {"crf": {"iterations": 5.5}},
            {"lamap": {"bands": [0.5]}},
            {"seed": 1.7},
            {"seed": "1"},
            {"step": "3"},
            {"label_radius": "3"},
            {"label_radius": -4},
            {"step": -3},
            {"stages": "features"},
            {"stages": [["features"]]},
        ],
        ids=lambda patch: json.dumps(patch),
    )
    def test_mistyped_value_fails_before_any_stage(self, ws, capsys, patch):
        doc = {
            "output_dir": str(ws / "out"),
            "stages": ["derive-features", "lamap", "crf", "pseudolabel"],
            "inputs": {
                "dem": str(ws / "dem.grid"),
                "sites": str(ws / "sites.csv"),
                "branch1": str(ws / "branch1.grid"),
                "branch2": str(ws / "branch2.grid"),
            },
        }
        for key, value in patch.items():
            both_objects = isinstance(value, dict) and isinstance(doc.get(key), dict)
            doc[key] = {**doc[key], **value} if both_objects else value
        (ws / "out").mkdir()
        cfg_path = ws / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list((ws / "out").glob("*")) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["rasterize-labels", "--grid", "{dem}", "--sites", "{sites}", "--radius", "-1",
             "--out", "{out}"],
            ["split-folds", "--sites", "{sites}", "--stack", "{dem}", "--catchment", "-1",
             "--out", "{out}"],
            ["evaluate", "--pred", "{branch1}", "--sites", "{sites}", "--bins", "0",
             "--out", "{out}"],
            ["pseudolabel", "--branch1", "{branch1}", "--branch2", "{branch2}",
             "--alpha", "2", "--out-raster", "{out}", "--out-json", "{out}.json"],
            ["pseudolabel", "--branch1", "{branch1}", "--branch2", "{branch2}",
             "--step", "-5", "--out-raster", "{out}", "--out-json", "{out}.json"],
            ["crf-refine", "--logits", "{branch1}", "--guidance", "{dem}", "--sigma", "nan",
             "--out", "{out}"],
            ["crf-refine", "--logits", "{branch1}", "--guidance", "{dem}", "--sigma", "inf",
             "--out", "{out}"],
            ["rasterize-labels", "--grid", "{dem}", "--sites", "{sites}", "--radius", "nan",
             "--out", "{out}"],
            ["rasterize-labels", "--grid", "{dem}", "--sites", "{sites}", "--radius", "inf",
             "--out", "{out}"],
            ["pseudolabel", "--branch1", "{branch1}", "--branch2", "{branch2}",
             "--seed", "-1", "--out-raster", "{out}", "--out-json", "{out}.json"],
            ["split-folds", "--sites", "{sites}", "--strategy", "uniform", "--k", "2",
             "--seed", "-1", "--out", "{out}"],
            ["lamap", "--stack", "{dem}", "--sites", "{sites}", "--catchment", "-1",
             "--out", "{out}"],
            ["lamap", "--stack", "{dem}", "--sites", "{sites}", "--bandwidth", "0",
             "--out", "{out}"],
        ],
        ids=[
            "rasterize-labels-radius", "split-folds-catchment", "evaluate-bins",
            "pseudolabel-alpha", "pseudolabel-step", "crf-refine-sigma-nan",
            "crf-refine-sigma-inf", "rasterize-labels-radius-nan", "rasterize-labels-radius-inf",
            "pseudolabel-seed", "split-folds-seed", "lamap-catchment", "lamap-bandwidth",
        ],
    )
    def test_out_of_range_flag_is_config_error(self, ws, capsys, argv):
        # The flag is checked before any input is read, so missing inputs exit 2 too.
        (ws / "out").mkdir()
        for inputs in (ws, ws / "missing"):
            paths = {
                "dem": inputs / "dem.grid", "sites": inputs / "sites.csv",
                "branch1": inputs / "branch1.grid", "branch2": inputs / "branch2.grid",
                "out": ws / "out" / "result",
            }
            assert main([a.format(**paths) for a in argv]) == 2
            assert "Traceback" not in capsys.readouterr().err
            assert list((ws / "out").glob("*")) == []

    @pytest.mark.parametrize(
        "targets",
        [
            {"points": [["a", 1]]}, {"points": 5}, {"lines": [[1, 2]]},
            {"points": [[float("nan"), 1]]}, {"lines": [[[0, 0], [float("inf"), 1]]]},
            {"lines": [[[0.5, -0.5]]]}, {"lines": [[]]},
        ],
        ids=[
            "point-string", "points-number", "vertex-number", "point-nan", "vertex-infinity",
            "line-one-vertex", "line-empty",
        ],
    )
    @pytest.mark.parametrize("command", ["distance-map", "derive-features", "run"])
    def test_malformed_targets_is_data_error(self, ws, capsys, targets, command):
        bad = ws / "bad_targets.json"
        bad.write_text(json.dumps(targets))
        out = ws / "out"
        if command == "distance-map":
            argv = ["distance-map", "--grid", str(ws / "dem.grid"), "--targets", str(bad),
                    "--out", str(out / "d.grid")]
        elif command == "derive-features":
            argv = ["derive-features", "--dem", str(ws / "dem.grid"), "--targets", str(bad),
                    "--out", str(out / "s.grid")]
        else:
            cfg_path = ws / "cfg.json"
            cfg_path.write_text(json.dumps({
                "output_dir": str(out),
                "stages": ["features"],
                "inputs": {"dem": str(ws / "dem.grid"), "historical_targets": [str(bad)]},
            }))
            argv = ["run", "--config", str(cfg_path)]
        out.mkdir()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "bad_targets.json" in err and "Traceback" not in err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize(
        "key,value",
        [
            ("width", None),
            ("height", None),
            ("bands", None),
            ("geotransform", None),
            ("band_names", None),
            ("width", -32),
            ("height", -1),
            ("geotransform", "abcd"),
            ("geotransform", 5),
            ("band_names", "x"),
            ("nodata", "none"),
        ],
    )
    def test_bad_grid_header_is_data_error(self, ws, capsys, key, value):
        def edit(header):
            if value is None:
                del header[key]
            else:
                header[key] = value

        self._assert_bad_grid_exits_3(ws, capsys, edit)

    def test_bytes_after_grid_payload_is_data_error(self, ws, capsys):
        self._assert_bad_grid_exits_3(ws, capsys, lambda header: None, tail=bytes(12))

    @staticmethod
    def _assert_bad_grid_exits_3(ws, capsys, edit, tail=b""):
        raw = (ws / "branch1.grid").read_bytes()
        hlen = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
        header = json.loads(raw[8:8 + hlen])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        bad = ws / "bad.grid"
        bad.write_bytes(
            raw[:4] + np.uint32(len(blob)).tobytes() + blob + raw[8 + hlen:] + tail
        )
        code = main([
            "evaluate", "--pred", str(bad),
            "--sites", str(ws / "sites.csv"), "--out", str(ws / "r.json"),
        ])
        assert code == 3
        assert "bad.grid" in capsys.readouterr().err
