"""End-to-end subcommand tests on temporary workspaces."""

import json

import numpy as np
import pytest

from apmkit import crf
from apmkit.cli import main
from apmkit.folds import FoldAssignment
from apmkit.lamap import LamapConfig, build_site_models, lamap_surface
from apmkit.metrics import MetricsReport
from apmkit.pipeline import build_feature_stack, evaluate_surface
from apmkit.raster.grid import RasterGrid, load_raster, save_raster
from apmkit.raster.sites import SiteRecord, write_sites_csv
from apmkit.raster.tiling import extract_window, load_plan, tile_plan


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
        assert windows == tile_plan(dem, 8, 0.5)

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
            {"metrics": [0.7, 0.6]},
            {"metrics": {**GOOD_METRICS, "auroc": "x"}},
            {"metrics": GOOD_METRICS, "bins": {"lo": 0.0}},
            {"metrics": GOOD_METRICS, "bins": [{"lo": 0.0, "hi": 0.5}]},
            {"metrics": GOOD_METRICS, "density_histogram": ["a"]},
            {"metrics": GOOD_METRICS, "metadata": 5},
            {"metrics": GOOD_METRICS, "schema_version": "1"},
        ],
        ids=[
            "array", "no-metrics", "metrics-list", "metric-string", "bins-object",
            "bin-missing-count", "histogram-string", "metadata-number", "version-string",
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
        assert err.startswith("apmkit: error: report ") and "Traceback" not in err
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

    def test_missing_file_is_data_error(self, ws, capsys):
        code = main([
            "evaluate", "--pred", str(ws / "nope.grid"),
            "--sites", str(ws / "sites.csv"), "--out", str(ws / "r.json"),
        ])
        assert code == 3
        assert "error" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag,value", [("--bandwidth", "0"), ("--catchment", "-1")])
    def test_lamap_out_of_range_flag_is_config_error(self, ws, capsys, flag, value):
        code = main([
            "lamap", "--stack", str(ws / "dem.grid"), "--sites", str(ws / "sites.csv"),
            flag, value, "--out", str(ws / "lamap.grid"),
        ])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (ws / "lamap.grid").exists()

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

    @pytest.mark.parametrize("doc", [[1, 2], {"iterations": "5"}, {"sigma": [3]}])
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
        ],
        ids=[
            "rasterize-labels-radius", "split-folds-catchment", "evaluate-bins",
            "pseudolabel-alpha", "pseudolabel-step",
        ],
    )
    def test_out_of_range_flag_is_config_error(self, ws, capsys, argv):
        paths = {
            "dem": ws / "dem.grid", "sites": ws / "sites.csv", "branch1": ws / "branch1.grid",
            "branch2": ws / "branch2.grid", "out": ws / "out" / "result",
        }
        (ws / "out").mkdir()
        assert main([a.format(**paths) for a in argv]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert list((ws / "out").glob("*")) == []

    @pytest.mark.parametrize(
        "targets", [{"points": [["a", 1]]}, {"points": 5}, {"lines": [[1, 2]]}],
        ids=["point-string", "points-number", "vertex-number"],
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
