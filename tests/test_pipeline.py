"""Configured batch runs: staging, artifacts and reproducibility."""

import dataclasses
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import apmkit.crf as crf_module
import apmkit.metrics as metrics_module
import apmkit.pipeline as pipeline_module
from apmkit.cli import main
from apmkit.errors import ConfigError, DataError, ToolkitError
from apmkit.metrics import (
    auroc_from_arrays,
    density_histogram,
    probability_density,
    volume_gain,
    write_density_csv,
)
from apmkit.pipeline import (
    PipelineConfig,
    build_feature_stack,
    evaluate_surface,
    run_pipeline,
)
from apmkit.pseudolabel import BranchPair, dpl_objective
from apmkit.raster.grid import RasterGrid, load_raster, save_raster
from apmkit.raster.sites import SiteRecord, read_sites_csv, write_sites_csv


def synth_dem(h=32, w=64):
    r = np.arange(h)[:, None]
    c = np.arange(w)[None, :]
    z = 0.08 * r + 0.05 * c + 2.0 * np.sin(c / 9.0) + np.cos(r / 7.0)
    return RasterGrid.from_array(z.astype(np.float32), (0.0, 0.0, 1.0, -1.0))


def synth_sites():
    return [
        SiteRecord("p1", 10.5, -10.5, "Roman Imperial", "positive", 12),
        SiteRecord("p2", 40.5, -20.5, "Roman Imperial", "positive", 7),
        SiteRecord("n1", 55.5, -5.5, "Roman Imperial", "negative", 1),
    ]


def synth_branch(sites, h=32, w=64, sharp=8.0, seed=0):
    """Probability bump field peaking at the positive sites."""
    r = np.arange(h)[:, None] + 0.5
    c = np.arange(w)[None, :] + 0.5
    field = np.zeros((h, w))
    for s in sites:
        if s.polarity != "positive":
            continue
        d2 = (c - s.x) ** 2 + (r + s.y) ** 2
        field = np.maximum(field, np.exp(-d2 / (2.0 * sharp**2)))
    jitter = np.random.default_rng(seed).normal(0.0, 0.01, size=(h, w))
    values = np.clip(0.05 + 0.9 * field + jitter, 0.01, 0.99)
    return RasterGrid.from_array(values.astype(np.float32), (0.0, 0.0, 1.0, -1.0))


@pytest.fixture
def workspace(tmp_path):
    dem = synth_dem()
    sites = synth_sites()
    save_raster(dem, tmp_path / "dem.grid")
    write_sites_csv(tmp_path / "sites.csv", sites)
    save_raster(synth_branch(sites, seed=1), tmp_path / "branch1.grid")
    save_raster(synth_branch(sites, seed=2), tmp_path / "branch2.grid")
    return tmp_path


def full_config(ws, out_name="out", seed=7):
    return {
        "output_dir": str(ws / out_name),
        "stages": [
            "derive-features", "labels", "lamap", "crf", "pseudolabel", "evaluate",
        ],
        "seed": seed,
        "inputs": {
            "dem": str(ws / "dem.grid"),
            "sites": str(ws / "sites.csv"),
            "branch1": str(ws / "branch1.grid"),
            "branch2": str(ws / "branch2.grid"),
        },
        "tile_size": 32,
        "overlap": 0.5,
        "label_radius": 3.0,
        "lamap": {"catchment_radius": 4.0, "kernel_bandwidth": 20.0},
        "crf": {"iterations": 2, "sigma": 2.0},
        "dpl": {"confidence_tau": 0.8},
        "step": 100,
    }


class TestConfig:
    def test_stage_alias_and_canonical_order(self):
        cfg = PipelineConfig.from_json(
            {
                "output_dir": "/tmp/x",
                "stages": ["labels", "derive-features"],
                "inputs": {"dem": "d.grid", "sites": "s.csv"},
            }
        )
        assert cfg.stages == ("features", "labels")

    def test_unknown_stage(self):
        with pytest.raises(ConfigError, match="unknown stage"):
            PipelineConfig.from_json(
                {"output_dir": "x", "stages": ["train"], "inputs": {}}
            )

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            PipelineConfig.from_json(
                {"output_dir": "x", "stages": ["features"],
                 "inputs": {"dem": "d"}, "workers": 4}
            )
        with pytest.raises(ConfigError, match="unknown config inputs key 'dsm'"):
            PipelineConfig.from_json(
                {"output_dir": "x", "stages": ["features"], "inputs": {"dsm": "d"}}
            )

    # Every requirement of every stage, by its full message. Each id names
    # the case's place in the list and the input or stage it leaves out.
    @pytest.mark.parametrize(
        "stages,inputs,message",
        [
            pytest.param(
                ["features"], {},
                "stage 'features' requires inputs.dem",
                id="stages0-inputs0-dem",
            ),
            pytest.param(
                ["labels"], {},
                "stage 'labels' requires inputs.sites",
                id="stages1-inputs1-sites",
            ),
            pytest.param(
                ["lamap"], {"sites": "s"},
                "stage 'lamap' requires inputs.stack or the features stage",
                id="stages2-inputs2-stack",
            ),
            pytest.param(
                ["crf"], {"stack": "f"},
                "stage 'crf' requires inputs.logits or inputs.branch1",
                id="stages3-inputs3-logits",
            ),
            pytest.param(
                ["pseudolabel"], {"branch1": "b1"},
                "stage 'pseudolabel' requires inputs.branch1 and inputs.branch2",
                id="stages4-inputs4-branch2",
            ),
            pytest.param(
                ["lamap", "evaluate"], {"stack": "f"},
                "stage 'lamap' requires inputs.sites",
                id="stages5-inputs5-sites",
            ),
            pytest.param(
                ["labels"], {"sites": "s"},
                "stage 'labels' requires inputs.stack or the features stage",
                id="stages6-inputs6-stack",
            ),
            pytest.param(
                ["crf"], {"branch1": "b1"},
                "stage 'crf' requires inputs.stack or the features stage",
                id="stages7-inputs7-stack",
            ),
            pytest.param(
                ["pseudolabel"], {"branch2": "b2"},
                "stage 'pseudolabel' requires inputs.branch1 and inputs.branch2",
                id="stages8-inputs8-branch1",
            ),
            pytest.param(
                ["crf", "evaluate"], {"stack": "f", "logits": "l"},
                "stage 'evaluate' requires inputs.sites",
                id="stages9-inputs9-sites",
            ),
            pytest.param(
                ["evaluate"], {"sites": "s"},
                "stage 'evaluate' requires a surface stage (lamap or crf)",
                id="stages10-inputs10-surface",
            ),
        ],
    )
    def test_missing_stage_inputs(self, stages, inputs, message):
        with pytest.raises(ConfigError, match=f"^bad config value: {re.escape(message)}$"):
            PipelineConfig.from_json(
                {"output_dir": "x", "stages": stages, "inputs": inputs}
            )

    def test_evaluate_needs_surface_stage(self):
        with pytest.raises(ConfigError, match="surface stage"):
            PipelineConfig.from_json(
                {"output_dir": "x", "stages": ["evaluate"], "inputs": {"sites": "s"}}
            )

    def test_value_ranges(self):
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({**base, "lamap": {"catchment_radius": -1.0}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({**base, "crf": {"beta": 2.0}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({**base, "dpl": {"confidence_tau": 0.5}})
        with pytest.raises(ConfigError, match="must be an object"):
            PipelineConfig.from_json({**base, "crf": [1, 2]})

    def test_unknown_period_is_config_error(self):
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        with pytest.raises(ConfigError, match="unknown period 'Bronze Age'"):
            PipelineConfig.from_json({**base, "period": "Bronze Age"})
        assert PipelineConfig.from_json({**base, "period": "Byzantine"}).period == "Byzantine"

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_label_radius_is_config_error(self, radius):
        cfg = PipelineConfig.from_json({"output_dir": "x", "stages": ["features"],
                                        "inputs": {"dem": "d"}})
        with pytest.raises(ConfigError, match="label_radius must be finite"):
            dataclasses.replace(cfg, label_radius=radius)

    def test_sub_configs_built_up_front(self):
        cfg = PipelineConfig.from_json({
            "output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"},
            "seed": 5,
            "lamap": {"bands": [0, 2]},
            "crf": {"compression_factor": 4},
            "dpl": {"confidence_tau": 0.9},
        })
        assert cfg.lamap.bands == (0, 2)
        assert cfg.crf.compression == 4
        assert cfg.dpl.confidence_tau == 0.9

    def test_retired_tiling_keys_warn_and_are_ignored(self, caplog):
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        with caplog.at_level("WARNING", logger="apmkit.pipeline"):
            cfg = PipelineConfig.from_json(
                {**base, "tile_size": 0, "overlap": 1.0, "threads": 0}
            )
        warnings = [r for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert all(k in warnings[0].getMessage() for k in ("tile_size", "overlap", "threads"))
        for key in ("tile_size", "overlap", "threads"):
            assert not hasattr(cfg, key)
            assert key not in dataclasses.asdict(cfg)
        assert cfg.config_hash() == PipelineConfig.from_json(base).config_hash()

    def test_config_hash_tracks_content(self):
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        a = PipelineConfig.from_json(base).config_hash()
        b = PipelineConfig.from_json(base).config_hash()
        c = PipelineConfig.from_json({**base, "seed": 1}).config_hash()
        assert a == b
        assert a != c
        assert len(a) == 64

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            PipelineConfig.from_json(path)

    def test_readme_example_and_minimal_config_keep_their_hash(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        assert PipelineConfig.from_json(example).config_hash() == (
            "f90cea2f4a1cd05158d6e5c03091e4dd542c07b477bf7774816b41be95b1391b"
        )
        minimal = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        assert PipelineConfig.from_json(minimal).config_hash() == (
            "8414eb98fbfbc000f3779c0e2e21b78c0e18d84cf13b489c1be146ae9b5cb78b"
        )

    def test_config_setting_every_key_keeps_its_hash(self):
        # Every key of every section, both CRF aliases and a retired key.
        doc = {
            "output_dir": "out", "stages": list(pipeline_module.STAGES), "seed": 11,
            "period": "Roman Imperial", "label_radius": 2.5, "step": 40, "tile_size": 64,
            "inputs": {
                "dem": "dem.grid", "stack": "stack.grid", "sites": "sites.csv",
                "branch1": "b1.grid", "branch2": "b2.grid", "logits": "logits.grid",
                "historical_targets": ["roads.json", "rivers.json"],
            },
            "lamap": {"catchment_radius": 150.0, "kernel_bandwidth": 800.0, "bands": [0, 2]},
            "crf": {
                "beta": 0.4, "sigma": 2.5, "feature_channels": 32, "compression_factor": 4,
                "crf_temperature": 2.0, "iterations": 4, "pairwise_weights": [0.5, 2.0],
                "compatibility": None, "compress_guidance": False,
            },
            "dpl": {
                "loss_kind": "tversky", "lambda_p": 0.5, "lambda_c_max": 2.0,
                "lambda_e_max": 0.2, "confidence_tau": 0.9, "ramp_fraction": 0.5,
                "total_steps": 500, "class_weights": [1.0, 3.0], "focal_gamma": 1.5,
                "tversky_alpha": 0.4, "tversky_beta": 0.6, "dice_smooth": 0.5,
            },
        }
        cfg = PipelineConfig.from_json(doc)
        assert (cfg.crf.compression, cfg.crf.temperature) == (4, 2.0)
        assert cfg.inputs.historical_targets == ("roads.json", "rivers.json")
        assert cfg.config_hash() == (
            "377e354d8e847e1481abf817b54a0c3abdf05909af190b08e410798a7afdb32f"
        )

    def test_integer_literal_in_float_field_is_stored_as_float(self):
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        cfg = PipelineConfig.from_json({**base, "crf": {"sigma": 3}, "label_radius": 2})
        assert type(cfg.crf.sigma) is float and cfg.crf.sigma == 3.0
        assert type(cfg.label_radius) is float
        as_float = PipelineConfig.from_json({**base, "crf": {"sigma": 3.0}, "label_radius": 2.0})
        assert cfg.config_hash() == as_float.config_hash()

    @pytest.mark.parametrize(
        "doc",
        [
            {"dem": "d"},
            {"inputs": {"seed": 1}},
            {"inputs": ["d"]},
            {"seed": True},
            {"period": 1},
            {"lamap": {"bands": "0"}},
            {"crf": {"pairwise_weights": [1.0]}},
            {"crf": {"sigma": float("nan")}},
            {"dpl": {"class_weights": [1, "2"]}},
            {"dpl": {"rng_seed": 0.5}},
        ],
    )
    def test_wrong_key_place_or_type_is_config_error(self, doc):
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}}
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({**base, **doc})

    def test_dpl_rng_seed_is_an_unknown_key(self):
        # The pseudolabel alpha comes from the run seed alone.
        base = {"output_dir": "x", "stages": ["features"], "inputs": {"dem": "d"}, "seed": 9}
        with pytest.raises(ConfigError, match="unknown config dpl key 'rng_seed'"):
            PipelineConfig.from_json({**base, "dpl": {"rng_seed": 2}})


class TestFeatureStack:
    def test_band_layout(self):
        stack = build_feature_stack(synth_dem())
        assert stack.band_names == ("elevation", "slope", "aspect", "hydro_proximity")
        assert np.array_equal(stack.band(0), synth_dem().band(0))

    def test_distance_bands_appended(self, tmp_path):
        targets = tmp_path / "roads.json"
        targets.write_text(json.dumps({"points": [[5.0, -5.0]], "lines": []}))
        stack = build_feature_stack(synth_dem(), [targets])
        assert stack.band_names[-1] == "dist_roads"
        r, c = stack.pixel_of(5.0, -5.0)
        assert stack.band(4)[r, c] == pytest.approx(0.0, abs=1e-6)

    def test_mask_propagates(self):
        dem = synth_dem()
        mask = np.zeros(dem.shape, dtype=bool)
        mask[0, :5] = True
        masked = RasterGrid(dem.data, dem.geotransform, mask, dem.band_names, {})
        stack = build_feature_stack(masked)
        assert stack.nodata_mask[0, 0]
        assert np.isnan(stack.band(0)[0, 0])


def sample_sites(surface, sites):
    """The evaluate path's site scores: the kept sites and the band read at
    their (rows, cols) index."""
    kept, pixels = pipeline_module._site_pixels(surface, sites)
    return kept, surface.band(0)[pixels]


class TestSampling:
    def test_reads_containing_pixels(self, make_grid):
        surface = make_grid(np.arange(12.0).reshape(3, 4) / 12.0)
        sites = [
            SiteRecord("a", 1.5, -0.5, "Byzantine", "positive"),
            SiteRecord("b", 3.5, -2.5, "Byzantine", "negative", 4),
            SiteRecord("u", 0.5, -0.5, "Byzantine", "unlabeled"),
        ]
        kept, scores = sample_sites(surface, sites)
        assert kept == sites
        assert scores.shape == (3,)
        assert scores[0] == pytest.approx(1 / 12, abs=1e-6)
        assert scores[1] == pytest.approx(11 / 12, abs=1e-6)
        assert scores[2] == 0.0
        assert [s.polarity for s in kept] == ["positive", "negative", "unlabeled"]
        assert [s.find_count for s in kept] == [None, 4, None]

    def test_skips_outside_and_masked(self, make_grid, caplog):
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        surface = make_grid(np.ones((3, 3)) * 0.5, mask=mask)
        sites = [
            SiteRecord("off", 99.0, -99.0, "Byzantine", "positive"),
            SiteRecord("hole", 1.5, -1.5, "Byzantine", "positive"),
            SiteRecord("ok", 0.5, -0.5, "Byzantine", "positive"),
        ]
        with caplog.at_level("WARNING"):
            kept, scores = sample_sites(surface, sites)
        assert kept == sites[2:] and scores.tolist() == [0.5]
        assert "off" in caplog.text and "hole" in caplog.text


class TestEvaluateSurface:
    def test_both_classes(self, make_grid):
        surface = make_grid(np.linspace(0.0, 1.0, 16).reshape(4, 4))
        sites = [
            SiteRecord("p", 3.5, -3.5, "Byzantine", "positive"),
            SiteRecord("n", 0.5, -0.5, "Byzantine", "negative"),
        ]
        report = evaluate_surface(surface, sites)
        assert report.metrics.auroc == 1.0
        assert report.metrics.accuracy == 1.0
        assert report.metrics.aul is not None
        assert len(report.bins) == 6
        assert len(report.density_histogram) == 100

    def test_auroc_leaves_unlabeled_sites_out_with_ties(self, make_grid, rng):
        values = rng.integers(0, 8, size=(6, 10)) / 8.0  # tied scores
        surface = make_grid(values)
        polarities = rng.choice(["positive", "negative", "unlabeled"], size=values.shape)
        polarities[0, :2] = ("positive", "negative")
        sites = [
            SiteRecord(f"s{r}_{c}", c + 0.5, -r - 0.5, "Byzantine", str(polarities[r, c]))
            for r in range(6) for c in range(10)
        ]
        labeled = polarities != "unlabeled"
        want = auroc_from_arrays(values[labeled], polarities[labeled] == "positive")
        assert evaluate_surface(surface, sites).metrics.auroc == want

    def test_positives_only(self, make_grid):
        surface = make_grid(np.linspace(0.0, 1.0, 16).reshape(4, 4))
        sites = [SiteRecord("p", 3.5, -3.5, "Byzantine", "positive")]
        report = evaluate_surface(surface, sites)
        assert report.metrics.auroc is None
        assert report.metrics.dice is None
        assert report.metrics.aul is not None

    def test_no_sites(self, make_grid):
        surface = make_grid(np.ones((3, 3)))
        with pytest.raises(DataError):
            evaluate_surface(surface, [])

    def test_baseline_on_another_frame_fails_before_any_site_is_read(self, make_grid, caplog):
        surface = make_grid(np.ones((3, 3)) * 0.5)
        baseline = make_grid(np.ones((3, 4)) * 0.5)
        sites = [SiteRecord("off", 99.0, -99.0, "Byzantine", "positive")]
        with caplog.at_level("WARNING"), pytest.raises(DataError, match="different frames"):
            evaluate_surface(surface, sites, baseline=("lamap", baseline))
        assert "skipped" not in caplog.text

    def test_baseline_masked_at_a_sampled_pixel_is_data_error(self, make_grid):
        surface = make_grid(np.linspace(0.0, 1.0, 9).reshape(3, 3))
        mask = np.zeros((3, 3), dtype=bool)
        mask[2, 2] = True
        baseline = make_grid(np.full((3, 3), 0.5), mask=mask)
        sites = [
            SiteRecord("p", 2.5, -2.5, "Byzantine", "positive"),
            SiteRecord("n", 0.5, -0.5, "Byzantine", "negative"),
        ]
        with pytest.raises(DataError, match="score must be finite"):
            evaluate_surface(surface, sites, baseline=("lamap", baseline))

    def test_metadata_merged(self, make_grid):
        surface = make_grid(np.ones((3, 3)) * 0.5)
        sites = [SiteRecord("p", 0.5, -0.5, "Byzantine", "positive")]
        report = evaluate_surface(surface, sites, metadata={"period": "Byzantine"})
        assert report.metadata["period"] == "Byzantine"
        assert report.metadata["bins"] == "equal_width"


def evaluate_run(ws, stages, out_name="out"):
    """A run of the given stages over the workspace's full config; its manifest."""
    doc = full_config(ws, out_name)
    doc["stages"] = stages
    return run_pipeline(PipelineConfig.from_json(doc))


def stage_artifacts(manifest, stage):
    (entry,) = (s for s in manifest["stages"] if s["name"] == stage)
    return [Path(p).name for p in entry["artifacts"]]


def evaluate_stage_calls(monkeypatch, owner, name):
    """A list that gains one entry per call of ``owner.name`` made inside
    the evaluate stage."""
    calls, inside = [], []
    func, body = getattr(owner, name), pipeline_module._STAGE_FUNCS["evaluate"]

    def counted(*args, **kwargs):
        calls.extend(inside)
        return func(*args, **kwargs)

    def evaluate(run):
        inside.append(1)
        try:
            body(run)
        finally:
            inside.clear()

    monkeypatch.setattr(owner, name, counted)
    monkeypatch.setitem(pipeline_module._STAGE_FUNCS, "evaluate", evaluate)
    return calls


EVALUATE_FILES = ["surface.grid", "surface_density.csv", "surface_difference.grid", "report.json"]


class TestSurfaceProducts:
    """The evaluate stage writes the surface, its density CSV and its
    difference from the LAMAP baseline when the surface is not that baseline."""

    def test_without_baseline(self, workspace):
        # The LAMAP surface is its own baseline: the report alone is written.
        manifest = evaluate_run(workspace, ["derive-features", "lamap", "evaluate"])
        assert stage_artifacts(manifest, "evaluate") == ["report.json"]
        assert not list((workspace / "out").glob("surface*"))

    def test_difference_oracle(self, workspace):
        self.check_difference(workspace, holed=False)

    def test_difference_oracle_under_a_mask(self, workspace, monkeypatch):
        # A nodata block on the refined surface only: the difference is
        # masked where either input is.
        refine = pipeline_module.crf_refine

        def with_hole(*args):
            grid = refine(*args)
            mask = grid.nodata_mask.copy()
            mask[4:12, 8:20] = True
            return RasterGrid(grid.data, grid.geotransform, mask, grid.band_names)

        monkeypatch.setattr(pipeline_module, "crf_refine", with_hole)
        self.check_difference(workspace, holed=True)

    @staticmethod
    def check_difference(workspace, holed):
        manifest = evaluate_run(workspace, ["derive-features", "lamap", "crf", "evaluate"])
        assert stage_artifacts(manifest, "evaluate") == EVALUATE_FILES
        out = workspace / "out"
        surface = load_raster(out / "refined_surface.grid")
        baseline = load_raster(out / "lamap_surface.grid")
        assert (out / "surface.grid").read_bytes() == (out / "refined_surface.grid").read_bytes()
        diff = load_raster(out / "surface_difference.grid")
        # The float64 route the stage once took, kept as the oracle.
        want = surface.band(0).astype(np.float64) - baseline.band(0).astype(np.float64)
        mask = surface.nodata_mask | baseline.nodata_mask
        assert mask.any() == holed and not mask.all()
        assert np.array_equal(diff.nodata_mask, mask)
        assert np.array_equal(diff.band(0).view(np.uint32), want.astype(np.float32).view(np.uint32))

    def test_float32_difference_is_the_rounded_float64_difference(self, rng):
        # float64 has 53 >= 2 * 24 + 2 significand bits, so a float32
        # subtraction done in float64 and rounded once is the correctly
        # rounded float32 result. Bit patterns cover every float32 class:
        # zeros of both signs, subnormals, normals, infinities and NaNs.
        a = rng.integers(0, 2**32, 2**20, dtype=np.uint64).astype(np.uint32).view(np.float32)
        b = rng.integers(0, 2**32, 2**20, dtype=np.uint64).astype(np.uint32).view(np.float32)
        tiny = np.float32(np.finfo(np.float32).smallest_subnormal)
        a[:4096] = rng.integers(-2000, 2000, 4096) * tiny
        b[:4096] = rng.integers(-2000, 2000, 4096) * tiny
        with np.errstate(all="ignore"):
            got = a - b
            want = (a.astype(np.float64) - b.astype(np.float64)).astype(np.float32)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint32), want[~nan].view(np.uint32))

    def test_zero_difference(self, workspace, monkeypatch):
        out = workspace / "out"
        # A CRF surface equal to, but not the same object as, the baseline.
        monkeypatch.setattr(
            pipeline_module, "crf_refine", lambda *args: load_raster(out / "lamap_surface.grid")
        )
        evaluate_run(workspace, ["derive-features", "lamap", "crf", "evaluate"])
        diff = load_raster(out / "surface_difference.grid")
        assert np.allclose(diff.band(0)[~diff.nodata_mask], 0.0, atol=0.0)

    def test_frame_mismatch(self, workspace, monkeypatch):
        wider = RasterGrid.from_array(np.full((32, 65), 0.5, np.float32), (0.0, 0.0, 1.0, -1.0))
        monkeypatch.setattr(pipeline_module, "crf_refine", lambda *args: wider)
        with pytest.raises(DataError, match="stage 'evaluate' failed: .*different frames"):
            evaluate_run(workspace, ["derive-features", "lamap", "crf", "evaluate"])
        names = {p.name for p in (workspace / "out").rglob("*")}
        assert not names & set(EVALUATE_FILES)

    def test_failed_write_quarantines_every_evaluate_file(self, workspace, monkeypatch):
        # The third write of the stage fails: the two files written before
        # it go with it, and no temp file is left.
        save = pipeline_module.save_raster
        written = []

        def failing(grid, path):
            written.append(Path(path).name)
            if "surface_difference.grid" in Path(path).name:
                raise OSError("No space left on device")
            save(grid, path)

        monkeypatch.setattr(pipeline_module, "save_raster", failing)
        with pytest.raises(DataError, match="stage 'evaluate' failed: No space left"):
            evaluate_run(workspace, ["derive-features", "lamap", "crf", "evaluate"])
        assert any("surface.grid" in name for name in written)
        out = workspace / "out"
        assert sorted(p.name for p in out.rglob("*")) == [
            "lamap_surface.grid", "refined_surface.grid", "stack.grid",
        ]


class TestRun:
    def test_features_only(self, workspace):
        cfg = PipelineConfig.from_json(
            {
                "output_dir": str(workspace / "feat"),
                "stages": ["derive-features"],
                "inputs": {"dem": str(workspace / "dem.grid")},
            }
        )
        manifest = run_pipeline(cfg)
        out = workspace / "feat"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "stack.grid"]
        assert [s["name"] for s in manifest["stages"]] == ["features"]
        stack = load_raster(out / "stack.grid")
        assert stack.band_names == ("elevation", "slope", "aspect", "hydro_proximity")

    def test_full_run_artifacts(self, workspace):
        cfg = PipelineConfig.from_json(full_config(workspace))
        manifest = run_pipeline(cfg)
        out = workspace / "out"
        names = {p.name for p in out.iterdir()}
        assert {
            "stack.grid", "labels.grid", "lamap_surface.grid",
            "refined_surface.grid", "pseudolabel.grid", "loss_breakdown.json",
            "surface.grid", "surface_density.csv", "surface_difference.grid",
            "report.json", "manifest.json",
        } <= names
        assert [s["name"] for s in manifest["stages"]] == [
            "features", "labels", "lamap", "crf", "pseudolabel", "evaluate",
        ]
        assert manifest["seed"] == 7
        assert manifest["config_hash"] == cfg.config_hash()

        refined = load_raster(out / "refined_surface.grid")
        vals = refined.band(0)[~refined.nodata_mask]
        assert np.all((vals >= 0.0) & (vals <= 1.0))

        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["metrics"]["auroc"] is not None
        assert report["baseline_name"] == "lamap"
        assert report["volume_gain"] is not None
        assert len(report["bins"]) == 6

        breakdown = json.loads((out / "loss_breakdown.json").read_text())
        assert {"supervised", "pseudolabel", "consistency", "entropy", "total"} <= set(
            breakdown
        )

    @pytest.mark.parametrize(
        "stages", [["pseudolabel"], ["features", "labels", "pseudolabel"]], ids=["alone", "labels"]
    )
    def test_loss_breakdown_scores_the_written_pseudolabel(self, workspace, stages):
        doc = {**full_config(workspace), "stages": stages, "step": 40}
        cfg = PipelineConfig.from_json(doc)
        run_pipeline(cfg)
        out = workspace / "out"
        pair = BranchPair(
            load_raster(workspace / "branch1.grid"), load_raster(workspace / "branch2.grid")
        )
        labels = load_raster(out / "labels.grid") if "labels" in stages else None
        written = load_raster(out / "pseudolabel.grid")
        want = dpl_objective(pair, labels, cfg.dpl, 40, written)
        breakdown = json.loads((out / "loss_breakdown.json").read_text())
        assert breakdown == {"step": 40, "loss_kind": cfg.dpl.loss_kind, **want.as_dict()}
        assert (want.supervised != 0.0) == ("labels" in stages)

    def test_crf_stage_matches_crf_refine_command(self, workspace):
        # The 32x64 frame exceeds the retired tile_size of 32 that
        # full_config still carries, so a tiled CRF stage would differ.
        branch = load_raster(workspace / "branch1.grid")
        p = np.clip(branch.band(0).astype(np.float64), 1e-7, 1.0 - 1e-7)
        logits = RasterGrid.from_array(
            np.log(p / (1.0 - p)).astype(np.float32), branch.geotransform
        )
        save_raster(logits, workspace / "logits.grid")
        doc = full_config(workspace)
        doc["inputs"]["logits"] = str(workspace / "logits.grid")
        doc["threads"] = 2
        run_pipeline(PipelineConfig.from_json(doc))
        out = workspace / "out"
        (workspace / "crf.json").write_text(json.dumps(doc["crf"]))
        code = main([
            "crf-refine", "--logits", str(workspace / "logits.grid"),
            "--guidance", str(out / "stack.grid"),
            "--config", str(workspace / "crf.json"),
            "--out", str(workspace / "cli_refined.grid"),
        ])
        assert code == 0
        assert (out / "refined_surface.grid").read_bytes() == (
            workspace / "cli_refined.grid"
        ).read_bytes()

    def test_evaluate_computes_density_once(self, workspace, monkeypatch):
        calls = []
        density = metrics_module.probability_density

        def counted(*args, **kwargs):
            calls.append(1)
            return density(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "probability_density", counted)
        histograms = evaluate_stage_calls(monkeypatch, np, "histogram")
        run_pipeline(PipelineConfig.from_json(full_config(workspace)))
        assert len(calls) == 1
        assert len(histograms) == 1  # the report's histogram is the CSV's
        monkeypatch.undo()

        # The report and CSV equal what the library functions compute directly.
        out = workspace / "out"
        surface = load_raster(out / "refined_surface.grid")
        baseline = load_raster(out / "lamap_surface.grid")
        sites = read_sites_csv(workspace / "sites.csv")
        report = evaluate_surface(surface, sites, metadata={"surface": "crf", "period": None})
        gain = volume_gain(report, evaluate_surface(baseline, sites))
        report = dataclasses.replace(report, volume_gain=gain, baseline_name="lamap")
        want = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert (out / "report.json").read_text() == want
        scores = surface.band(0)[~surface.nodata_mask]
        write_density_csv(
            workspace / "lib_density.csv", report.density_histogram, probability_density(scores)
        )
        assert (out / "surface_density.csv").read_bytes() == (
            workspace / "lib_density.csv"
        ).read_bytes()
        rows = (out / "surface_density.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [
            format(h, ".10g") for h in json.loads(want)["density_histogram"]
        ]

    def test_zero_baseline_radar_area_omits_volume_gain(self, workspace, monkeypatch, caplog):
        def inverted(stack, sites, cfg):
            # Positives score below 0.5 and negatives above: the baseline's
            # accuracy, AUROC, F1, dice and IoU are all 0.
            values = np.full(stack.shape, 0.9, np.float32)
            for site in sites:
                if site.polarity == "positive":
                    values[stack.pixel_of(site.x, site.y)] = 0.1
            return RasterGrid.from_array(values, stack.geotransform)

        monkeypatch.setattr(pipeline_module, "lamap_from_sites", inverted)
        with caplog.at_level("WARNING"):
            evaluate_run(workspace, ["derive-features", "lamap", "crf", "evaluate"])
        report = json.loads((workspace / "out" / "report.json").read_text())
        assert report["metrics"]["auroc"] is not None
        assert (report["volume_gain"], report["baseline_name"]) == (None, None)
        assert caplog.text.count("baseline radar area is zero; volume gain omitted") == 1

    @pytest.mark.parametrize(
        "stage,surface_file",
        [("crf", "refined_surface.grid"), ("lamap", "lamap_surface.grid")],
        ids=["crf", "lamap"],
    )
    def test_evaluate_without_csv_builds_no_density_curve(
        self, workspace, monkeypatch, stage, surface_file
    ):
        calls = []
        density = metrics_module.probability_density

        def counted(*args, **kwargs):
            calls.append(1)
            return density(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "probability_density", counted)
        histograms = evaluate_stage_calls(monkeypatch, np, "histogram")
        doc = full_config(workspace)
        doc["stages"] = [stage, "evaluate"]
        doc["inputs"]["stack"] = doc["inputs"].pop("dem")
        run_pipeline(PipelineConfig.from_json(doc))
        assert calls == []
        assert len(histograms) == 1
        monkeypatch.undo()

        out = workspace / "out"
        assert not (out / "surface_density.csv").exists()
        surface = load_raster(out / surface_file)
        want = density_histogram(surface.band(0)[~surface.nodata_mask])
        got = json.loads((out / "report.json").read_text())["density_histogram"]
        assert np.array_equal(np.array(got), want)

    def test_rerun_is_byte_identical(self, workspace):
        run_pipeline(PipelineConfig.from_json(full_config(workspace, "run_a")))
        run_pipeline(PipelineConfig.from_json(full_config(workspace, "run_b")))
        a_dir, b_dir = workspace / "run_a", workspace / "run_b"
        a_files = sorted(p.name for p in a_dir.iterdir())
        assert a_files == sorted(p.name for p in b_dir.iterdir())
        for name in a_files:
            if name == "manifest.json":
                continue  # carries wall times
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes(), name

    def test_failed_stage_quarantines_outputs(self, workspace, monkeypatch):
        import apmkit.pipeline as pipeline_module

        cfg = PipelineConfig.from_json(full_config(workspace, "broken"))

        def boom(doc):
            raise RuntimeError("disk full")

        monkeypatch.setattr(pipeline_module, "json_bytes", boom)
        with pytest.raises(ToolkitError, match="stage 'pseudolabel' failed"):
            run_pipeline(cfg)
        # The stage's raster was written before its JSON failed; neither is
        # left, nor a temp file. Earlier stages keep their artifacts, and
        # no manifest is written.
        out = workspace / "broken"
        assert sorted(p.name for p in out.rglob("*")) == [
            "labels.grid", "lamap_surface.grid", "refined_surface.grid", "stack.grid",
        ]

    def test_failed_json_write_leaves_no_partial_file(self, workspace, monkeypatch):
        import apmkit.pipeline as pipeline_module

        cfg = PipelineConfig.from_json(full_config(workspace, "broken"))
        # str is not bytes: the write raises inside the atomic block.
        monkeypatch.setattr(pipeline_module, "json_bytes", lambda doc: "not bytes")
        with pytest.raises(ToolkitError, match="stage 'pseudolabel' failed"):
            run_pipeline(cfg)
        out = workspace / "broken"
        assert not (out / "loss_breakdown.json").exists()
        assert not (out / "failed" / "loss_breakdown.json").exists()
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    def test_each_stage_writes_the_artifacts_it_declares(self, workspace):
        manifest = run_pipeline(PipelineConfig.from_json(full_config(workspace)))
        declared = {stage.name: list(stage.outputs) for stage in pipeline_module.STAGE_TABLE}
        written = {s["name"]: [Path(p).name for p in s["artifacts"]] for s in manifest["stages"]}
        assert written == declared
        names = sorted(p.name for p in (workspace / "out").iterdir())
        assert names == sorted(["manifest.json", *(n for ns in declared.values() for n in ns)])

    @pytest.mark.parametrize("stage", list(pipeline_module.STAGES))
    def test_failed_write_in_any_stage_leaves_no_file_of_it(self, workspace, monkeypatch, stage):
        # The stage's last raster write leaves a partial file and fails.
        table = {s.name: s for s in pipeline_module.STAGE_TABLE}
        last = [n for n in table[stage].outputs if n.endswith(".grid")][-1]
        save = pipeline_module.save_raster

        def failing(grid, path):
            if last in Path(path).name:
                Path(path).write_bytes(b"partial")
                raise OSError("No space left on device")
            save(grid, path)

        monkeypatch.setattr(pipeline_module, "save_raster", failing)
        with pytest.raises(DataError, match=f"stage '{stage}' failed: No space left"):
            run_pipeline(PipelineConfig.from_json(full_config(workspace)))
        earlier = pipeline_module.STAGES[: pipeline_module.STAGES.index(stage)]
        kept = sorted(n for s in earlier for n in table[s].outputs)
        assert sorted(p.name for p in (workspace / "out").rglob("*")) == kept

    def test_crf_stage_off_the_stack_frame_is_data_error(self, workspace, capsys):
        dem = load_raster(workspace / "dem.grid")
        stack = RasterGrid.from_array(dem.data, (500.0, 900.0, 10.0, -10.0))
        save_raster(stack, workspace / "stack.grid")
        cfg_path = workspace / "crf.json"
        cfg_path.write_text(json.dumps({
            "output_dir": str(workspace / "out"),
            "stages": ["crf"],
            "inputs": {
                "stack": str(workspace / "stack.grid"),
                "branch1": str(workspace / "branch1.grid"),
            },
            "crf": {"iterations": 2},
        }))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "different frames" in capsys.readouterr().err
        assert not list((workspace / "out").rglob("refined_surface.grid"))

    def test_crf_stage_refuses_a_multi_band_branch1(self, workspace, monkeypatch, capsys):
        # As the pseudolabel stage does, and before any refinement.
        branch = load_raster(workspace / "branch1.grid")
        two = RasterGrid.from_array(np.stack([branch.band(0)] * 2), branch.geotransform)
        save_raster(two, workspace / "branch1.grid")
        refined = []
        monkeypatch.setattr(pipeline_module, "crf_refine", lambda *args: refined.append(1))
        doc = {**full_config(workspace), "stages": ["features", "crf"]}
        cfg_path = workspace / "crf.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg_path)]) == 3
        assert "stage 'crf' failed: branch1 must be single-band, got 2 bands" in (
            capsys.readouterr().err
        )
        assert refined == []
        assert not list((workspace / "out").rglob("refined_surface.grid"))

    def test_stage_error_is_named(self, workspace):
        cfg = PipelineConfig.from_json(
            {
                "output_dir": str(workspace / "nopos"),
                "stages": ["lamap"],
                "inputs": {
                    "stack": str(workspace / "dem.grid"),
                    "sites": str(workspace / "sites.csv"),
                },
                "period": "Byzantine",  # no sites of this period
                "lamap": {"catchment_radius": 4.0},
            }
        )
        with pytest.raises(ToolkitError, match="stage 'lamap' failed"):
            run_pipeline(cfg)


class TestSkippedSitesReportedOnce:
    def test_crf_and_lamap_surfaces_report_each_skipped_site_once(self, workspace, caplog):
        # The evaluate stage reads the CRF surface and, for the volume gain,
        # the LAMAP baseline at the same pixels: each skipped site is
        # reported once.
        dem = synth_dem()
        mask = np.zeros(dem.shape, dtype=bool)
        mask[24:30, 18:26] = True
        save_raster(
            RasterGrid(dem.data, dem.geotransform, mask, dem.band_names, {}),
            workspace / "dem.grid",
        )
        sites = synth_sites() + [
            SiteRecord("hole", 22.5, -27.5, "Roman Imperial", "unlabeled"),
            SiteRecord("off", 99.5, -99.5, "Roman Imperial", "negative"),
        ]
        write_sites_csv(workspace / "sites.csv", sites)
        with caplog.at_level("WARNING", logger="apmkit.pipeline"):
            run_pipeline(PipelineConfig.from_json(full_config(workspace)))
        skipped = sorted(
            r.getMessage() for r in caplog.records
            if r.name == "apmkit.pipeline" and r.getMessage().endswith("skipped")
        )
        assert skipped == [
            "site 'hole' falls on masked pixels; skipped",
            "site 'off' outside the evaluated surface; skipped",
        ]
        report = json.loads((workspace / "out" / "report.json").read_text())
        assert report["volume_gain"] is not None  # the baseline was sampled too


class TestRunValues:
    """Stages hand rasters on by name: the evaluate stage scores crf's
    surface when crf ran, against lamap's when that ran too, and a value
    leaves the run after the last requested stage whose needs name it."""

    @pytest.mark.parametrize(
        "stages,surface,baseline",
        [
            (["derive-features", "lamap", "evaluate"], "lamap", None),
            (["derive-features", "crf", "evaluate"], "crf", None),
            (["derive-features", "lamap", "crf", "evaluate"], "crf", "lamap"),
        ],
        ids=["lamap", "crf", "lamap-crf"],
    )
    def test_report_names_its_surface_and_baseline(self, workspace, stages, surface, baseline):
        evaluate_run(workspace, stages)
        report = json.loads((workspace / "out" / "report.json").read_text())
        assert report["metadata"]["surface"] == surface
        assert report["baseline_name"] == baseline
        assert (report["volume_gain"] is not None) == (baseline is not None)

    @pytest.mark.parametrize("source", ["features", "stack"])
    def test_stack_gone_when_evaluate_starts(self, workspace, monkeypatch, source):
        # Without a crf stage the lamap stage is the stack's last reader.
        doc, refs = full_config(workspace), []
        if source == "features":
            doc["stages"] = ["features", "labels", "lamap", "evaluate"]
            build = pipeline_module.build_feature_stack

            def recording(*args, **kwargs):
                stack = build(*args, **kwargs)
                refs.append(weakref.ref(stack.data))
                return stack

            monkeypatch.setattr(pipeline_module, "build_feature_stack", recording)
        else:
            save_raster(build_feature_stack(synth_dem()), workspace / "stack.grid")
            doc["stages"] = ["labels", "lamap", "evaluate"]
            doc["inputs"]["stack"] = str(workspace / "stack.grid")
            load = pipeline_module.load_raster

            def recording(path):
                grid = load(path)
                if Path(path).name == "stack.grid":
                    refs.append(weakref.ref(grid.data))
                return grid

            monkeypatch.setattr(pipeline_module, "load_raster", recording)
        alive, evaluate = [], pipeline_module._STAGE_FUNCS["evaluate"]

        def recorded(run):
            alive.append([ref() is not None for ref in refs])
            evaluate(run)

        monkeypatch.setitem(pipeline_module._STAGE_FUNCS, "evaluate", recorded)
        run_pipeline(PipelineConfig.from_json(doc))
        assert len(refs) == 1
        assert alive == [[False]]

    def test_labels_gone_when_lamap_starts(self, workspace, monkeypatch):
        # Only a pseudolabel stage reads the labels raster, and none runs.
        doc, refs, alive = full_config(workspace), [], []
        doc["stages"] = ["features", "labels", "lamap", "evaluate"]
        rasterize, lamap = pipeline_module.rasterize_labels, pipeline_module._STAGE_FUNCS["lamap"]

        def recording(*args, **kwargs):
            labels = rasterize(*args, **kwargs)
            refs.append(weakref.ref(labels.data))
            return labels

        def recorded(run):
            alive.append([ref() is not None for ref in refs])
            lamap(run)

        monkeypatch.setattr(pipeline_module, "rasterize_labels", recording)
        monkeypatch.setitem(pipeline_module._STAGE_FUNCS, "lamap", recorded)
        run_pipeline(PipelineConfig.from_json(doc))
        assert alive == [[False]]


def scattered_sites(n=90, seed=5):
    """``n`` sites spread over the synthetic frame, cycling through the
    positive, negative and unlabeled polarities, most with find counts."""
    rng = np.random.default_rng(seed)
    polarities = ("positive", "negative", "unlabeled")
    return [
        SiteRecord(
            f"s{i}", float(rng.uniform(0.0, 64.0)), float(rng.uniform(-32.0, 0.0)),
            "Roman Imperial", polarities[i % 3], int(rng.integers(0, 9)) if i % 4 else None,
        )
        for i in range(n)
    ]


class TestBaselineAtSurfaceSites:
    """The evaluate stage finds each site's pixel once, on the refined
    surface, and scores the LAMAP baseline at the same pixels."""

    @staticmethod
    def masked_branch_workspace(ws):
        sites = scattered_sites()
        write_sites_csv(ws / "sites.csv", sites)
        branch = synth_branch(sites, seed=1)
        mask = np.zeros(branch.shape, dtype=bool)
        mask[:16, :24] = True
        save_raster(
            RasterGrid(branch.data, branch.geotransform, mask, branch.band_names, {}),
            ws / "branch1.grid",
        )
        return sites

    def test_volume_gain_compares_the_same_sites(self, workspace):
        sites = self.masked_branch_workspace(workspace)
        run_pipeline(PipelineConfig.from_json(full_config(workspace)))
        out = workspace / "out"
        surface = load_raster(out / "refined_surface.grid")
        baseline = load_raster(out / "lamap_surface.grid")
        # Some labelled sites are masked on the surface but not on the baseline.
        site_pixels = pipeline_module._site_pixels
        assert len(site_pixels(surface, sites)[0]) < len(site_pixels(baseline, sites)[0])
        remasked = RasterGrid(
            baseline.data, baseline.geotransform, surface.nodata_mask, baseline.band_names, {}
        )
        want = volume_gain(evaluate_surface(surface, sites), evaluate_surface(remasked, sites))
        report = json.loads((out / "report.json").read_text())
        assert report["volume_gain"] == want
        assert report["baseline_name"] == "lamap"

    def test_one_pixel_lookup_per_site(self, workspace, monkeypatch):
        sites = self.masked_branch_workspace(workspace)
        calls = evaluate_stage_calls(monkeypatch, RasterGrid, "pixel_of")
        run_pipeline(PipelineConfig.from_json(full_config(workspace)))
        assert 0 < len(calls) <= len(sites)


class TestStackFreedBeforeSteps:
    """The crf stage drops the feature stack once its features exist; no
    later stage reads it, so its data is freed before the first
    mean-field step, whether it was read from inputs.stack or built by
    the features stage."""

    @staticmethod
    def record_steps(monkeypatch, refs):
        alive = []
        step = crf_module.mean_field_step

        def recorded(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return step(*args, **kwargs)

        monkeypatch.setattr(crf_module, "mean_field_step", recorded)
        return alive

    def test_stack_input(self, workspace, monkeypatch):
        save_raster(build_feature_stack(synth_dem()), workspace / "stack.grid")
        doc = full_config(workspace)
        doc["stages"] = ["labels", "lamap", "crf", "pseudolabel", "evaluate"]
        doc["inputs"]["stack"] = str(workspace / "stack.grid")
        del doc["inputs"]["dem"]
        refs = []
        load = pipeline_module.load_raster

        def recording(path):
            grid = load(path)
            if Path(path).name == "stack.grid":
                refs.append(weakref.ref(grid.data))
            return grid

        monkeypatch.setattr(pipeline_module, "load_raster", recording)
        alive = self.record_steps(monkeypatch, refs)
        run_pipeline(PipelineConfig.from_json(doc))
        assert len(refs) == 1
        assert alive == [[False]] * doc["crf"]["iterations"]

    def test_features_stage(self, workspace, monkeypatch):
        doc = full_config(workspace)
        refs = []
        build = pipeline_module.build_feature_stack

        def recording(*args, **kwargs):
            stack = build(*args, **kwargs)
            refs.append(weakref.ref(stack.data))
            return stack

        monkeypatch.setattr(pipeline_module, "build_feature_stack", recording)
        alive = self.record_steps(monkeypatch, refs)
        run_pipeline(PipelineConfig.from_json(doc))
        assert len(refs) == 1
        assert alive == [[False]] * doc["crf"]["iterations"]
