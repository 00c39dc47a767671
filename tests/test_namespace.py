"""The lazy package namespaces of ``apmkit`` and ``apmkit.raster``."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apmkit
import apmkit.raster

PACKAGES = (apmkit, apmkit.raster)

# The modules that the raster I/O names must leave unloaded.
NOT_FOR_RASTER_IO = (
    "apmkit.cli",
    "apmkit.pipeline",
    "apmkit.crf",
    "apmkit.lamap",
    "apmkit.metrics",
    "apmkit.pseudolabel",
    "apmkit.folds",
    "apmkit.raster.terrain",
    "apmkit.raster.distance",
    "apmkit.raster.tiling",
    "apmkit.raster.labels",
)


def test_public_names_are_unchanged():
    assert set(apmkit.__all__) == {
        "__version__",
        "ToolkitError", "ConfigError", "DataError", "DimensionError", "EmptyInputError",
        "NumericError",
        "RasterGrid", "load_raster", "save_raster",
        "SiteRecord", "read_sites_csv", "write_sites_csv", "filter_sites",
        "derive_terrain", "distance_map", "load_targets", "rasterize_labels",
        "TileWindow", "plan_windows", "extract_window", "stitch",
        "LamapConfig", "SiteModel", "build_site_models", "potential_values", "lamap_surface",
        "CrfConfig", "crf_refine", "mean_field_step", "refine_values",
        "BranchPair", "DplConfig", "LossBreakdown", "combine", "dpl_objective",
        "MetricsReport", "auroc_from_arrays", "aul", "bin_analysis",
        "find_count_correlation", "probability_density", "radar_area", "volume_gain",
        "FoldAssignment", "strat_components", "stratified_kfold", "uniform_kfold",
        "PipelineConfig", "run_pipeline",
    }
    assert set(apmkit.raster.__all__) == {
        "CSV_HEADER", "DEFAULT_LABEL_RADIUS", "FLAT_ASPECT", "PERIODS", "POLARITIES",
        "RasterGrid", "SiteRecord", "TileWindow",
        "derive_terrain", "distance_map", "distance_to_mask", "extract_window", "fill_holes",
        "filter_sites", "flow_accumulation", "horn_gradients", "load_plan", "load_raster",
        "load_targets", "plan_windows", "save_plan", "rasterize_labels", "rasterize_lines",
        "rasterize_points", "read_sites_csv", "save_raster", "slope_aspect", "stitch",
        "stream_mask", "write_sites_csv",
    }


def test_version_is_a_plain_global():
    assert vars(apmkit)["__version__"] == "0.1.0"


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_name_is_its_submodules_object(package):
    listing = dir(package)
    for name, module in package._EXPORTS.items():
        owner = importlib.import_module(module, package.__name__)
        assert getattr(package, name) is getattr(owner, name), name
        assert name in listing


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


def test_submodules_still_import_through_the_package():
    from apmkit import cli

    assert cli is sys.modules["apmkit.cli"]
    assert apmkit.cli is cli


def test_raster_io_names_load_only_their_modules():
    src = Path(apmkit.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from apmkit import RasterGrid, load_raster, save_raster\n"
        "from apmkit import SiteRecord, read_sites_csv, write_sites_csv\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('apmkit'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    loaded = set(out.stdout.split())
    assert {"apmkit.raster.grid", "apmkit.raster.sites"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_RASTER_IO), sorted(loaded & set(NOT_FOR_RASTER_IO))
