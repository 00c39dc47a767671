"""Raster toolkit for archaeological predictive mapping.

Builds site-affinity potential surfaces from terrain feature stacks,
refines model probability rasters with a mean-field dense CRF, scores
surfaces with positive-unlabeled metrics, mixes dual-branch predictions
into dynamic pseudolabels, and splits sites into stratified folds. A
batch pipeline ties the stages together behind one JSON config.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    EmptyInputError,
    NumericError,
    ToolkitError,
)
from .raster.grid import RasterGrid, load_raster, save_raster
from .raster.sites import SiteRecord, filter_sites, read_sites_csv, write_sites_csv
from .raster.terrain import derive_terrain
from .raster.distance import distance_map, load_targets
from .raster.labels import rasterize_labels
from .raster.tiling import TileWindow, extract_window, plan_windows, stitch
from .lamap import LamapConfig, SiteModel, build_site_models, lamap_surface, potential_values
from .crf import CrfConfig, crf_refine, mean_field_step, refine_values
from .pseudolabel import BranchPair, DplConfig, LossBreakdown, combine, dpl_objective
from .metrics import (
    MetricsReport,
    ScoredSample,
    aul,
    auroc,
    bin_analysis,
    find_count_correlation,
    probability_density,
    radar_area,
    volume_gain,
)
from .folds import (
    FoldAssignment,
    StratVector,
    site_strat_vector,
    stratified_kfold,
    uniform_kfold,
)
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "__version__",
    "ToolkitError",
    "ConfigError",
    "DataError",
    "DimensionError",
    "EmptyInputError",
    "NumericError",
    "RasterGrid",
    "load_raster",
    "save_raster",
    "SiteRecord",
    "read_sites_csv",
    "write_sites_csv",
    "filter_sites",
    "derive_terrain",
    "distance_map",
    "load_targets",
    "rasterize_labels",
    "TileWindow",
    "plan_windows",
    "extract_window",
    "stitch",
    "LamapConfig",
    "SiteModel",
    "build_site_models",
    "potential_values",
    "lamap_surface",
    "CrfConfig",
    "crf_refine",
    "mean_field_step",
    "refine_values",
    "BranchPair",
    "DplConfig",
    "LossBreakdown",
    "combine",
    "dpl_objective",
    "MetricsReport",
    "ScoredSample",
    "auroc",
    "aul",
    "bin_analysis",
    "find_count_correlation",
    "probability_density",
    "radar_area",
    "volume_gain",
    "FoldAssignment",
    "StratVector",
    "site_strat_vector",
    "stratified_kfold",
    "uniform_kfold",
    "PipelineConfig",
    "run_pipeline",
]
