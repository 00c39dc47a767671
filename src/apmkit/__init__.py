"""Raster toolkit for archaeological predictive mapping.

Builds site-affinity potential surfaces from terrain feature stacks,
refines model probability rasters with a mean-field dense CRF, scores
surfaces with positive-unlabeled metrics, mixes dual-branch predictions
into dynamic pseudolabels, and splits sites into stratified folds. A
batch pipeline ties the stages together behind one JSON config.

The namespace is lazy (PEP 562): ``import apmkit`` loads no submodule,
and a public name loads only the submodule that defines it, on first
access. A caller that reads and writes ``.grid`` rasters and site tables
then pays for those modules alone, not for the CRF, the pipeline and
the rest, which the interpreter would otherwise compile or unmarshal on
every start. ``apmkit.cli`` still imports every module it runs at its
own top, so ``apmkit run`` loads them all before any stage starts.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "ToolkitError": ".errors",
    "ConfigError": ".errors",
    "DataError": ".errors",
    "DimensionError": ".errors",
    "EmptyInputError": ".errors",
    "NumericError": ".errors",
    "RasterGrid": ".raster.grid",
    "load_raster": ".raster.grid",
    "save_raster": ".raster.grid",
    "SiteRecord": ".raster.sites",
    "read_sites_csv": ".raster.sites",
    "write_sites_csv": ".raster.sites",
    "filter_sites": ".raster.sites",
    "derive_terrain": ".raster.terrain",
    "distance_map": ".raster.distance",
    "load_targets": ".raster.distance",
    "rasterize_labels": ".raster.labels",
    "TileWindow": ".raster.tiling",
    "plan_windows": ".raster.tiling",
    "extract_window": ".raster.tiling",
    "stitch": ".raster.tiling",
    "LamapConfig": ".lamap",
    "SiteModel": ".lamap",
    "build_site_models": ".lamap",
    "potential_values": ".lamap",
    "lamap_surface": ".lamap",
    "CrfConfig": ".crf",
    "crf_refine": ".crf",
    "mean_field_step": ".crf",
    "refine_values": ".crf",
    "BranchPair": ".pseudolabel",
    "DplConfig": ".pseudolabel",
    "LossBreakdown": ".pseudolabel",
    "combine": ".pseudolabel",
    "dpl_objective": ".pseudolabel",
    "MetricsReport": ".metrics",
    "auroc_from_arrays": ".metrics",
    "aul": ".metrics",
    "bin_analysis": ".metrics",
    "find_count_correlation": ".metrics",
    "probability_density": ".metrics",
    "radar_area": ".metrics",
    "volume_gain": ".metrics",
    "FoldAssignment": ".folds",
    "strat_components": ".folds",
    "stratified_kfold": ".folds",
    "uniform_kfold": ".folds",
    "PipelineConfig": ".pipeline",
    "run_pipeline": ".pipeline",
}

__all__ = ["__version__", *_EXPORTS]


def _lazy(namespace: dict, exports: dict[str, str]):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace``, for its ``exports`` table.

    ``__getattr__`` imports the submodule that defines a name and keeps
    the value in ``namespace``, so that later lookups skip the hook. It
    imports through ``__import__``, as an import statement does, so that
    ``python -X importtime`` reports the submodule (``importlib`` calls
    bypass that report).
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(__import__(package + module, fromlist=[name]), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
