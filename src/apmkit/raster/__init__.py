"""Raster core: grid container, IO, terrain, distances, labels, tiling.

A lazy namespace like :mod:`apmkit`'s: a public name loads only the
submodule that defines it, on first access.
"""

from __future__ import annotations

from .. import _lazy

# Each public name and the submodule that defines it.
_EXPORTS = {
    "distance_map": ".distance",
    "distance_to_mask": ".distance",
    "load_targets": ".distance",
    "rasterize_lines": ".distance",
    "rasterize_points": ".distance",
    "RasterGrid": ".grid",
    "fill_holes": ".grid",
    "load_raster": ".grid",
    "save_raster": ".grid",
    "DEFAULT_LABEL_RADIUS": ".labels",
    "rasterize_labels": ".labels",
    "CSV_HEADER": ".sites",
    "PERIODS": ".sites",
    "POLARITIES": ".sites",
    "SiteRecord": ".sites",
    "filter_sites": ".sites",
    "read_sites_csv": ".sites",
    "write_sites_csv": ".sites",
    "FLAT_ASPECT": ".terrain",
    "derive_terrain": ".terrain",
    "flow_accumulation": ".terrain",
    "horn_gradients": ".terrain",
    "slope_aspect": ".terrain",
    "stream_mask": ".terrain",
    "TileWindow": ".tiling",
    "extract_window": ".tiling",
    "load_plan": ".tiling",
    "plan_windows": ".tiling",
    "save_plan": ".tiling",
    "stitch": ".tiling",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
