"""Raster core: grid container, IO, terrain, distances, labels, tiling."""

from .distance import (
    distance_map,
    distance_to_mask,
    load_targets,
    rasterize_lines,
    rasterize_points,
)
from .grid import RasterGrid, fill_holes, load_raster, save_raster
from .labels import DEFAULT_LABEL_RADIUS, rasterize_labels
from .sites import (
    CSV_HEADER,
    PERIODS,
    POLARITIES,
    SiteRecord,
    filter_sites,
    read_sites_csv,
    write_sites_csv,
)
from .terrain import (
    FLAT_ASPECT,
    derive_terrain,
    flow_accumulation,
    horn_gradients,
    slope_aspect,
    stream_mask,
)
from .tiling import (
    TileWindow,
    extract_window,
    load_plan,
    plan_windows,
    save_plan,
    stitch,
)

__all__ = [
    "CSV_HEADER",
    "DEFAULT_LABEL_RADIUS",
    "FLAT_ASPECT",
    "PERIODS",
    "POLARITIES",
    "RasterGrid",
    "SiteRecord",
    "TileWindow",
    "derive_terrain",
    "distance_map",
    "distance_to_mask",
    "extract_window",
    "fill_holes",
    "filter_sites",
    "flow_accumulation",
    "horn_gradients",
    "load_plan",
    "load_raster",
    "load_targets",
    "plan_windows",
    "save_plan",
    "rasterize_labels",
    "rasterize_lines",
    "rasterize_points",
    "read_sites_csv",
    "save_raster",
    "slope_aspect",
    "stitch",
    "stream_mask",
    "write_sites_csv",
]
