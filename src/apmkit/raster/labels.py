"""Label rasterization: site points to a {1, 0, nodata} training raster."""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import ConfigError
from .grid import RasterGrid
from .sites import SiteRecord

logger = logging.getLogger(__name__)

DEFAULT_LABEL_RADIUS = 295.0


def check_label_radius(radius: float) -> None:
    """Raise ConfigError for a label radius that is negative or not finite."""
    if not 0 <= radius < math.inf:
        raise ConfigError(f"label_radius must be finite and >= 0, got {radius}")


def rasterize_labels(
    grid: RasterGrid,
    sites: list[SiteRecord],
    radius: float = DEFAULT_LABEL_RADIUS,
) -> RasterGrid:
    """Burn site disks into a label raster.

    Every pixel whose center falls within ``radius`` map units of a
    positive site becomes 1, of a negative site 0; positives win where
    disks overlap. The pixel containing a site is always labeled, so point
    labels survive radii below half a pixel. Everything else is nodata
    (the unlabeled pool). Disks are clipped at the raster boundary only.

    Sites with polarity ``unlabeled`` contribute nothing. Sites outside
    the raster extent are skipped with a logged warning.
    """
    check_label_radius(radius)
    pos = np.zeros(grid.shape, dtype=bool)
    neg = np.zeros(grid.shape, dtype=bool)
    for site in sites:
        if site.polarity == "unlabeled":
            continue
        if not grid.contains(site.x, site.y):
            logger.warning(
                "site '%s' at (%s, %s) lies outside the raster extent; skipped",
                site.site_id, site.x, site.y,
            )
            continue
        box, inside = grid.disk_box(site.x, site.y, radius)
        burned = pos if site.polarity == "positive" else neg
        burned[box] |= inside
    mask = np.logical_or(pos, neg, out=neg)
    np.logical_not(mask, out=mask)
    mask |= grid.nodata_mask
    # 1 on positive disks, 0 on the rest of the labelled pixels: positives
    # take precedence over overlapping negatives.
    values = pos.astype(np.float32)
    np.copyto(values, np.nan, where=mask)
    return RasterGrid(
        values[None, :, :],
        grid.geotransform,
        mask,
        ("labels",),
        {"label_radius": float(radius)},
    )
