"""Locational analysis baseline surfaces from empirical site signatures.

Each known site is summarised by per-band empirical CDFs over the raster
values inside its catchment. A candidate pixel's affinity to a site is
how central its band values sit in those distributions:

    u(v) = 1 - |2 F(v) - 1|

which peaks at 1 on the site's median and falls to 0 in the tails. The
potential surface blends per-site affinities with exponential distance
weights, giving nearby sites more say:

    P(x) = sum_s w_s(x) u_s(x) / sum_s w_s(x),   w_s(x) = exp(-d(x, s) / tau)

Affinities and weights both live in [0, 1], so P does too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, EmptyInputError
from .raster.grid import RasterGrid
from .raster.sites import SiteRecord

DEFAULT_CATCHMENT_RADIUS = 295.0
DEFAULT_KERNEL_BANDWIDTH = 1000.0


class Ecdf:
    """Empirical CDF with the midrank convention for ties.

    ``cdf(v)`` returns ``(#{s < v} + 0.5 * #{s == v}) / n``, so a value
    equal to the unique median evaluates to exactly 0.5.
    """

    __slots__ = ("samples",)

    def __init__(self, samples: np.ndarray) -> None:
        arr = np.sort(np.asarray(samples, dtype=np.float64).ravel())
        if arr.size == 0:
            raise EmptyInputError("ECDF needs at least one sample")
        if not np.isfinite(arr).all():
            raise DataError("ECDF samples must be finite")
        self.samples = arr

    @property
    def n(self) -> int:
        return self.samples.size

    def cdf(self, values: np.ndarray | float) -> np.ndarray | float:
        v = np.asarray(values, dtype=np.float64)
        below = np.searchsorted(self.samples, v, side="left")
        upto = np.searchsorted(self.samples, v, side="right")
        out = (below + 0.5 * (upto - below)) / self.samples.size
        return float(out) if np.isscalar(values) else out


def similarity(ecdf: Ecdf, values: np.ndarray | float) -> np.ndarray | float:
    """Two-sided ECDF centrality, 1 at the median and 0 beyond the range."""
    f = np.asarray(ecdf.cdf(values), dtype=np.float64)
    u = 1.0 - np.abs(2.0 * f - 1.0)
    return float(u) if np.isscalar(values) else u


@dataclass
class LamapConfig:
    """Knobs for site models and surface evaluation.

    Attributes:
        catchment_radius: Radius (map units) of the disk sampled around
            each site when building its ECDFs.
        kernel_bandwidth: Distance scale tau of the exponential weights.
        bands: Band indices to model; None means every band.
    """

    catchment_radius: float = DEFAULT_CATCHMENT_RADIUS
    kernel_bandwidth: float = DEFAULT_KERNEL_BANDWIDTH
    bands: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.catchment_radius < 0:
            raise DataError(f"catchment_radius must be >= 0, got {self.catchment_radius}")
        if self.kernel_bandwidth <= 0:
            raise DataError(f"kernel_bandwidth must be > 0, got {self.kernel_bandwidth}")
        if self.bands is not None:
            self.bands = tuple(int(b) for b in self.bands)


@dataclass(frozen=True)
class SiteModel:
    """Per-site signature: location plus one ECDF per modelled band."""

    site_id: str
    x: float
    y: float
    ecdfs: tuple[Ecdf, ...]
    catchment_pixels: int


def _select_bands(stack: RasterGrid, cfg: LamapConfig) -> tuple[int, ...]:
    bands = cfg.bands if cfg.bands is not None else tuple(range(stack.bands))
    for b in bands:
        if not 0 <= b < stack.bands:
            raise DataError(f"band index {b} out of range for {stack.bands}-band stack")
    if not bands:
        raise DataError("no bands selected")
    return bands


def build_site_model(
    stack: RasterGrid, site: SiteRecord, cfg: LamapConfig | None = None
) -> SiteModel:
    """Build the ECDF signature of one site from its catchment pixels.

    The catchment is every unmasked pixel whose center lies within
    ``cfg.catchment_radius`` of the site (the containing pixel always
    counts, so sub-pixel radii still yield a one-sample ECDF).

    Raises:
        EmptyInputError: when the catchment holds no valid pixel, naming
            the site.
    """
    cfg = cfg or LamapConfig()
    bands = _select_bands(stack, cfg)
    disk = stack.disk_mask(site.x, site.y, cfg.catchment_radius)
    disk &= ~stack.nodata_mask
    npix = int(disk.sum())
    if npix == 0:
        raise EmptyInputError(
            f"site '{site.site_id}': empty catchment within radius "
            f"{cfg.catchment_radius}"
        )
    ecdfs = tuple(Ecdf(stack.band(b)[disk]) for b in bands)
    return SiteModel(site.site_id, float(site.x), float(site.y), ecdfs, npix)


def build_site_models(
    stack: RasterGrid, sites: list[SiteRecord], cfg: LamapConfig | None = None
) -> list[SiteModel]:
    """Site models for every site, in input order."""
    return [build_site_model(stack, s, cfg) for s in sites]


def potential_values(
    stack: RasterGrid, models: list[SiteModel], cfg: LamapConfig | None = None
) -> np.ndarray:
    """Float64 potential surface; NaN where the stack is masked.

    Each selected band's pixels are sorted once (an ``int32`` order plus
    the sorted ``float32`` values). A site's ECDF is then evaluated at
    every pixel by searching its sorted samples into the sorted pixels:
    a sample raises ``#{s < v}`` for every pixel past its right insertion
    point and ``#{s <= v}`` for every pixel past its left one, so one
    ``bincount`` of both hit vectors and a cumulative sum give
    ``below + upto`` per sorted pixel. The searches compare in float64
    and the counts are integers, and ``0.5 * (below + upto) / n`` equals
    :meth:`Ecdf.cdf`'s ``(below + 0.5 * (upto - below)) / n`` bit for bit
    because both numerators are the same exact half-integer.

    Site contributions are accumulated in a canonical order (sorted by
    site_id), so any permutation of ``models`` produces bit-identical
    output.
    """
    cfg = cfg or LamapConfig()
    if not models:
        raise DataError("no site models supplied")
    bands = _select_bands(stack, cfg)
    for m in models:
        if len(m.ecdfs) != len(bands):
            raise DataError(
                f"site '{m.site_id}' models {len(m.ecdfs)} bands, expected {len(bands)}"
            )
    valid = ~stack.nodata_mask
    if not valid.any():
        raise EmptyInputError("stack is fully masked")
    x, y = stack.center_grids()
    npix = x.size
    # One block per array for all bands, and the counts below turned into
    # floats in place: per-band and per-site temporaries would otherwise
    # leave heap holes that raise peak RSS.
    orders = np.empty((len(bands), npix), dtype=np.int32)
    sorted_values = np.empty((len(bands), npix), dtype=np.float32)
    for i, b in enumerate(bands):
        flat = stack.band(b).ravel()
        orders[i] = np.argsort(flat, kind="stable")
        np.take(flat, orders[i], out=sorted_values[i])
    f = np.empty(npix, dtype=np.float64)
    num = np.zeros(stack.shape, dtype=np.float64)
    den = np.zeros(stack.shape, dtype=np.float64)
    for model in sorted(models, key=lambda m: m.site_id):
        w = np.exp(-np.hypot(x - model.x, y - model.y) / cfg.kernel_bandwidth)
        u = np.zeros(stack.shape, dtype=np.float64)
        for ecdf, order, values in zip(model.ecdfs, orders, sorted_values):
            hits = np.concatenate(
                (
                    np.searchsorted(values, ecdf.samples, side="right"),
                    np.searchsorted(values, ecdf.samples, side="left"),
                )
            )
            twice = np.bincount(hits, minlength=npix + 1)[:npix]
            np.cumsum(twice, out=twice)
            ranked = twice.view(np.float64)
            np.multiply(twice, 0.5, out=ranked)
            np.divide(ranked, ecdf.n, out=ranked)
            f[order] = ranked
            np.multiply(f, 2.0, out=f)
            np.subtract(f, 1.0, out=f)
            np.abs(f, out=f)
            np.subtract(1.0, f, out=f)
            u += f.reshape(stack.shape)
        u /= len(bands)
        num += w * u
        den += w
    surface = np.clip(num / den, 0.0, 1.0)
    surface[~valid] = np.nan
    return surface


def lamap_surface(
    stack: RasterGrid, models: list[SiteModel], cfg: LamapConfig | None = None
) -> RasterGrid:
    """Potential surface as a single-band float32 raster in [0, 1]."""
    cfg = cfg or LamapConfig()
    values = potential_values(stack, models, cfg)
    meta = {
        "surface": "site_affinity_potential",
        "similarity": "two_sided_ecdf_midrank",
        "band_combination": "mean",
        "distance_kernel": "exponential",
        "kernel_bandwidth": float(cfg.kernel_bandwidth),
        "catchment_radius": float(cfg.catchment_radius),
        "sites": len(models),
    }
    return RasterGrid(
        values.astype(np.float32)[None, :, :],
        stack.geotransform,
        stack.nodata_mask,
        ("potential",),
        meta,
    )
