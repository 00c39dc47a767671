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

from .errors import ConfigError, DataError, EmptyInputError, NumericError
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
            raise ConfigError(f"catchment_radius must be >= 0, got {self.catchment_radius}")
        if self.kernel_bandwidth <= 0:
            raise ConfigError(f"kernel_bandwidth must be > 0, got {self.kernel_bandwidth}")


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


def _value_slots(samples: list[np.ndarray], band: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sorted distinct values ``U`` of the pooled ``samples``.

    Writes each pixel's slot into ``out``: ``2i`` when its value lies
    strictly between ``U[i-1]`` and ``U[i]``, ``2i + 1`` when it equals
    ``U[i]``. Comparisons are in float64.
    """
    # np.sort and a neighbour mask rather than np.unique, whose first call
    # imports numpy.ma for good.
    pooled = np.sort(np.concatenate(samples))
    distinct = np.empty(pooled.size, dtype=bool)
    distinct[0] = True
    np.not_equal(pooled[1:], pooled[:-1], out=distinct[1:])
    values = pooled[distinct]
    at = np.searchsorted(values, band, side="left")
    on_value = values[np.minimum(at, values.size - 1)] == band
    np.multiply(at, 2, out=at)
    np.add(at, on_value, out=out)
    return values


def _affinity_table(ecdf: Ecdf, values: np.ndarray) -> np.ndarray:
    """:func:`similarity` of ``ecdf`` for every slot over ``values``, a
    superset of its samples (see :func:`_value_slots`)."""
    counts = np.bincount(np.searchsorted(values, ecdf.samples), minlength=values.size)
    le = np.cumsum(counts)
    lt = le - counts
    twice = np.empty(2 * values.size + 1, dtype=np.int64)  # below + upto
    np.multiply(lt, 2, out=twice[:-1:2])
    np.add(lt, le, out=twice[1::2])
    twice[-1] = 2 * ecdf.n
    table = twice * 0.5
    np.divide(table, ecdf.n, out=table)
    np.multiply(table, 2.0, out=table)
    np.subtract(table, 1.0, out=table)
    np.abs(table, out=table)
    np.subtract(1.0, table, out=table)
    return table


def potential_values(
    stack: RasterGrid, models: list[SiteModel], cfg: LamapConfig | None = None
) -> np.ndarray:
    """Float64 potential surface; NaN where the stack is masked.

    Per band, each pixel gets a slot among the distinct values ``U`` of
    every modelled site's samples (:func:`_value_slots`). A site's samples
    are a subset of ``U``, so ``below + upto`` takes one value per slot:
    ``2 lt`` between values, ``lt + le`` on a value and ``2n`` past the
    last one, with ``lt`` and ``le`` counting the site's samples below and
    up to each ``U`` value. The affinity is computed once per slot
    (:func:`_affinity_table`) and gathered to the pixels. The comparisons
    are in float64 and the counts are integers, and
    ``0.5 * (below + upto) / n`` equals :meth:`Ecdf.cdf`'s
    ``(below + 0.5 * (upto - below)) / n`` bit for bit because both
    numerators are the same exact half-integer.

    Site contributions are accumulated in a canonical order (sorted by
    site_id), so any permutation of ``models`` produces bit-identical
    output.

    Raises:
        NumericError: Every site's distance weight ``exp(-d / bandwidth)``
            underflows to 0 at some valid pixel, so its potential would be
            0 / 0; raised before the division.
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
    models = sorted(models, key=lambda m: m.site_id)
    # One int32 block for all bands' slots: 4 bytes per pixel and band.
    slots = np.empty((len(bands), *stack.shape), dtype=np.int32)
    band_values = [
        _value_slots([m.ecdfs[i].samples for m in models], stack.band(b), slots[i])
        for i, b in enumerate(bands)
    ]
    col_x, row_y = stack.center_xy(np.arange(stack.height), np.arange(stack.width))
    f = np.empty(stack.shape, dtype=np.float64)
    w = np.empty(stack.shape, dtype=np.float64)
    u = np.empty(stack.shape, dtype=np.float64)
    num = np.zeros(stack.shape, dtype=np.float64)
    den = np.zeros(stack.shape, dtype=np.float64)
    for model in models:
        # x - x_s is the same on every row (and y - y_s on every column),
        # so the 1-D offsets give the full grid's distances bit for bit.
        np.hypot((col_x - model.x)[None, :], (row_y - model.y)[:, None], out=w)
        np.divide(w, -cfg.kernel_bandwidth, out=w)
        np.exp(w, out=w)
        # The first band's affinities go straight into u: every table entry
        # is >= +0.0, so 0.0 + f == f bit for bit. Every slot indexes its
        # table, so mode="clip" only skips the bounds-checked take's
        # full-frame buffer.
        for i, (ecdf, values, slot) in enumerate(zip(model.ecdfs, band_values, slots)):
            table = _affinity_table(ecdf, values)
            np.take(table, slot, out=f if i else u, mode="clip")
            if i:
                u += f
        u /= len(bands)
        u *= w
        num += u
        den += w
    starved = den == 0.0
    starved &= valid
    if starved.any():
        raise NumericError(
            f"the distance kernel (bandwidth {cfg.kernel_bandwidth:g} map units) "
            f"underflows to 0 for every site at {np.count_nonzero(starved)} valid "
            "pixels; use a larger kernel_bandwidth"
        )
    # A masked pixel may have no weight either; it becomes NaN below.
    np.divide(num, den, out=num, where=valid)
    np.clip(num, 0.0, 1.0, out=num)
    num[~valid] = np.nan
    return num


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
