"""Fully connected CRF refinement of probability fields by mean-field
iteration.

The model is the usual two-class Potts CRF over pixels. Unary potentials
come from logits (scaled by a temperature); pairwise potentials combine a
spatial Gaussian kernel and a bilateral kernel over concatenated
(position / sigma, beta * guidance features). Both kernels are truncated
to the square window of radius ceil(3 sigma), where the Gaussian tail is
negligible; within that window the messages are exact, which keeps
small-field behaviour checkable against a dense all-pairs computation.
The bilateral kernel runs on the grid of ``compression``-sized blocks, or
with ``compress_guidance`` off on blocks of one pixel, full resolution.
The loop carries the class-1 field alone (:func:`mean_field_step`).

Both kernels sum over shifted copies of a field on one row-padded flat
layout: an (h, w) field is stored row-major with a row pitch of
w + radius, the pad columns zero. A window offset (di, dj) is then the
constant flat shift di * pitch + dj, since a shift past either side of a
row lands in a pad column, and every offset or tap is one contiguous 1-D
multiply and add. The pairs that reach into the padding add only +0.0, so
each pixel's sum holds the same nonzero terms in the same order as over
the frame alone.

Every form that saves time or memory is exact: it does the same float
operations in the same order as the plain formula it replaces, so it
gives the same floats. The docstring of each function says why; the
tests keep the plain forms as references.

Beyond the bilateral weight cache (:class:`BilateralWeights`), a
refinement holds three float64 frames: through the loop, the valid mask's
message and the class-1 field, and within a step the padded frame of the
class-1 message. Every other temporary of a step is one band of
:func:`~apmkit.raster.grid.row_bands`, the package's one band rule (at
most ``grid.BAND`` values unless one row is wider), or a frame of the
block grid. The guidance is read only to build the features, in the
dtype it is stored in; no unary is stored.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .raster.grid import RasterGrid, row_bands

# exp(x) is exactly 0.0 in float64 below ln(2^-1075) = -745.13...: the
# bilateral weights skip exp there, where numpy's exp is slowest.
_EXP_ZERO = -746.0


@dataclass(frozen=True)
class CrfConfig:
    """Mean-field refinement settings.

    Attributes:
        beta: Guidance-feature scale of the bilateral kernel, in [0.1, 1].
        sigma: Stddev (pixels) of the spatial Gaussian; window radius is
            ceil(3 sigma).
        feature_channels: How many leading guidance bands feed the
            bilateral kernel (16, 32 or 64; all when there are fewer).
        compression: Bilateral coarsening factor (2 or 4); JSON key
            ``compression`` or ``compression_factor``.
        temperature: Divides the logits in the unary term, in [1, 5]; JSON
            key ``temperature`` or ``crf_temperature``.
        iterations: Mean-field steps, in [2, 10].
        pairwise_weights: (spatial, bilateral) kernel coefficients.
        compatibility: 2x2 label compatibility, a tuple of two rows of
            floats; None (JSON null) is Potts, [[0, 1], [1, 0]].
        compress_guidance: Whether the bilateral branch runs coarsened.
    """

    beta: float = 0.5
    sigma: float = 3.0
    feature_channels: int = 16
    compression: int = field(default=2, metadata={"alias": "compression_factor"})
    temperature: float = field(default=1.0, metadata={"alias": "crf_temperature"})
    iterations: int = 5
    pairwise_weights: tuple[float, float] = (1.0, 1.0)
    compatibility: tuple[tuple[float, float], tuple[float, float]] | None = None
    compress_guidance: bool = True

    def __post_init__(self) -> None:
        if not 0.1 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0.1, 1.0], got {self.beta}")
        if not 0 < self.sigma < math.inf:
            raise ConfigError(f"sigma must be finite and > 0, got {self.sigma}")
        if self.feature_channels not in (16, 32, 64):
            raise ConfigError(
                f"feature_channels must be 16, 32 or 64, got {self.feature_channels}"
            )
        if self.compression not in (2, 4):
            raise ConfigError(f"compression must be 2 or 4, got {self.compression}")
        if not 1.0 <= self.temperature <= 5.0:
            raise ConfigError(f"temperature must be in [1, 5], got {self.temperature}")
        if not 2 <= self.iterations <= 10:
            raise ConfigError(f"iterations must be in [2, 10], got {self.iterations}")
        w = tuple(float(v) for v in self.pairwise_weights)
        if len(w) != 2 or not all(0 <= v < math.inf for v in w):
            raise ConfigError(f"pairwise_weights must be two finite numbers >= 0, got {w}")
        object.__setattr__(self, "pairwise_weights", w)
        m = np.array(((0, 1), (1, 0)) if self.compatibility is None else self.compatibility, float)
        if m.shape != (2, 2) or not np.isfinite(m).all():
            raise ConfigError(f"compatibility must be a finite 2x2 matrix, got {m.tolist()}")
        object.__setattr__(self, "compatibility", tuple(map(tuple, m.tolist())))


def unary_potentials(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Unary energies from per-class logits: ``psi = -logits / temperature``.

    Higher temperature flattens the class preference, pulling the initial
    distribution toward uniform.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 2:
        raise DataError(f"logit field must have shape (2, H, W), got {arr.shape}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    return -arr / float(temperature)


def _two_class_softmax(
    x0: np.ndarray, x1: np.ndarray, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel softmax of two negative-energy fields, in place on both:
    shifted by their maximum, exponentiated, divided by their sum. The
    maximum and then the sum go to ``scratch`` when it is given.

    These are the floats of a softmax over a two-row class axis, as
    numpy's max and sum over such an axis are ``np.maximum`` and ``+`` of
    the rows.
    """
    mx = np.maximum(x0, x1, out=scratch)
    x0 -= mx
    x1 -= mx
    np.exp(x0, out=x0)
    np.exp(x1, out=x1)
    total = np.add(x0, x1, out=mx)
    x0 /= total
    x1 /= total
    return x0, x1


def class_softmax(neg_energy: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the leading class axis of a (2, H, W) field."""
    return np.stack(_two_class_softmax(*np.array(neg_energy, dtype=np.float64)))


def _padded(arr: np.ndarray, pitch: int) -> np.ndarray:
    """``arr`` (..., h, w) as flat rows of ``pitch`` values, pad columns zero."""
    *lead, h, w = arr.shape
    out = np.zeros((*lead, h, pitch))
    out[..., :w] = arr
    return out.reshape(*lead, h * pitch)


def _add_band(
    acc: np.ndarray,
    src: np.ndarray,
    base: int,
    start: int,
    stop: int,
    pairs: Sequence[tuple[int, float | np.ndarray]],
    buf: np.ndarray,
) -> None:
    """Both directions of every pair in ``pairs`` over ``acc[start:stop]``
    (see :func:`_add_pairs_in_place`), reading flat value j of the source
    at ``src[j - base]``."""
    n = acc.size
    for shift, weight in pairs:
        per_pixel = isinstance(weight, np.ndarray)
        end = min(stop, n - shift)
        if end > start:
            prod = buf[: end - start]
            np.multiply(
                weight[start:end] if per_pixel else weight,
                src[start + shift - base : end + shift - base],
                out=prod,
            )
            acc[start:end] += prod
        begin = max(start, shift)
        if stop > begin:
            prod = buf[: stop - begin]
            np.multiply(
                weight[begin - shift : stop - shift] if per_pixel else weight,
                src[begin - shift - base : stop - shift - base],
                out=prod,
            )
            acc[begin:stop] += prod


def _add_pairs_in_place(
    acc: np.ndarray,
    pairs: Sequence[tuple[int, float | np.ndarray]],
    buf: np.ndarray,
    zeroed: bool = False,
) -> None:
    """Both directions of every flat offset in ``pairs``, in place on
    ``acc``, each reading the values ``acc`` held before any was added.

    With ``src`` those values, for each ``(shift, weight)`` in list order,
    ``acc[p] += weight[p] * src[p + shift]`` for every p with p + shift
    inside the buffer, then ``acc[p] += weight[p - shift] * src[p -
    shift]`` for every p >= shift; ``weight`` is a scalar or holds
    ``acc.size - shift`` values. With ``zeroed``, ``acc`` starts from
    zero, so it ends up holding the pairs' sum alone. ``buf`` is scratch
    space of at least one band of ``row_bands(acc.size, 1)``.

    ``acc`` is cut into the bands of ``row_bands(acc.size, 1)``, and every
    pair runs over one band before any runs over the next, so that band of
    the accumulator stays in cache. Within a band each pair keeps its
    order, and the pairs keep theirs, so every value receives the same
    additions in the same order as in one pass per pair over the whole
    buffer: the result is exact.

    A band's pairs read the source up to the largest shift beyond either
    end of the band, where the band before has already written ``acc``
    and this band is writing it. So each band first takes a halo copy of
    the original values it reads: those past the previous band's end come
    from ``acc``, which no band has written there yet, and the rest are
    carried over from the previous halo. The halo holds at most a band
    plus twice the largest shift.
    """
    n = acc.size
    if not pairs:
        if zeroed:
            acc.fill(0.0)
        return
    bands = row_bands(n, 1)
    reach = max(shift for shift, _ in pairs)
    halo = np.empty(min(n, bands.step + 2 * reach))
    lo = hi = 0  # the halo holds the original acc[lo:hi]
    for start in bands:
        stop = min(start + bands.step, n)
        new_lo, new_hi = max(0, start - reach), min(n, stop + reach)
        kept = hi - new_lo
        halo[:kept] = halo[new_lo - lo : hi - lo]
        halo[kept : new_hi - new_lo] = acc[hi:new_hi]
        lo, hi = new_lo, new_hi
        if zeroed:
            acc[start:stop] = 0.0
        _add_band(acc, halo, lo, start, stop, pairs, buf)


def _spatial_message(q: np.ndarray, sigma: float) -> np.ndarray:
    """Spatial message of an (H, W) field, self-contribution excluded.

    The Gaussian on the square window of radius ceil(3 sigma) factorises,
    k(di, dj) = g(di) g(dj), so the window sum runs as a pass along rows
    and then, once it has finished, a pass along columns, each with 2 r
    taps besides the centre one. Both passes run in place on one
    row-padded flat copy of ``q`` (:func:`_add_pairs_in_place`), so a tap
    is a flat shift of k or k * pitch. Pixels outside the frame count as
    zero. The centre tap k(0, 0) = 1 carries the self term, which is
    subtracted at the end. The result is the frame columns of that padded
    copy, a strided view. ``q`` must already be zeroed at invalid pixels.
    """
    h, w = q.shape
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    taps = [(k, math.exp(-k * k * inv_two_sigma2)) for k in range(1, radius + 1)]
    pitch = w + radius
    msg = _padded(q, pitch)
    buf = np.empty(min(msg.size, row_bands(msg.size, 1).step))
    _add_pairs_in_place(msg, taps, buf)
    # A column tap of k >= h pairs no two rows of the frame.
    _add_pairs_in_place(msg, [(k * pitch, g) for k, g in taps[: h - 1]], buf)
    msg = msg.reshape(h, pitch)[:, :w]
    msg -= q
    return msg


def _block_sum(arr: np.ndarray, factor: int) -> np.ndarray:
    """Sum over factor x factor blocks, zero-padding ragged edges.

    The result is numpy's ``reshape(..., h / factor, factor, w / factor,
    factor).sum(axis=(-3, -1))`` bit for bit. That reduction adds each
    block row's ``factor`` values left to right and then the block rows
    top to bottom, so it is built here from strided slices the same way:
    the columns of each block summed in place, then their rows, which is
    many times faster than numpy's multi-axis reduction. Only a frame one
    block wide differs: there numpy folds both reduced axes into one
    pairwise run of factor^2 values, so that shape keeps the reshape-sum.
    """
    *lead, h, w = arr.shape
    if h % factor or w % factor:
        hp = (h + factor - 1) // factor * factor
        wp = (w + factor - 1) // factor * factor
        padded = np.zeros((*lead, hp, wp), dtype=np.float64)
        padded[..., :h, :w] = arr
        arr, h, w = padded, hp, wp
    if w == factor:
        return arr.reshape(*lead, h // factor, factor, 1, factor).sum(axis=(-3, -1))
    cols = arr[..., 0::factor].copy()
    for j in range(1, factor):
        cols += arr[..., j::factor]
    out = cols[..., 0::factor, :].copy()
    for i in range(1, factor):
        out += cols[..., i::factor, :]
    return out


def _block_sum_rows(
    arr: np.ndarray, factor: int, out: np.ndarray, where: np.ndarray | None = None
) -> None:
    """``_block_sum(arr, factor)`` of an (h, w) ``arr``, written into
    ``out`` one band of block rows at a time (:func:`row_bands`), so no
    temporary is larger than a band. With ``where``, ``arr`` is cast to
    float64 and read as zero where ``where`` is False, through one
    band-sized buffer.

    Each block's sum depends on its own values alone, in an order that
    does not depend on how many block rows are summed at once, so the
    bands give the one-pass sums bit for bit.
    """
    h, w = arr.shape
    bands = row_bands(h, w, rows=factor)
    buf = None if where is None else np.empty((min(bands.step, h), w))
    for start in bands:
        band = arr[start : start + bands.step]
        if buf is not None:
            rows, band = band, buf[: len(band)]
            band.fill(0.0)
            np.copyto(band, rows, where=where[start : start + bands.step])
        out[start // factor : start // factor + -(-len(band) // factor)] = _block_sum(
            band, factor
        )


def _taps(n: int, m: int, factor: int) -> tuple[np.ndarray, ...]:
    """Where each of ``n`` samples upsampled from ``m`` reads, aligning
    block centers: ``(lo, hi, frac, inner)``. Sample i reads source
    ``lo = floor((i - half) / factor)`` and ``hi = lo + 1`` at fraction
    ``frac = (i - half) / factor - lo`` of the way to ``hi``; ends clip to
    the edge samples. ``inner`` marks the samples whose ``lo`` and ``hi``
    needed no clipping.
    """
    half = (factor - 1) / 2.0
    pos = (np.arange(n) - half) / factor
    base = np.floor(pos).astype(int)
    lo = np.clip(base, 0, m - 1)
    hi = np.clip(lo + 1, 0, m - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    return lo, hi, frac, (base >= 0) & (base < m - 1)


def _interpolate(
    arr: np.ndarray, out: np.ndarray, taps: tuple[np.ndarray, ...], factor: int, axis: int
) -> None:
    """Linear interpolation of ``arr`` along ``axis`` (-1 or -2) into
    ``out``: sample i of ``out`` is ``arr[lo[i]] * (1 - frac[i]) +
    arr[hi[i]] * frac[i]``, with ``taps`` of :func:`_taps` for those
    samples, indexing ``arr``. The factor is a power of two, so the fraction is exact and the same
    for every inner i of one phase ``i mod factor``, and the inner samples
    of a phase are one strided slice of ``out`` and two plain slices of
    ``arr``. The few other samples go one at a time.
    """
    lo, hi, frac, inner = taps

    def at(a: np.ndarray, index: int | slice) -> np.ndarray:
        return a[(..., index) if axis == -1 else (..., index, slice(None))]

    for phase in range(factor):
        ks = np.flatnonzero(inner[phase::factor])
        if ks.size:
            first, last = phase + ks[0] * factor, phase + ks[-1] * factor
            lo_first, lo_last = lo[first], lo[last]
            dst = at(out, slice(first, last + 1, factor))
            np.multiply(at(arr, slice(lo_first, lo_last + 1)), 1 - frac[first], out=dst)
            dst += at(arr, slice(lo_first + 1, lo_last + 2)) * frac[first]
    for i in np.flatnonzero(~inner):
        at(out, i)[...] = at(arr, lo[i]) * (1 - frac[i]) + at(arr, hi[i]) * frac[i]


def _upsample_bands(arr: np.ndarray, factor: int, h: int, w: int):
    """Yield ``(start, band)`` over the bilinear upsample of ``arr``
    (..., hc, wc) to (..., h, w), aligning block centers. Each band holds
    rows ``start`` on (:func:`row_bands`), in one reused buffer, so no
    frame of the upsample exists. A band is built from the coarse rows its
    rows read: those rows are upsampled along the columns, then the band
    along the rows. Every value is the one the column pass and the row
    pass over whole frames give, since both passes work sample by sample.
    """
    rows = _taps(h, arr.shape[-2], factor)
    cols = _taps(w, arr.shape[-1], factor)
    bands = row_bands(h, w)
    buf = np.empty((*arr.shape[:-2], min(bands.step, h), w))
    for start in bands:
        lo, hi, frac, inner = (t[start : start + bands.step] for t in rows)
        top, bottom = lo[0], hi[-1] + 1
        src = np.empty((*arr.shape[:-2], bottom - top, w))
        _interpolate(arr[..., top:bottom, :], src, cols, factor, -1)
        band = buf[..., : len(lo), :]
        _interpolate(src, band, (lo - top, hi - top, frac, inner), factor, -2)
        yield start, band


@dataclass(frozen=True)
class BilateralWeights:
    """Bilateral kernel weights of one guidance field, on the row-padded
    flat layout of the grid of ``factor``-sized blocks (1: full
    resolution) of shape ``(h, w)`` and row pitch ``pitch``.

    They depend on the guidance alone, so a refinement builds them once
    and every step only multiplies and adds. ``pairs`` holds one
    ``(shift, weight)`` per offset d = (di, dj) of half the window (the
    first non-zero of (di, dj) positive) that pairs at least two pixels of
    the grid: the flat shift ``di * pitch + dj`` and w(p, p + shift) at
    every flat p below ``h * pitch - shift``, zero where either end is
    padding. As w(p + d, p) is the same number, each entry serves both
    directions. All entries share one block of ``8 * len(pairs) * h *
    pitch`` bytes, ``8 * ceil(offsets / 2) * (w + radius) / w`` bytes per
    grid pixel; a cache larger than physical memory is refused before it
    is built.
    """

    factor: int
    shape: tuple[int, int]
    pitch: int
    pairs: tuple[tuple[int, np.ndarray], ...]


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _exp_in_place(x: np.ndarray) -> None:
    """``np.exp(x, out=x)`` bit for bit, without calling exp on the
    arguments below ``_EXP_ZERO``, where numpy's exp is many times slower.
    Their exp is exactly 0.0, and every argument from ``_EXP_ZERO`` up,
    denormal results included, still goes through exp."""
    np.exp(x, out=x, where=x >= _EXP_ZERO)
    np.maximum(x, 0.0, out=x)


def _features(guidance: np.ndarray, valid: np.ndarray, factor: int, pitch: int) -> np.ndarray:
    """Each guidance band's means over the valid pixels of
    ``factor``-sized blocks, zero for a block with none, as flat rows of
    ``pitch`` values (see :func:`_padded`). Invalid pixels read as zero
    whatever the guidance holds there. Each
    band is cast to float64 at valid pixels, an exact cast, and
    block-summed one band of rows at a time (:func:`_block_sum_rows`)
    straight into its row of the features, which then takes the division
    by the valid counts; so neither a float64 copy of the stack nor a
    full-resolution float64 frame of it exists, and a float32 stack gives
    the same features as its float64 copy. At factor 1 each block sum is
    its one value and each count 1, so the features are the values.
    """
    bands, height, width = guidance.shape
    h, w = -(-height // factor), -(-width // factor)
    counts = np.empty((h, w))
    _block_sum_rows(valid, factor, counts, where=valid)
    occupied = counts > 0
    feats = np.zeros((bands, h, pitch))
    for band, row in zip(guidance, feats):
        # A block with no valid pixel sums to +0.0 and keeps that sum.
        sums = row[:, :w]
        _block_sum_rows(band, factor, sums, where=valid)
        np.divide(sums, counts, out=sums, where=occupied)
    return feats.reshape(bands, h * pitch)


def bilateral_weights(
    guidance: np.ndarray, cfg: CrfConfig, valid: np.ndarray
) -> BilateralWeights:
    """Build the bilateral weights for the first ``cfg.feature_channels``
    bands of ``guidance`` (Cg, H, W), of any real dtype and read only at
    valid pixels (:func:`_features`).

    With ``cfg.compress_guidance`` the weights live on the grid of
    ``cfg.compression``-sized blocks, whose spatial sigma shrinks by the
    same factor; otherwise on the full frame. A cache larger than the
    machine's physical memory is a DimensionError, before any weight is
    allocated.
    """
    return _weights(_bilateral_features(guidance, cfg, valid), cfg.beta)


@dataclass(frozen=True)
class _Features:
    """All that the weight build (:func:`_weights`) reads of a guidance
    field: the grid of :class:`BilateralWeights`, its spatial ``sigma``,
    the half-window ``offsets`` (di, dj) that pair at least two of its
    pixels, and the (channels, h * pitch) feature ``rows``."""

    factor: int
    sigma: float
    shape: tuple[int, int]
    pitch: int
    offsets: tuple[tuple[int, int], ...]
    rows: np.ndarray


def _bilateral_features(
    guidance: np.ndarray, cfg: CrfConfig, valid: np.ndarray
) -> _Features:
    """The first half of :func:`bilateral_weights`: the grid, the cache
    size check and the features of ``guidance``, cut to its first
    ``cfg.feature_channels`` bands here for every entry."""
    guidance = guidance[:cfg.feature_channels]
    factor = cfg.compression if cfg.compress_guidance else 1
    sigma = cfg.sigma / factor
    h, w = (-(-n // factor) for n in guidance.shape[1:])
    radius = int(math.ceil(3.0 * sigma))
    pitch = w + radius
    reach_i, reach_j = min(radius, h - 1), min(radius, w - 1)
    offsets = tuple(
        (di, dj)
        for di in range(reach_i + 1)
        for dj in range(-reach_j, reach_j + 1)
        if di > 0 or dj > 0
    )
    size = 8 * len(offsets) * h * pitch
    limit = _physical_memory()
    if limit is not None and size > limit:
        raise DimensionError(
            f"the bilateral weight cache of a {h}x{w} grid needs {size} bytes, "
            f"more than the {limit} bytes of physical memory "
            f"(compress_guidance is {cfg.compress_guidance})"
        )
    if not len(guidance):
        # A stack with no bands gets one zero band: the kernel is then the
        # spatial one, as for equal features.
        guidance = np.zeros((1, *guidance.shape[1:]))
    rows = _features(guidance, valid, factor, pitch)
    return _Features(factor, sigma, (h, w), pitch, offsets, rows)


def _weights(features: _Features, beta: float) -> BilateralWeights:
    """The second half of :func:`bilateral_weights`: the weight cache of
    ``features``.

    The squared feature differences of an offset accumulate one channel
    at a time in its weight row, which then takes the exp
    (:func:`_exp_in_place`) and the spatial factor in place.
    """
    feats, pitch, sigma = features.rows, features.pitch, features.sigma
    h, w = features.shape
    n = h * pitch
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    half_beta2 = 0.5 * beta * beta
    cache = np.empty((len(features.offsets), n))
    buf = np.empty(n)
    pairs = []
    for (di, dj), row in zip(features.offsets, cache):
        shift = di * pitch + dj
        m = n - shift
        weight, sq = row[:m], buf[:m]
        np.subtract(feats[0, :m], feats[0, shift:], out=weight)
        weight *= weight
        for band in feats[1:]:
            np.subtract(band[:m], band[shift:], out=sq)
            sq *= sq
            weight += sq
        weight *= -half_beta2
        _exp_in_place(weight)
        weight *= math.exp(-(di * di + dj * dj) * inv_two_sigma2)
        # Zero the pairs with an end in the pad columns: a target pad
        # column, or a source column past either side of the frame.
        grid = row.reshape(h, pitch)
        grid[:, min(w, w - dj):] = 0.0
        grid[:, : max(0, -dj)] = 0.0
        pairs.append((shift, weight))
    return BilateralWeights(features.factor, (h, w), pitch, tuple(pairs))


def _bilateral_message(
    q: np.ndarray,
    weights: BilateralWeights,
    scale: float = 1.0,
    message: np.ndarray | None = None,
) -> np.ndarray:
    """``scale`` times the bilateral message of an (H, W) field,
    self-contribution excluded, added to ``message`` (a zeroed field when
    None), which is returned.

    ``q`` must already be zeroed at invalid pixels. Block sums stand in
    for the fine-scale contributions, formed one band of rows at a time
    straight into a padded coarse field, which then becomes the coarse
    message in place (:func:`_add_pairs_in_place`). That message is
    upsampled back bilinearly, with no extra scale factor as the block
    sums already aggregate the factor^2 fine pixels, one band of rows at a
    time (:func:`_upsample_bands`), each band scaled and added in turn.
    At factor 1 each block sum is its one value, and each upsampled value
    is ``v * 1 + u * 0`` for finite coarse values v and u, which is v, as
    the coarse message sums from +0.0 and so holds no -0.0.
    """
    h, w = q.shape
    hc, wc = weights.shape
    coarse = np.zeros((hc, weights.pitch))
    _block_sum_rows(q, weights.factor, coarse[:, :wc])
    coarse = coarse.reshape(-1)
    n = coarse.size
    _add_pairs_in_place(coarse, weights.pairs, np.empty(min(n, row_bands(n, 1).step)), zeroed=True)
    coarse = coarse.reshape(hc, weights.pitch)[:, :wc]
    if message is None:
        message = np.zeros((h, w))
    for start, band in _upsample_bands(coarse, weights.factor, h, w):
        band *= scale
        message[start : start + len(band)] += band
    return message


def _pairwise_message(
    field: np.ndarray, cfg: CrfConfig, weights: BilateralWeights | None
) -> np.ndarray:
    """Spatial plus bilateral message of one (H, W) field, weighted by
    ``cfg.pairwise_weights``; ``weights`` None skips the bilateral kernel.
    ``field`` must already be zeroed at invalid pixels. The message is
    the scaled spatial message, in the padded frame of its passes, and
    the bilateral one is scaled and added to it; with no spatial kernel it
    starts as a zeroed field. For a field of non-negative values, as
    every step's, the scaled spatial message holds no -0.0, so these are
    the floats of a sum started from a zeroed field.
    """
    w_sp, w_bil = cfg.pairwise_weights
    if w_sp > 0:
        message = _spatial_message(field, cfg.sigma)
        message *= w_sp
    else:
        message = np.zeros_like(field)
    if weights is not None:
        _bilateral_message(field, weights, w_bil, message)
    return message


def _kernels(
    guidance: np.ndarray | None, cfg: CrfConfig, valid: np.ndarray,
    weights: BilateralWeights | None = None, valid_message: np.ndarray | None = None,
) -> tuple[BilateralWeights | None, np.ndarray]:
    """The bilateral weights and the valid mask's message that a step
    reads, each built only when not given. The weights are None when
    ``cfg.pairwise_weights[1]`` is not positive, given ones included.
    Otherwise given ones are used and ``guidance`` is not read; else they
    are built from ``guidance`` (Cg, H, W), which keeps its dtype, or are
    None when it is None too. The valid mask's message is
    :func:`_pairwise_message` of ``valid`` under those weights.
    """
    if cfg.pairwise_weights[1] <= 0:
        weights = None
    elif weights is None and guidance is not None:
        guidance = np.asarray(guidance)
        if guidance.ndim != 3 or guidance.shape[1:] != valid.shape:
            raise DataError(f"guidance shape {guidance.shape} does not match field {valid.shape}")
        weights = bilateral_weights(guidance, cfg, valid)
    if valid_message is None:
        valid_message = _pairwise_message(valid.astype(np.float64), cfg, weights)
    return weights, valid_message


@dataclass(frozen=True)
class _Logits:
    """The unary term of a step, kept as the logits it comes from instead
    of a stored unary field.

    ``data`` holds (H, W) class-1 logits or (2, H, W) ones, float32 or
    float64. -u of class k is ``logits[k] / temperature`` in float64: the
    same float as ``-(-logits[k] / temperature)``, as negation is exact
    and a quotient only changes sign with its dividend. One-band logits
    pin class 0 at zero, whose -u is the scalar +0.0. A unary field u is
    the logits -u at temperature 1, as x / 1.0 is x exactly.
    """

    data: np.ndarray
    temperature: float

    def negative(self, k: int, rows: slice, out: np.ndarray) -> np.ndarray | float:
        """-u of class ``k`` over ``rows``, written into ``out``, or +0.0
        for a pinned class 0."""
        if self.data.ndim == 2:
            if k == 0:
                return 0.0
            band = self.data[rows]
        else:
            band = self.data[k, rows]
        return np.divide(band, self.temperature, out=out, dtype=np.float64)

    def first_field(self) -> np.ndarray:
        """The class-1 field before any message: the softmax of -u, one band
        of rows at a time."""
        q1 = np.empty(self.data.shape[-2:])
        bands = row_bands(*q1.shape)
        x0_buf = np.empty((min(bands.step, len(q1)), q1.shape[1]))
        for start in bands:
            rows = slice(start, start + bands.step)
            x1 = q1[rows]
            x0 = x0_buf[: len(x1)]
            x0[...] = self.negative(0, rows, x0)
            _two_class_softmax(x0, self.negative(1, rows, x1))
        return q1


def _step_tail(
    field: np.ndarray,
    m1: np.ndarray,
    valid_message: np.ndarray,
    compatibility: tuple[tuple[float, float], tuple[float, float]],
    logits: _Logits,
    q0: np.ndarray | None = None,
) -> np.ndarray:
    """A step once the class-1 message ``m1`` exists: the compatibility,
    -u and the two-field softmax, one band of rows at a time. Per band,
    m0 = ``valid_message - m1`` and then x1 go into the band of ``field``,
    which ends up holding the new class-1 field and is returned; x0 goes
    to ``q0``'s band when given, else to a band buffer, and -u and the
    softmax's maximum and sum to another. The float operations and their
    order are those of the formulas on whole frames, so every value is the
    same, and the exp runs on contiguous bands as it did on frames.
    """
    h, w = field.shape
    bands = row_bands(h, w)
    (c00, c01), (c10, c11) = compatibility
    x0_buf, scratch_buf = np.empty((2, min(bands.step, h), w))
    for start in bands:
        rows = slice(start, start + bands.step)
        x1 = field[rows]
        n = len(x1)
        x0 = q0[rows] if q0 is not None else x0_buf[:n]
        scratch = scratch_buf[:n]
        m1_rows = m1[rows]
        m0 = np.subtract(valid_message[rows], m1_rows, out=x1)
        np.multiply(m0, c00, out=x0)
        x0 += np.multiply(m1_rows, c01, out=scratch)
        m0 *= c10  # m0 is read no more: x1 = c10 m0 + c11 m1
        x1 += np.multiply(m1_rows, c11, out=scratch)
        np.subtract(logits.negative(0, rows, scratch), x0, out=x0)
        np.subtract(logits.negative(1, rows, scratch), x1, out=x1)
        _two_class_softmax(x0, x1, scratch)
    return field


def mean_field_step(
    q: np.ndarray,
    unary: np.ndarray,
    guidance: np.ndarray | None,
    cfg: CrfConfig,
    valid: np.ndarray | None = None,
    *,
    weights: BilateralWeights | None = None,
    valid_message: np.ndarray | None = None,
) -> np.ndarray:
    """One mean-field update, ``Q' = softmax(-unary - compatibility @
    message)``, with the messages of both kernels combined by the
    pairwise weights.

    Only class 1 passes messages: as q0 = valid - q1 at valid pixels and
    messages are linear, the class-0 message m0 is ``valid_message`` less
    the class-1 one m1. The compatibility applies as four scalars,
    ``x0 = -unary[0] - (c00 m0 + c01 m1)`` and ``x1 = -unary[1] - (c10 m0
    + c11 m1)``, and one two-field softmax turns (x0, x1) into the new
    distribution (:func:`_step_tail`), for either shape of ``q``. Under
    Potts these are the floats of a class-axis einsum and softmax, as
    0 m0 + 1 m1 is m1 exactly. The step writes into none of its arguments,
    except in :func:`refine_values`' loop, which passes its logits (a
    private ``_Logits``) in place of ``unary`` and hands its field over.

    Args:
        q: Class-1 field (H, W), or the distribution (2, H, W), of which
            only ``q[1]`` is read.
        unary: Unary energies, (2, H, W).
        guidance: Guidance features (Cg, H, W), of which the first
            ``cfg.feature_channels`` bands are read, only to build the
            weights when ``weights`` is None; None then skips the
            bilateral kernel.
        cfg: Refinement settings.
        valid: Optional (H, W) bool; False pixels neither send messages
            nor keep meaningful values.
        weights, valid_message: Built here when None (:func:`_kernels`).

    Returns:
        The new class-1 field for an (H, W) ``q``; for a (2, H, W) ``q``
        the new distribution, per-pixel sums exactly 1.
    """
    if isinstance(unary, _Logits):
        field = q
    else:
        q = np.asarray(q, dtype=np.float64)
        unary = np.asarray(unary, dtype=np.float64)
        if unary.ndim != 3 or unary.shape[0] != 2 or q.shape not in (unary.shape, unary.shape[1:]):
            raise DataError(
                f"unary {unary.shape} must be (2, H, W), and q {q.shape} that or (H, W)"
            )
        if valid is None:
            valid = np.ones(unary.shape[1:], dtype=bool)
        field = (q[1] if q.ndim == 3 else q).copy()
        unary = _Logits(-unary, 1.0)
    # Invalid pixels send nothing, whatever the field holds there.
    np.copyto(field, 0.0, where=~valid)
    weights, valid_message = _kernels(guidance, cfg, valid, weights, valid_message)
    m1 = _pairwise_message(field, cfg, weights)
    if q.ndim == 2:
        return _step_tail(field, m1, valid_message, cfg.compatibility, unary)
    q0 = np.empty_like(field)
    q1 = _step_tail(field, m1, valid_message, cfg.compatibility, unary, q0)
    return np.stack([q0, q1])


def refine_values(
    logits: np.ndarray,
    guidance: np.ndarray | None,
    cfg: CrfConfig,
    valid: np.ndarray | None = None,
    *,
    weights: BilateralWeights | None = None,
) -> np.ndarray:
    """Run the full mean-field loop; returns the class-1 probability field.

    ``logits`` may be (H, W) (class 0 pinned at zero) or (2, H, W);
    float32 and float64 are read as they are (:class:`_Logits`), other
    dtypes converted to float64. The weights and the valid mask's message
    are built once (:func:`_kernels`; given ``weights`` are used) and
    handed to every step, and the loop carries the (H, W) class-1 field
    alone, which each step reuses for its own frames. The reference to
    ``guidance`` is dropped once the weights exist. No argument is written.
    """
    logits = np.asarray(logits)
    if logits.dtype not in (np.float32, np.float64):
        logits = logits.astype(np.float64)
    if logits.ndim != 2 and (logits.ndim != 3 or logits.shape[0] != 2):
        raise DataError(f"logit field must have shape (H, W) or (2, H, W), got {logits.shape}")
    if valid is None:
        valid = np.ones(logits.shape[-2:], dtype=bool)
    if not np.isfinite(logits[..., valid]).all():
        raise DataError("non-finite logits outside the nodata mask")
    weights, valid_message = _kernels(guidance, cfg, valid, weights)
    del guidance  # the weights hold all the steps need of it
    unary = _Logits(logits, cfg.temperature)
    q1 = unary.first_field()
    for _ in range(cfg.iterations):
        q1 = mean_field_step(
            q1, unary, None, cfg, valid, weights=weights, valid_message=valid_message
        )
    return q1


def crf_refine(
    logits: RasterGrid, stack: Callable[[], RasterGrid], cfg: CrfConfig | None = None
) -> RasterGrid:
    """Refine a one-band (class-1 logit) or two-band (per-class) logit
    raster against the guidance stack that ``stack()`` returns, on the
    same frame; returns a single-band float32 probability raster in
    [0, 1]. Pixels masked in either raster are carried through unrefined
    and stay masked. ``cfg`` defaults to ``CrfConfig()``.

    The bilateral features are built from the first
    ``cfg.feature_channels`` guidance bands (all when the stack is
    narrower), read only at valid pixels, one band at a time, in the dtype
    they are stored in. The stack goes once its features exist, and they
    go once the weights do, so neither is held while the next is built or
    through the loop. ``stack`` loads rather than is the stack, as Python
    3.10 holds a call's arguments until it returns.

    Raises:
        DataError: logits of neither 1 nor 2 bands, or rasters that differ
            in shape or geotransform.
        DimensionError: a weight cache larger than physical memory, before
            any feature is built.
    """
    cfg = cfg or CrfConfig()
    guidance = stack()
    if logits.bands not in (1, 2):
        raise DataError(f"logit raster must have 1 or 2 bands, got {logits.bands}")
    if not logits.same_frame(guidance):
        raise DataError(
            f"logits ({logits.shape}, geotransform {logits.geotransform}) and guidance "
            f"({guidance.shape}, geotransform {guidance.geotransform}) are on different frames"
        )
    valid = ~(logits.nodata_mask | guidance.nodata_mask)
    channels = min(cfg.feature_channels, guidance.bands)
    features = None
    if cfg.pairwise_weights[1] > 0:
        features = _bilateral_features(guidance.data, cfg, valid)
    del guidance  # the features hold all the weights read of it
    weights = None if features is None else _weights(features, cfg.beta)
    del features  # the weights hold all the loop reads of them
    # The loop reads the logits as they are stored and zeroes its field at
    # masked pixels.
    prob = refine_values(logits.data[0] if logits.bands == 1 else logits.data,
                         None, cfg, valid, weights=weights)
    meta = {
        "refinement": "mean_field_dense_crf",
        "beta": cfg.beta,
        "sigma": cfg.sigma,
        "feature_channels": channels,
        "compression": cfg.compression if cfg.compress_guidance else None,
        "temperature": cfg.temperature,
        "iterations": cfg.iterations,
        "pairwise_weights": list(cfg.pairwise_weights),
    }
    # RasterGrid writes NaN at the masked pixels.
    return RasterGrid(
        prob.astype(np.float32)[None, :, :], logits.geotransform, ~valid, ("probability",), meta
    )
