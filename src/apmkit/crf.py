"""Fully connected CRF refinement of probability fields by mean-field
iteration.

The model is the usual two-class Potts CRF over pixels. Unary potentials
come from logits (scaled by a temperature); pairwise potentials combine a
spatial Gaussian kernel and a bilateral kernel over concatenated
(position / sigma, beta * guidance features). Both kernels are truncated
to the square window of radius ceil(3 sigma), where the Gaussian tail is
negligible; within that window the messages are exact, which keeps
small-field behaviour checkable against a dense all-pairs computation.

The model has two classes and messages are linear in the distribution,
so each step passes messages for class 1 only: with q0 = valid - q1, the
class-0 message is the message of the valid mask less that of class 1.
A refinement builds the valid mask's message once, alongside the
bilateral weights.

Both kernels sum over shifted copies of a field, and they do so on one
row-padded flat layout: an (h, w) field is stored row-major with a row
pitch of w + radius, the pad columns zero. A window offset (di, dj) is
then the constant flat shift di * pitch + dj, since a shift past either
side of a row lands in a pad column, and every offset or tap is one
contiguous 1-D multiply and add. The pairs that reach into the padding
add only +0.0, so each pixel's sum holds the same nonzero terms in the
same order as over the frame alone.

A message's multiply-adds run band by band (:func:`_add_pairs`): the
flat field is cut into ceil(n / _BAND) bands of equal length, _BAND =
2^15 float64 values (256 KiB), and every (shift, weight) pair of the
message runs over one band before any runs over the next, so that band
of the accumulator stays in cache. Within a band each pair keeps its
order, first ``acc[p] += w[p] * src[p + s]``, then ``acc[p] += w[p - s]
* src[p - s]``, and the pairs keep theirs, so every pixel receives the
same additions in the same order as in one pass over the whole field,
and the result is exact. Reads across a band's edges come from the
source, which is complete before the pass starts; the spatial column
pass starts once the row pass has finished. A field of at most _BAND
values is one band.

The spatial kernel factorises over rows and columns, so its message runs
as two 1-D passes. The bilateral weights depend only on the guidance, so
a refinement builds them once (:func:`bilateral_weights`) and each step
only multiplies and adds. As w(p, p + d) = w(p + d, p), only half the
window's offsets are stored, each used in both directions: that cache
costs 8 * ceil(offsets / 2) * (w + radius) / w bytes per pixel of the
grid it lives on. A cache larger than the machine's physical memory is
refused before it is built.

The bilateral branch can optionally run on a coarsened guidance grid
(block mean by a compression factor, message passing at reduced
resolution, bilinear upsampling back), trading fidelity for speed and
memory on large frames; it does so by default.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import build_config, read_json
from .errors import ConfigError, DataError, DimensionError
from .raster.grid import RasterGrid

# Most float64 values per band of a message's multiply-adds (256 KiB): a
# band of the accumulator with its source and weight reads fits a 2 MB L2.
_BAND = 1 << 15

# Accepted aliases for JSON config keys.
_CONFIG_ALIASES = {
    "compression_factor": "compression",
    "crf_temperature": "temperature",
}


@dataclass
class CrfConfig:
    """Mean-field refinement settings.

    Attributes:
        beta: Guidance-feature scale of the bilateral kernel, in [0.1, 1].
        sigma: Stddev (pixels) of the spatial Gaussian; window radius is
            ceil(3 sigma).
        feature_channels: How many leading guidance bands feed the
            bilateral kernel (16, 32 or 64; fewer are used when the
            guidance has fewer bands).
        compression: Bilateral coarsening factor (2 or 4).
        temperature: Divides the logits in the unary term, in [1, 5].
        iterations: Mean-field steps, in [2, 10].
        pairwise_weights: (spatial, bilateral) kernel coefficients.
        compatibility: 2x2 label compatibility matrix; None means Potts
            ([[0, 1], [1, 0]]).
        compress_guidance: Whether the bilateral branch runs coarsened.
    """

    beta: float = 0.5
    sigma: float = 3.0
    feature_channels: int = 16
    compression: int = 2
    temperature: float = 1.0
    iterations: int = 5
    pairwise_weights: tuple[float, float] = (1.0, 1.0)
    compatibility: np.ndarray | None = None
    compress_guidance: bool = True

    def __post_init__(self) -> None:
        if not 0.1 <= self.beta <= 1.0:
            raise ConfigError(f"beta must be in [0.1, 1.0], got {self.beta}")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be > 0, got {self.sigma}")
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
        if len(w) != 2 or any(v < 0 for v in w):
            raise ConfigError(f"pairwise_weights must be two non-negative numbers, got {w}")
        self.pairwise_weights = w
        if self.compatibility is None:
            self.compatibility = np.array([[0.0, 1.0], [1.0, 0.0]])
        else:
            m = np.asarray(self.compatibility, dtype=np.float64)
            if m.shape != (2, 2):
                raise ConfigError(f"compatibility must be 2x2, got shape {m.shape}")
            self.compatibility = m

    @staticmethod
    def from_json(source: str | os.PathLike | dict) -> "CrfConfig":
        """Build a config from a JSON object or the path of a JSON file."""
        doc = read_json(source, ConfigError) if isinstance(source, (str, os.PathLike)) else source
        return build_config(CrfConfig, doc, "crf", _CONFIG_ALIASES)


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


def class_softmax(neg_energy: np.ndarray) -> np.ndarray:
    """Per-pixel softmax over the leading class axis, numerically shifted."""
    out = neg_energy - neg_energy.max(axis=0, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=0, keepdims=True)
    return out


def _padded(arr: np.ndarray, pitch: int) -> np.ndarray:
    """``arr`` (..., h, w) as flat rows of ``pitch`` values, pad columns zero."""
    *lead, h, w = arr.shape
    out = np.zeros((*lead, h, pitch))
    out[..., :w] = arr
    return out.reshape(*lead, h * pitch)


def _add_pairs(
    acc: np.ndarray,
    src: np.ndarray,
    pairs: Sequence[tuple[int, float | np.ndarray]],
    buf: np.ndarray,
) -> None:
    """Both directions of every flat offset in ``pairs``, in place on ``acc``.

    For each ``(shift, weight)`` in list order, ``acc[p] += weight[p] *
    src[p + shift]`` for every p with p + shift inside the buffer, then
    ``acc[p] += weight[p - shift] * src[p - shift]`` for every p >= shift;
    ``weight`` is a scalar or holds ``acc.size - shift`` values. Every
    pair runs over one band of ``acc`` before any runs over the next (see
    the module docstring). ``buf`` is scratch space of at least
    ``min(acc.size, _BAND)`` values, and ``src`` must not alias ``acc``.
    """
    n = acc.size
    bands = -(-n // _BAND)
    step = -(-n // bands)
    for start in range(0, n, step):
        stop = min(start + step, n)
        for shift, weight in pairs:
            per_pixel = isinstance(weight, np.ndarray)
            end = min(stop, n - shift)
            if end > start:
                prod = buf[: end - start]
                np.multiply(
                    weight[start:end] if per_pixel else weight,
                    src[start + shift : end + shift],
                    out=prod,
                )
                acc[start:end] += prod
            begin = max(start, shift)
            if stop > begin:
                prod = buf[: stop - begin]
                np.multiply(
                    weight[begin - shift : stop - shift] if per_pixel else weight,
                    src[begin - shift : stop - shift],
                    out=prod,
                )
                acc[begin:stop] += prod


def _spatial_message(q: np.ndarray, sigma: float) -> np.ndarray:
    """Spatial message of an (H, W) field, self-contribution excluded.

    The Gaussian on the square window of radius ceil(3 sigma) factorises,
    k(di, dj) = g(di) g(dj), so the window sum runs as a pass along rows
    and a pass along columns, each with 2 r taps besides the centre one.
    Both passes run on the row-padded flat layout (see the module
    docstring), so a tap is a flat shift of k or k * pitch. Pixels outside
    the frame count as zero. The centre tap k(0, 0) = 1 carries the self
    term, which is subtracted at the end. ``q`` must already be zeroed at
    invalid pixels.
    """
    h, w = q.shape
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    taps = [(k, math.exp(-k * k * inv_two_sigma2)) for k in range(1, radius + 1)]
    pitch = w + radius
    flat = _padded(q, pitch)
    buf = np.empty(min(flat.size, _BAND))
    rows = flat.copy()
    _add_pairs(rows, flat, taps, buf)
    msg = rows.copy()
    # A column tap of k >= h pairs no two rows of the frame.
    _add_pairs(msg, rows, [(k * pitch, g) for k, g in taps[: h - 1]], buf)
    msg -= flat
    return msg.reshape(h, pitch)[:, :w]


def _block_sum(arr: np.ndarray, factor: int) -> np.ndarray:
    """Sum over factor x factor blocks, zero-padding ragged edges."""
    *lead, h, w = arr.shape
    if h % factor or w % factor:
        hp = (h + factor - 1) // factor * factor
        wp = (w + factor - 1) // factor * factor
        padded = np.zeros((*lead, hp, wp), dtype=np.float64)
        padded[..., :h, :w] = arr
        arr, h, w = padded, hp, wp
    return arr.reshape(*lead, h // factor, factor, w // factor, factor).sum(
        axis=(-3, -1)
    )


def _upsample_axis(arr: np.ndarray, n: int, factor: int, axis: int) -> np.ndarray:
    """Linear interpolation of ``arr`` to ``n`` samples along ``axis``
    (-1 or -2), aligning block centers; ends clip to the edge samples.

    Output sample i reads source ``lo = floor((i - half) / factor)`` and
    ``lo + 1`` at fraction ``(i - half) / factor - lo``. The factor is a
    power of two, so that fraction is exact and the same for every i of
    one phase ``i mod factor``, and the inner samples of a phase are one
    strided slice of the output and two plain slices of the source. The
    few samples with a clipped ``lo`` or ``lo + 1`` go one at a time.
    """
    m = arr.shape[axis]
    half = (factor - 1) / 2.0
    pos = (np.arange(n) - half) / factor
    base = np.floor(pos).astype(int)
    lo = np.clip(base, 0, m - 1)
    hi = np.clip(lo + 1, 0, m - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    shape = list(arr.shape)
    shape[axis] = n
    out = np.empty(shape)

    def at(a: np.ndarray, index: int | slice) -> np.ndarray:
        return a[(..., index) if axis == -1 else (..., index, slice(None))]

    inner = (base >= 0) & (base < m - 1)
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
    return out


def _bilinear_upsample(arr: np.ndarray, factor: int, h: int, w: int) -> np.ndarray:
    """Upsample (..., hc, wc) to (..., h, w), aligning block centers:
    columns first, then rows."""
    return _upsample_axis(_upsample_axis(arr, w, factor, -1), h, factor, -2)


@dataclass(frozen=True)
class BilateralWeights:
    """Bilateral kernel weights of one guidance field.

    They depend on the guidance alone, so a refinement builds them once
    and every mean-field step only multiplies and adds. The weights live
    on the row-padded flat layout of their grid: row pitch
    ``w + radius``, pad columns zero. ``pairs`` holds one entry per
    offset d = (di, dj) of half the window (the first non-zero of
    (di, dj) positive) that pairs at least two pixels of the grid: its
    flat shift ``di * pitch + dj`` and w(p, p + shift) at every flat p
    below ``h * pitch - shift``, zero where either end is padding. Since
    w(p + d, p) is the same number, each entry serves both directions.
    All entries share one block of ``8 * len(pairs) * h * pitch`` bytes,
    i.e. ``8 * ceil(offsets / 2) * (w + radius) / w`` bytes per grid
    pixel.

    Attributes:
        factor: Block size of the grid the weights live on; 1 means full
            resolution.
        shape: ``(h, w)`` of that grid.
        pitch: Row pitch of the flat layout, ``w + radius``.
        pairs: ``(shift, weight)`` per half-window offset.
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


def bilateral_weights(
    guidance: np.ndarray, cfg: CrfConfig, valid: np.ndarray
) -> BilateralWeights:
    """Build the bilateral weights for ``guidance`` (Cg, H, W).

    With ``cfg.compress_guidance`` the weights live on the grid of
    ``cfg.compression``-sized blocks, whose features are the means over
    each block's valid pixels (zero for a block with none) and whose
    spatial sigma shrinks by the same factor; otherwise on the full frame.
    The squared feature differences of an offset accumulate one channel
    at a time in its weight row, which then takes the exp and the spatial
    factor in place.

    Raises:
        DimensionError: The cache would exceed the machine's physical
            memory; checked before any weight is allocated.
    """
    factor = cfg.compression if cfg.compress_guidance else 1
    sigma = cfg.sigma / factor
    h, w = (-(-n // factor) for n in guidance.shape[1:])
    radius = int(math.ceil(3.0 * sigma))
    pitch = w + radius
    n = h * pitch
    reach_i, reach_j = min(radius, h - 1), min(radius, w - 1)
    offsets = [
        (di, dj)
        for di in range(reach_i + 1)
        for dj in range(-reach_j, reach_j + 1)
        if di > 0 or dj > 0
    ]
    size = 8 * len(offsets) * n
    limit = _physical_memory()
    if limit is not None and size > limit:
        raise DimensionError(
            f"the bilateral weight cache of a {h}x{w} grid needs {size} bytes, "
            f"more than the {limit} bytes of physical memory "
            f"(compress_guidance is {cfg.compress_guidance})"
        )
    if cfg.compress_guidance:
        counts = _block_sum(valid.astype(np.float64), factor)
        sums = _block_sum(guidance * valid, factor)
        feats = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    else:
        feats = guidance
    # A stack with no bands gets one zero band: the kernel is then the
    # spatial one, as for equal features.
    feats = _padded(feats if len(feats) else np.zeros((1, h, w)), pitch)
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    half_beta2 = 0.5 * cfg.beta * cfg.beta
    cache = np.empty((len(offsets), n))
    buf = np.empty(n)
    pairs = []
    for (di, dj), row in zip(offsets, cache):
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
        np.exp(weight, out=weight)
        weight *= math.exp(-(di * di + dj * dj) * inv_two_sigma2)
        # Zero the pairs with an end in the pad columns: a target pad
        # column, or a source column past either side of the frame.
        grid = row.reshape(h, pitch)
        grid[:, min(w, w - dj):] = 0.0
        grid[:, : max(0, -dj)] = 0.0
        pairs.append((shift, weight))
    return BilateralWeights(factor, (h, w), pitch, tuple(pairs))


def _bilateral_message(q: np.ndarray, weights: BilateralWeights) -> np.ndarray:
    """Bilateral message of an (H, W) field, self-contribution excluded.

    ``q`` must already be zeroed at invalid pixels. On a coarsened grid,
    block sums stand in for the fine-scale contributions, and the message
    is upsampled back bilinearly with no extra scale factor, because the
    block sums already aggregate the factor^2 fine pixels.
    """
    h, w = q.shape
    gamma = weights.factor
    src = _padded(_block_sum(q, gamma) if gamma > 1 else q, weights.pitch)
    msg = np.zeros_like(src)
    _add_pairs(msg, src, weights.pairs, np.empty(min(src.size, _BAND)))
    hc, wc = weights.shape
    msg = msg.reshape(hc, weights.pitch)[:, :wc]
    return _bilinear_upsample(msg, gamma, h, w) if gamma > 1 else msg


def _pairwise_message(
    field: np.ndarray, cfg: CrfConfig, weights: BilateralWeights | None
) -> np.ndarray:
    """Spatial plus bilateral message of one (H, W) field, weighted by
    ``cfg.pairwise_weights``; ``weights`` None skips the bilateral kernel.

    ``field`` must already be zeroed at invalid pixels.
    """
    w_sp, w_bil = cfg.pairwise_weights
    message = np.zeros_like(field)
    if w_sp > 0:
        message += w_sp * _spatial_message(field, cfg.sigma)
    if weights is not None:
        message += w_bil * _bilateral_message(field, weights)
    return message


def _as_guidance(guidance: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """Guidance as float64 (Cg, H, W) on the field's frame, or None."""
    if guidance is None:
        return None
    guidance = np.asarray(guidance, dtype=np.float64)
    if guidance.ndim != 3 or guidance.shape[1:] != shape[1:]:
        raise DataError(f"guidance shape {guidance.shape} does not match field {shape}")
    return guidance


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
    """One mean-field update.

    Messages from both kernels are combined with the pairwise weights, run
    through the compatibility transform and re-normalised against the
    unary term:

        Q' = softmax(-unary - compatibility @ message)

    Only class 1 passes messages: as q0 = valid - q1 at valid pixels and
    messages are linear, the class-0 message is ``valid_message`` minus
    the class-1 one.

    Args:
        q: Current distribution, (2, H, W), rows summing to 1; only
            ``q[1]`` is read.
        unary: Unary energies, (2, H, W).
        guidance: Bilateral guidance features (Cg, H, W) or None to skip
            the bilateral kernel.
        cfg: Refinement settings.
        valid: Optional (H, W) bool; False pixels neither send messages
            nor keep meaningful values.
        weights: The bilateral weights of ``guidance`` under ``cfg`` and
            ``valid``, as :func:`bilateral_weights` builds them; built
            here when None.
        valid_message: :func:`_pairwise_message` of ``valid`` under the
            same weights; built here when None.

    Returns:
        Updated distribution, same shape, per-pixel sums exactly 1.
    """
    q = np.asarray(q, dtype=np.float64)
    unary = np.asarray(unary, dtype=np.float64)
    if q.shape != unary.shape or q.ndim != 3 or q.shape[0] != 2:
        raise DataError(
            f"distribution {q.shape} and unary {unary.shape} must both be (2, H, W)"
        )
    guidance = _as_guidance(guidance, q.shape)
    if valid is None:
        valid = np.ones(q.shape[1:], dtype=bool)
    if guidance is None or cfg.pairwise_weights[1] <= 0:
        weights = None
    elif weights is None:
        weights = bilateral_weights(guidance, cfg, valid)
    if valid_message is None:
        valid_message = _pairwise_message(valid.astype(np.float64), cfg, weights)
    m1 = _pairwise_message(q[1] * valid, cfg, weights)
    message = np.stack([valid_message - m1, m1])
    energy = np.einsum("ab,bhw->ahw", cfg.compatibility, message)
    return class_softmax(-unary - energy)


def refine_values(
    logits: np.ndarray,
    guidance: np.ndarray | None,
    cfg: CrfConfig,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """Run the full mean-field loop; returns the class-1 probability field.

    ``logits`` may be (H, W) (single-logit convention: class 0 pinned at
    zero) or (2, H, W). The bilateral weights and the valid mask's message
    are built once and handed to every step.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim == 2:
        arr = np.stack([np.zeros_like(arr), arr])
    if valid is None:
        valid = np.ones(arr.shape[1:], dtype=bool)
    if not np.isfinite(arr[:, valid]).all():
        raise DataError("non-finite logits outside the nodata mask")
    unary = unary_potentials(arr, cfg.temperature)
    guidance = _as_guidance(guidance, arr.shape)
    weights = None
    if guidance is not None and cfg.pairwise_weights[1] > 0:
        weights = bilateral_weights(guidance, cfg, valid)
    valid_message = _pairwise_message(valid.astype(np.float64), cfg, weights)
    q = class_softmax(-unary)
    for _ in range(cfg.iterations):
        q = mean_field_step(
            q, unary, guidance, cfg, valid, weights=weights, valid_message=valid_message
        )
    return q[1]


def crf_refine(
    logits: RasterGrid, guidance: RasterGrid, cfg: CrfConfig | None = None
) -> RasterGrid:
    """Refine a logit raster against a guidance stack.

    The first ``cfg.feature_channels`` guidance bands drive the bilateral
    kernel (all bands when the stack is narrower). Masked pixels are
    carried through unrefined and stay masked.

    Args:
        logits: One-band (class-1 logit) or two-band (per-class) raster.
        guidance: Feature stack on the same frame.
        cfg: Settings; defaults to ``CrfConfig()``.

    Returns:
        Single-band float32 probability raster in [0, 1].
    """
    cfg = cfg or CrfConfig()
    if logits.bands not in (1, 2):
        raise DataError(f"logit raster must have 1 or 2 bands, got {logits.bands}")
    if logits.shape != guidance.shape:
        raise DataError(
            f"logits {logits.shape} and guidance {guidance.shape} shapes differ"
        )
    mask = logits.nodata_mask | guidance.nodata_mask
    valid = ~mask
    if logits.bands == 1:
        field2 = np.stack(
            [np.zeros(logits.shape), np.where(valid, logits.band(0), 0.0)]
        )
    else:
        field2 = np.where(valid[None, :, :], logits.data, 0.0).astype(np.float64)
    k = min(cfg.feature_channels, guidance.bands)
    feats = np.where(valid[None, :, :], guidance.data[:k], 0.0).astype(np.float64)
    prob = refine_values(field2, feats, cfg, valid)
    prob = np.where(valid, prob, np.nan).astype(np.float32)
    meta = {
        "refinement": "mean_field_dense_crf",
        "beta": cfg.beta,
        "sigma": cfg.sigma,
        "feature_channels": int(k),
        "compression": cfg.compression if cfg.compress_guidance else None,
        "temperature": cfg.temperature,
        "iterations": cfg.iterations,
        "pairwise_weights": list(cfg.pairwise_weights),
    }
    return RasterGrid(
        prob[None, :, :], logits.geotransform, mask, ("probability",), meta
    )
