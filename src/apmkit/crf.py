"""Fully connected CRF refinement of probability fields by mean-field
iteration.

The model is the usual two-class Potts CRF over pixels. Unary potentials
come from logits (scaled by a temperature); pairwise potentials combine a
spatial Gaussian kernel and a bilateral kernel over concatenated
(position / sigma, beta * guidance features). Both kernels are evaluated
by direct windowed accumulation truncated at radius ceil(3 sigma), where
the Gaussian tail is negligible; within that window the messages are
exact, which keeps small-field behaviour checkable against a dense
all-pairs computation.

The bilateral branch can optionally run on a coarsened guidance grid
(block mean by a compression factor, message passing at reduced
resolution, bilinear upsampling back), trading fidelity for speed on
large frames.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DataError
from .raster.grid import RasterGrid

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
        """Build a config from a dict or a JSON file path."""
        if isinstance(source, dict):
            doc = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{source}: invalid JSON: {exc}") from exc
        # The compatibility matrix stays Potts for JSON configs.
        known = {f.name for f in fields(CrfConfig)} - {"compatibility"}
        kwargs = {}
        for key, value in doc.items():
            name = _CONFIG_ALIASES.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown refinement option '{key}'")
            kwargs[name] = value
        return CrfConfig(**kwargs)


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
    shifted = neg_energy - neg_energy.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def _offset_slices(h: int, w: int, di: int, dj: int) -> tuple[slice, slice, slice, slice]:
    """Target and source slices so target[i] pairs with source[i + (di, dj)]."""
    rt = slice(max(0, -di), h - max(0, di))
    ct = slice(max(0, -dj), w - max(0, dj))
    rs = slice(rt.start + di, rt.stop + di)
    cs = slice(ct.start + dj, ct.stop + dj)
    return rt, ct, rs, cs


def _windowed_messages(
    q: np.ndarray,
    guidance: np.ndarray | None,
    sigma: float,
    beta: float,
    want_spatial: bool,
    want_bilateral: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Spatial and bilateral messages, self-contribution excluded.

    ``q`` must already be zeroed at invalid pixels so they contribute
    nothing; ``guidance`` is (Cg, H, W) or None.
    """
    nclass, h, w = q.shape
    msg_sp = np.zeros_like(q)
    msg_bil = np.zeros_like(q)
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    half_beta2 = 0.5 * beta * beta
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di == 0 and dj == 0:
                continue
            w_sp = math.exp(-(di * di + dj * dj) * inv_two_sigma2)
            rt, ct, rs, cs = _offset_slices(h, w, di, dj)
            if rt.start >= rt.stop or ct.start >= ct.stop:
                continue
            contrib = q[:, rs, cs]
            if want_spatial:
                msg_sp[:, rt, ct] += w_sp * contrib
            if want_bilateral and guidance is not None:
                diff = guidance[:, rt, ct] - guidance[:, rs, cs]
                w_bil = w_sp * np.exp(-half_beta2 * np.sum(diff * diff, axis=0))
                msg_bil[:, rt, ct] += w_bil * contrib
    return msg_sp, msg_bil


def _block_sum(arr: np.ndarray, factor: int) -> np.ndarray:
    """Sum over factor x factor blocks, zero-padding ragged edges."""
    *lead, h, w = arr.shape
    hp = (h + factor - 1) // factor * factor
    wp = (w + factor - 1) // factor * factor
    padded = np.zeros((*lead, hp, wp), dtype=np.float64)
    padded[..., :h, :w] = arr
    return padded.reshape(*lead, hp // factor, factor, wp // factor, factor).sum(
        axis=(-3, -1)
    )


def _bilinear_upsample(arr: np.ndarray, factor: int, h: int, w: int) -> np.ndarray:
    """Upsample (..., hc, wc) to (..., h, w), aligning block centers."""
    hc, wc = arr.shape[-2], arr.shape[-1]
    half = (factor - 1) / 2.0
    ri = (np.arange(h) - half) / factor
    ci = (np.arange(w) - half) / factor
    r0 = np.clip(np.floor(ri).astype(int), 0, hc - 1)
    r1 = np.clip(r0 + 1, 0, hc - 1)
    fr = np.clip(ri - r0, 0.0, 1.0)
    c0 = np.clip(np.floor(ci).astype(int), 0, wc - 1)
    c1 = np.clip(c0 + 1, 0, wc - 1)
    fc = np.clip(ci - c0, 0.0, 1.0)
    top = arr[..., r0, :][..., :, c0] * (1 - fc) + arr[..., r0, :][..., :, c1] * fc
    bot = arr[..., r1, :][..., :, c0] * (1 - fc) + arr[..., r1, :][..., :, c1] * fc
    return top * (1 - fr[:, None]) + bot * fr[:, None]


def _compressed_bilateral(
    q: np.ndarray, guidance: np.ndarray, cfg: CrfConfig, valid: np.ndarray
) -> np.ndarray:
    """Bilateral message computed on a coarsened grid and upsampled back.

    Block sums stand in for the fine-scale contributions; the upsampled
    message keeps the full-resolution magnitude (no extra scale factor is
    needed because block sums already aggregate the gamma^2 fine pixels).
    """
    gamma = cfg.compression
    h, w = q.shape[1], q.shape[2]
    qc = _block_sum(q, gamma)
    vc = _block_sum(valid.astype(np.float64), gamma)
    gc_sum = _block_sum(guidance * valid, gamma)
    gc = np.divide(gc_sum, vc, out=np.zeros_like(gc_sum), where=vc > 0)
    sigma_c = cfg.sigma / gamma
    _, msg_c = _windowed_messages(
        qc, gc, sigma_c, cfg.beta, want_spatial=False, want_bilateral=True
    )
    return _bilinear_upsample(msg_c, gamma, h, w)


def mean_field_step(
    q: np.ndarray,
    unary: np.ndarray,
    guidance: np.ndarray | None,
    cfg: CrfConfig,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """One mean-field update.

    Messages from both kernels are combined with the pairwise weights, run
    through the compatibility transform and re-normalised against the
    unary term:

        Q' = softmax(-unary - compatibility @ message)

    Args:
        q: Current distribution, (2, H, W), rows summing to 1.
        unary: Unary energies, (2, H, W).
        guidance: Bilateral guidance features (Cg, H, W) or None to skip
            the bilateral kernel.
        cfg: Refinement settings.
        valid: Optional (H, W) bool; False pixels neither send messages
            nor keep meaningful values.

    Returns:
        Updated distribution, same shape, per-pixel sums exactly 1.
    """
    q = np.asarray(q, dtype=np.float64)
    unary = np.asarray(unary, dtype=np.float64)
    if q.shape != unary.shape or q.ndim != 3 or q.shape[0] != 2:
        raise DataError(
            f"distribution {q.shape} and unary {unary.shape} must both be (2, H, W)"
        )
    if guidance is not None:
        guidance = np.asarray(guidance, dtype=np.float64)
        if guidance.ndim != 3 or guidance.shape[1:] != q.shape[1:]:
            raise DataError(
                f"guidance shape {guidance.shape} does not match field {q.shape}"
            )
    if valid is None:
        valid = np.ones(q.shape[1:], dtype=bool)
    w_sp, w_bil = cfg.pairwise_weights
    qv = q * valid
    use_bilateral = guidance is not None and w_bil > 0
    if use_bilateral and cfg.compress_guidance:
        msg_sp, _ = _windowed_messages(
            qv, None, cfg.sigma, cfg.beta, want_spatial=w_sp > 0, want_bilateral=False
        )
        msg_bil = _compressed_bilateral(qv, guidance, cfg, valid)
    else:
        msg_sp, msg_bil = _windowed_messages(
            qv,
            guidance if use_bilateral else None,
            cfg.sigma,
            cfg.beta,
            want_spatial=w_sp > 0,
            want_bilateral=use_bilateral,
        )
    message = w_sp * msg_sp + w_bil * msg_bil
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
    zero) or (2, H, W).
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim == 2:
        arr = np.stack([np.zeros_like(arr), arr])
    if valid is None:
        valid = np.ones(arr.shape[1:], dtype=bool)
    if not np.isfinite(arr[:, valid]).all():
        raise DataError("non-finite logits outside the nodata mask")
    unary = unary_potentials(arr, cfg.temperature)
    q = class_softmax(-unary)
    for _ in range(cfg.iterations):
        q = mean_field_step(q, unary, guidance, cfg, valid)
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
