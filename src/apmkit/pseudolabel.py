"""Dynamic pseudolabel objective for two-branch semi-supervised training.

The toolkit does not train networks; it provides the loss algebra for
externally supplied branch predictions. For each unlabeled batch the two
branch outputs are mixed into a pseudolabel

    y~ = alpha * y1 + (1 - alpha) * y2,    alpha ~ U(0, 1),

and the total objective combines four scalar terms:

    total = supervised
            + lambda_p * pseudolabel
            + lambda_c(t) * consistency
            - lambda_e(t) * entropy

where the supervised term is the segmentation loss averaged over both
branches, the pseudolabel term is the branch-vs-pseudolabel loss over
confident pixels (max(y~, 1 - y~) >= tau), consistency is the mean
squared branch disagreement, and entropy is the mean binary entropy of
the branch outputs (subtracted: confident predictions are rewarded).
The time-dependent weights follow a sigmoid ramp
``lambda(t) = lambda_max * exp(-5 (1 - min(t, 1))^2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .raster.grid import RasterGrid

LOSS_KINDS = ("weighted-ce", "dice", "dice-focal", "focal", "tversky")

EPS = 1e-7


@dataclass(frozen=True)
class BranchPair:
    """Probability rasters from the two branches, on a shared frame."""

    y1: RasterGrid
    y2: RasterGrid

    def __post_init__(self) -> None:
        if not self.y1.same_frame(self.y2):
            raise DataError("branch rasters disagree in shape or geotransform")
        if self.y1.bands != 1 or self.y2.bands != 1:
            raise DataError("branch rasters must be single-band probability maps")

    @property
    def valid(self) -> np.ndarray:
        return ~(self.y1.nodata_mask | self.y2.nodata_mask)


@dataclass
class DplConfig:
    """Weights and knobs of the combined objective.

    ``total_steps`` fixes the training horizon; the consistency and
    entropy weights ramp up over the first ``ramp_fraction`` of it.
    """

    loss_kind: str = "dice"
    lambda_p: float = 1.0
    lambda_c_max: float = 1.0
    lambda_e_max: float = 0.1
    confidence_tau: float = 0.8
    ramp_fraction: float = 0.25
    total_steps: int = 1000
    class_weights: tuple[float, float] = (1.0, 1.0)
    focal_gamma: float = 2.0
    tversky_alpha: float = 0.3
    tversky_beta: float = 0.7
    dice_smooth: float = 1.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        if not 0.7 <= self.confidence_tau <= 0.95:
            raise ConfigError(
                f"confidence_tau must be in [0.7, 0.95], got {self.confidence_tau}"
            )
        for name in ("lambda_p", "lambda_c_max", "lambda_e_max"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 < self.ramp_fraction <= 1.0:
            raise ConfigError(
                f"ramp_fraction must be in (0, 1], got {self.ramp_fraction}"
            )
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        w = tuple(float(v) for v in self.class_weights)
        if len(w) != 2 or any(v < 0 for v in w):
            raise ConfigError(f"class_weights must be two non-negative numbers, got {w}")
        self.class_weights = w

    @property
    def ramp_steps(self) -> int:
        return max(1, int(round(self.ramp_fraction * self.total_steps)))


def _values_and_mask(field) -> tuple[np.ndarray, np.ndarray]:
    """Accept a RasterGrid or a bare array; return (float64 values, valid)."""
    if isinstance(field, RasterGrid):
        if field.bands != 1:
            raise DataError(f"expected a single-band field, got {field.bands} bands")
        return field.band(0).astype(np.float64), ~field.nodata_mask
    arr = np.asarray(field, dtype=np.float64)
    return arr, np.isfinite(arr)


def combine(
    pair: BranchPair,
    alpha: float | None = None,
    rng: np.random.Generator | None = None,
) -> RasterGrid:
    """Convex branch mixture ``alpha * y1 + (1 - alpha) * y2``.

    With ``alpha=None`` the coefficient is drawn uniformly from [0, 1)
    using ``rng`` (required in that case). ``alpha=1`` reproduces branch 1
    bit-exactly, ``alpha=0`` branch 2.
    """
    if alpha is None:
        if rng is None:
            raise ConfigError("combine: alpha=None requires a random generator")
        alpha = float(rng.uniform())
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    a = np.float32(alpha)
    mixed = a * pair.y1.data + (np.float32(1.0) - a) * pair.y2.data
    mask = pair.y1.nodata_mask | pair.y2.nodata_mask
    return RasterGrid(
        mixed,
        pair.y1.geotransform,
        mask,
        ("pseudolabel",),
        {"alpha": float(alpha)},
    )


def confident_pseudolabel(
    pair: BranchPair,
    cfg: DplConfig | None = None,
    alpha: float | None = None,
    rng: np.random.Generator | None = None,
) -> RasterGrid:
    """Mixed pseudolabel raster masked to its confident pixels.

    The branches are combined with ``alpha`` (drawn from ``rng`` when
    None), then pixels whose confidence ``max(p, 1 - p)`` falls below
    ``cfg.confidence_tau`` are masked out along with the input nodata.
    """
    cfg = cfg or DplConfig()
    mixed = combine(pair, alpha=alpha, rng=rng)
    tilde = mixed.band(0).astype(np.float64)
    conf = np.where(np.isnan(tilde), 0.0, np.maximum(tilde, 1.0 - tilde))
    confident = ~mixed.nodata_mask & (conf >= cfg.confidence_tau)
    return RasterGrid(
        tilde.astype(np.float32)[None, :, :],
        mixed.geotransform,
        ~confident,
        ("pseudolabel",),
        {"confidence_tau": cfg.confidence_tau, "alpha": mixed.meta["alpha"]},
    )


def ramp_weight(step: int, ramp_steps: int, lambda_max: float) -> float:
    """Sigmoid-shaped ramp ``lambda_max * exp(-5 (1 - min(t, 1))^2)``.

    ``t = step / ramp_steps``; the weight starts at ``lambda_max * e^-5``
    and saturates at ``lambda_max`` once ``step >= ramp_steps``.
    """
    if step < 0:
        raise DataError(f"step must be >= 0, got {step}")
    if ramp_steps < 1:
        raise ConfigError(f"ramp_steps must be >= 1, got {ramp_steps}")
    t = min(step / ramp_steps, 1.0)
    return float(lambda_max) * float(np.exp(-5.0 * (1.0 - t) ** 2))


def binary_entropy(pred, eps: float = EPS) -> float:
    """Mean Bernoulli entropy (nats) of a probability field.

    ``H(p) = -p ln p - (1 - p) ln(1 - p)`` with probabilities clamped to
    [eps, 1 - eps]; the mean runs over valid pixels only.
    """
    values, valid = _values_and_mask(pred)
    if not valid.any():
        raise DataError("entropy of a fully masked field is undefined")
    p = np.clip(values[valid], eps, 1.0 - eps)
    h = -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)
    return float(h.mean())


def consistency(pair: BranchPair) -> float:
    """Mean squared disagreement between the two branches."""
    valid = pair.valid
    if not valid.any():
        raise DataError("consistency of fully masked branches is undefined")
    d = pair.y1.band(0).astype(np.float64)[valid] - pair.y2.band(0).astype(np.float64)[valid]
    return float(np.mean(d * d))


# --- segmentation losses -----------------------------------------------------


def seg_loss(
    kind: str,
    pred,
    target,
    select: np.ndarray | None = None,
    class_weights: tuple[float, float] = (1.0, 1.0),
    focal_gamma: float = 2.0,
    tversky_alpha: float = 0.3,
    tversky_beta: float = 0.7,
    smooth: float = 1.0,
    eps: float = EPS,
) -> float:
    """Scalar segmentation loss between a prediction and a target field.

    Args:
        kind: One of ``weighted-ce``, ``dice``, ``dice-focal``, ``focal``,
            ``tversky``.
        pred: Probability field (RasterGrid or array).
        target: Target field, same shape; {0, 1} or soft values.
        select: Optional bool array restricting the loss to a pixel subset
            (on top of validity masks).
        class_weights: (negative, positive) weights for ``weighted-ce``.
        focal_gamma: Focusing exponent of the focal term.
        tversky_alpha: False-positive penalty of the Tversky loss.
        tversky_beta: False-negative penalty of the Tversky loss.
        smooth: Additive smoothing of the overlap losses.
        eps: Probability clamp for the logarithmic losses.

    Returns:
        Non-negative float64 scalar.
    """
    if kind not in LOSS_KINDS:
        raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {kind!r}")
    p_values, p_valid = _values_and_mask(pred)
    t_values, t_valid = _values_and_mask(target)
    if p_values.shape != t_values.shape:
        raise DataError(
            f"prediction {p_values.shape} and target {t_values.shape} shapes differ"
        )
    keep = p_valid & t_valid
    if select is not None:
        keep &= np.asarray(select, dtype=bool)
    if not keep.any():
        raise DataError("no pixels selected for the loss")
    p = np.clip(p_values[keep], eps, 1.0 - eps)
    t = t_values[keep]

    def ce() -> float:
        w0, w1 = class_weights
        ll = w1 * t * np.log(p) + w0 * (1.0 - t) * np.log(1.0 - p)
        return float(-ll.mean())

    def dice() -> float:
        inter = float(np.sum(p * t))
        return 1.0 - (2.0 * inter + smooth) / (float(np.sum(p) + np.sum(t)) + smooth)

    def focal() -> float:
        fl = t * (1.0 - p) ** focal_gamma * np.log(p) + (1.0 - t) * p ** focal_gamma * np.log(
            1.0 - p
        )
        return float(-fl.mean())

    def tversky() -> float:
        inter = float(np.sum(p * t))
        fp = float(np.sum(p * (1.0 - t)))
        fn = float(np.sum((1.0 - p) * t))
        return 1.0 - (inter + smooth) / (inter + tversky_alpha * fp + tversky_beta * fn + smooth)

    if kind == "weighted-ce":
        return ce()
    if kind == "dice":
        return dice()
    if kind == "focal":
        return focal()
    if kind == "tversky":
        return tversky()
    return dice() + focal()  # dice-focal


def _loss_from_config(cfg: DplConfig, pred, target, select=None) -> float:
    return seg_loss(
        cfg.loss_kind,
        pred,
        target,
        select=select,
        class_weights=cfg.class_weights,
        focal_gamma=cfg.focal_gamma,
        tversky_alpha=cfg.tversky_alpha,
        tversky_beta=cfg.tversky_beta,
        smooth=cfg.dice_smooth,
    )


# --- combined objective ------------------------------------------------------


@dataclass(frozen=True)
class LossBreakdown:
    """The four objective terms and their weighted total."""

    supervised: float
    pseudolabel: float
    consistency: float
    entropy: float
    total: float

    def as_dict(self) -> dict:
        return {
            "supervised": self.supervised,
            "pseudolabel": self.pseudolabel,
            "consistency": self.consistency,
            "entropy": self.entropy,
            "total": self.total,
        }


_HARD_TARGET_KINDS = ("dice", "dice-focal", "tversky")


def dpl_objective(
    labeled: tuple[RasterGrid, RasterGrid, RasterGrid] | None,
    unlabeled: Sequence[BranchPair],
    cfg: DplConfig,
    step: int,
    alphas: Sequence[float] | None = None,
) -> LossBreakdown:
    """Evaluate the combined objective at one training step.

    Args:
        labeled: Optional (branch-1 prediction, branch-2 prediction,
            label raster) triple; the label raster uses 1/0/nodata and
            the supervised loss runs over its labeled pixels, averaged
            over both branches. None contributes zero.
        unlabeled: Branch pairs for the unlabeled batches. Every term
            computed on them is averaged over the batches.
        cfg: Objective settings.
        step: Training step, used by the ramped weights.
        alphas: Optional explicit mixture coefficients, one per batch;
            drawn from the seeded generator otherwise.

    Returns:
        LossBreakdown with the unweighted terms and the weighted total.

    Notes:
        Pseudolabels enter overlap losses (dice, dice-focal, tversky)
        hard-thresholded at 0.5 and logarithmic losses soft. Pixels whose
        pseudolabel confidence ``max(y~, 1 - y~)`` falls below
        ``cfg.confidence_tau`` are excluded from the pseudolabel term; a
        batch with no confident pixel contributes zero.
    """
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    if labeled is None and not unlabeled:
        raise DataError("objective needs a labeled triple or unlabeled pairs")
    if alphas is not None and len(alphas) != len(unlabeled):
        raise DataError(
            f"{len(alphas)} alphas supplied for {len(unlabeled)} unlabeled batches"
        )
    rng = np.random.default_rng(cfg.rng_seed)

    supervised = 0.0
    if labeled is not None:
        pred1, pred2, label_grid = labeled
        if not (pred1.same_frame(label_grid) and pred2.same_frame(label_grid)):
            raise DataError("labeled predictions and labels disagree in frame")
        labeled_pixels = ~label_grid.nodata_mask
        if not labeled_pixels.any():
            raise DataError("label raster holds no labeled pixels")
        supervised = 0.5 * (
            _loss_from_config(cfg, pred1, label_grid, select=labeled_pixels)
            + _loss_from_config(cfg, pred2, label_grid, select=labeled_pixels)
        )

    pseudo_terms: list[float] = []
    cons_terms: list[float] = []
    ent_terms: list[float] = []
    hard = cfg.loss_kind in _HARD_TARGET_KINDS
    for j, pair in enumerate(unlabeled):
        alpha = None if alphas is None else float(alphas[j])
        masked = confident_pseudolabel(pair, cfg, alpha=alpha, rng=rng)
        confident = ~masked.nodata_mask
        if confident.any():
            tilde = masked.band(0).astype(np.float64)  # NaN off the confident pixels
            target = (tilde >= 0.5).astype(np.float64) if hard else tilde
            batch = _loss_from_config(
                cfg, pair.y1, target, select=confident
            ) + _loss_from_config(cfg, pair.y2, target, select=confident)
        else:
            batch = 0.0
        pseudo_terms.append(batch)
        cons_terms.append(consistency(pair))
        ent_terms.append(binary_entropy(pair.y1) + binary_entropy(pair.y2))

    pseudo = float(np.mean(pseudo_terms)) if pseudo_terms else 0.0
    cons = float(np.mean(cons_terms)) if cons_terms else 0.0
    ent = float(np.mean(ent_terms)) if ent_terms else 0.0
    lam_c = ramp_weight(step, cfg.ramp_steps, cfg.lambda_c_max)
    lam_e = ramp_weight(step, cfg.ramp_steps, cfg.lambda_e_max)
    total = supervised + cfg.lambda_p * pseudo + lam_c * cons - lam_e * ent
    return LossBreakdown(
        supervised=float(supervised),
        pseudolabel=pseudo,
        consistency=cons,
        entropy=ent,
        total=float(total),
    )
