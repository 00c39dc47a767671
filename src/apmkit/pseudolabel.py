"""Dynamic pseudolabel objective for two-branch semi-supervised training.

The toolkit does not train networks; it provides the loss algebra for
externally supplied branch predictions. At one training step the two
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
:func:`confident_pseudolabel` is the one place that mixes the branches
and applies the confidence rule; :func:`dpl_objective` scores one branch
pair against its optional labels and the raster that function returns.
Every alpha is the caller's (the pipeline draws one per run, see
``pipeline.pseudolabel_with_breakdown``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .raster.grid import RasterGrid

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


@dataclass(frozen=True)
class DplConfig:
    """Weights and knobs of the combined objective.

    ``total_steps`` fixes the training horizon; the consistency and
    entropy weights ramp up over the first ``ramp_fraction`` of it. The
    last five fields set :func:`seg_loss`; without smoothing the Tversky
    loss of all-0 targets is 0 / 0 unless ``tversky_alpha`` is positive.
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

    def __post_init__(self) -> None:
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        if not 0.7 <= self.confidence_tau <= 0.95:
            raise ConfigError(
                f"confidence_tau must be in [0.7, 0.95], got {self.confidence_tau}"
            )
        for name in (
            "lambda_p", "lambda_c_max", "lambda_e_max",
            "focal_gamma", "tversky_alpha", "tversky_beta", "dice_smooth",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.tversky_alpha == 0 and self.dice_smooth == 0:
            raise ConfigError("tversky_alpha must be > 0 when dice_smooth is 0")
        if not 0.0 < self.ramp_fraction <= 1.0:
            raise ConfigError(
                f"ramp_fraction must be in (0, 1], got {self.ramp_fraction}"
            )
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        w = tuple(float(v) for v in self.class_weights)
        if len(w) != 2 or any(v < 0 for v in w):
            raise ConfigError(f"class_weights must be two non-negative numbers, got {w}")
        object.__setattr__(self, "class_weights", w)

    @property
    def ramp_steps(self) -> int:
        return max(1, int(round(self.ramp_fraction * self.total_steps)))


def _float64(field) -> np.ndarray:
    """A single-band RasterGrid or a bare array as float64 values.

    A grid holds NaN under its mask and finite values elsewhere, so the
    valid pixels of either are ``np.isfinite`` of the result.
    """
    if isinstance(field, RasterGrid):
        if field.bands != 1:
            raise DataError(f"expected a single-band field, got {field.bands} bands")
        field = field.band(0)
    return np.asarray(field, dtype=np.float64)


def check_alpha(alpha: float) -> None:
    """Raise ConfigError for a mixture coefficient outside [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")


def check_step(step: int) -> None:
    """Raise ConfigError for a negative training step."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")


def _mixture(pair: BranchPair, alpha: float) -> np.ndarray:
    """The float32 ``alpha * y1 + (1 - alpha) * y2``, NaN off ``pair.valid``."""
    check_alpha(alpha)
    a = np.float32(alpha)
    return a * pair.y1.band(0) + (np.float32(1.0) - a) * pair.y2.band(0)


def combine(pair: BranchPair, alpha: float) -> RasterGrid:
    """Convex branch mixture ``alpha * y1 + (1 - alpha) * y2``.

    ``alpha=1`` reproduces branch 1 bit-exactly, ``alpha=0`` branch 2.
    """
    return RasterGrid(
        _mixture(pair, alpha)[None],
        pair.y1.geotransform,
        pair.y1.nodata_mask | pair.y2.nodata_mask,
        ("pseudolabel",),
        {"alpha": float(alpha)},
    )


def confident_pseudolabel(pair: BranchPair, cfg: DplConfig, alpha: float) -> RasterGrid:
    """Mixed pseudolabel raster masked to its confident pixels.

    The branches are combined with ``alpha``, then pixels whose confidence
    ``max(p, 1 - p)`` (in float64) falls below ``cfg.confidence_tau`` are
    masked out along with the input nodata, where the NaN mixture fails
    the comparison. This is the pseudolabel :func:`dpl_objective` scores.
    """
    tilde = _mixture(pair, alpha)
    conf = 1.0 - tilde.astype(np.float64)
    np.maximum(conf, tilde, out=conf)
    unsure = ~(conf >= cfg.confidence_tau)
    del conf
    tilde[unsure] = np.nan
    return RasterGrid(
        tilde[None],
        pair.y1.geotransform,
        unsure,
        ("pseudolabel",),
        {"confidence_tau": cfg.confidence_tau, "alpha": float(alpha)},
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


def binary_entropy(pred) -> float:
    """Mean Bernoulli entropy (nats) of a probability field.

    ``H(p) = -p ln p - (1 - p) ln(1 - p)`` with probabilities clamped to
    [EPS, 1 - EPS]; the mean runs over valid pixels only.
    """
    values = _float64(pred)
    valid = np.isfinite(values)
    if not valid.any():
        raise DataError("entropy of a fully masked field is undefined")
    p = values[valid]
    np.clip(p, EPS, 1.0 - EPS, out=p)
    h = -p * np.log(p) - (1.0 - p) * np.log(1.0 - p)
    return float(h.mean())


def consistency(y1, y2) -> float:
    """Mean squared disagreement of two branch fields (RasterGrid or
    array) over the pixels valid in both."""
    a, b = _float64(y1), _float64(y2)
    if a.shape != b.shape:
        raise DataError(f"branch fields {a.shape} and {b.shape} shapes differ")
    valid = np.isfinite(a)
    valid &= np.isfinite(b)
    if not valid.any():
        raise DataError("consistency of fully masked branches is undefined")
    d = a[valid] - b[valid]
    return float(np.mean(d * d))


# --- segmentation losses -----------------------------------------------------
# Each takes the selected predictions ``p`` (clamped to [EPS, 1 - EPS]), their
# targets ``t`` and the settings.


def _weighted_ce(p, t, cfg: DplConfig) -> float:
    w0, w1 = cfg.class_weights
    ll = w1 * t * np.log(p) + w0 * (1.0 - t) * np.log(1.0 - p)
    return float(-ll.mean())


def _dice(p, t, cfg: DplConfig) -> float:
    inter = float(np.sum(p * t))
    smooth = cfg.dice_smooth
    return 1.0 - (2.0 * inter + smooth) / (float(np.sum(p) + np.sum(t)) + smooth)


def _focal(p, t, cfg: DplConfig) -> float:
    g = cfg.focal_gamma
    fl = t * (1.0 - p) ** g * np.log(p) + (1.0 - t) * p ** g * np.log(1.0 - p)
    return float(-fl.mean())


def _tversky(p, t, cfg: DplConfig) -> float:
    inter = float(np.sum(p * t))
    fp = float(np.sum(p * (1.0 - t)))
    fn = float(np.sum((1.0 - p) * t))
    smooth = cfg.dice_smooth
    return 1.0 - (inter + smooth) / (
        inter + cfg.tversky_alpha * fp + cfg.tversky_beta * fn + smooth
    )


_LOSSES = {
    "weighted-ce": _weighted_ce,
    "dice": _dice,
    "dice-focal": lambda p, t, cfg: _dice(p, t, cfg) + _focal(p, t, cfg),
    "focal": _focal,
    "tversky": _tversky,
}

LOSS_KINDS = tuple(_LOSSES)


def seg_loss(pred, target, cfg: DplConfig, select: np.ndarray | None = None) -> float:
    """Scalar segmentation loss between a prediction and a target field.

    Args:
        pred: Probability field (RasterGrid or array).
        target: Target field, same shape; {0, 1} or soft values.
        cfg: ``loss_kind`` (one of ``LOSS_KINDS``) and its settings:
            ``class_weights``, ``focal_gamma``, ``tversky_alpha``,
            ``tversky_beta`` and ``dice_smooth``.
        select: Optional bool array restricting the loss to a pixel subset
            (on top of the fields' valid pixels).

    Returns:
        Non-negative float64 scalar.
    """
    p_values = _float64(pred)
    t_values = _float64(target)
    if p_values.shape != t_values.shape:
        raise DataError(
            f"prediction {p_values.shape} and target {t_values.shape} shapes differ"
        )
    keep = np.isfinite(p_values)
    keep &= np.isfinite(t_values)
    if select is not None:
        keep &= np.asarray(select, dtype=bool)
    if not keep.any():
        raise DataError("no pixels selected for the loss")
    p = p_values[keep]
    np.clip(p, EPS, 1.0 - EPS, out=p)
    return _LOSSES[cfg.loss_kind](p, t_values[keep], cfg)


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
        return asdict(self)


_HARD_TARGET_KINDS = ("dice", "dice-focal", "tversky")


def dpl_objective(
    pair: BranchPair,
    labels: RasterGrid | None,
    cfg: DplConfig,
    step: int,
    pseudolabel: RasterGrid,
) -> LossBreakdown:
    """Evaluate the combined objective at one training step.

    Args:
        pair: The two branch predictions.
        labels: Optional label raster on the pair's frame, 1/0/nodata;
            the supervised loss runs over its labeled pixels, averaged
            over both branches. None contributes zero.
        cfg: Objective settings.
        step: Training step, used by the ramped weights.
        pseudolabel: Single-band raster on the pair's frame, as
            :func:`confident_pseudolabel` returns it: the branch mixture
            with its unconfident pixels masked.

    Returns:
        LossBreakdown with the unweighted terms and the weighted total.

    Notes:
        The pseudolabel term runs over the raster's unmasked pixels, and
        is zero when it masks every pixel. Those values enter overlap
        losses (dice, dice-focal, tversky) hard-thresholded at 0.5 and
        logarithmic losses soft. Each branch is read as float64 once.
    """
    check_step(step)
    if pseudolabel.bands != 1:
        raise DataError(f"a pseudolabel must be single-band, got {pseudolabel.bands} bands")
    if not pseudolabel.same_frame(pair.y1):
        raise DataError("the pseudolabel and its branch pair disagree in frame")
    y1, y2 = _float64(pair.y1), _float64(pair.y2)
    supervised = 0.0
    if labels is not None:
        if not labels.same_frame(pair.y1):
            raise DataError("the branch pair and its labels disagree in frame")
        if labels.nodata_mask.all():
            raise DataError("label raster holds no labeled pixels")
        target = _float64(labels)  # NaN off the labeled pixels
        supervised = 0.5 * (seg_loss(y1, target, cfg) + seg_loss(y2, target, cfg))
        del target

    pseudo = 0.0
    confident = ~pseudolabel.nodata_mask
    if confident.any():
        target = _float64(pseudolabel)  # NaN off the confident pixels
        if cfg.loss_kind in _HARD_TARGET_KINDS:
            target = (target >= 0.5).astype(np.float64)
        pseudo = seg_loss(y1, target, cfg, select=confident) + seg_loss(
            y2, target, cfg, select=confident
        )
        del target
    del confident
    cons = consistency(y1, y2)
    ent = binary_entropy(y1) + binary_entropy(y2)
    lam_c = ramp_weight(step, cfg.ramp_steps, cfg.lambda_c_max)
    lam_e = ramp_weight(step, cfg.ramp_steps, cfg.lambda_e_max)
    total = supervised + cfg.lambda_p * pseudo + lam_c * cons - lam_e * ent
    return LossBreakdown(
        supervised=supervised, pseudolabel=pseudo, consistency=cons, entropy=ent, total=total
    )
