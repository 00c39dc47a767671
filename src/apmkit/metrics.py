"""Evaluation metrics for positive/negative/unlabeled site prediction.

Ranking metrics (AUROC, the area under the lift curve) are computed from
midranks in O(N log N), so massive score pools stay cheap and ties are
handled exactly. Confusion metrics count labeled sites only, which is
what presence-only evaluation calls for. Reliability is summarised over
six equal-width probability bins, and a surface's scores reduce to a
100-bin density histogram, with a Gaussian-smoothed curve for export.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import ReadOnlyDict, build_config
from .errors import ConfigError, DataError
from .raster.grid import atomic_write, row_bands

SCHEMA_VERSION = 1

N_RELIABILITY_BINS = 6
N_DENSITY_BINS = 100

# Radar axes, fixed order and spacing.
RADAR_AXES = ("accuracy", "auroc", "f1", "dice", "iou")


@dataclass(frozen=True)
class ScoredSample:
    """One evaluation point: a score, an optional label, optional finds."""

    score: float
    label: str | None = None
    find_count: int | None = None

    def __post_init__(self) -> None:
        if self.label not in (None, "positive", "negative"):
            raise DataError(f"label must be positive/negative/None, got {self.label!r}")
        if not math.isfinite(self.score):
            raise DataError(f"score must be finite, got {self.score}")


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (midrank convention)."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="mergesort")
    sv = v[order]
    n = v.size
    starts = np.flatnonzero(np.r_[True, sv[1:] != sv[:-1]])
    stops = np.r_[starts[1:], n]
    avg = 0.5 * (starts + stops - 1) + 1.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, stops - starts)
    return ranks


def auroc_from_arrays(scores: np.ndarray, positive: np.ndarray) -> float:
    """Area under the ROC curve by the rank-sum formulation.

    ``scores`` and the boolean ``positive`` are parallel arrays; every
    score not flagged positive is a negative. Ties contribute half via
    midranks, matching pair counting with 0.5 credit for equal scores.

    Raises:
        DataError: when either class is absent, naming the missing one.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    pos = scores[positive]
    neg = scores[~positive]
    if pos.size == 0:
        raise DataError("AUROC undefined: no positive samples")
    if neg.size == 0:
        raise DataError("AUROC undefined: no negative samples")
    ranks = _midranks(np.concatenate([pos, neg]))
    rank_sum = float(ranks[: pos.size].sum())
    u = rank_sum - pos.size * (pos.size + 1) / 2.0
    return u / (pos.size * neg.size)


def aul(scores: np.ndarray, labeled: np.ndarray) -> float:
    """Area under the lift curve for a positives-vs-pool ranking.

    ``scores`` is the full pool (labeled positives included); ``labeled``
    flags the known positives. Computed from midranks over the pool:
    every (labeled, pool) pair contributes 1, 0.5 or 0 as the labeled
    score ranks above, with, or below the pool score.

    Raises:
        DataError: when no sample is labeled.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labeled = np.asarray(labeled, dtype=bool)
    if scores.shape != labeled.shape or scores.ndim != 1:
        raise DataError("scores and labeled must be parallel 1-D arrays")
    n_pos = int(labeled.sum())
    if n_pos == 0:
        raise DataError("AUL undefined: empty positive set")
    ranks = _midranks(scores)
    return float((ranks[labeled] - 0.5).sum()) / (n_pos * scores.size)


# --- confusion metrics -------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMetrics:
    """Threshold metrics over labeled sites."""

    tp: int
    fp: int
    fn: int
    tn: int
    dice: float
    iou: float
    f1: float
    accuracy: float


def confusion_from_counts(tp: int, fp: int, fn: int, tn: int) -> ConfusionMetrics:
    """Derive the metric set from a confusion table.

    With no positives anywhere (tp = fp = fn = 0) the overlap ratios are
    defined as 1: nothing was missed and nothing was hallucinated.
    """
    if min(tp, fp, fn, tn) < 0:
        raise DataError("confusion counts must be non-negative")
    total = tp + fp + fn + tn
    if total == 0:
        raise DataError("empty confusion table")
    denom = 2 * tp + fp + fn
    dice = (2.0 * tp / denom) if denom else 1.0
    union = tp + fp + fn
    iou = (tp / union) if union else 1.0
    accuracy = (tp + tn) / total
    return ConfusionMetrics(tp, fp, fn, tn, dice, iou, dice, accuracy)


# --- reliability bins --------------------------------------------------------


@dataclass(frozen=True)
class BinStats:
    """One probability interval of the reliability analysis.

    Empty bins keep ``count == 0`` and None statistics; they are reported
    as empty, never as zeros.
    """

    lo: float
    hi: float
    count: int
    mean_score: float | None
    positive_ratio: float | None
    calibration_gap: float | None


def check_n_bins(n_bins: int) -> None:
    """Raise ConfigError for a bin count below 1."""
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")


def bin_analysis(
    samples: Sequence[ScoredSample], n_bins: int = N_RELIABILITY_BINS
) -> list[BinStats]:
    """Equal-width reliability bins over [0, 1].

    Bins are [lo, hi) with the last closed; a score sitting exactly on an
    interior edge goes to the higher bin. Every sample must carry a
    positive/negative label. The calibration gap of a non-empty bin is
    ``|mean_score - positive_ratio|``.
    """
    check_n_bins(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    score_sums = np.zeros(n_bins, dtype=np.float64)
    pos_counts = np.zeros(n_bins, dtype=np.int64)
    for s in samples:
        if s.label is None:
            raise DataError("bin analysis requires labeled samples")
        if not 0.0 <= s.score <= 1.0:
            raise DataError(f"scores must lie in [0, 1], got {s.score}")
        idx = min(int(s.score * n_bins), n_bins - 1)
        counts[idx] += 1
        score_sums[idx] += s.score
        pos_counts[idx] += s.label == "positive"
    out = []
    for i in range(n_bins):
        lo, hi = i / n_bins, (i + 1) / n_bins
        if counts[i] == 0:
            out.append(BinStats(lo, hi, 0, None, None, None))
        else:
            mean_score = score_sums[i] / counts[i]
            ratio = pos_counts[i] / counts[i]
            out.append(
                BinStats(lo, hi, int(counts[i]), mean_score, ratio, abs(mean_score - ratio))
            )
    return out


# --- radar volume ------------------------------------------------------------


def radar_area(values: Sequence[float]) -> float:
    """Area of the radar polygon with axes at equal angles."""
    v = np.asarray(values, dtype=np.float64)
    if v.size != len(RADAR_AXES):
        raise DataError(f"radar polygon needs {len(RADAR_AXES)} values, got {v.size}")
    if (v < 0).any():
        raise DataError("radar values must be non-negative")
    angle = 2.0 * math.pi / v.size
    return float(0.5 * math.sin(angle) * np.sum(v * np.roll(v, -1)))


def _radar_values(report: "MetricsReport") -> list[float]:
    values = [getattr(report.metrics, name) for name in RADAR_AXES]
    for name, value in zip(RADAR_AXES, values):
        if value is None:
            raise DataError(f"report has no value for radar metric {name!r}")
    return [float(v) for v in values]


def volume_gain(report: "MetricsReport", baseline: "MetricsReport") -> float:
    """Relative radar-polygon area gain of ``report`` over ``baseline``.

    Axes are ordered accuracy, AUROC, F1, dice, IoU at equal angles; the
    gain is ``area(report) / area(baseline) - 1``. A doubling of every
    metric therefore reads as a gain of 3.

    Raises:
        DataError: when a radar metric of either report is None, or the
            baseline polygon has zero area.
    """
    area_r = radar_area(_radar_values(report))
    area_b = radar_area(_radar_values(baseline))
    if area_b == 0.0:
        raise DataError("baseline radar area is zero; gain undefined")
    return area_r / area_b - 1.0


# --- rank correlation --------------------------------------------------------


def find_count_correlation(samples: Sequence[ScoredSample]) -> float | None:
    """Spearman correlation between scores and find counts, ties midranked.

    Uses the samples that carry a find count. Returns None when either
    variable is constant (the coefficient is undefined there).

    Raises:
        DataError: with fewer than 3 usable samples.
    """
    pairs = [(s.score, s.find_count) for s in samples if s.find_count is not None]
    if len(pairs) < 3:
        raise DataError(
            f"need at least 3 samples with find counts, got {len(pairs)}"
        )
    scores = np.array([p[0] for p in pairs], dtype=np.float64)
    counts = np.array([p[1] for p in pairs], dtype=np.float64)
    rs = _midranks(scores)
    rc = _midranks(counts)
    rs -= rs.mean()
    rc -= rc.mean()
    denom = math.sqrt(float(np.sum(rs * rs)) * float(np.sum(rc * rc)))
    if denom == 0.0:
        return None
    return float(np.sum(rs * rc)) / denom


# --- densities ---------------------------------------------------------------


@dataclass(frozen=True)
class DensityCurve:
    """A Gaussian-smoothed score density on bin centers."""

    bin_centers: np.ndarray
    smoothed: np.ndarray
    bandwidth: float


def _finite_scores(scores: np.ndarray) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64).ravel()
    s = s[np.isfinite(s)]
    if s.size == 0:
        raise DataError("no finite scores to bin")
    return s


def _density_edges(n_bins: int) -> np.ndarray:
    check_n_bins(n_bins)
    return np.linspace(0.0, 1.0, n_bins + 1)


def density_histogram(scores: np.ndarray, n_bins: int = N_DENSITY_BINS) -> np.ndarray:
    """Histogram density of the finite scores over ``n_bins`` equal-width
    bins of [0, 1]; it integrates to the share of scores inside [0, 1]."""
    edges = _density_edges(n_bins)
    s = _finite_scores(scores)
    hist, _ = np.histogram(s, bins=edges)
    return hist / (s.size * (1.0 / n_bins))


def _percentile(s: np.ndarray, order: np.ndarray, q: float) -> float:
    """``np.percentile(s, q)``, read through the sorting permutation ``order``
    with the operations of its default linear method, so the same float.
    This skips np.percentile's partition and its np.unique call, whose first
    use imports numpy.ma, a cost every fresh process would pay."""
    pos = (s.size - 1) * (q / 100)
    k = math.floor(pos)
    a, b = s[order[k]], s[order[min(k + 1, s.size - 1)]]
    t = pos - k
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


# exp(-0.5 z^2) is exactly 0.0 in float64 once |z| > ~38.6, so a score more
# than this many bandwidths from a bin centre adds +0.0 to its kernel sum.
# The margin over 38.6 covers the rounding of (c - s) / h.
_REACH = 40.0


def _gaussian(
    c: float, values: np.ndarray, bandwidth: float, z: np.ndarray, out: np.ndarray
) -> None:
    """``out = exp(-0.5 z z)`` for ``z = (c - values) / bandwidth``, by the
    operations of ``np.exp(-0.5 * z * z)``; ``z`` is scratch and may be
    ``values`` itself."""
    np.subtract(c, values, out=z)
    np.divide(z, bandwidth, out=z)
    np.multiply(-0.5, z, out=out)
    np.multiply(out, z, out=out)
    np.exp(out, out=out)


def _kernel_sums(
    s: np.ndarray, order: np.ndarray, centers: np.ndarray, bandwidth: float
) -> np.ndarray:
    """``np.exp(-0.5 * z * z).sum()`` with ``z = (c - s) / bandwidth`` for
    each centre ``c``, bit for bit; ``order`` sorts ``s``.

    Binary search in the sorted order finds the scores within ``_REACH``
    bandwidths of a centre. When they are fewer than half the scores, only
    they are evaluated, and scattered to their own positions in an array
    that is zero elsewhere: numpy's exp is several times slower where its
    result underflows, and on a bimodal refined surface almost every
    centre lies far from almost every score. Otherwise every score is
    evaluated in place, since a gather and a scatter of most of the scores
    cost more than the few beyond reach. Either way the summed array holds
    the same float64 values at the same positions as the one-pass form,
    where each skipped value is +0.0, so the sum is the same whatever order
    ``np.sum`` adds in.
    """
    reach = _REACH * bandwidth
    lo = np.searchsorted(s, centers - reach, side="left", sorter=order)
    hi = np.searchsorted(s, centers + reach, side="right", sorter=order)
    chunk = row_bands(s.size, 1).step  # scores per pass of the kernel loop
    z = np.empty(min(s.size, chunk))
    t = np.empty_like(z)
    kernel = np.zeros(s.size)
    sums = np.zeros(centers.size)
    for i, c in enumerate(centers):
        a, b = lo[i], hi[i]
        if 2 * (b - a) >= s.size:
            for j in range(0, s.size, chunk):
                out = kernel[j:j + chunk]
                _gaussian(c, s[j:j + chunk], bandwidth, z[:out.size], out)
            sums[i] = kernel.sum()
            kernel.fill(0.0)
        elif a < b:
            for j in range(a, b, chunk):
                at = order[j:min(j + chunk, b)]
                zj, tj = z[:at.size], t[:at.size]
                np.take(s, at, out=zj, mode="clip")  # "raise" would buffer out
                _gaussian(c, zj, bandwidth, zj, tj)
                kernel[at] = tj
            sums[i] = kernel.sum()
            kernel[order[a:b]] = 0.0
    return sums


def probability_density(
    scores: np.ndarray, n_bins: int = N_DENSITY_BINS
) -> DensityCurve:
    """Gaussian-kernel score density on the centres of ``n_bins`` equal-width
    bins of [0, 1]. The kernel bandwidth follows the Silverman rule
    ``0.9 min(std, IQR / 1.34) n^(-1/5)`` with a small floor so constant
    scores stay well defined.

    Each bin centre evaluates the kernel only on the scores within 40
    bandwidths of it (:func:`_kernel_sums`). The kernel of every score
    beyond that underflows to exactly +0.0, and those zeros keep their
    places in the array that is summed, so the curve equals one pass over
    all the scores per bin bit for bit. The curve carries no histogram:
    :func:`density_histogram` builds that, once per surface.
    """
    edges = _density_edges(n_bins)
    s = _finite_scores(scores)
    centers = 0.5 * (edges[:-1] + edges[1:])
    order = np.argsort(s)
    std = float(s.std())
    iqr = _percentile(s, order, 75.0) - _percentile(s, order, 25.0)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    bandwidth = max(0.9 * spread * s.size ** (-0.2), 1e-3)
    kernel_sums = _kernel_sums(s, order, centers, bandwidth)
    smoothed = kernel_sums / (s.size * bandwidth * math.sqrt(2.0 * math.pi))
    return DensityCurve(centers, smoothed, bandwidth)


def write_density_csv(
    path: str | os.PathLike, histogram: Sequence[float], density: DensityCurve
) -> None:
    """Write a report's ``histogram`` beside the density curve of the same
    scores, as CSV with a fixed three-column schema."""
    with atomic_write(path) as raw:
        fh = io.TextIOWrapper(raw, encoding="utf-8", newline="")
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "histogram_density", "smoothed_density"])
        for c, h, s in zip(density.bin_centers, histogram, density.smoothed, strict=True):
            writer.writerow([f"{c:.10g}", f"{h:.10g}", f"{s:.10g}"])
        fh.flush()


# --- report ------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    """The ranking and threshold metrics of a report; None where the sites
    held too little to compute one."""

    auroc: float | None = None
    aul: float | None = None
    dice: float | None = None
    iou: float | None = None
    f1: float | None = None
    accuracy: float | None = None


@dataclass(frozen=True)
class MetricsReport:
    """A full evaluation summary, shaped like its versioned JSON document."""

    metrics: Metrics
    bins: tuple[BinStats, ...] = ()
    density_histogram: tuple[float, ...] = ()
    find_count_rho: float | None = None
    volume_gain: float | None = None
    baseline_name: str | None = None
    metadata: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", ReadOnlyDict(self.metadata))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc) -> "MetricsReport":
        """Inverse of :meth:`to_dict`.

        Raises:
            ConfigError: when ``doc`` does not have a report's shape.
        """
        return build_config(MetricsReport, doc, "report")
