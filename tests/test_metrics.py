"""Ranking, confusion, reliability and density metrics."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import apmkit
from apmkit import metrics
from apmkit.errors import ConfigError, DataError
from apmkit.metrics import (
    Metrics,
    MetricsReport,
    aul,
    auroc_from_arrays,
    bin_analysis,
    confusion_from_counts,
    density_histogram,
    find_count_correlation,
    probability_density,
    radar_area,
    volume_gain,
    write_density_csv,
)
from apmkit.pipeline import evaluate_surface
from apmkit.raster import grid
from apmkit.raster.sites import SiteRecord

UNIT_PENTAGON_AREA = 2.377641290737884  # 0.5 * sin(72 deg) * 5


def radar_report(metrics: dict) -> MetricsReport:
    return MetricsReport(Metrics(**metrics))


def pairwise_auroc(pos, neg):
    """O(P*N) pair-counting oracle with half credit for ties."""
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def pairwise_aul(scores, labeled):
    """O(P*N) lift-area oracle: labeled vs whole pool, ties half."""
    pos = [s for s, l in zip(scores, labeled) if l]
    wins = 0.0
    for p in pos:
        for s in scores:
            wins += 1.0 if p > s else (0.5 if p == s else 0.0)
    return wins / (len(pos) * len(scores))


def auroc(pos, neg):
    """AUROC of the positive scores ``pos`` against the negatives ``neg``."""
    scores = np.array([*pos, *neg], dtype=np.float64)
    return auroc_from_arrays(scores, np.arange(scores.size) < len(pos))


class TestAuroc:
    def test_hand_example(self):
        # pos {0.9, 0.4}, neg {0.6, 0.1}: three winning pairs of four.
        assert auroc([0.9, 0.4], [0.6, 0.1]) == 0.75

    def test_perfect_and_inverted(self):
        assert auroc([0.8, 0.9], [0.1, 0.2]) == 1.0
        assert auroc([0.1, 0.2], [0.8, 0.9]) == 0.0

    def test_ties_get_half_credit(self):
        assert auroc([0.5], [0.5]) == 0.5

    def test_matches_pair_counting(self, rng):
        for _ in range(20):
            pos = rng.integers(0, 20, size=rng.integers(1, 30)) / 10.0
            neg = rng.integers(0, 20, size=rng.integers(1, 30)) / 10.0
            got = auroc(pos, neg)
            assert got == pytest.approx(pairwise_auroc(pos, neg), abs=1e-12)

    def test_missing_class(self):
        with pytest.raises(DataError, match="positive"):
            auroc([], [0.5])
        with pytest.raises(DataError, match="negative"):
            auroc([0.5], [])


class TestAul:
    def test_hand_example(self):
        scores = np.array([0.9, 0.6, 0.4, 0.1])
        labeled = np.array([True, False, True, False])
        assert aul(scores, labeled) == pytest.approx(0.625, abs=1e-12)

    def test_matches_pair_counting(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 60))
            scores = rng.integers(0, 15, size=n) / 7.0
            labeled = rng.random(n) < 0.4
            if not labeled.any():
                labeled[0] = True
            assert aul(scores, labeled) == pytest.approx(
                pairwise_aul(scores.tolist(), labeled.tolist()), abs=1e-12
            )

    def test_identity_with_auroc(self, rng):
        # Hide the negatives inside the pool: AUL = 0.5 a + (1 - a) AUROC
        # holds exactly when the unlabeled part is exactly the negatives.
        pos = rng.normal(1.0, 1.0, size=400)
        neg = rng.normal(0.0, 1.0, size=600)
        scores = np.concatenate([pos, neg])
        labeled = np.zeros(1000, dtype=bool)
        labeled[:400] = True
        a = auroc(pos, neg)
        alpha = 0.4
        got = aul(scores, labeled)
        # Finite-sample deviation comes only from within-positive ranking.
        assert got == pytest.approx(0.5 * alpha + (1.0 - alpha) * a, abs=2.0 / 1000)

    def test_empty_positive_set(self):
        with pytest.raises(DataError):
            aul(np.array([0.5, 0.6]), np.array([False, False]))


class TestConfusion:
    def test_frozen_counts(self):
        m = confusion_from_counts(3, 1, 1, 5)
        assert m.dice == pytest.approx(0.75, abs=1e-12)
        assert m.iou == pytest.approx(0.6, abs=1e-12)
        assert m.accuracy == pytest.approx(0.8, abs=1e-12)
        assert m.f1 == m.dice

    def test_dice_iou_consistency(self, rng):
        for _ in range(50):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 30, size=4))
            if tp + fp + fn + tn == 0:
                continue
            m = confusion_from_counts(tp, fp, fn, tn)
            assert m.dice == pytest.approx(2 * m.iou / (1 + m.iou), abs=1e-12)

    def test_empty_overlap_is_one(self):
        m = confusion_from_counts(0, 0, 0, 7)
        assert m.dice == 1.0 and m.iou == 1.0 and m.accuracy == 1.0

    def test_validation(self):
        with pytest.raises(DataError):
            confusion_from_counts(-1, 0, 0, 1)
        with pytest.raises(DataError):
            confusion_from_counts(0, 0, 0, 0)

    def test_field_thresholding(self, make_grid):
        # The surface is thresholded at the labeled sites, 0.5 calling
        # positive: tp 1 (0.9), fn 1 (0.4), fp 2 (0.6 and 0.5), tn 1 (0.2).
        surface = make_grid(np.array([[0.9, 0.4, 0.6], [0.5, 0.2, 0.7]]))
        sites = [
            SiteRecord("p0", 0.5, -0.5, "Roman Imperial", "positive"),
            SiteRecord("p1", 1.5, -0.5, "Roman Imperial", "positive"),
            SiteRecord("n0", 2.5, -0.5, "Roman Imperial", "negative"),
            SiteRecord("n1", 0.5, -1.5, "Roman Imperial", "negative"),
            SiteRecord("n2", 1.5, -1.5, "Roman Imperial", "negative"),
        ]
        report = evaluate_surface(surface, sites)
        want = confusion_from_counts(1, 2, 1, 1)
        m = report.metrics
        assert (m.dice, m.iou, m.f1, m.accuracy) == (want.dice, want.iou, want.f1, want.accuracy)

    def test_unlabeled_pixels_ignored(self, make_grid):
        # Unlabeled sites, whatever they score, never enter the counts.
        surface = make_grid(np.array([[0.9, 0.1, 0.95, 0.05]]))
        sites = [
            SiteRecord("p", 0.5, -0.5, "Roman Imperial", "positive"),
            SiteRecord("n", 1.5, -0.5, "Roman Imperial", "negative"),
            SiteRecord("u0", 2.5, -0.5, "Roman Imperial", "unlabeled"),
            SiteRecord("u1", 3.5, -0.5, "Roman Imperial", "unlabeled"),
        ]
        report = evaluate_surface(surface, sites)
        m = report.metrics
        assert (m.dice, m.iou, m.accuracy) == (1.0, 1.0, 1.0)


class TestBins:
    def test_edge_goes_to_higher_bin(self):
        bins = bin_analysis([0.5], [True], n_bins=6)
        assert bins[3].count == 1
        assert bins[3].lo == 0.5

    def test_top_edge_closed(self):
        bins = bin_analysis([1.0], [True], n_bins=6)
        assert bins[5].count == 1

    def test_empty_bins_are_none(self):
        bins = bin_analysis([0.05], [False], n_bins=6)
        assert bins[0].count == 1
        for b in bins[1:]:
            assert b.count == 0
            assert b.mean_score is None and b.positive_ratio is None
            assert b.calibration_gap is None

    def test_statistics(self):
        b = bin_analysis([0.1, 0.12, 0.14], [True, False, False], n_bins=6)[0]
        assert b.count == 3
        assert b.mean_score == pytest.approx(0.12, abs=1e-12)
        assert b.positive_ratio == pytest.approx(1 / 3, abs=1e-12)
        assert b.calibration_gap == pytest.approx(abs(0.12 - 1 / 3), abs=1e-12)

    def test_requires_unit_range(self):
        # NaN fails the range test too; a boolean positive array is always labeled.
        for bad in (np.nan, 1.5, -0.1):
            with pytest.raises(DataError, match=r"scores must lie in \[0, 1\]"):
                bin_analysis([0.5, bad], [True, False])

    def test_arrays_must_be_parallel_and_1d(self):
        with pytest.raises(DataError, match="parallel 1-D"):
            bin_analysis([0.5, 0.6], [True])
        with pytest.raises(DataError, match="parallel 1-D"):
            bin_analysis([[0.5]], [[True]])

    def test_counts_partition_samples(self, rng):
        bins = bin_analysis(rng.random(500), rng.random(500) > 0.5, n_bins=6)
        assert sum(b.count for b in bins) == 500

    def test_equals_a_loop_over_the_samples(self, rng):
        # The sums bincount forms equal a per-sample loop's, float for float.
        scores = np.r_[rng.random(997), 0.0, 0.5, 1.0]
        positive = rng.random(scores.size) > 0.4
        for n_bins in (1, 6, 7):
            counts, sums, hits = [0] * n_bins, [0.0] * n_bins, [0] * n_bins
            for s, p in zip(scores.tolist(), positive.tolist()):
                i = min(int(s * n_bins), n_bins - 1)
                counts[i], sums[i], hits[i] = counts[i] + 1, sums[i] + s, hits[i] + p
            for b, c, t, h in zip(bin_analysis(scores, positive, n_bins), counts, sums, hits):
                assert b.count == c and b.mean_score == t / c and b.positive_ratio == h / c


class TestRadar:
    def test_unit_pentagon_frozen(self):
        assert radar_area([1.0] * 5) == pytest.approx(UNIT_PENTAGON_AREA, abs=1e-12)

    def test_scaling_is_quadratic(self, rng):
        v = rng.random(5)
        assert radar_area(2.0 * v) == pytest.approx(4.0 * radar_area(v), abs=1e-12)

    def test_doubling_gains_three(self):
        base = {"accuracy": 0.4, "auroc": 0.5, "f1": 0.3, "dice": 0.3, "iou": 0.2}
        better = {k: 2.0 * v for k, v in base.items()}
        assert volume_gain(radar_report(better), radar_report(base)) == pytest.approx(
            3.0, abs=1e-12
        )

    def test_equal_reports_gain_zero(self):
        r = radar_report({"accuracy": 0.7, "auroc": 0.8, "f1": 0.6, "dice": 0.6, "iou": 0.5})
        assert volume_gain(r, r) == 0.0

    def test_zero_baseline(self):
        zero = {k: 0.0 for k in ("accuracy", "auroc", "f1", "dice", "iou")}
        good = {k: 0.5 for k in zero}
        with pytest.raises(DataError, match="baseline radar area is zero"):
            volume_gain(radar_report(good), radar_report(zero))

    def test_missing_axis(self):
        # The AUL is no radar axis; a None IoU on either side is named.
        full = radar_report({"accuracy": 1, "auroc": 1, "f1": 1, "dice": 1, "iou": 1})
        partial = radar_report({"accuracy": 1, "auroc": 1, "f1": 1, "dice": 1})
        assert full.metrics.aul is None and volume_gain(full, full) == 0.0
        for report, baseline in ((full, partial), (partial, full)):
            with pytest.raises(DataError, match="radar metric 'iou'"):
                volume_gain(report, baseline)

    def test_validation(self):
        with pytest.raises(DataError):
            radar_area([1.0, 2.0])
        with pytest.raises(DataError):
            radar_area([1.0, 1.0, 1.0, -0.1, 1.0])


class TestSpearman:
    def test_frozen_tie_example(self):
        # scores (0.1, 0.4, 0.4, 0.7, 0.9) vs counts (1..5):
        # score ranks (1, 2.5, 2.5, 4, 5) -> rho = 9.5 / sqrt(95).
        rho = find_count_correlation([0.1, 0.4, 0.4, 0.7, 0.9], [1, 2, 3, 4, 5])
        assert rho == pytest.approx(9.5 / math.sqrt(95.0), abs=1e-12)

    def test_monotone_is_one(self):
        counts = np.arange(1, 8)
        assert find_count_correlation(counts / 10, counts) == pytest.approx(1.0, abs=1e-12)

    def test_constant_variable_is_none(self):
        assert find_count_correlation([0.5, 0.5, 0.5], [1, 2, 3]) is None

    def test_too_few_counted_samples(self):
        with pytest.raises(DataError, match="at least 3"):
            find_count_correlation([0.5, 0.6], [1, 2])

    def test_arrays_must_be_parallel_and_1d(self):
        with pytest.raises(DataError, match="parallel 1-D"):
            find_count_correlation([0.5, 0.6, 0.7], [1, 2])

    def test_uncounted_samples_skipped(self, make_grid):
        # A site with no find count leaves the rho over the counted sites.
        surface = make_grid(np.array([[0.1, 0.4, 0.2, 0.3, 0.99]]))
        sites = [
            SiteRecord(f"s{c}", c + 0.5, -0.5, "Byzantine", "positive", count)
            for c, count in enumerate((1, 3, 2, 4, None))
        ]
        want = find_count_correlation([0.1, 0.4, 0.2, 0.3], [1, 3, 2, 4])
        assert evaluate_surface(surface, sites).find_count_rho == want
        assert evaluate_surface(surface, sites[:4]).find_count_rho == want


def broadcast_smoothed(scores, bandwidth, n_bins=100):
    """The density curve from the full (bins, N) kernel matrix."""
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    z = (centers[:, None] - scores[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1) / (
        scores.size * bandwidth * math.sqrt(2.0 * math.pi)
    )


class TestDensity:
    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_smoothed_equals_broadcast_form(self, rng, kind):
        scores = rng.beta(2.0, 5.0, 12_345) if kind == "random" else np.full(10_000, 0.3)
        d = probability_density(scores)
        assert np.array_equal(d.smoothed, broadcast_smoothed(scores, d.bandwidth))

    def test_histogram_integrates_to_one(self, rng):
        h = density_histogram(rng.random(2000))
        assert h.sum() / h.size == pytest.approx(1.0, abs=1e-9)

    def test_constant_scores_floor_bandwidth(self):
        d = probability_density(np.full(100, 0.5))
        assert d.bandwidth == 1e-3
        assert np.isfinite(d.smoothed).all()

    def test_smoothed_tracks_mass(self, rng):
        scores = np.concatenate([rng.normal(0.3, 0.02, 500), rng.normal(0.8, 0.02, 500)])
        d = probability_density(np.clip(scores, 0, 1))
        peak_lo = d.smoothed[(d.bin_centers > 0.25) & (d.bin_centers < 0.35)].max()
        trough = d.smoothed[(d.bin_centers > 0.5) & (d.bin_centers < 0.6)].max()
        assert peak_lo > 5 * trough

    def test_empty_raises(self):
        with pytest.raises(DataError):
            probability_density(np.array([np.nan]))

    def test_csv_schema(self, tmp_path, rng):
        scores = rng.random(50)
        d = probability_density(scores, n_bins=4)
        hist = density_histogram(scores, n_bins=4)
        path = tmp_path / "density.csv"
        write_density_csv(path, hist, d)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_center,histogram_density,smoothed_density"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.125, abs=1e-9)
        assert [row.split(",")[1] for row in lines[1:]] == [f"{h:.10g}" for h in hist]

    def test_report_histogram_writes_the_same_bytes_as_the_array(self, tmp_path, rng):
        # A report carries the histogram as Python floats; .10g formats
        # them as it formats the float64 array they came from.
        scores = rng.beta(2.0, 5.0, 5000)
        d = probability_density(scores)
        hist = density_histogram(scores)
        write_density_csv(tmp_path / "array.csv", hist, d)
        write_density_csv(tmp_path / "tuple.csv", tuple(hist.tolist()), d)
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()

    def test_histogram_of_other_bins_is_refused(self, tmp_path, rng):
        d = probability_density(rng.random(50), n_bins=4)
        path = tmp_path / "density.csv"
        with pytest.raises(ValueError):
            write_density_csv(path, density_histogram(rng.random(50), n_bins=5), d)
        assert not list(tmp_path.iterdir())

    def test_failed_csv_write_keeps_previous_file(self, tmp_path, rng):
        d = probability_density(rng.random(50), n_bins=4)
        hist = [0.5, 1.0, 1.5, 1.0]
        path = tmp_path / "density.csv"
        write_density_csv(path, hist, d)
        before = path.read_bytes()
        smoothed = list(d.smoothed)
        smoothed[2] = "not a number"  # formatting the third row raises
        bad = dataclasses.replace(d, smoothed=smoothed)
        with pytest.raises(ValueError):
            write_density_csv(path, hist, bad)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["density.csv"]


def loop_density(scores, n_bins=100):
    """Bandwidth and curve from one pass over all the scores per bin, with
    np.percentile for the quartiles: the form the windowed loop replaced."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    s = s[np.isfinite(s)]
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    std = float(s.std())
    q75, q25 = np.percentile(s, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(std, iqr / 1.34) if iqr > 0 else std
    bandwidth = max(0.9 * spread * s.size ** (-0.2), 1e-3)
    kernel_sums = np.empty(n_bins)
    for i, c in enumerate(centers):
        z = (c - s) / bandwidth
        kernel_sums[i] = np.exp(-0.5 * z * z).sum()
    return bandwidth, kernel_sums / (s.size * bandwidth * math.sqrt(2.0 * math.pi))


def assert_matches_loop(scores, n_bins=100):
    d = probability_density(scores, n_bins)
    bandwidth, smoothed = loop_density(scores, n_bins)
    assert d.bandwidth == bandwidth or (math.isnan(d.bandwidth) and math.isnan(bandwidth))
    assert np.array_equal(d.smoothed, smoothed, equal_nan=True)
    return d


def bimodal(rng, n):
    """A refined surface's scores: most near 0, the rest near 1, so the
    quartiles sit in the low mode and the bandwidth at its 1e-3 floor."""
    low = rng.random(n - n // 5) * 1e-3
    return rng.permutation(np.concatenate([low, 1.0 - rng.random(n // 5) * 1e-3]))


class TestDensityMatchesLoop:
    """The windowed kernel loop equals one pass over all scores per bin,
    bit for bit, on both of its paths and across chunk boundaries."""

    def test_reach_underflows(self):
        r = metrics._REACH * (1 - 1e-9)
        assert np.exp(-0.5 * r**2) == 0.0
        assert not np.exp(np.full(17, -0.5 * r * r)).any()

    @pytest.mark.parametrize("chunk", [1, 7, 64, 8192])
    def test_bimodal_at_floor(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(grid, "BAND", chunk)
        d = assert_matches_loop(bimodal(rng, 5000))
        assert d.bandwidth == 1e-3

    def test_scores_outside_unit_interval(self, rng):
        assert_matches_loop(rng.normal(0.5, 3.0, 5000))
        d = assert_matches_loop(5.0 + rng.random(300))  # no centre in reach
        assert not d.smoothed.any()

    def test_scores_on_the_reach_boundary(self):
        bulk = np.full(20_000, 0.5)
        centers = probability_density(bulk).bin_centers[45:55]
        reach = metrics._REACH * 1e-3
        edges = np.concatenate([centers - reach, centers + reach])
        edges = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        d = assert_matches_loop(np.concatenate([bulk, edges]))
        assert d.bandwidth == 1e-3

    @pytest.mark.parametrize("n", [1, 2, 9, 5000])
    @pytest.mark.parametrize("value", [0.3, 0.005, -2.0])
    def test_one_and_constant_scores(self, n, value):
        assert_matches_loop(np.full(n, value))

    def test_wide_bandwidth_keeps_every_score_in_reach(self, rng):
        scores = rng.normal(0.5, 0.2, 100)
        d = assert_matches_loop(scores)
        assert np.abs(scores[:, None] - d.bin_centers).max() < metrics._REACH * d.bandwidth

    def test_surface_like_mixes_both_paths(self, rng):
        assert_matches_loop(rng.beta(2.0, 5.0, 25_600))

    def test_scores_near_float_limits(self, rng):
        with np.errstate(all="ignore"):
            huge = rng.choice([-1e300, 1e300], 1000) * rng.uniform(0.5, 1.0, 1000)
            assert_matches_loop(huge)
            d = assert_matches_loop(rng.choice([-1.7e308, 1.7e308], 1000))
        assert math.isnan(d.bandwidth) and np.isnan(d.smoothed).all()

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 7, 8, 9, 15, 17, 127, 129, 1000, 8191, 8193, 25_601, 70_001]
    )
    def test_lengths(self, rng, n):
        assert_matches_loop(bimodal(rng, n))
        assert_matches_loop(rng.beta(0.5, 0.5, n))

    def test_percentile_matches_numpy(self, rng):
        for n in list(range(1, 40)) * 20 + [1000, 1001]:
            for scores in (rng.normal(0.0, 1.0, n), rng.integers(-2, 3, n) / 4.0):
                order = np.argsort(scores)
                for q in (25.0, 50.0, 75.0, 0.0, 100.0, 33.3):
                    assert metrics._percentile(scores, order, q) == np.percentile(scores, q)

    def test_density_does_not_import_numpy_ma(self):
        # np.percentile's first call imports numpy.ma, a cost paid per process.
        code = (
            "import sys, numpy as np\n"
            "from apmkit.metrics import probability_density\n"
            "probability_density(np.random.default_rng(0).random(1000))\n"
            "sys.exit('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(apmkit.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_property_over_distribution_length_bins_and_chunk(self, monkeypatch):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=120, deadline=None)
        @given(
            kind=st.sampled_from(["uniform", "bimodal", "wide", "beta", "ties", "outside"]),
            n=st.integers(1, 2000),
            n_bins=st.integers(1, 150),
            chunk=st.sampled_from([5, 16, 64, 8192]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(kind, n, n_bins, chunk, seed):
            rng = np.random.default_rng(seed)
            scores = {
                "uniform": lambda: rng.random(n),
                "bimodal": lambda: bimodal(rng, n),
                "wide": lambda: rng.normal(0.5, 0.3, n),
                "beta": lambda: rng.beta(2.0, 5.0, n),
                "ties": lambda: rng.integers(0, 5, n) / 4.0,
                "outside": lambda: rng.normal(1.5, 0.5, n),
            }[kind]()
            monkeypatch.setattr(grid, "BAND", chunk)
            assert_matches_loop(scores, n_bins)

        check()


class TestDensityBins:
    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_fewer_than_one_bin_is_a_config_error(self, rng, n_bins):
        with pytest.raises(ConfigError, match="n_bins"):
            probability_density(rng.random(50), n_bins)
        with pytest.raises(ConfigError, match="n_bins"):
            density_histogram(rng.random(50), n_bins)

    def test_histogram_filters_once(self, rng, monkeypatch):
        calls = []
        finite = metrics._finite_scores

        def counted(scores):
            calls.append(1)
            return finite(scores)

        monkeypatch.setattr(metrics, "_finite_scores", counted)
        scores = np.concatenate([rng.random(500), [np.nan, np.inf]])
        probability_density(scores)
        assert len(calls) == 1
        h = density_histogram(scores)
        assert len(calls) == 2
        want, _ = np.histogram(scores[:500], bins=np.linspace(0.0, 1.0, 101))
        assert np.array_equal(h, want / (500 * 0.01))

    def test_curve_builds_no_histogram(self, rng, monkeypatch):
        calls = []
        histogram = np.histogram

        def counted(*args, **kwargs):
            calls.append(1)
            return histogram(*args, **kwargs)

        monkeypatch.setattr(np, "histogram", counted)
        d = probability_density(rng.random(500))
        assert calls == [] and not hasattr(d, "histogram")
        density_histogram(rng.random(500))
        assert calls == [1]


class TestReport:
    def test_roundtrip(self, rng):
        bins = bin_analysis(rng.random(40), rng.random(40) > 0.5)
        report = MetricsReport(
            Metrics(auroc=0.8, aul=0.7, dice=0.6, iou=0.45, f1=0.6, accuracy=0.75),
            bins=tuple(bins),
            density_histogram=(0.5, 1.5),
            find_count_rho=0.3,
            volume_gain=0.1,
            baseline_name="baseline",
            metadata={"period": "Roman Imperial"},
        )
        doc = json.loads(json.dumps(report.to_dict()))
        back = MetricsReport.from_dict(doc)
        assert back == report
        assert doc["schema_version"] == 1

    def test_document_has_the_dataclass_shape(self):
        doc = MetricsReport(Metrics(auroc=0.8)).to_dict()
        assert doc == dataclasses.asdict(MetricsReport(Metrics(auroc=0.8)))
        assert set(doc["metrics"]) == {"auroc", "aul", "dice", "iou", "f1", "accuracy"}
        assert set(doc) == {
            "schema_version", "metrics", "bins", "density_histogram", "find_count_rho",
            "volume_gain", "baseline_name", "metadata",
        }
