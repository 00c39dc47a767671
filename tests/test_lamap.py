"""Site-signature potential surfaces."""

import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from apmkit.errors import ConfigError, DataError, EmptyInputError, NumericError
from apmkit.lamap import (
    Ecdf,
    LamapConfig,
    SiteModel,
    build_site_model,
    build_site_models,
    lamap_surface,
    potential_values,
    similarity,
)
from apmkit.raster import grid as gridmod
from apmkit.raster.grid import row_bands
from apmkit.raster.sites import SiteRecord


def site(sid, x, y, polarity="positive"):
    return SiteRecord(sid, x, y, "Roman Imperial", polarity)


def count_cdf(samples, v):
    """Independent midrank oracle: (#{s < v} + 0.5 #{s == v}) / n."""
    s = np.asarray(samples, dtype=float)
    return (np.sum(s < v) + 0.5 * np.sum(s == v)) / s.size


class TestEcdf:
    def test_midrank_on_distinct_samples(self):
        e = Ecdf([1, 2, 3, 4, 5])
        for v in (0.0, 1.0, 2.5, 3.0, 4.0, 5.0, 9.0):
            assert e.cdf(v) == count_cdf([1, 2, 3, 4, 5], v)
        assert e.cdf(3.0) == 0.5
        assert e.cdf(4.0) == 0.7

    def test_midrank_with_ties(self, rng):
        samples = rng.integers(0, 5, size=40).astype(float)
        e = Ecdf(samples)
        for v in np.unique(samples):
            assert e.cdf(v) == pytest.approx(count_cdf(samples, v), abs=1e-15)

    def test_vectorized_matches_scalar(self, rng):
        samples = rng.normal(size=25)
        e = Ecdf(samples)
        query = rng.normal(size=(4, 5))
        out = e.cdf(query)
        for idx in np.ndindex(query.shape):
            assert out[idx] == e.cdf(float(query[idx]))

    def test_empty_and_nonfinite(self):
        with pytest.raises(EmptyInputError):
            Ecdf([])
        with pytest.raises(DataError):
            Ecdf([1.0, np.nan])

    def test_single_sample(self):
        e = Ecdf([7.0])
        assert e.n == 1
        assert e.cdf(7.0) == 0.5

    def test_float32_samples_match_float64(self, rng):
        samples = np.round(rng.normal(size=60), 1).astype(np.float32)
        narrow, wide = Ecdf(samples), Ecdf(samples.astype(np.float64))
        assert narrow.samples.dtype == np.float32
        assert np.array_equal(narrow.samples, wide.samples)
        exact = wide.samples
        above = np.nextafter(narrow.samples, np.float32(np.inf)).astype(np.float64)
        between = (exact + above) / 2.0  # no float32 lies strictly between
        assert ((exact < between) & (between < above)).all()
        ulp_up, ulp_down = np.nextafter(exact, np.inf), np.nextafter(exact, -np.inf)
        # A float32 comparison would take these for ties.
        assert np.array_equal(ulp_up.astype(np.float32), narrow.samples)
        probes = np.concatenate([exact, ulp_up, ulp_down, between])
        for query in (probes, narrow.samples):
            assert narrow.cdf(query).tobytes() == wide.cdf(query).tobytes()
            assert similarity(narrow, query).tobytes() == similarity(wide, query).tobytes()
        for v in probes[::11]:
            assert narrow.cdf(float(v)) == wide.cdf(float(v))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float16, np.float64])
    def test_other_samples_become_float64(self, dtype):
        e = Ecdf(np.array([3, 1, 2], dtype=dtype))
        assert e.samples.dtype == np.float64
        assert e.samples.tolist() == [1.0, 2.0, 3.0]
        assert Ecdf([2, 1]).samples.dtype == np.float64


class TestSimilarity:
    def test_median_scores_one(self):
        e = Ecdf([1, 2, 3, 4, 5])
        assert similarity(e, 3.0) == 1.0

    def test_upper_quantile(self):
        # F(4) = 0.7 on {1..5}, so centrality is 1 - |2*0.7 - 1| = 0.6.
        e = Ecdf([1, 2, 3, 4, 5])
        assert similarity(e, 4.0) == pytest.approx(0.6, abs=1e-15)

    def test_tails_score_zero(self):
        e = Ecdf([1, 2, 3, 4, 5])
        assert similarity(e, -10.0) == 0.0
        assert similarity(e, 10.0) == 0.0

    def test_range_and_symmetry(self, rng):
        samples = rng.normal(size=31)
        e = Ecdf(samples)
        vals = rng.normal(size=200) * 3
        u = similarity(e, vals)
        assert np.all((u >= 0.0) & (u <= 1.0))


class TestSiteModel:
    def test_constant_band(self, make_grid):
        grid = make_grid(np.full((9, 9), 4.5))
        model = build_site_model(grid, site("a", 4.5, -4.5), LamapConfig(2.0))
        assert np.array_equal(model.ecdfs[0].samples, np.full(13, 4.5))
        assert model.catchment_pixels == 13

    def test_samples_keep_the_stack_float32(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(2, 9, 9)))
        model = build_site_model(grid, site("a", 4.5, -4.5), LamapConfig(2.0))
        for b, ecdf in enumerate(model.ecdfs):
            assert ecdf.samples.dtype == np.float32
            assert set(ecdf.samples.tolist()) <= set(grid.band(b).ravel().tolist())

    def test_subpixel_radius_single_sample(self, make_grid):
        values = np.arange(25.0).reshape(5, 5)
        grid = make_grid(values)
        model = build_site_model(grid, site("a", 2.5, -2.5), LamapConfig(0.2))
        assert model.catchment_pixels == 1
        assert model.ecdfs[0].samples.tolist() == [values[2, 2]]

    def test_masked_catchment_raises(self, make_grid):
        grid = make_grid(np.ones((5, 5)), mask=np.ones((5, 5), dtype=bool))
        with pytest.raises(EmptyInputError, match="a"):
            build_site_model(grid, site("a", 2.5, -2.5), LamapConfig(1.0))

    def test_mask_excluded_from_samples(self, make_grid):
        values = np.arange(25.0).reshape(5, 5)
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 3] = True
        grid = make_grid(values, mask=mask)
        model = build_site_model(grid, site("a", 2.5, -2.5), LamapConfig(1.0))
        assert values[2, 3] not in model.ecdfs[0].samples
        assert model.catchment_pixels == 4

    def test_one_ecdf_per_selected_band(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(3, 6, 6)))
        model = build_site_model(grid, site("a", 3.0, -3.0), LamapConfig(2.0))
        assert len(model.ecdfs) == 3
        sub = build_site_model(grid, site("a", 3.0, -3.0), LamapConfig(2.0, bands=(2,)))
        assert len(sub.ecdfs) == 1
        assert np.array_equal(sub.ecdfs[0].samples, np.sort(model.ecdfs[2].samples))


def brute_force_potential(stack, models, cfg):
    """Triple-loop reference: pixels x sites x bands, float64 throughout."""
    bands = cfg.bands if cfg.bands is not None else tuple(range(stack.bands))
    ox, oy, pw, ph = stack.geotransform
    h, w = stack.shape
    out = np.full((h, w), np.nan)
    for r in range(h):
        for c in range(w):
            if stack.nodata_mask[r, c]:
                continue
            px = ox + (c + 0.5) * pw
            py = oy + (r + 0.5) * ph
            num = den = 0.0
            for m in models:
                d = float(np.hypot(px - m.x, py - m.y))
                wgt = float(np.exp(-d / cfg.kernel_bandwidth))
                u = 0.0
                for ecdf, b in zip(m.ecdfs, bands):
                    f = count_cdf(ecdf.samples, stack.band(b)[r, c])
                    u += 1.0 - abs(2.0 * f - 1.0)
                num += wgt * u / len(bands)
                den += wgt
            out[r, c] = min(max(num / den, 0.0), 1.0)
    return out


class TestPotential:
    def test_matches_brute_force(self, make_grid, rng):
        for trial in range(4):
            h, w = (int(v) for v in rng.integers(6, 16, size=2))
            nb = int(rng.integers(1, 4))
            values = rng.normal(size=(nb, h, w))
            mask = rng.random((h, w)) < 0.1
            mask[h // 2, w // 2] = False
            grid = make_grid(values, mask=mask)
            cfg = LamapConfig(catchment_radius=2.5, kernel_bandwidth=5.0)
            sites = [
                site(f"s{i}", float(rng.uniform(1, w - 1)), float(-rng.uniform(1, h - 1)))
                for i in range(int(rng.integers(1, 5)))
            ]
            models = build_site_models(grid, sites, cfg)
            got = potential_values(grid, models, cfg)
            want = brute_force_potential(grid, models, cfg)
            assert np.allclose(got, want, atol=1e-9, equal_nan=True)

    def test_range_and_mask(self, make_grid, rng):
        values = rng.normal(size=(2, 12, 12)) * 10
        mask = np.zeros((12, 12), dtype=bool)
        mask[0, :] = True
        grid = make_grid(values, mask=mask)
        cfg = LamapConfig(3.0, 2.0)
        models = build_site_models(grid, [site("a", 6.0, -6.0), site("b", 2.0, -9.0)], cfg)
        out = potential_values(grid, models, cfg)
        assert np.isnan(out[0]).all()
        ok = out[~mask]
        assert np.all((ok >= 0.0) & (ok <= 1.0))

    def test_site_order_is_bit_irrelevant(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(10, 10)))
        cfg = LamapConfig(2.0, 3.0)
        sites = [site(f"s{i}", 1.0 + 2.0 * i, -5.0) for i in range(4)]
        models = build_site_models(grid, sites, cfg)
        a = potential_values(grid, models, cfg)
        for _ in range(5):
            order = rng.permutation(len(models))
            b = potential_values(grid, [models[i] for i in order], cfg)
            assert np.array_equal(a, b, equal_nan=True)

    def test_single_site_reduces_to_similarity(self, make_grid, rng):
        # With one site the distance weight cancels out of the quotient.
        # Compare against the stored band: storage is float32, and midranks
        # care about exact ties.
        values = rng.normal(size=(8, 8))
        grid = make_grid(values)
        cfg = LamapConfig(2.0, 1.0)
        model = build_site_model(grid, site("a", 4.0, -4.0), cfg)
        out = potential_values(grid, [model], cfg)
        want = similarity(model.ecdfs[0], grid.band(0).astype(np.float64))
        assert np.allclose(out, want, atol=1e-12)

    def test_kernel_underflow_is_numeric_error(self, make_grid, rng):
        # 10 m cells, one site near a corner: beyond ~373 m every
        # exp(-d / 0.5) is 0, so those pixels would be 0 / 0.
        grid = make_grid(rng.normal(size=(64, 64)), (0.0, 640.0, 10.0, -10.0))
        cfg = LamapConfig(catchment_radius=20.0, kernel_bandwidth=0.5)
        models = build_site_models(grid, [site("a", 25.0, 615.0)], cfg)
        with pytest.raises(NumericError, match=r"bandwidth 0\.5 .* at \d+ valid pixels"):
            potential_values(grid, models, cfg)

    def test_underflow_on_masked_pixels_only_is_fine(self, make_grid, rng):
        mask = np.zeros((64, 64), dtype=bool)
        mask[:, 20:] = True
        grid = make_grid(rng.normal(size=(64, 64)), (0.0, 640.0, 10.0, -10.0), mask)
        cfg = LamapConfig(catchment_radius=20.0, kernel_bandwidth=0.5)
        sites = [site(f"s{i}", 25.0, y) for i, y in enumerate((25.0, 325.0, 615.0))]
        models = build_site_models(grid, sites, cfg)
        out = potential_values(grid, models, cfg)
        assert np.isnan(out[mask]).all() and np.isfinite(out[~mask]).all()

    def test_nearby_site_dominates(self, make_grid):
        # Two sites with opposite affinity for a probe value; short bandwidth
        # means each corner tracks its own neighbour.
        values = np.zeros((3, 21))
        values[:, :1] = 5.0
        grid = make_grid(values)
        cfg = LamapConfig(catchment_radius=1.0, kernel_bandwidth=0.5)
        left = build_site_model(grid, site("l", 0.5, -1.5), cfg)
        right = build_site_model(grid, site("r", 20.5, -1.5), cfg)
        out = potential_values(grid, [left, right], cfg)
        # Probe pixel value 0: right site's ECDF is all zeros (u = 1), the
        # left site saw the 5.0 column too.
        assert out[1, 19] > out[1, 2]

    def test_band_count_mismatch(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(2, 6, 6)))
        cfg1 = LamapConfig(2.0, bands=(0,))
        models = build_site_models(grid, [site("a", 3.0, -3.0)], cfg1)
        with pytest.raises(DataError):
            potential_values(grid, models, LamapConfig(2.0))

    def test_no_models(self, make_grid):
        with pytest.raises(DataError):
            potential_values(make_grid(np.ones((4, 4))), [], LamapConfig(1.0))

    def test_band_subset(self, make_grid, rng):
        base = rng.normal(size=(6, 6))
        noise = rng.normal(size=(6, 6)) * 100
        grid = make_grid(np.stack([base, noise]))
        only_first = LamapConfig(2.0, bands=(0,))
        models = build_site_models(grid, [site("a", 3.0, -3.0)], only_first)
        got = potential_values(grid, models, only_first)
        solo = make_grid(base)
        want = potential_values(solo, build_site_models(solo, [site("a", 3.0, -3.0)], LamapConfig(2.0)), LamapConfig(2.0))
        assert np.allclose(got, want, atol=1e-12)


def center_grids(stack):
    """Full (H, W) grids of the stack's pixel-center map coordinates."""
    rows = np.arange(stack.height, dtype=np.float64)[:, None]
    cols = np.arange(stack.width, dtype=np.float64)[None, :]
    ox, oy, px, py = stack.geotransform
    x = np.broadcast_to(ox + (cols + 0.5) * px, stack.shape)
    y = np.broadcast_to(oy + (rows + 0.5) * py, stack.shape)
    return x, y


def reference_potential(stack, models, cfg):
    """The per-site ``ecdf.cdf`` loop that ``potential_values`` used to run."""
    bands = cfg.bands if cfg.bands is not None else tuple(range(stack.bands))
    valid = ~stack.nodata_mask
    x, y = center_grids(stack)
    band_values = [stack.band(b).astype(np.float64) for b in bands]
    num = np.zeros(stack.shape, dtype=np.float64)
    den = np.zeros(stack.shape, dtype=np.float64)
    for model in sorted(models, key=lambda m: m.site_id):
        d = np.hypot(x - model.x, y - model.y)
        w = np.exp(-d / cfg.kernel_bandwidth)
        u = np.zeros(stack.shape, dtype=np.float64)
        for ecdf, vals in zip(model.ecdfs, band_values):
            f = ecdf.cdf(vals)
            u += 1.0 - np.abs(2.0 * f - 1.0)
        u /= len(bands)
        num += w * u
        den += w
    surface = np.clip(num / den, 0.0, 1.0)
    surface[~valid] = np.nan
    return surface


def _scattered_sites(h, w, count, rng):
    return [
        site(f"s{i:02d}", float(rng.uniform(0, w)), float(-rng.uniform(0, h)))
        for i in range(count)
    ]


class TestEqualsPerSiteCdf:
    """Sorting each band once returns the per-site ECDF loop's floats bit for bit."""

    def _check(self, grid, models, cfg):
        got = potential_values(grid, models, cfg)
        assert np.array_equal(got, reference_potential(grid, models, cfg), equal_nan=True)

    def test_masked_hole(self, make_grid, rng):
        values = rng.normal(size=(3, 30, 34))
        mask = np.zeros((30, 34), dtype=bool)
        mask[8:20, 10:25] = True
        grid = make_grid(values, mask=mask)
        cfg = LamapConfig(catchment_radius=3.0, kernel_bandwidth=6.0)
        sites = [s for s in _scattered_sites(30, 34, 12, rng)
                 if not mask[int(-s.y), int(s.x)]]
        self._check(grid, build_site_models(grid, sites, cfg), cfg)

    def test_heavy_ties(self, make_grid, rng):
        values = np.stack([np.round(rng.normal(size=(25, 27)) * 2.0),
                           rng.normal(size=(25, 27))])
        grid = make_grid(values)
        cfg = LamapConfig(catchment_radius=4.0, kernel_bandwidth=5.0)
        self._check(grid, build_site_models(grid, _scattered_sites(25, 27, 9, rng), cfg), cfg)

    def test_band_subset(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(4, 20, 22)))
        cfg = LamapConfig(catchment_radius=3.0, kernel_bandwidth=4.0, bands=(3, 1))
        self._check(grid, build_site_models(grid, _scattered_sites(20, 22, 6, rng), cfg), cfg)

    def test_one_row_frame(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(2, 1, 40)))
        cfg = LamapConfig(catchment_radius=3.0, kernel_bandwidth=5.0)
        sites = [site(f"s{i}", float(x), -0.5) for i, x in enumerate((2.5, 19.0, 37.5))]
        self._check(grid, build_site_models(grid, sites, cfg), cfg)

    def test_single_sample_catchments(self, make_grid, rng):
        grid = make_grid(np.round(rng.normal(size=(2, 15, 16)), 1))
        cfg = LamapConfig(catchment_radius=0.2, kernel_bandwidth=3.0)
        models = build_site_models(grid, _scattered_sites(15, 16, 8, rng), cfg)
        assert all(m.catchment_pixels == 1 for m in models)
        self._check(grid, models, cfg)

    def test_samples_float32_cannot_represent(self, make_grid, rng):
        # Samples sit one float64 ulp either side of stored float32 pixel
        # values, so a comparison done in float32 would count them as ties.
        values = np.round(rng.normal(size=(18, 19)), 2).astype(np.float32)
        grid = make_grid(values)
        cfg = LamapConfig(kernel_bandwidth=4.0)
        pixels = np.unique(values.astype(np.float64))
        models = []
        for i in range(5):
            base = rng.choice(pixels, size=7)
            near = np.concatenate(
                [np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base[:2]]
            )
            assert not np.array_equal(near.astype(np.float32).astype(np.float64), near)
            models.append(SiteModel(f"h{i}", float(rng.uniform(0, 19)),
                                    float(-rng.uniform(0, 18)), (Ecdf(near),), near.size))
        self._check(grid, models, cfg)


class TestSurfaceWrapper:
    def test_float32_single_band(self, make_grid, rng):
        grid = make_grid(rng.normal(size=(7, 7)))
        cfg = LamapConfig(2.0)
        models = build_site_models(grid, [site("a", 3.5, -3.5)], cfg)
        surf = lamap_surface(grid, models, cfg)
        assert surf.bands == 1
        assert surf.data.dtype == np.float32
        assert surf.band_names == ("potential",)
        assert surf.geotransform == grid.geotransform
        assert np.allclose(
            surf.band(0), potential_values(grid, models, cfg).astype(np.float32)
        )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            LamapConfig(catchment_radius=-1.0)
        with pytest.raises(ConfigError):
            LamapConfig(kernel_bandwidth=0.0)
        with pytest.raises(ConfigError, match="at least one band"):
            LamapConfig(bands=())
        with pytest.raises(ConfigError, match=">= 0"):
            LamapConfig(bands=(0, -1))
        with pytest.raises(ConfigError, match="each band once"):
            LamapConfig(bands=(0, 0, 2))
        assert LamapConfig(bands=(0, 7)).bands == (0, 7)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["catchment_radius", "kernel_bandwidth"])
    def test_non_finite_config_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            LamapConfig(**{key: value})


def sorted_pixel_potential(stack, models, cfg):
    """The path ``potential_values`` took before merged value tables: sort
    each band's pixels once, then per (site, band) a full-frame
    ``bincount`` of the samples' insertion points, a ``cumsum`` and a
    scatter back through the sort order."""
    bands = cfg.bands if cfg.bands is not None else tuple(range(stack.bands))
    valid = ~stack.nodata_mask
    x, y = center_grids(stack)
    npix = x.size
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


def _overlapping_models(grid, count, radius, rng, bands=None):
    """Sites on random valid pixels, so catchments overlap when many."""
    h, w = grid.shape
    valid = np.argwhere(~grid.nodata_mask)
    picks = valid[rng.integers(0, len(valid), size=count)]
    xs, ys = grid.center_xy(picks[:, 0], picks[:, 1])
    sites = [site(f"o{i:03d}", float(x), float(y)) for i, (x, y) in enumerate(zip(xs, ys))]
    cfg = LamapConfig(catchment_radius=radius, kernel_bandwidth=float(h + w), bands=bands)
    return build_site_models(grid, sites, cfg), cfg


class TestEqualsSortedPixelPath:
    """Merged value tables return the sorted-pixel path's floats bit for bit."""

    def _check(self, grid, models, cfg):
        got = potential_values(grid, models, cfg)
        assert np.array_equal(got, sorted_pixel_potential(grid, models, cfg), equal_nan=True)

    def test_samples_tied_with_pixels(self, make_grid, rng):
        for trial in range(5):
            values = np.round(rng.normal(size=(2, 17, 21)) * (1 + trial))
            grid = make_grid(values)
            models, cfg = _overlapping_models(grid, 9, 2.5, rng)
            self._check(grid, models, cfg)

    def test_masked_pixels(self, make_grid, rng):
        for trial in range(5):
            mask = rng.random((19, 23)) < 0.1 + 0.15 * trial
            mask[9, 11] = False
            grid = make_grid(rng.normal(size=(3, 19, 23)), mask=mask)
            models, cfg = _overlapping_models(grid, 7, 3.0, rng)
            self._check(grid, models, cfg)

    def test_band_subset(self, make_grid, rng):
        grid = make_grid(np.round(rng.normal(size=(5, 16, 18)), 1))
        for bands in ((4,), (3, 0), (1, 4, 2)):
            models, cfg = _overlapping_models(grid, 6, 2.0, rng, bands=bands)
            self._check(grid, models, cfg)

    def test_single_sample_ecdfs(self, make_grid, rng):
        grid = make_grid(np.round(rng.normal(size=(2, 14, 15)), 1))
        models, cfg = _overlapping_models(grid, 12, 0.2, rng)
        assert all(m.catchment_pixels == 1 for m in models)
        self._check(grid, models, cfg)

    def test_float64_samples_between_float32_pixels(self, make_grid, rng):
        values = rng.normal(size=(13, 17)).astype(np.float32)
        grid = make_grid(values)
        pixels = np.sort(values.astype(np.float64).ravel())
        models = []
        for i in range(6):
            lo = rng.choice(pixels[:-1], size=9)
            # Halfway between float32 neighbours: exact in float64, a tie or
            # a neighbour once rounded to float32.
            mid = (lo + np.nextafter(lo.astype(np.float32), np.float32(np.inf))) / 2.0
            near = np.concatenate([mid, np.nextafter(lo, -np.inf), lo[:3]])
            assert not np.array_equal(near.astype(np.float32).astype(np.float64), near)
            models.append(SiteModel(f"m{i}", float(rng.uniform(0, 17)),
                                    float(-rng.uniform(0, 13)), (Ecdf(near),), near.size))
        self._check(grid, models, LamapConfig(kernel_bandwidth=6.0))

    def test_more_samples_than_pixels(self, make_grid, rng):
        # Many overlapping catchments on a small frame, as on the tiled
        # benchmark frame: every pixel value is some site's sample.
        mask = np.zeros((20, 24), dtype=bool)
        mask[5:9, 3:12] = True
        grid = make_grid(np.round(rng.normal(size=(2, 20, 24)), 2), mask=mask)
        models, cfg = _overlapping_models(grid, 60, 6.0, rng)
        assert sum(m.ecdfs[0].n for m in models) > grid.height * grid.width
        self._check(grid, models, cfg)

    @pytest.mark.parametrize(
        "pool,dtype",
        [(127, np.uint8), (128, np.uint16), (32767, np.uint16), (32768, np.uint32)],
    )
    def test_slot_dtype_follows_the_pool_size(self, make_grid, rng, monkeypatch, pool, dtype):
        # The largest slot is 2 |U|, so the slots take the narrowest
        # unsigned dtype that holds it, and the floats do not change.
        import apmkit.lamap

        values = np.linspace(-4.0, 4.0, pool).astype(np.float32)
        assert np.unique(values).size == pool
        pixels = rng.normal(size=(2, 9, 11)).astype(np.float32) * 3
        pixels[0, ::2] = rng.choice(values, size=(5, 11))  # ties with U
        grid = make_grid(pixels)
        models = [
            SiteModel(f"s{i}", float(rng.uniform(0, 11)), float(-rng.uniform(0, 9)),
                      (Ecdf(np.concatenate([values[i::3], values[:5]])),
                       Ecdf(pixels[1, i : i + 3].ravel())), values.size)
            for i in range(3)
        ]
        seen = []
        value_slots = apmkit.lamap._value_slots

        def spy(values, band, out):
            seen.append(out.dtype)
            return value_slots(values, band, out)

        monkeypatch.setattr(apmkit.lamap, "_value_slots", spy)
        self._check(grid, models, LamapConfig(kernel_bandwidth=8.0))
        assert seen == [np.dtype(dtype)] * 2

    def test_seeded_random_frames(self, make_grid, rng):
        for trial in range(30):
            h, w = (int(v) for v in rng.integers(1, 25, size=2))
            nb = int(rng.integers(1, 4))
            values = rng.normal(size=(nb, h, w))
            if trial % 2:
                values = np.round(values * 3)
            mask = rng.random((h, w)) < rng.uniform(0, 0.4)
            mask.flat[rng.integers(0, h * w)] = False
            gt = (float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)),
                  float(rng.uniform(0.3, 3)), -float(rng.uniform(0.3, 3)))
            grid = make_grid(values, geotransform=gt, mask=mask)
            models, cfg = _overlapping_models(
                grid, int(rng.integers(1, 20)), float(rng.uniform(0, 6)), rng
            )
            with pytest.raises(FrozenInstanceError):
                cfg.kernel_bandwidth = 1.0
            cfg = replace(cfg, kernel_bandwidth=float(rng.uniform(0.5, 30)))
            self._check(grid, models, cfg)


class TestMixedSampleDtypes:
    def test_float64_model_among_float32_models(self, make_grid, rng):
        # The pool promotes to float64 and the pixels widen exactly.
        grid = make_grid(np.round(rng.normal(size=(2, 15, 18)), 2))
        models, cfg = _overlapping_models(grid, 7, 2.5, rng)
        assert all(e.samples.dtype == np.float32 for m in models for e in m.ecdfs)
        pixels = np.unique(grid.band(0).astype(np.float64))
        base = rng.choice(pixels[:-1], size=6)
        near = np.concatenate([np.nextafter(base, np.inf), np.nextafter(base, -np.inf), base])
        ecdfs = (Ecdf(near), Ecdf(grid.band(1)[3:6, 4:9].astype(np.float64)))
        models.append(SiteModel("hand", 9.0, -7.0, ecdfs, near.size))
        got = potential_values(grid, models, cfg)
        assert np.array_equal(got, sorted_pixel_potential(grid, models, cfg), equal_nan=True)


class TestBandedGather:
    """The affinities are gathered and added one band of rows at a time
    into one band-sized buffer."""

    @pytest.mark.parametrize("bands", [None, (2, 0)], ids=["all-bands", "subset"])
    @pytest.mark.parametrize("rows", [1, 5], ids=["one-row", "ragged"])
    def test_band_height_is_bit_irrelevant(self, make_grid, rng, monkeypatch, rows, bands):
        h, w = 23, 19  # bands of five rows leave a last band of three
        mask = rng.random((h, w)) < 0.15
        grid = make_grid(np.round(rng.normal(size=(3, h, w)), 1), mask=mask)
        models, cfg = _overlapping_models(grid, 8, 3.0, rng, bands=bands)
        want = potential_values(grid, models, cfg)
        assert row_bands(h, w).step >= h
        monkeypatch.setattr(gridmod, "BAND", rows * w)
        assert row_bands(h, w).step == rows
        assert potential_values(grid, models, cfg).tobytes() == want.tobytes()

    def test_traced_peak(self, make_grid, rng):
        # At most the slot block, four float64 frames (weights, affinities,
        # numerator, denominator), the models and one band: its float64
        # buffer and np.take's intp copy of its slots. The allowance covers
        # the valid mask and ufunc buffers. A full-frame scratch and index
        # copy would add two float64 frames.
        h, w, nb = 256, 256, 3
        mask = rng.random((h, w)) < 0.05
        grid = make_grid(np.round(rng.normal(size=(nb, h, w)), 2), mask=mask)
        models, cfg = _overlapping_models(grid, 24, 4.0, rng)
        sample_bytes = sum(e.samples.nbytes for m in models for e in m.ecdfs)
        tracemalloc.start()
        try:
            potential_values(grid, models, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The slot block takes the narrowest unsigned dtype that holds
        # 2 |U|, U a band's pooled distinct samples: here uint16.
        pool = max(np.unique(np.concatenate([m.ecdfs[b].samples for m in models])).size
                   for b in range(nb))
        itemsize = np.min_scalar_type(2 * pool).itemsize
        assert itemsize == 2
        slots, frames, band = itemsize * nb * h * w, 4 * 8 * h * w, 16 * gridmod.BAND
        allowance = h * w + (256 << 10)
        assert peak <= slots + frames + 4 * sample_bytes + band + allowance


class TestAffinityTable:
    """A site's affinity table, built from its own distinct samples, holds
    :func:`similarity` bit for bit at a representative value of every slot
    over the pooled values ``U``: below ``U[0]``, each ``U[i]``, each
    midpoint and above ``U[-1]``."""

    @staticmethod
    def _check(samples, pooled):
        from apmkit.lamap import _affinity_table, _distinct_values, _value_slots

        ecdf = Ecdf(samples)
        values = np.unique(pooled)
        mids = (values[:-1] + values[1:]) / 2
        assert ((values[:-1] < mids) & (mids < values[1:])).all()
        reps = np.empty(2 * values.size + 1)
        reps[0] = values[0] - 1.0
        reps[1::2] = values
        reps[2:-1:2] = mids
        reps[-1] = values[-1] + 1.0
        slots = np.empty(reps.size, dtype=np.int32)
        assert np.array_equal(_distinct_values([ecdf.samples, values]), values)
        _value_slots(values, reps, slots)
        assert np.array_equal(slots, np.arange(reps.size))
        table = _affinity_table(ecdf, values)
        assert table.dtype == np.float64
        assert table.tobytes() == similarity(ecdf, reps).tobytes()

    def test_one_sample(self):
        self._check([2.0], [2.0])
        self._check([2.0], [-1.0, 2.0, 7.5])

    def test_samples_at_both_ends_with_ties(self):
        self._check([0.0, 0.0, 3.0, 9.0, 9.0, 9.0], [0.0, 1.0, 3.0, 4.0, 9.0])

    def test_samples_inside_the_pooled_range(self):
        self._check([4.0, 4.0, 5.5], [-3.0, 0.0, 4.0, 5.0, 5.5, 8.0, 12.0])

    def test_property_over_pools_and_ties(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=300, deadline=None)
        @given(
            pooled=st.lists(st.integers(-60, 60), min_size=1, max_size=40, unique=True),
            scale=st.sampled_from([1.0, 0.1, 1e-3, 2.5, 1e6]),
            data=st.data(),
        )
        def check(pooled, scale, data):
            pooled = sorted(pooled)
            picks = data.draw(
                st.lists(st.integers(0, len(pooled) - 1), min_size=1, max_size=60)
            )
            ends = data.draw(st.sampled_from([(), (0,), (-1,), (0, -1)]))
            samples = [pooled[i] * scale for i in [*picks, *ends]]
            self._check(samples, [v * scale for v in pooled])

        check()
