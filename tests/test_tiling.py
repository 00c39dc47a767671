"""Sliding-window planning and seamless stitching."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from apmkit.errors import ConfigError, DataError, DimensionError
from apmkit.raster.tiling import (
    TileWindow,
    extract_window,
    load_plan,
    plan_windows,
    save_plan,
    stitch,
)


def reference_positions(extent, tile, stride):
    """Reference loop: march by stride, clamp a final window to the edge."""
    positions = []
    pos = 0
    while pos + tile <= extent:
        positions.append(pos)
        pos += stride
    if positions[-1] + tile < extent:
        positions.append(extent - tile)
    return positions


class TestPlan:
    def test_tile_equals_width_single_column(self):
        plan = plan_windows(400, 128, 128, 0.9)
        assert all(w.col0 == 0 for w in plan)
        assert len({w.row0 for w in plan}) == len(plan)

    def test_no_overlap_marches_by_tile(self):
        plan = plan_windows(128, 256, 128, 0.0)
        assert sorted(w.col0 for w in plan) == [0, 128]

    def test_full_frame_window_count(self):
        # 1647x3284, tile 128, overlap 0.9 -> stride 13.
        plan = plan_windows(1647, 3284, 128, 0.9)
        rows = reference_positions(1647, 128, 13)
        cols = reference_positions(3284, 128, 13)
        assert len(rows) == 118 and len(cols) == 244
        assert len(plan) == 118 * 244 == 28792
        assert {w.row0 for w in plan} == set(rows)
        assert {w.col0 for w in plan} == set(cols)

    def test_windows_full_size_and_inside(self, rng):
        for _ in range(30):
            h, w = rng.integers(40, 300, size=2)
            tile = int(rng.integers(8, min(h, w) + 1))
            overlap = float(rng.uniform(0.0, 0.95))
            for win in plan_windows(int(h), int(w), tile, overlap):
                assert win.size == tile
                assert 0 <= win.row0 <= h - tile
                assert 0 <= win.col0 <= w - tile

    def test_retained_regions_cover_every_pixel(self, rng):
        for _ in range(25):
            h, w = (int(v) for v in rng.integers(30, 160, size=2))
            tile = int(rng.integers(8, min(h, w) + 1))
            overlap = float(rng.choice([0.0, 0.25, 0.5, 0.75, 0.9]))
            plan = plan_windows(h, w, tile, overlap)
            covered = np.zeros((h, w), dtype=bool)
            for win in plan:
                rel_r, rel_c = win.retained(h, w)
                covered[
                    win.row0 + rel_r.start : win.row0 + rel_r.stop,
                    win.col0 + rel_c.start : win.col0 + rel_c.stop,
                ] = True
            assert covered.all()

    @pytest.mark.parametrize("tile", [1, 2, 7, 16, 128])
    @pytest.mark.parametrize("overlap", [0.0, 0.3, 0.5, 0.9, 0.99])
    def test_margin_is_derived_from_stride(self, tile, overlap):
        stride = max(1, int(round(tile * (1.0 - overlap))))
        plan = plan_windows(200, 200, tile, overlap)
        assert {w.crop_margin for w in plan} == {(tile - stride) // 2}

    def test_margin_validation(self):
        with pytest.raises(DataError):
            TileWindow(0, 0, 8, crop_margin=4)
        TileWindow(0, 0, 8, crop_margin=3)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            plan_windows(64, 64, 16, 1.0)
        with pytest.raises(ConfigError):
            plan_windows(64, 64, 0, 0.5)
        with pytest.raises(DimensionError):
            plan_windows(64, 64, 65, 0.5)


class TestStitch:
    def test_constant_prediction_stitches_constant(self, rng):
        plan = plan_windows(50, 70, 16, 0.6)
        preds = [np.full((16, 16), 0.7) for _ in plan]
        out = stitch(preds, plan, (50, 70))
        assert np.allclose(out.band(0), 0.7, atol=1e-6)

    def test_single_window_identity(self, rng):
        values = rng.normal(size=(20, 20)).astype(np.float32)
        plan = [TileWindow(0, 0, 20)]
        out = stitch([values], plan, (20, 20))
        assert np.allclose(out.band(0), values, atol=1e-6)

    def test_identity_predictor_reproduces_input(self, rng):
        values = rng.normal(size=(90, 61)).astype(np.float32)
        plan = plan_windows(90, 61, 16, 0.75)
        preds = [extract_window(values, w) for w in plan]
        out = stitch(preds, plan, (90, 61))
        assert np.allclose(out.band(0), values, atol=1e-6)

    def test_half_overlap_hand_average(self):
        # Two 4-wide windows overlapping by half, constants 0.2 and 0.6:
        # with no crop margin the overlap averages to 0.4.
        plan = [TileWindow(0, 0, 4, 0), TileWindow(0, 2, 4, 0)]
        preds = [np.full((4, 4), 0.2), np.full((4, 4), 0.6)]
        out = stitch(preds, plan, (4, 6))
        band = out.band(0)
        assert np.allclose(band[:, :2], 0.2)
        assert np.allclose(band[:, 2:4], 0.4)
        assert np.allclose(band[:, 4:], 0.6)

    def test_order_invariance(self, rng):
        values = rng.normal(size=(40, 40))
        plan = plan_windows(40, 40, 16, 0.5)
        preds = [np.asarray(extract_window(values, w)) for w in plan]
        a = stitch(preds, plan, (40, 40)).band(0)
        order = rng.permutation(len(plan))
        b = stitch([preds[i] for i in order], [plan[i] for i in order], (40, 40)).band(0)
        assert np.array_equal(a, b)

    def test_multiband_predictions(self, rng):
        values = rng.normal(size=(3, 30, 30))
        plan = plan_windows(30, 30, 10, 0.0)
        preds = [np.asarray(extract_window(values, w)) for w in plan]
        out = stitch(preds, plan, (30, 30), band_names=("a", "b", "c"))
        assert out.bands == 3
        assert np.allclose(out.data, values, atol=1e-6)

    @pytest.mark.parametrize("h, w", [(23, 23), (40, 57), (64, 31)])
    @pytest.mark.parametrize("tile", [1, 4, 9, 16])
    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.75, 0.9])
    def test_planned_stitch_matches_per_band_divide(self, h, w, tile, overlap):
        # Reference: the per-band divide over covered pixels that the one
        # in-place division replaced. Every planned pixel is covered.
        rng = np.random.default_rng(h * w + tile)
        values = rng.normal(size=(2, h, w))
        plan = plan_windows(h, w, tile, overlap)
        preds = [np.asarray(extract_window(values, win)) for win in plan]
        acc = np.zeros((2, h, w))
        count = np.zeros((h, w))
        for win, pred in zip(plan, preds):
            rel_r, rel_c = win.retained(h, w)
            abs_r = slice(win.row0 + rel_r.start, win.row0 + rel_r.stop)
            abs_c = slice(win.col0 + rel_c.start, win.col0 + rel_c.stop)
            acc[:, abs_r, abs_c] += pred[:, rel_r, rel_c]
            count[abs_r, abs_c] += 1.0
        covered = count > 0
        want = np.stack([
            np.divide(acc[b], count, out=np.zeros_like(count), where=covered)
            for b in range(2)
        ]).astype(np.float32)
        out = stitch(preds, plan, (h, w))
        assert not out.nodata_mask.any()
        assert out.data.tobytes() == want.tobytes()

    def test_uncovered_pixels_are_nodata(self):
        # A hand-built plan leaving the two right columns uncovered.
        plan = [TileWindow(0, 0, 4, 0)]
        preds = [np.arange(32.0).reshape(2, 4, 4)]
        out = stitch(preds, plan, (4, 6))
        assert np.array_equal(out.nodata_mask[:, 4:], np.ones((4, 2), dtype=bool))
        assert not out.nodata_mask[:, :4].any()
        assert np.isnan(out.data[:, :, 4:]).all()
        assert np.array_equal(out.data[:, :, :4], preds[0])

    def test_large_uncovered_area_is_fast(self):
        # One 200² window over a 400² frame: three quarters uncovered.
        values = np.ones((200, 200))
        start = time.perf_counter()
        out = stitch([values], [TileWindow(0, 0, 200, 0)], (400, 400))
        assert time.perf_counter() - start < 1.0
        assert int(out.nodata_mask.sum()) == 400 * 400 - 200 * 200
        assert not out.nodata_mask[:200, :200].any()

    def test_masked_predictions_carry_the_mask(self, rng):
        values = rng.normal(size=(2, 33, 41))
        mask = rng.random((33, 41)) < 0.2
        mask[5:15, 10:30] = True
        masked = np.where(mask, np.nan, values)
        plan = plan_windows(33, 41, 8, 0.75)
        clean = stitch([np.asarray(extract_window(values, w)) for w in plan], plan, (33, 41))
        out = stitch([np.asarray(extract_window(masked, w)) for w in plan], plan, (33, 41))
        assert np.array_equal(out.nodata_mask, mask)
        assert np.isnan(out.data[:, mask]).all()
        assert np.array_equal(out.data[:, ~mask], clean.data[:, ~mask])

    def test_nan_in_one_band_masks_every_band(self):
        pred = np.ones((2, 4, 4))
        pred[1, 2, 3] = np.nan
        out = stitch([pred], [TileWindow(0, 0, 4, 0)], (4, 4))
        assert out.nodata_mask[2, 3] and out.nodata_mask.sum() == 1
        assert np.isnan(out.data[:, 2, 3]).all()

    def test_count_mismatch(self):
        plan = plan_windows(16, 16, 8, 0.0)
        with pytest.raises(DataError):
            stitch([np.zeros((8, 8))], plan, (16, 16))

    def test_window_overrun(self):
        with pytest.raises(DataError):
            stitch([np.zeros((8, 8))], [TileWindow(12, 0, 8)], (16, 16))


class TestPlanIO:
    def test_roundtrip(self, tmp_path, make_grid, rng):
        grid = make_grid(rng.normal(size=(40, 50)), geotransform=(5.0, 9.0, 2.0, -2.0))
        plan = plan_windows(grid.height, grid.width, 16, 0.5)
        path = tmp_path / "plan.json"
        save_plan(path, plan, grid.shape, grid.geotransform)
        windows, shape, gt = load_plan(path)
        assert windows == plan
        assert shape == grid.shape
        assert gt == grid.geotransform

    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_save_keeps_previous_file(self, tmp_path, previous):
        path = tmp_path / "plan.json"
        if previous:
            save_plan(path, [TileWindow(0, 0, 4)], (4, 4))
        before = path.read_bytes() if previous else None
        # The second window's margin cannot be serialised.
        broken = SimpleNamespace(row0=0, col0=0, size=4, crop_margin=object())
        with pytest.raises(TypeError):
            save_plan(path, [TileWindow(0, 0, 4), broken], (4, 4))
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["plan.json"] if previous else [])

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"height\": 4}")
        with pytest.raises(DataError):
            load_plan(path)
