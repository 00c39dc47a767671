"""Raster container, binary IO and grid geometry."""

import copy
import json
import math
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from apmkit.errors import DataError, DimensionError, EmptyInputError
from apmkit.raster import grid
from apmkit.raster.grid import (
    RasterGrid,
    atomic_write,
    commit_outputs,
    fill_holes,
    load_raster,
    row_bands,
    save_raster,
)


class TestRasterGridValidation:
    def test_masked_values_become_nan(self, make_grid):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 1] = True
        g = make_grid(np.ones((2, 3)), mask=mask)
        assert np.isnan(g.band(0)[0, 1])
        assert np.isfinite(g.band(0)[~mask]).all()

    def test_rejects_non_finite_outside_mask(self):
        data = np.ones((1, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(DataError):
            RasterGrid(data, (0, 0, 1, -1), np.zeros((2, 2), bool), ("b",))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("band", [0, 1, 2])
    @pytest.mark.parametrize("masked_elsewhere", [False, True])
    def test_rejects_non_finite_in_any_band(self, value, band, masked_elsewhere):
        data = np.ones((3, 4, 5), dtype=np.float32)
        data[band, 2, 3] = value
        mask = np.zeros((4, 5), bool)
        if masked_elsewhere:
            mask[0, :2] = True
            mask[3, 4] = True
        with pytest.raises(DataError):
            RasterGrid(data, (0, 0, 1, -1), mask, ("a", "b", "c"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_under_the_mask_is_nodata(self, value):
        data = np.ones((3, 4, 5), dtype=np.float32)
        data[1, 2, 3] = value
        mask = np.zeros((4, 5), bool)
        mask[2, 3] = True
        g = RasterGrid(data, (0, 0, 1, -1), mask, ("a", "b", "c"))
        assert np.isnan(g.data[:, 2, 3]).all()
        assert np.isfinite(g.data[:, ~mask]).all()

    def test_nan_under_the_mask_is_not_copied(self):
        data = np.ones((2, 4, 5), dtype=np.float32)
        mask = np.zeros((4, 5), bool)
        mask[1, 2:4] = True
        data[:, mask] = np.nan
        g = RasterGrid(data, (0, 0, 1, -1), mask, ("a", "b"))
        assert np.shares_memory(g.data, data)

    def test_finite_under_the_mask_is_copied_not_mutated(self):
        data = np.ones((2, 4, 5), dtype=np.float32)
        mask = np.zeros((4, 5), bool)
        mask[1, 2:4] = True
        data[:, mask] = np.nan
        data[1, 1, 3] = 7.0  # a finite sample under the mask, in band 1
        before = data.copy()
        g = RasterGrid(data, (0, 0, 1, -1), mask, ("a", "b"))
        assert np.array_equal(data, before, equal_nan=True)
        assert not np.shares_memory(g.data, data)
        assert np.isnan(g.data[:, mask]).all()
        assert np.array_equal(g.data[:, ~mask], data[:, ~mask])

    def test_rejects_bad_pixel_sizes(self):
        data = np.ones((1, 2, 2), dtype=np.float32)
        mask = np.zeros((2, 2), bool)
        with pytest.raises(DataError):
            RasterGrid(data, (0, 0, -1, -1), mask, ("b",))
        with pytest.raises(DataError):
            RasterGrid(data, (0, 0, 1, 0), mask, ("b",))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_rejects_non_finite_geotransform(self, tmp_path, index, value):
        gt = [0.0, 0.0, 1.0, -1.0]
        gt[index] = value
        data = np.ones((1, 2, 2), dtype=np.float32)
        with pytest.raises(DataError, match="finite"):
            RasterGrid(data, tuple(gt), np.zeros((2, 2), bool), ("b",))
        header = {
            "width": 2, "height": 2, "bands": 1, "band_names": ["b"],
            "geotransform": gt, "nodata": None, "meta": {},
        }
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "gt.grid"
        path.write_bytes(b"APMG" + np.uint32(len(blob)).tobytes() + blob + data.tobytes())
        with pytest.raises(DataError, match="gt.grid header geotransform"):
            load_raster(path)

    def test_rejects_wrong_mask_shape_and_band_names(self):
        data = np.ones((1, 2, 2), dtype=np.float32)
        with pytest.raises(DimensionError):
            RasterGrid(data, (0, 0, 1, -1), np.zeros((3, 2), bool), ("b",))
        with pytest.raises(DataError):
            RasterGrid(data, (0, 0, 1, -1), np.zeros((2, 2), bool), ("a", "b"))

    def test_rejects_non_3d(self):
        with pytest.raises(DimensionError):
            RasterGrid(np.ones((2, 2), np.float32), (0, 0, 1, -1), np.zeros((2, 2), bool), ("b",))

    def test_band_lookup(self, make_grid):
        g = make_grid(np.zeros((2, 3, 3)), band_names=("slope", "aspect"))
        assert g.band_index("aspect") == 1
        with pytest.raises(DataError):
            g.band_index("missing")



class TestReadOnly:
    """A grid refuses writes to its samples, its mask and its metadata, so
    it cannot disagree with the file it saves to; the arrays it was given
    stay writable and are not copied."""

    @staticmethod
    def grid():
        data = np.ones((2, 3, 4), dtype=np.float32)
        mask = np.zeros((3, 4), bool)
        mask[0, 0] = True
        data[:, mask] = np.nan  # already NaN on the mask, so not copied
        return RasterGrid(data, (0, 0, 1, -1), mask, ("a", "b"), {"k": 0}), data, mask

    @pytest.mark.parametrize(
        "write",
        [
            lambda g: g.data.__setitem__((0, 1, 1), np.nan),
            lambda g: g.band(1).fill(0.0),
            lambda g: g.nodata_mask.__setitem__((1, 1), True),
        ],
        ids=["data", "band", "nodata_mask"],
    )
    def test_array_write_raises(self, write):
        g, _, _ = self.grid()
        with pytest.raises(ValueError, match="read-only"):
            write(g)
        assert np.isfinite(g.data[:, 1:, :]).all() and not g.nodata_mask[1, 1]

    def test_meta_write_raises(self):
        g, _, _ = self.grid()
        with pytest.raises(TypeError):
            g.meta["k"] = 1
        assert g.meta == {"k": 0}

    def test_given_arrays_stay_writable_and_shared(self):
        g, data, mask = self.grid()
        assert data.flags.writeable and mask.flags.writeable
        assert np.shares_memory(g.data, data) and np.shares_memory(g.nodata_mask, mask)
        meta = {"k": 0}
        g = RasterGrid(data, (0, 0, 1, -1), mask, ("a", "b"), meta)
        meta["k"] = 1
        assert g.meta == {"k": 0}

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_read_only(self, clone):
        g, _, _ = self.grid()
        got = clone(g)
        assert not got.data.flags.writeable and not got.nodata_mask.flags.writeable
        with pytest.raises(TypeError):
            got.meta["k"] = 1
        assert np.array_equal(got.data, g.data, equal_nan=True) and got.same_frame(g)
        assert np.array_equal(got.nodata_mask, g.nodata_mask) and got.meta == g.meta
        assert got.band_names == g.band_names

    def test_loaded_grid_is_read_only(self, tmp_path):
        g, _, _ = self.grid()
        save_raster(g, tmp_path / "g.grid")
        got = load_raster(tmp_path / "g.grid")
        assert not got.data.flags.writeable and not got.nodata_mask.flags.writeable
        with pytest.raises(TypeError):
            got.meta["k"] = 1

class TestGeometry:
    def test_pixel_of_floor_semantics(self, make_grid):
        g = make_grid(np.zeros((4, 5)), geotransform=(100.0, 200.0, 10.0, -10.0))
        assert g.pixel_of(100.0, 200.0) == (0, 0)
        assert g.pixel_of(109.9, 190.1) == (0, 0)
        assert g.pixel_of(110.0, 189.9) == (1, 1)
        assert g.contains(149.9, 160.1)
        assert not g.contains(150.0, 200.0)

    def test_center_xy(self, make_grid):
        g = make_grid(np.zeros((3, 3)), geotransform=(0.0, 0.0, 2.0, -2.0))
        x, y = g.center_xy(np.array([0, 1]), np.array([0, 2]))
        assert x.tolist() == [1.0, 5.0]
        assert y.tolist() == [-1.0, -3.0]

    def test_disk_mask_radius_two_is_13_pixels(self, make_grid):
        # All integer offsets with di^2 + dj^2 <= 4: the 13-pixel disk.
        g = make_grid(np.zeros((9, 9)))
        (rows, cols), inside = g.disk_box(4.5, -4.5, 2.0)
        assert int(inside.sum()) == 13
        rr, cc = np.nonzero(inside)
        rr, cc = rr + rows.start, cc + cols.start
        assert (((rr - 4) ** 2 + (cc - 4) ** 2) <= 4).all()

    def test_disk_mask_tiny_radius_keeps_containing_pixel(self, make_grid):
        g = make_grid(np.zeros((4, 4)))
        (rows, cols), inside = g.disk_box(2.2, -1.7, 0.01)
        assert inside.sum() == 1
        assert inside[1 - rows.start, 2 - cols.start]

    def test_disk_mask_negative_radius(self, make_grid):
        g = make_grid(np.zeros((4, 4)))
        with pytest.raises(DataError):
            g.disk_box(1.0, -1.0, -1.0)

    def test_disk_mask_outside_grid_is_empty(self, make_grid):
        g = make_grid(np.zeros((4, 4)))
        assert not g.disk_box(50.0, -50.0, 1.5)[1].any()

    def test_same_frame(self, make_grid):
        a = make_grid(np.zeros((3, 4)))
        b = make_grid(np.ones((3, 4)))
        c = make_grid(np.zeros((3, 4)), geotransform=(0.0, 0.0, 2.0, -2.0))
        assert a.same_frame(b)
        assert not a.same_frame(c)


def full_frame_disk(grid, x, y, radius):
    """The disk over a full-frame mask, the form the box form replaced."""
    ox, oy, px, py = grid.geotransform
    out = np.zeros((grid.height, grid.width), dtype=bool)
    half_c = int(math.ceil(radius / px)) + 1
    half_r = int(math.ceil(radius / abs(py))) + 1
    rc = (y - oy) / py - 0.5
    cc = (x - ox) / px - 0.5
    r0 = max(0, int(math.floor(rc)) - half_r)
    r1 = min(grid.height - 1, int(math.ceil(rc)) + half_r)
    c0 = max(0, int(math.floor(cc)) - half_c)
    c1 = min(grid.width - 1, int(math.ceil(cc)) + half_c)
    if r0 <= r1 and c0 <= c1:
        rows = np.arange(r0, r1 + 1)
        cols = np.arange(c0, c1 + 1)
        cx, cy = grid.center_xy(rows[:, None], cols[None, :])
        out[r0 : r1 + 1, c0 : c1 + 1] = (cx - x) ** 2 + (cy - y) ** 2 <= radius * radius
    row, col = grid.pixel_of(x, y)
    if 0 <= row < grid.height and 0 <= col < grid.width:
        out[row, col] = True
    return out


class TestDiskBox:
    """A site's disk is computed in its bounding box: the box and the mask
    within it give the full-frame disk, for sites inside the frame, on its
    edges and corners and outside it, at radius 0 and at radii below a
    pixel."""

    GEOTRANSFORMS = [(0.0, 0.0, 1.0, -1.0), (100.0, 200.0, 10.0, -7.5), (-3.0, 5.0, 0.3, 0.3)]

    @pytest.mark.parametrize("gt", GEOTRANSFORMS)
    def test_matches_full_frame(self, make_grid, rng, gt):
        g = make_grid(np.zeros((11, 14)), geotransform=gt)
        ox, oy, px, py = gt
        span_x, span_y = 14 * px, 11 * py
        corners = [(ox + fx * span_x, oy + fy * span_y) for fx in (0, 1) for fy in (0, 1)]
        edges = [(ox + 0.5 * span_x, oy), (ox, oy + 0.5 * span_y),
                 (ox + span_x, oy + 0.3 * span_y), (ox + 0.7 * span_x, oy + span_y)]
        outside = [(ox - 2 * span_x, oy), (ox + 0.5 * span_x, oy + 3 * span_y),
                   (ox - 0.05 * span_x, oy + 0.5 * span_y), (ox + 1.02 * span_x, oy - 0.02 * span_y)]
        scattered = [(ox + u * span_x, oy + v * span_y) for u, v in rng.uniform(-0.2, 1.2, (40, 2))]
        pixel = min(abs(px), abs(py))
        radii = [0.0, 0.01 * pixel, 0.49 * pixel, 0.5 * pixel, pixel, 2.3 * pixel, 40 * pixel]
        for x, y in corners + edges + outside + scattered:
            for radius in radii:
                box, inside = g.disk_box(x, y, radius)
                assert inside.dtype == bool
                assert inside.shape == g.data[0][box].shape
                want = full_frame_disk(g, x, y, radius)
                got = np.zeros_like(want)
                got[box] = inside
                assert np.array_equal(got, want)
                if not want.any():
                    assert inside.size == 0 or not inside.any()

    def test_negative_radius(self, make_grid):
        with pytest.raises(DataError):
            make_grid(np.zeros((4, 4))).disk_box(1.0, -1.0, -0.5)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius(self, make_grid, radius):
        with pytest.raises(DataError, match="finite"):
            make_grid(np.zeros((4, 4))).disk_box(1.0, -1.0, radius)


class TestBinaryContainer:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        data = rng.normal(size=(3, 6, 5)).astype(np.float32)
        mask = rng.uniform(size=(6, 5)) < 0.3
        g = RasterGrid(data, (12.5, -7.0, 30.0, -30.0), mask, ("a", "b", "c"), {"k": 1})
        path = tmp_path / "g.grid"
        save_raster(g, path)
        g2 = load_raster(path)
        assert np.array_equal(g.data, g2.data, equal_nan=True)
        assert np.array_equal(g.nodata_mask, g2.nodata_mask)
        assert g2.geotransform == g.geotransform
        assert g2.band_names == g.band_names
        assert g2.meta == {"k": 1}

    def test_save_is_byte_deterministic(self, tmp_path, rng):
        data = rng.normal(size=(1, 4, 4)).astype(np.float32)
        g = RasterGrid(data, (0, 0, 1, -1), np.zeros((4, 4), bool), ("b",), {"z": 2, "a": 1})
        save_raster(g, tmp_path / "x1.grid")
        save_raster(g, tmp_path / "x2.grid")
        assert (tmp_path / "x1.grid").read_bytes() == (tmp_path / "x2.grid").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.grid"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_raster(path)

    def test_truncated_payload(self, tmp_path, make_grid):
        path = tmp_path / "t.grid"
        save_raster(make_grid(np.ones((4, 4))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataError):
            load_raster(path)

    def test_bytes_after_payload(self, tmp_path, make_grid):
        path = tmp_path / "t.grid"
        save_raster(make_grid(np.ones((4, 4))), path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(DataError, match="bytes after"):
            load_raster(path)

    def test_numeric_nodata_masks_every_band(self, tmp_path, rng):
        data = rng.normal(size=(2, 3, 4)).astype(np.float32)
        data[0, 1, 2] = data[0, 2, 0] = -9999.0
        header = {
            "width": 4, "height": 3, "bands": 2, "band_names": ["a", "b"],
            "geotransform": [0, 0, 1, -1], "nodata": -9999, "meta": {},
        }
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "n.grid"
        path.write_bytes(
            b"APMG" + np.uint32(len(blob)).tobytes() + blob + data.astype("<f4").tobytes()
        )
        g = load_raster(path)
        mask = np.zeros((3, 4), bool)
        mask[1, 2] = mask[2, 0] = True
        assert np.array_equal(g.nodata_mask, mask)
        assert np.isnan(g.data[:, mask]).all()
        assert np.array_equal(g.data[:, ~mask], data[:, ~mask])

    def test_payload_read_into_one_array(self, tmp_path, rng):
        data = rng.normal(size=(5, 128, 96)).astype(np.float32)
        path = tmp_path / "big.grid"
        save_raster(RasterGrid.from_array(data), path)
        tracemalloc.start()
        try:
            got = load_raster(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.data, data)
        assert got.data.dtype == np.float32 and not got.data.flags.writeable
        # One payload-sized array plus the one-byte finite flags; a second
        # copy of the payload would reach 2x.
        assert peak < 1.5 * data.nbytes

    def test_masked_payload_read_into_one_array(self, tmp_path, rng):
        data = rng.normal(size=(5, 128, 96)).astype(np.float32)
        mask = np.zeros((128, 96), bool)
        mask[40:70, 10:30] = True
        path = tmp_path / "holed.grid"
        save_raster(RasterGrid.from_array(data, nodata_mask=mask), path)
        tracemalloc.start()
        try:
            got = load_raster(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.nodata_mask, mask)
        assert np.isnan(got.data[:, mask]).all()
        assert np.array_equal(got.data[:, ~mask], data[:, ~mask])
        # The masked samples are NaN on disk, so the payload is not copied.
        assert peak < 1.5 * data.nbytes

    def test_save_writes_the_payload_without_a_copy(self, tmp_path, rng):
        grid = RasterGrid.from_array(rng.normal(size=(5, 128, 96)).astype(np.float32))
        tracemalloc.start()
        try:
            save_raster(grid, tmp_path / "big.grid")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * grid.data.nbytes
        assert np.array_equal(load_raster(tmp_path / "big.grid").data, grid.data)


class _PayloadFails:
    """Array-like whose conversion raises, after the header is written."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("device full")


class TestAtomicWrite:
    @pytest.mark.parametrize("previous", [None, b"old bytes"])
    def test_raise_mid_write_keeps_target(self, tmp_path, previous):
        path = tmp_path / "a.bin"
        if previous is not None:
            path.write_bytes(previous)
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write(b"partial")
                raise RuntimeError("serialisation failed")
        assert (path.read_bytes() if path.exists() else None) == previous
        assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else ["a.bin"])

    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_save_raster_leaves_no_partial_grid(self, tmp_path, make_grid, previous):
        path = tmp_path / "g.grid"
        good = make_grid(np.arange(12.0).reshape(3, 4))
        if previous:
            save_raster(good, path)
        before = path.read_bytes() if previous else None
        names = ("width", "height", "bands", "band_names", "geotransform", "meta")
        broken = SimpleNamespace(**{n: getattr(good, n) for n in names}, data=_PayloadFails())
        with pytest.raises(OSError, match="device full"):
            save_raster(broken, path)
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["g.grid"] if previous else [])
        if previous:
            assert np.array_equal(load_raster(path).data, good.data)

    def test_missing_directory_names_the_target(self, tmp_path, make_grid):
        path = tmp_path / "missing" / "g.grid"
        with pytest.raises(FileNotFoundError) as err:
            save_raster(make_grid(np.zeros((2, 2))), path)
        assert err.value.filename == str(path)
        assert str(path) in str(err.value) and ".tmp" not in str(err.value)

    def test_failed_rename_names_the_target(self, tmp_path):
        (tmp_path / "a.bin").mkdir()
        with pytest.raises(IsADirectoryError) as err:
            with atomic_write(tmp_path / "a.bin") as fh:
                fh.write(b"bytes")
        assert ".tmp" not in str(err.value) and str(tmp_path / "a.bin") in str(err.value)
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_directory_target_moves_no_file(self, tmp_path):
        # The first target's rename would succeed; the directory is refused
        # before it, so neither file appears and no temp is left.
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError) as err:
            with commit_outputs() as outputs:
                outputs.temp(tmp_path / "first.bin").write_bytes(b"first")
                outputs.temp(tmp_path / "d").write_bytes(b"second")
        assert err.value.filename == str(tmp_path / "d")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d"]

    def test_rewrite_replaces_bytes(self, tmp_path, make_grid):
        path = tmp_path / "g.grid"
        save_raster(make_grid(np.zeros((2, 2))), path)
        save_raster(make_grid(np.ones((2, 2))), path)
        assert np.all(load_raster(path).data == 1.0)
        assert [p.name for p in tmp_path.iterdir()] == ["g.grid"]


class TestRowBands:
    """Every banded pass is sized by ``row_bands``: its bands cover the
    rows once, in order, each a multiple of ``rows`` rows and as many as
    ``BAND`` values allow, with one group of ``rows`` rows the least."""

    @staticmethod
    def assert_bands(h, w, rows):
        bands = row_bands(h, w, rows)
        assert bands.step > 0 and bands.step % rows == 0
        assert all(start % rows == 0 for start in bands)
        covered = [r for start in bands for r in range(start, min(start + bands.step, h))]
        assert covered == list(range(h))
        if rows * w <= grid.BAND:
            assert bands.step * w <= grid.BAND < (bands.step + rows) * w
        else:
            assert bands.step == rows

    @pytest.mark.parametrize(
        "h,w,rows", [(0, 5, 1), (1, 1, 1), (384, 384, 1), (192, 197, 2), (3, 1 << 16, 4),
                     (1 << 20, 1, 1), (9, 8193, 1)],
    )
    def test_shipped_band(self, h, w, rows):
        assert grid.BAND == 1 << 15
        self.assert_bands(h, w, rows)

    def test_property_over_frame_rows_and_band(self, monkeypatch):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=300, deadline=None)
        @given(
            h=st.integers(0, 300), w=st.integers(1, 200), rows=st.integers(1, 8),
            band=st.integers(1, 3000),
        )
        def check(h, w, rows, band):
            monkeypatch.setattr(grid, "BAND", band)
            self.assert_bands(h, w, rows)

        check()


class TestFillHoles:
    def test_fills_from_neighbours(self):
        values = np.array([[1.0, 0.0, 3.0], [1.0, 0.0, 3.0]])
        holes = np.zeros((2, 3), bool)
        holes[:, 1] = True
        filled = fill_holes(values, holes)
        assert np.allclose(filled[:, 1], 2.0)
        assert np.array_equal(filled[:, 0], values[:, 0])

    def test_all_masked_raises(self):
        with pytest.raises(EmptyInputError):
            fill_holes(np.zeros((2, 2)), np.ones((2, 2), bool))


def full_frame_fill(values, hole_mask):
    """The fill loop as it ran before the bounding box: every pass over the
    whole frame."""
    filled = np.asarray(values, dtype=np.float64).copy()
    filled[hole_mask] = 0.0
    hole = hole_mask.copy()
    while hole.any():
        valid = (~hole).astype(np.float64)
        vals = np.where(hole, 0.0, filled)
        sums = np.zeros_like(filled)
        counts = np.zeros_like(filled)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                src_r = slice(max(0, dr), filled.shape[0] + min(0, dr))
                src_c = slice(max(0, dc), filled.shape[1] + min(0, dc))
                dst_r = slice(max(0, -dr), filled.shape[0] - max(0, dr))
                dst_c = slice(max(0, -dc), filled.shape[1] - max(0, dc))
                sums[dst_r, dst_c] += vals[src_r, src_c]
                counts[dst_r, dst_c] += valid[src_r, src_c]
        ready = hole & (counts > 0)
        if not ready.any():
            break
        filled[ready] = sums[ready] / counts[ready]
        hole[ready] = False
    return filled


class TestFillHolesEqualsFullFrame:
    """Passes confined to the unfilled cells' box give the full-frame
    loop's array bit for bit, valid cells included."""

    def _check(self, values, mask):
        got = fill_holes(values, mask)
        assert np.array_equal(got, full_frame_fill(values, mask))

    @pytest.mark.parametrize(
        "box",
        [
            (slice(0, 4), slice(5, 11)),  # top edge
            (slice(13, 18), slice(2, 9)),  # bottom edge
            (slice(6, 12), slice(0, 3)),  # left edge
            (slice(3, 9), slice(15, 19)),  # right edge
            (slice(0, 5), slice(0, 6)),  # a corner
            (slice(0, 18), slice(7, 10)),  # top to bottom
        ],
    )
    def test_hole_touching_an_edge(self, rng, box):
        mask = np.zeros((18, 19), dtype=bool)
        mask[box] = True
        self._check(rng.normal(size=(18, 19)), mask)

    def test_one_pixel_hole(self, rng):
        for r, c in ((0, 0), (7, 9), (11, 3), (0, 6)):
            mask = np.zeros((12, 10), dtype=bool)
            mask[r, c] = True
            self._check(rng.normal(size=(12, 10)), mask)

    def test_disjoint_holes_of_different_sizes(self, rng):
        mask = np.zeros((30, 28), dtype=bool)
        mask[2:4, 3:5] = True
        mask[10:22, 8:20] = True
        mask[25, 26] = True
        mask[5:8, 22:27] = True
        self._check(rng.normal(size=(30, 28)), mask)

    def test_all_masked_but_one_pixel(self, rng):
        for r, c in ((0, 0), (8, 5), (15, 12), (4, 12)):
            mask = np.ones((16, 13), dtype=bool)
            mask[r, c] = False
            self._check(rng.normal(size=(16, 13)), mask)

    def test_random_masks(self, rng):
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(1, 20, size=2))
            mask = rng.random((h, w)) < rng.uniform(0, 0.95)
            mask.flat[rng.integers(0, h * w)] = False
            self._check(rng.normal(size=(h, w)), mask)


class TestValidationScratch:
    @pytest.mark.parametrize("bands", [1, 5])
    def test_checks_hold_one_flag_byte_per_sample(self, rng, bands):
        # The NaN-under-the-mask and finiteness checks share one bool frame;
        # a gather of the masked samples would add four bytes per sample.
        data = rng.normal(size=(bands, 96, 80)).astype(np.float32)
        mask = rng.random((96, 80)) < 0.6
        data[:, mask] = np.nan
        tracemalloc.start()
        try:
            g = RasterGrid(data, (0.0, 0.0, 1.0, -1.0), mask, tuple(f"b{i}" for i in range(bands)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(g.data, data)
        assert peak < 0.3 * data.nbytes + 4096
