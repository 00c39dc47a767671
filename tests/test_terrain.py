"""Terrain derivatives: Horn slope/aspect, D8 accumulation, drainage proximity."""

import numpy as np
import pytest

from apmkit.errors import DimensionError, EmptyInputError
from apmkit.raster.terrain import (
    FLAT_ASPECT,
    d8_flow_targets,
    derive_terrain,
    flow_accumulation,
    horn_gradients,
    slope_aspect,
    stream_mask,
)


def horn_oracle(z, px, py):
    """Independent pixel-by-pixel Horn stencil with edge replication."""
    h, w = z.shape
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            def at(rr, cc):
                return z[min(max(rr, 0), h - 1), min(max(cc, 0), w - 1)]
            dzdc = (
                (at(r - 1, c + 1) + 2 * at(r, c + 1) + at(r + 1, c + 1))
                - (at(r - 1, c - 1) + 2 * at(r, c - 1) + at(r + 1, c - 1))
            ) / 8.0
            dzdr = (
                (at(r + 1, c - 1) + 2 * at(r + 1, c) + at(r + 1, c + 1))
                - (at(r - 1, c - 1) + 2 * at(r - 1, c) + at(r - 1, c + 1))
            ) / 8.0
            gx[r, c] = dzdc / px
            gy[r, c] = dzdr / py
    return gx, gy


class TestHorn:
    def test_matches_stencil_oracle_on_random_5x5(self, rng):
        z = rng.normal(size=(5, 5))
        gx, gy = horn_gradients(z, 2.0, -3.0)
        ox, oy = horn_oracle(z, 2.0, -3.0)
        assert np.allclose(gx, ox, atol=1e-12)
        assert np.allclose(gy, oy, atol=1e-12)

    def test_plane_z_eq_x_gives_45_degrees(self):
        # Unit pixels, elevation equal to the column coordinate. Edge
        # replication halves the boundary gradient, so check interior.
        z = np.tile(np.arange(5.0), (5, 1))
        slope, aspect = slope_aspect(z, 1.0, -1.0)
        assert np.allclose(slope[1:-1, 1:-1], 45.0)
        # Downhill due west, boundary included.
        assert np.allclose(aspect, 270.0)

    def test_constant_dem_flat(self):
        slope, aspect = slope_aspect(np.full((4, 6), 7.0), 1.0, -1.0)
        assert np.all(slope == 0.0)
        assert np.all(aspect == FLAT_ASPECT)

    def test_cardinal_aspects(self):
        # North-up frame: row 0 is the northern edge.
        north_high = np.arange(5.0)[:, None] * np.ones((1, 5))  # z grows southward
        _, aspect = slope_aspect(north_high, 1.0, -1.0)
        assert np.allclose(aspect, 0.0)  # downhill north
        west_high = np.ones((5, 1)) * np.arange(5.0, 0.0, -1.0)[None, :]
        _, aspect = slope_aspect(west_high, 1.0, -1.0)
        assert np.allclose(aspect, 90.0)  # downhill east

    def test_slope_range_and_aspect_range(self, rng):
        z = rng.normal(size=(12, 9)) * 50
        slope, aspect = slope_aspect(z, 1.0, -1.0)
        assert (slope >= 0.0).all() and (slope <= 90.0).all()
        sloped = aspect != FLAT_ASPECT
        assert (aspect[sloped] >= 0.0).all() and (aspect[sloped] < 360.0).all()


class TestD8:
    def test_targets_point_to_steepest_drop(self):
        z = np.array(
            [
                [9.0, 9.0, 9.0],
                [9.0, 5.0, 9.0],
                [9.0, 9.0, 1.0],
            ]
        )
        valid = np.ones((3, 3), bool)
        target = d8_flow_targets(z, valid, 1.0, -1.0)
        # Center flows to the diagonal low corner (flat index 8).
        assert target[1, 1] == 8
        # The pit has no lower neighbour.
        assert target[2, 2] == -1

    def test_diagonal_distance_weighting(self):
        # Diagonal neighbour is lower by 1.4, axis neighbour by 1.0:
        # the axis drop 1.0 beats the diagonal 1.4/sqrt(2) ~ 0.99.
        z = np.array(
            [
                [5.0, 5.0, 5.0],
                [5.0, 5.0, 4.0],
                [5.0, 5.0, 3.6],
            ]
        )
        target = d8_flow_targets(z, np.ones((3, 3), bool), 1.0, -1.0)
        assert target[1, 1] == 1 * 3 + 2  # axis east neighbour

    def test_accumulation_against_path_oracle(self, rng):
        z = rng.normal(size=(7, 6)).astype(np.float64)
        valid = np.ones((7, 6), bool)
        acc = flow_accumulation(z, valid, 1.0, -1.0)
        target = d8_flow_targets(z, valid, 1.0, -1.0).ravel()
        # Oracle: walk every cell's flow path and count visits.
        oracle = np.zeros(z.size)
        for start in range(z.size):
            node = start
            seen = set()
            while node >= 0 and node not in seen:
                oracle[node] += 1
                seen.add(node)
                node = int(target[node])
        assert np.array_equal(acc.ravel(), oracle)
        assert acc.sum() >= z.size  # every cell counts itself at least

    def test_stream_mask_threshold_and_fallback(self):
        # Monotone ramp drains west along each row; accumulation grows
        # toward the low column.
        z = np.tile(np.arange(10.0), (10, 1))
        valid = np.ones((10, 10), bool)
        acc = flow_accumulation(z, valid, 1.0, -1.0)
        # Row-wise westward chains: accumulation 10 - c in every row.
        assert np.array_equal(acc, np.tile(np.arange(10.0, 0.0, -1.0), (10, 1)))
        streams = stream_mask(z, valid, 1.0, -1.0, threshold_fraction=0.05)
        assert np.array_equal(streams, acc >= 5.0)
        # A threshold above every accumulation value triggers the
        # max-accumulation fallback instead of an empty mask.
        high = stream_mask(z, valid, 1.0, -1.0, threshold_fraction=0.3)
        assert np.array_equal(high, acc == 10.0)
        # Constant DEM: nothing flows, every accumulation is 1; the
        # fallback keeps the mask non-empty.
        flat = stream_mask(np.zeros((5, 5)), np.ones((5, 5), bool), 1.0, -1.0, 2.0)
        assert flat.all()


class TestDeriveTerrain:
    def test_bands_and_mask(self, make_grid, rng):
        mask = np.zeros((6, 6), bool)
        mask[0, 0] = True
        dem = make_grid(rng.normal(size=(6, 6)) * 10, mask=mask)
        t = derive_terrain(dem)
        assert t.band_names == ("slope", "aspect", "hydro_proximity")
        assert t.same_frame(dem)
        assert np.isnan(t.band(0)[0, 0])
        assert np.isfinite(t.data[:, ~mask]).all()

    def test_constant_dem(self, make_grid):
        t = derive_terrain(make_grid(np.full((5, 5), 3.0)))
        assert np.all(t.band(0) == 0.0)
        assert np.all(t.band(1) == FLAT_ASPECT)

    def test_hydro_proximity_three_four_five(self, make_grid):
        # Bowl draining to the corner: the stream collapses to (0, 0)
        # under a threshold higher than any interior accumulation.
        z = np.fromfunction(lambda r, c: r + c, (8, 8))
        dem = make_grid(z)
        t = derive_terrain(dem, stream_threshold=0.99)
        assert t.band(2)[0, 0] == 0.0
        assert t.band(2)[3, 4] == pytest.approx(5.0)

    def test_too_small_and_all_masked(self, make_grid):
        with pytest.raises(DimensionError):
            derive_terrain(make_grid(np.zeros((2, 5))))
        with pytest.raises(EmptyInputError):
            derive_terrain(make_grid(np.zeros((4, 4)), mask=np.ones((4, 4), bool)))

    def test_multiband_rejected(self, make_grid):
        with pytest.raises(DimensionError):
            derive_terrain(make_grid(np.zeros((2, 4, 4))))


def offset_loop_targets(values, valid, pixel_size_x, pixel_size_y):
    """The per-offset loop ``d8_flow_targets`` ran before the int8 direction
    code: a full-frame drop and neighbour array for each of the 8 offsets."""
    offsets = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    height, width = values.shape
    dx = float(pixel_size_x)
    dy = abs(float(pixel_size_y))
    best_drop = np.zeros((height, width), dtype=np.float64)
    target = np.full((height, width), -1, dtype=np.int64)
    flat_index = np.arange(height)[:, None] * width + np.arange(width)[None, :]
    z = np.where(valid, values, np.inf)
    for dr, dc in offsets:
        dist = np.hypot(dr * dy, dc * dx)
        src_r = slice(max(0, dr), height + min(0, dr))
        src_c = slice(max(0, dc), width + min(0, dc))
        dst_r = slice(max(0, -dr), height - max(0, dr))
        dst_c = slice(max(0, -dc), width - max(0, dc))
        drop = np.full((height, width), -np.inf)
        with np.errstate(invalid="ignore"):
            drop[dst_r, dst_c] = (z[dst_r, dst_c] - z[src_r, src_c]) / dist
        nbr = np.full((height, width), -1, dtype=np.int64)
        nbr[dst_r, dst_c] = flat_index[src_r, src_c]
        better = valid & (drop > best_drop) & (drop > 0.0)
        best_drop[better] = drop[better]
        target[better] = nbr[better]
    return target


def descending_loop_accumulation(values, valid, pixel_size_x, pixel_size_y):
    """The per-cell loop ``flow_accumulation`` ran before the frontier waves:
    every cell, highest first, adds its count to its target's."""
    target = offset_loop_targets(values, valid, pixel_size_x, pixel_size_y).ravel()
    acc = np.where(valid, 1.0, 0.0).ravel()
    z = np.where(valid, values, -np.inf).ravel()
    for idx in np.argsort(-z, kind="stable"):
        if target[idx] >= 0:
            acc[target[idx]] += acc[idx]
    return acc.reshape(values.shape)


def _hole(shape, rows, cols):
    valid = np.ones(shape, bool)
    valid[rows, cols] = False
    return valid


def _named_cases():
    rng = np.random.default_rng(2017)
    field = rng.normal(size=(12, 15)).cumsum(axis=0).cumsum(axis=1)
    shape = field.shape
    bowl = np.fromfunction(lambda r, c: (r - 5.0) ** 2 + (c - 7.0) ** 2, shape)
    pits = bowl.copy()
    pits[2, 3] = pits[8, 11] = -50.0  # two local sinks besides the bowl's
    cases = {
        "hole_top_edge": (field, _hole(shape, slice(0, 3), slice(4, 9))),
        "hole_bottom_edge": (field, _hole(shape, slice(9, 12), slice(2, 6))),
        "hole_left_edge": (field, _hole(shape, slice(3, 8), slice(0, 2))),
        "hole_right_edge": (field, _hole(shape, slice(4, 10), slice(12, 15))),
        "hole_corner": (field, _hole(shape, slice(8, 12), slice(11, 15))),
        "one_pixel_hole": (field, _hole(shape, 6, 7)),
        "pits": (pits, np.ones(shape, bool)),
        "integer_flats": (np.round(field / 3.0), np.ones(shape, bool)),
        "integer_flats_float32": (
            np.round(field / 3.0).astype(np.float32), _hole(shape, 5, slice(0, 15))
        ),
        "constant": (np.full(shape, 7.0), np.ones(shape, bool)),
        # In float32, 1e7 - 0.25 rounds to 1e7: the north and south drops
        # tie, so the difference must be taken in the DEM's precision.
        "float32_rounded_tie": (
            np.array([[1e7, 0.25, 1e7], [1e7, 1e7, 1e7], [1e7, 0.0, 1e7]], np.float32),
            np.ones((3, 3), bool),
        ),
        "one_valid_pixel": (field, ~_hole(shape, 4, 9)),
        "row_1xN": (field[:1], np.ones((1, 15), bool)),
        "column_Nx1": (field[:, :1], _hole((12, 1), 5, 0)),
    }
    return cases


NAMED_CASES = _named_cases()
PIXEL_SIZES = [(1.0, -1.0), (2.0, -0.5), (30.0, 30.0), (-1.5, -4.0)]


class TestFrontierMatchesLoops:
    """``d8_flow_targets`` and ``flow_accumulation`` equal the loops they
    replaced bit for bit."""

    @pytest.mark.parametrize("px,py", PIXEL_SIZES)
    @pytest.mark.parametrize("name", sorted(NAMED_CASES))
    def test_named_frames(self, name, px, py):
        z, valid = NAMED_CASES[name]
        got = d8_flow_targets(z, valid, px, py)
        want = offset_loop_targets(z, valid, px, py)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        got = flow_accumulation(z, valid, px, py)
        want = descending_loop_accumulation(z, valid, px, py)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(48))
    def test_random_frames(self, seed):
        rng = np.random.default_rng(seed)
        height, width = (int(n) for n in rng.integers(1, 24, size=2))
        z = rng.normal(size=(height, width)) * 5.0
        if seed % 3 == 1:
            z = np.round(z)  # ties and flats
        elif seed % 3 == 2:
            z = z.astype(np.float32)
        valid = rng.random((height, width)) < rng.choice([0.1, 0.6, 0.9, 1.0])
        px = float(rng.choice([1.0, 2.5, -0.75]))
        py = float(rng.choice([-1.0, 4.0, -0.3]))
        assert np.array_equal(
            d8_flow_targets(z, valid, px, py), offset_loop_targets(z, valid, px, py)
        )
        assert np.array_equal(
            flow_accumulation(z, valid, px, py),
            descending_loop_accumulation(z, valid, px, py),
        )
