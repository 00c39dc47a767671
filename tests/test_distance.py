"""Exact Euclidean distance transform and target distance maps."""

import json

import numpy as np
import pytest

from apmkit.errors import DataError, EmptyInputError
from apmkit.raster.distance import (
    _lower_envelope_rows,
    distance_map,
    distance_to_mask,
    load_targets,
    rasterize_lines,
    rasterize_points,
)


def brute_force_distance(target, dx, dy):
    """O(N * M) scan over every (pixel, target) pair."""
    rows, cols = np.nonzero(target)
    h, w = target.shape
    out = np.empty((h, w))
    for r in range(h):
        for c in range(w):
            dr = (rows - r) * dy
            dc = (cols - c) * dx
            out[r, c] = np.sqrt((dr * dr + dc * dc).min())
    return out


def reference_envelope_1d(f, spacing):
    """The per-row lower envelope that ``distance_to_mask`` used to loop over."""
    n = f.size
    out = np.full(n, np.inf)
    v = np.zeros(n, dtype=np.intp)
    z = np.zeros(n + 1)
    k = -1
    s = 0.0
    for i in range(n):
        fi = f[i]
        if not np.isfinite(fi):
            continue
        q = i * spacing
        while k >= 0:
            p = v[k] * spacing
            s = ((fi + q * q) - (f[v[k]] + p * p)) / (2.0 * q - 2.0 * p)
            if s <= z[k]:
                k -= 1
            else:
                break
        k += 1
        v[k] = i
        z[k] = -np.inf if k == 0 else s
        z[k + 1] = np.inf
    if k < 0:
        return out
    j = 0
    for i in range(n):
        x = i * spacing
        while z[j + 1] < x:
            j += 1
        p = v[j] * spacing
        out[i] = (x - p) ** 2 + f[v[j]]
    return out


def reference_distance(target, pixel_size_x, pixel_size_y):
    """The column sweep plus one envelope call per row, as before."""
    height, _ = target.shape
    dx = float(pixel_size_x)
    dy = abs(float(pixel_size_y))
    steps = np.where(target, 0.0, np.inf)
    for r in range(1, height):
        steps[r] = np.minimum(steps[r], steps[r - 1] + 1.0)
    for r in range(height - 2, -1, -1):
        steps[r] = np.minimum(steps[r], steps[r + 1] + 1.0)
    sq = np.where(np.isfinite(steps), (steps * dy) ** 2, np.inf)
    out = np.empty(target.shape, dtype=np.float64)
    for r in range(height):
        out[r] = reference_envelope_1d(sq[r], dx)
    return np.sqrt(out)


def _seeded_mask(shape, density, seed):
    target = np.random.default_rng(seed).random(shape) < density
    if not target.any():
        target[shape[0] // 2, shape[1] // 2] = True
    return target


def _sparse_rows_and_columns():
    target = np.zeros((24, 31), bool)
    target[3, 5] = target[3, 20] = target[17, 5] = True
    return target


EQUALITY_CASES = {
    "density-0.0005": (_seeded_mask((120, 150), 0.0005, 1), 1.0, 1.0),
    "density-0.01": (_seeded_mask((64, 80), 0.01, 2), 1.0, 1.0),
    "density-0.05": (_seeded_mask((64, 80), 0.05, 3), 1.0, 1.0),
    "anisotropic": (_seeded_mask((40, 45), 0.02, 4), 3.0, -7.5),
    "empty-rows-and-columns": (_sparse_rows_and_columns(), 2.0, 2.0),
    "one-row": (_seeded_mask((1, 57), 0.05, 5), 1.0, 1.0),
    "one-column": (_seeded_mask((57, 1), 0.05, 6), 1.0, 1.0),
    "one-pixel": (np.ones((1, 1), bool), 1.0, 1.0),
    "all-targets": (np.ones((9, 13), bool), 3.0, -7.5),
    "ragged-37x53": (_seeded_mask((37, 53), 0.03, 7), 10.0, -10.0),
}


class TestEqualsPerRowEnvelope:
    """The all-rows envelope returns the per-row loop's floats bit for bit."""

    @pytest.mark.parametrize("case", sorted(EQUALITY_CASES))
    def test_bit_identical(self, case):
        target, dx, dy = EQUALITY_CASES[case]
        got = distance_to_mask(target, dx, dy)
        assert np.array_equal(got, reference_distance(target, dx, dy))

    def test_rows_with_gaps_and_no_finite_entry(self):
        # Any non-empty mask leaves every row finite somewhere, so call the
        # envelope directly to reach rows that are all inf.
        rng = np.random.default_rng(9)
        f = np.round(rng.uniform(0.0, 40.0, size=(30, 41)))
        f[rng.random(f.shape) < 0.6] = np.inf
        f[[0, 11, 29]] = np.inf
        got = _lower_envelope_rows(f, 2.0)
        want = np.stack([reference_envelope_1d(row, 2.0) for row in f])
        assert np.isinf(got[[0, 11, 29]]).all()
        assert np.array_equal(got, want)

    def test_inexact_spacing_within_one_ulp(self):
        # numpy scalar ``** 2`` calls libm ``pow``, which may round a square
        # that is not exactly representable one ulp away from ``x * x``; the
        # array form squares. Only such spacings can differ, by <= 1 ulp.
        target = _seeded_mask((60, 70), 0.01, 8)
        got = distance_to_mask(target, 0.3, 0.7)
        np.testing.assert_array_max_ulp(got, reference_distance(target, 0.3, 0.7), 1)


class TestDistanceToMask:
    def test_single_target_pythagoras(self):
        target = np.zeros((10, 12), bool)
        target[0, 0] = True
        d = distance_to_mask(target, 1.0, 1.0)
        assert d[0, 0] == 0.0
        assert d[6, 8] == pytest.approx(10.0)
        assert d[3, 4] == pytest.approx(5.0)

    def test_all_targets_all_zero(self):
        d = distance_to_mask(np.ones((5, 7), bool), 2.0, 3.0)
        assert np.all(d == 0.0)

    def test_matches_brute_force_random(self, rng):
        for _ in range(20):
            h, w = rng.integers(2, 30, size=2)
            target = rng.uniform(size=(h, w)) < 0.1
            if not target.any():
                target[0, 0] = True
            d = distance_to_mask(target, 1.0, 1.0)
            assert np.allclose(d, brute_force_distance(target, 1.0, 1.0), atol=1e-6)

    def test_matches_brute_force_anisotropic(self, rng):
        target = rng.uniform(size=(17, 23)) < 0.05
        target[4, 9] = True
        d = distance_to_mask(target, 30.0, -10.0)
        assert np.allclose(d, brute_force_distance(target, 30.0, 10.0), atol=1e-6)

    def test_empty_target_raises(self):
        with pytest.raises(EmptyInputError):
            distance_to_mask(np.zeros((4, 4), bool), 1.0, 1.0)


class TestTargetGeometry:
    def test_points_mark_containing_pixels(self, make_grid):
        g = make_grid(np.zeros((4, 5)), geotransform=(0.0, 0.0, 10.0, -10.0))
        mask = rasterize_points(g, [(5.0, -5.0), (49.9, -39.9), (500.0, -5.0)])
        assert mask[0, 0] and mask[3, 4]
        assert mask.sum() == 2  # the far point is off-grid and ignored

    def test_lines_traverse_pixels(self, make_grid):
        g = make_grid(np.zeros((5, 5)))
        mask = rasterize_lines(g, [[(0.5, -0.5), (4.5, -4.5)]])
        # The main diagonal must be fully traversed.
        assert all(mask[i, i] for i in range(5))

    def test_line_needs_two_vertices(self, make_grid):
        g = make_grid(np.zeros((3, 3)))
        with pytest.raises(DataError):
            rasterize_lines(g, [[(1.0, -1.0)]])

    def test_load_targets(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"points": [[1, 2]], "lines": [[[0, 0], [3, 3]]]}))
        points, lines = load_targets(path)
        assert points == [(1.0, 2.0)]
        assert lines == [[(0.0, 0.0), (3.0, 3.0)]]


class TestDistanceMap:
    def test_two_targets_pointwise_minimum(self, make_grid):
        g = make_grid(np.zeros((12, 12)))
        a = distance_map(g, points=[(2.5, -2.5)]).band(0)
        b = distance_map(g, points=[(9.5, -8.5)]).band(0)
        both = distance_map(g, points=[(2.5, -2.5), (9.5, -8.5)]).band(0)
        assert np.allclose(both, np.minimum(a, b), atol=1e-6)

    def test_zero_on_targets_and_band_name(self, make_grid):
        g = make_grid(np.zeros((6, 6)))
        d = distance_map(g, points=[(3.5, -2.5)], band_name="dist_roads")
        assert d.band_names == ("dist_roads",)
        assert d.band(0)[2, 3] == 0.0

    def test_no_inside_targets_raises(self, make_grid):
        g = make_grid(np.zeros((4, 4)))
        with pytest.raises(EmptyInputError):
            distance_map(g, points=[(100.0, 100.0)])
        with pytest.raises(EmptyInputError):
            distance_map(g)

    def test_mask_carried_from_grid(self, make_grid):
        mask = np.zeros((4, 4), bool)
        mask[1, 1] = True
        g = make_grid(np.zeros((4, 4)), mask=mask)
        d = distance_map(g, points=[(0.5, -0.5)])
        assert np.isnan(d.band(0)[1, 1])
        assert d.nodata_mask[1, 1]
