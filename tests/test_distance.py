"""Exact Euclidean distance transform and target distance maps."""

import json
from math import inf

import numpy as np
import pytest

from apmkit.errors import DataError, EmptyInputError
from apmkit.raster import grid
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


def column_walk_envelope(f, spacing):
    """The all-rows envelope that walked every column twice with 2-D indexing."""
    height, width = f.shape
    k = np.full(height, -1, dtype=np.int32)
    v = np.zeros((height, width), dtype=np.int32)
    z = np.zeros((height, width + 1))
    s = np.zeros(height)
    for i in range(width):
        fi = f[:, i]
        rows = np.flatnonzero(np.isfinite(fi))
        if rows.size == 0:
            continue
        q = i * spacing
        pop = rows[k[rows] >= 0]
        while pop.size:
            kp = k[pop]
            vk = v[pop, kp]
            p = vk * spacing
            sp = ((fi[pop] + q * q) - (f[pop, vk] + p * p)) / (2.0 * q - 2.0 * p)
            s[pop] = sp
            pop = pop[sp <= z[pop, kp]]
            k[pop] -= 1
            pop = pop[k[pop] >= 0]
        kr = k[rows] + 1
        k[rows] = kr
        v[rows, kr] = i
        z[rows, kr] = np.where(kr == 0, -np.inf, s[rows])
        z[rows, kr + 1] = np.inf
    out = np.full((height, width), np.inf)
    live = np.flatnonzero(k >= 0)
    j = np.zeros(height, dtype=np.int32)
    for i in range(width):
        x = i * spacing
        step = live
        while step.size:
            step = step[z[step, j[step] + 1] < x]
            j[step] += 1
        vj = v[live, j[live]]
        p = vj * spacing
        out[live, i] = (x - p) ** 2 + f[live, vj]
    return out


def column_walk_distance(target, dx, dy):
    """``distance_to_mask`` with the column-walk envelope."""
    height, _ = target.shape
    steps = np.where(target, 0.0, np.inf)
    for r in range(1, height):
        steps[r] = np.minimum(steps[r], steps[r - 1] + 1.0)
    for r in range(height - 2, -1, -1):
        steps[r] = np.minimum(steps[r], steps[r + 1] + 1.0)
    sq = np.where(np.isfinite(steps), (steps * abs(dy)) ** 2, np.inf)
    return np.sqrt(column_walk_envelope(sq, dx))


def _gappy_rows(shape, density, seed, scale=40.0):
    """Rounded values (so ties occur) with inf gaps at the given density."""
    rng = np.random.default_rng(seed)
    f = np.round(rng.uniform(0.0, scale, size=shape))
    f[rng.random(shape) < density] = np.inf
    return f


def _edges_and_ties():
    # Leading and trailing all-inf columns, an all-inf row, and rows whose
    # values mirror about the middle so parabolas tie.
    f = np.full((9, 21), np.inf)
    half = np.array([5.0, 1.0, 4.0, 4.0, 0.0, 9.0, 2.0])
    f[:, 3:10] = half
    f[:, 11:18] = half[::-1]
    f[2] = np.inf
    f[4, 10] = 1.0
    f[6, 3:18] = 7.0
    return f


# Rows of 2 m x + c - x**2 at spacing 0.7 (x = 0.7 * column), whose
# breakpoints all fall at x = m, so the pop tests meet s == z exactly; one
# gap or more keeps some pairs apart. Found by a seeded search for rows on
# which a strict pop test changes the result.
_BREAKPOINT_TIES = np.array([
    [18.0, 22.41, inf, 28.29, inf, inf, 29.759999999999998, inf, 25.84,
     22.410000000000004, 18.0],
    [13.0, 21.330000000000002, 28.679999999999996, inf, 40.44, 44.85,
     48.279999999999994, 50.730000000000004, 52.19999999999999, inf, inf],
    [17.0, 21.41, inf, 27.29, inf, 29.25, 28.759999999999998, inf, inf, inf, inf],
    [8.0, 17.31, 25.639999999999997, 32.989999999999995, 39.36, 44.75,
     49.15999999999999, 52.59, 55.03999999999999, 56.510000000000005, 57.0],
])


ENVELOPE_CASES = {
    "wide-7x300": (_gappy_rows((7, 300), 0.5, 11), 1.0),
    "tall-300x7": (_gappy_rows((300, 7), 0.3, 12), 1.0),
    "one-row": (_gappy_rows((1, 64), 0.4, 13), 2.0),
    "one-column": (_gappy_rows((64, 1), 0.4, 14), 2.0),
    "one-pixel": (np.array([[3.0]]), 1.0),
    "one-inf-pixel": (np.array([[np.inf]]), 1.0),
    "gaps-and-empty-rows": (_gappy_rows((30, 41), 0.95, 15), 2.0),
    "edges-and-ties": (_edges_and_ties(), 1.0),
    "spacing-0.3": (_gappy_rows((20, 37), 0.5, 16, scale=3.0), 0.3),
    "spacing-0.7": (_gappy_rows((20, 37), 0.2, 17, scale=3.0), 0.7),
    "breakpoint-ties": (_BREAKPOINT_TIES, 0.7),
}


class TestEnvelopeMatchesColumnWalk:
    """The flat-index envelope returns the column walk's floats bit for bit."""

    @pytest.mark.parametrize("case", sorted(ENVELOPE_CASES))
    def test_envelope_bit_identical(self, case):
        f, spacing = ENVELOPE_CASES[case]
        got = _lower_envelope_rows(f, spacing)
        assert np.array_equal(got, column_walk_envelope(f, spacing))

    def test_all_inf_rows_stay_inf(self):
        f = _gappy_rows((12, 17), 0.5, 18)
        f[[0, 5, 11]] = np.inf
        assert np.isinf(_lower_envelope_rows(f, 1.0)[[0, 5, 11]]).all()

    @pytest.mark.parametrize("case", sorted(EQUALITY_CASES))
    def test_distance_bit_identical(self, case):
        target, dx, dy = EQUALITY_CASES[case]
        got = distance_to_mask(target, dx, dy)
        assert np.array_equal(got, column_walk_distance(target, dx, dy))

    @pytest.mark.parametrize("spacings", [(0.3, 0.7), (0.7, 0.3)])
    def test_distance_inexact_spacing_bit_identical(self, spacings):
        target = _seeded_mask((60, 70), 0.01, 8)
        got = distance_to_mask(target, *spacings)
        assert np.array_equal(got, column_walk_distance(target, *spacings))

    @pytest.mark.parametrize("height", [2, 3, 4, 6, 7])
    def test_row_blocks(self, monkeypatch, height):
        # A block of 3 rows at width 20: heights cross a block boundary
        # by one row and fill blocks exactly.
        monkeypatch.setattr(grid, "BAND", 64)
        f = _gappy_rows((height, 20), 0.3, 19 + height)
        f[height // 2] = np.inf
        assert np.array_equal(_lower_envelope_rows(f, 1.5), column_walk_envelope(f, 1.5))

    def test_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(grid, "BAND", 16)
        f = _gappy_rows((5, 20), 0.3, 30)
        assert np.array_equal(_lower_envelope_rows(f, 1.0), column_walk_envelope(f, 1.0))

    def test_property_over_shape_density_and_spacing(self, monkeypatch):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        # Small blocks, so that drawn frames span several of them.
        monkeypatch.setattr(grid, "BAND", 96)

        @settings(max_examples=150, deadline=None)
        @given(
            height=st.integers(1, 9),
            width=st.integers(1, 60),
            density=st.floats(0.0, 1.0),
            spacing=st.sampled_from([0.3, 0.7, 1.0, 10.0]) | st.floats(0.01, 100.0),
            rounded=st.booleans(),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(height, width, density, spacing, rounded, seed):
            rng = np.random.default_rng(seed)
            f = rng.uniform(0.0, 50.0, size=(height, width))
            if rounded:
                f = np.round(f)
            f[rng.random(f.shape) < density] = np.inf
            got = _lower_envelope_rows(f, spacing)
            assert np.array_equal(got, column_walk_envelope(f, spacing))

        check()

    def test_row_block_boundary_at_shipped_size(self):
        # 4 * 8193 is just over the shipped band of 2^15 pixels, so the
        # 4th row opens a second band.
        width = grid.BAND // 4 + 1
        assert grid.BAND // width == 3
        f = np.full((4, width), np.inf)
        rng = np.random.default_rng(31)
        for r in range(4):
            cols = rng.choice(width, size=40, replace=False)
            f[r, cols] = np.round(rng.uniform(0.0, 1e4, size=40))
        assert np.array_equal(_lower_envelope_rows(f, 10.0), column_walk_envelope(f, 10.0))


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

    def test_lines_match_per_sample_pixels(self, make_grid, rng):
        # Each sample's pixel is pixel_of's, segments leaving the frame
        # included.
        for gt in [(0.0, 0.0, 1.0, -1.0), (100.0, 200.0, 10.0, -7.5), (-3.0, 5.0, 0.3, 0.3)]:
            g = make_grid(np.zeros((9, 12)), geotransform=gt)
            ox, oy, px, py = gt
            lines = [
                [(ox + u * 12 * px, oy + v * 9 * py) for u, v in rng.uniform(-0.6, 1.6, (4, 2))]
                for _ in range(6)
            ]
            lines.append([(ox - 5 * px, oy + 4.5 * py), (ox + 20 * px, oy + 4.5 * py)])
            lines.append([(ox - 5 * px, oy - 5 * py), (ox - 1 * px, oy - 20 * py)])
            want = np.zeros(g.shape, dtype=bool)
            step = 0.5 * min(px, abs(py))
            for line in lines:
                for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
                    n = max(1, int(np.ceil(np.hypot(x1 - x0, y1 - y0) / step)))
                    ts = np.linspace(0.0, 1.0, n + 1)
                    for x, y in zip(x0 + ts * (x1 - x0), y0 + ts * (y1 - y0)):
                        row, col = g.pixel_of(float(x), float(y))
                        if 0 <= row < g.height and 0 <= col < g.width:
                            want[row, col] = True
            assert want.any() and not want.all()
            assert np.array_equal(rasterize_lines(g, lines), want)

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
