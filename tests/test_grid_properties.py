"""Property tests: the raster container round-trips what it is given."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from apmkit.raster.grid import RasterGrid, load_raster, save_raster

hypothesis = pytest.importorskip("hypothesis")
hnp = pytest.importorskip("hypothesis.extra.numpy")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_finite = st.floats(allow_nan=False, allow_infinity=False)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def raster_grids(draw):
    """Ragged frames of 1-3 bands; masks from none to every pixel."""
    bands = draw(st.integers(1, 3))
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 11))
    data = draw(hnp.arrays(np.float32, (bands, height, width), elements=st.floats(width=32)))
    mask = draw(
        st.sampled_from([np.zeros((height, width), bool), np.ones((height, width), bool)])
        | hnp.arrays(np.bool_, (height, width))
    )
    # Values are finite wherever the mask leaves them.
    data = np.where(np.isfinite(data) | mask, data, np.float32(0.0))
    pixel_x = draw(st.floats(1e-6, 1e6))
    pixel_y = draw(st.floats(1e-6, 1e6)) * draw(st.sampled_from([-1.0, 1.0]))
    geotransform = (draw(_finite), draw(_finite), pixel_x, pixel_y)
    names = tuple(draw(st.lists(st.text(max_size=8), min_size=bands, max_size=bands)))
    meta = draw(st.dictionaries(st.text(max_size=6), _json_values, max_size=4))
    return RasterGrid(data, geotransform, mask, names, meta)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(raster_grids())
    def test_save_load_round_trips(self, grid):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.grid"
            save_raster(grid, path)
            back = load_raster(path)
        assert back.data.tobytes() == grid.data.tobytes()
        assert np.array_equal(back.nodata_mask, grid.nodata_mask)
        assert back.band_names == grid.band_names
        assert back.geotransform == grid.geotransform
        assert back.meta == grid.meta
