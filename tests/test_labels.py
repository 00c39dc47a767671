"""Label rasterization: site disks to {1, 0, nodata}."""

import logging
import math

import numpy as np
import pytest

from apmkit.errors import ConfigError
from apmkit.raster.labels import rasterize_labels
from apmkit.raster.sites import SiteRecord


def site(sid, x, y, polarity):
    return SiteRecord(sid, x, y, "Roman Imperial", polarity)


def test_tiny_radius_labels_containing_pixels_only(make_grid):
    g = make_grid(np.zeros((6, 6)))
    labels = rasterize_labels(g, [site("p", 2.3, -3.8, "positive")], radius=0.1)
    vals = labels.band(0)
    assert vals[3, 2] == 1.0
    assert (~labels.nodata_mask).sum() == 1


def test_radius_two_disk_is_13_pixels(make_grid):
    g = make_grid(np.zeros((9, 9)))
    labels = rasterize_labels(g, [site("p", 4.5, -4.5, "positive")], radius=2.0)
    assert int((labels.band(0) == 1.0).sum()) == 13


def test_positive_precedence_in_overlap(make_grid):
    g = make_grid(np.zeros((8, 8)))
    sites = [site("p", 3.5, -3.5, "positive"), site("n", 4.5, -3.5, "negative")]
    labels = rasterize_labels(g, sites, radius=1.5)
    vals = labels.band(0)
    # The two disks share pixels; every shared pixel must read 1.
    assert vals[3, 3] == 1.0 and vals[3, 4] == 1.0
    assert (vals[~labels.nodata_mask] == 0.0).any()  # pure-negative pixels remain


def test_monotone_in_radius(make_grid, rng):
    g = make_grid(np.zeros((20, 20)))
    sites = [
        site("p1", 4.2, -5.7, "positive"),
        site("n1", 14.9, -11.1, "negative"),
        site("p2", 9.0, -15.5, "positive"),
    ]
    small = rasterize_labels(g, sites, radius=2.0)
    large = rasterize_labels(g, sites, radius=4.5)
    labeled_small = ~small.nodata_mask
    labeled_large = ~large.nodata_mask
    assert (labeled_small <= labeled_large).all()


def test_unlabeled_polarity_ignored(make_grid):
    g = make_grid(np.zeros((5, 5)))
    labels = rasterize_labels(g, [site("u", 2.5, -2.5, "unlabeled")], radius=2.0)
    assert labels.nodata_mask.all()


def test_outside_site_warns_and_skips(make_grid, caplog):
    g = make_grid(np.zeros((5, 5)))
    with caplog.at_level(logging.WARNING):
        labels = rasterize_labels(g, [site("far", 99.0, 99.0, "positive")], radius=2.0)
    assert labels.nodata_mask.all()
    assert any("far" in rec.message for rec in caplog.records)


def test_negative_radius_rejected(make_grid):
    g = make_grid(np.zeros((4, 4)))
    with pytest.raises(ConfigError):
        rasterize_labels(g, [], radius=-1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_non_finite_radius_rejected(make_grid, radius):
    g = make_grid(np.zeros((4, 4)))
    with pytest.raises(ConfigError, match="finite"):
        rasterize_labels(g, [], radius=radius)


def test_grid_mask_wins_over_labels(make_grid):
    mask = np.zeros((5, 5), bool)
    mask[2, 2] = True
    g = make_grid(np.zeros((5, 5)), mask=mask)
    labels = rasterize_labels(g, [site("p", 2.5, -2.5, "positive")], radius=1.0)
    assert labels.nodata_mask[2, 2]
    assert np.isnan(labels.band(0)[2, 2])


def test_meta_records_radius(make_grid):
    g = make_grid(np.zeros((4, 4)))
    labels = rasterize_labels(g, [site("p", 1.5, -1.5, "positive")], radius=1.0)
    assert labels.meta["label_radius"] == 1.0
    assert labels.band_names == ("labels",)


def test_matches_per_pixel_oracle(make_grid, rng):
    # Overlapping disks of both polarities on a masked frame, against a loop
    # over pixel centres; the raster is float32 1 / 0 / NaN.
    mask = rng.random((24, 30)) < 0.2
    g = make_grid(np.zeros((24, 30)), mask=mask)
    polarities = ("positive", "negative", "unlabeled")
    sites = [
        site(f"s{i}", float(rng.uniform(0, 30)), -float(rng.uniform(0, 24)), polarities[i % 3])
        for i in range(18)
    ]
    radius = 3.3
    labels = rasterize_labels(g, sites, radius=radius)
    want = np.full((24, 30), np.nan, dtype=np.float32)
    for r in range(24):
        for c in range(30):
            if mask[r, c]:
                continue
            near = {
                s.polarity for s in sites
                if (c + 0.5 - s.x) ** 2 + (-(r + 0.5) - s.y) ** 2 <= radius * radius
                or (math.floor(s.x) == c and math.floor(-s.y) == r)
            }
            if "positive" in near:
                want[r, c] = 1.0
            elif "negative" in near:
                want[r, c] = 0.0
    assert labels.data[0].tobytes() == want.tobytes()
    assert np.array_equal(labels.nodata_mask, np.isnan(want))
