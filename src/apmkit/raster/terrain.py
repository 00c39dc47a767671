"""Terrain derivatives from a digital elevation model.

``derive_terrain`` turns a single-band DEM into three feature bands:

* slope in degrees, from the Horn 3x3 stencil;
* aspect as a compass bearing of steepest descent (0 = north, clockwise,
  in [0, 360)), with flat cells set to the sentinel -1;
* proximity to the drainage network in map units, where the network is
  the set of cells whose D8 flow accumulation reaches a fraction of the
  grid's cell count.

D8 flow directions and accumulation are array code: the directions come
from one pass per neighbour offset, and accumulation doubles pointers
down the flow paths, about log2(longest path) whole-frame passes.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError, EmptyInputError
from .distance import distance_to_mask
from .grid import RasterGrid, fill_holes

FLAT_ASPECT = -1.0

# D8 neighbour offsets, fixed order for deterministic tie-breaks.
_D8_OFFSETS = (
    (-1, -1), (-1, 0), (-1, 1),
    (0, -1), (0, 1),
    (1, -1), (1, 0), (1, 1),
)


def horn_gradients(
    values: np.ndarray, pixel_size_x: float, pixel_size_y: float
) -> tuple[np.ndarray, np.ndarray]:
    """Map-frame elevation gradients (dz/dx, dz/dy) via the Horn stencil.

    Boundary cells use edge replication. ``pixel_size_y`` is signed; the
    returned dz/dy is with respect to the +y (northing) axis either way.
    """
    z = np.pad(np.asarray(values, dtype=np.float64), 1, mode="edge")
    dz_dcol = (
        (z[:-2, 2:] + 2.0 * z[1:-1, 2:] + z[2:, 2:])
        - (z[:-2, :-2] + 2.0 * z[1:-1, :-2] + z[2:, :-2])
    ) / 8.0
    dz_drow = (
        (z[2:, :-2] + 2.0 * z[2:, 1:-1] + z[2:, 2:])
        - (z[:-2, :-2] + 2.0 * z[:-2, 1:-1] + z[:-2, 2:])
    ) / 8.0
    gx = dz_dcol / float(pixel_size_x)
    gy = dz_drow / float(pixel_size_y)
    return gx, gy


def slope_aspect(
    values: np.ndarray, pixel_size_x: float, pixel_size_y: float
) -> tuple[np.ndarray, np.ndarray]:
    """Slope (degrees, [0, 90]) and downslope aspect (degrees, [0, 360)).

    Flat cells (zero gradient) get aspect ``FLAT_ASPECT``.
    """
    gx, gy = horn_gradients(values, pixel_size_x, pixel_size_y)
    slope = np.degrees(np.arctan(np.hypot(gx, gy)))
    aspect = np.degrees(np.arctan2(-gx, -gy)) % 360.0
    flat = (gx == 0.0) & (gy == 0.0)
    aspect[flat] = FLAT_ASPECT
    return slope, aspect


def _d8_codes(
    values: np.ndarray, valid: np.ndarray, dx: float, dy: float
) -> np.ndarray:
    """``int8`` index into ``_D8_OFFSETS`` of each cell's steepest strictly
    lower valid neighbour, or -1 where there is none.

    Each offset's drop is computed over the overlapping slices only, into
    one reused buffer. Only a strictly larger drop replaces the best so
    far, and the offsets run in ``_D8_OFFSETS`` order, so ties go to the
    earlier offset.
    """
    height, width = values.shape
    z = np.where(valid, values, np.inf)
    # Masked cells start at +inf so no drop beats it; valid ones at 0 so
    # only strictly positive drops win.
    best_drop = np.where(valid, 0.0, np.inf)
    code = np.full((height, width), -1, dtype=np.int8)
    drop_buf = np.empty(height * width, dtype=np.float64)
    keep_buf = np.empty(height * width, dtype=bool)
    for k, (dr, dc) in enumerate(_D8_OFFSETS):
        dist = np.hypot(dr * dy, dc * dx)
        src_r = slice(max(0, dr), height + min(0, dr))
        src_c = slice(max(0, dc), width + min(0, dc))
        dst_r = slice(max(0, -dr), height - max(0, dr))
        dst_c = slice(max(0, -dc), width - max(0, dc))
        shape = (height - abs(dr), width - abs(dc))
        drop = drop_buf[: shape[0] * shape[1]].reshape(shape)
        keep = keep_buf[: drop.size].reshape(shape)
        # The difference is taken in the DEM's own precision, as ``z - z``
        # would be. inf - inf between two masked cells is a NaN that never
        # wins.
        with np.errstate(invalid="ignore"):
            np.subtract(z[dst_r, dst_c], z[src_r, src_c], out=drop, dtype=z.dtype)
        np.divide(drop, dist, out=drop)
        best = best_drop[dst_r, dst_c]
        np.greater(drop, best, out=keep)
        np.logical_not(keep, out=keep)
        # fmax leaves the best drop where this one is not larger or is NaN.
        np.fmax(best, drop, out=best)
        # code = k where this drop won, else unchanged: (code - k) * keep + k,
        # which is much faster than a masked copy.
        winner = code[dst_r, dst_c]
        winner -= k
        winner *= keep
        winner += k
    return code


def d8_flow_targets(
    values: np.ndarray,
    valid: np.ndarray,
    pixel_size_x: float,
    pixel_size_y: float,
) -> np.ndarray:
    """Flat index of each cell's steepest-descent neighbour, or -1 for pits.

    Drops are elevation differences divided by center distance, so the
    diagonal direction competes fairly with the axis ones. Only strictly
    lower, valid neighbours receive flow; among equal drops the first
    offset in ``_D8_OFFSETS`` order wins.
    """
    height, width = values.shape
    code = _d8_codes(values, valid, float(pixel_size_x), abs(float(pixel_size_y)))
    deltas = np.array([dr * width + dc for dr, dc in _D8_OFFSETS], dtype=np.int64)
    # Code -1 wraps to the last delta; those cells are reset to -1 below.
    target = code.astype(np.int64)
    np.take(deltas, target, out=target, mode="wrap")
    target += np.arange(height, dtype=np.int64)[:, None] * width
    target += np.arange(width, dtype=np.int64)
    np.putmask(target, code < 0, -1)
    return target


def flow_accumulation(
    values: np.ndarray,
    valid: np.ndarray,
    pixel_size_x: float,
    pixel_size_y: float,
) -> np.ndarray:
    """D8 accumulation: number of cells (self included) draining through each.

    Pointer doubling (Wyllie, "The complexity of parallel computations",
    PhD thesis, Cornell, 1979): ``jump`` starts at each cell's D8 target,
    with pits and invalid cells pointing at one extra sink cell that
    points at itself. Each pass adds every cell's count to the cell it
    points at, then doubles every pointer, so after pass ``j`` a cell
    holds the count of every cell that reaches it in fewer than ``2**j``
    steps. The passes stop once every pointer is at the sink:
    ceil(log2(longest path + 1)) whole-frame passes. Accumulations are
    integer counts held in float64, so the order of the sums does not
    matter. Invalid cells count 0.
    """
    n = values.size
    jump = np.append(d8_flow_targets(values, valid, pixel_size_x, pixel_size_y), n)
    jump[jump < 0] = n
    acc = np.append(np.where(valid, 1.0, 0.0), 0.0)
    while (jump != n).any():
        acc += np.bincount(jump, weights=acc, minlength=n + 1)
        acc[n] = 0.0
        jump = jump[jump]
    return acc[:n].reshape(values.shape)


def stream_mask(
    values: np.ndarray,
    valid: np.ndarray,
    pixel_size_x: float,
    pixel_size_y: float,
    threshold_fraction: float = 0.01,
) -> np.ndarray:
    """Drainage cells: accumulation at or above ``threshold_fraction`` of the
    valid cell count. If the threshold exceeds every accumulation value the
    maximum-accumulation cells stand in, so the mask is never empty.
    """
    acc = flow_accumulation(values, valid, pixel_size_x, pixel_size_y)
    threshold = threshold_fraction * float(valid.sum())
    mask = valid & (acc >= threshold)
    if not mask.any():
        mask = valid & (acc == acc[valid].max())
    return mask


def derive_terrain(
    dem: RasterGrid, stream_threshold: float = 0.01
) -> RasterGrid:
    """Derive slope, aspect and drainage proximity bands from a DEM.

    Args:
        dem: Single-band elevation grid, at least 3x3, not fully masked.
        stream_threshold: Flow-accumulation fraction defining the drainage
            network.

    Returns:
        Three-band grid (``slope``, ``aspect``, ``hydro_proximity``) on the
        DEM's frame, masked where the DEM is masked.
    """
    if dem.bands != 1:
        raise DimensionError(f"terrain derivation expects 1 band, got {dem.bands}")
    if dem.height < 3 or dem.width < 3:
        raise DimensionError(
            f"DEM must be at least 3x3, got {dem.height}x{dem.width}"
        )
    mask = dem.nodata_mask
    if mask.all():
        raise EmptyInputError("DEM is fully masked")
    _, _, px, py = dem.geotransform
    valid = ~mask
    filled = fill_holes(dem.band(0), mask)
    slope, aspect = slope_aspect(filled, px, py)
    streams = stream_mask(dem.band(0), valid, px, py, stream_threshold)
    proximity = distance_to_mask(streams, px, py)
    data = np.stack([slope, aspect, proximity]).astype(np.float32)
    return RasterGrid(
        data,
        dem.geotransform,
        mask,
        ("slope", "aspect", "hydro_proximity"),
        {"stream_threshold_fraction": float(stream_threshold)},
    )
