"""Sliding-window tiling and stitching.

A plan is a list of equal-size windows covering the grid; overlapping
windows let per-tile predictions be blended back into a seamless surface.
Each window carries a crop margin: at stitch time only its retained
center region contributes, except that windows touching the grid border
keep their context pixels on that side, so the retained regions of a
planned pass cover the full frame. A stitched pixel is the mean of its
retained contributions, or nodata where none covers it or one is NaN.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from ..config import build_config, read_json
from ..errors import ConfigError, DataError, DimensionError
from .grid import RasterGrid, write_json


@dataclass(frozen=True)
class TileWindow:
    """A square window: top-left corner, size, and stitch crop margin."""

    row0: int
    col0: int
    size: int
    crop_margin: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise DataError(f"window size must be >= 1, got {self.size}")
        if self.row0 < 0 or self.col0 < 0:
            raise DataError(f"window corner ({self.row0}, {self.col0}) negative")
        if not 0 <= self.crop_margin < (self.size + 1) // 2:
            raise DataError(
                f"crop_margin {self.crop_margin} must satisfy 0 <= m < size/2"
            )

    def rows(self) -> slice:
        return slice(self.row0, self.row0 + self.size)

    def cols(self) -> slice:
        return slice(self.col0, self.col0 + self.size)

    def retained(self, height: int, width: int) -> tuple[slice, slice]:
        """Window-relative slices kept at stitch time.

        The margin is dropped on interior sides; sides flush with the grid
        border keep their pixels so border areas stay covered.
        """
        top = 0 if self.row0 == 0 else self.crop_margin
        bottom = 0 if self.row0 + self.size == height else self.crop_margin
        left = 0 if self.col0 == 0 else self.crop_margin
        right = 0 if self.col0 + self.size == width else self.crop_margin
        return slice(top, self.size - bottom), slice(left, self.size - right)


def _axis_positions(extent: int, tile: int, stride: int) -> list[int]:
    positions = list(range(0, extent - tile + 1, stride))
    if positions[-1] != extent - tile:
        positions.append(extent - tile)  # clamp the last window inward
    return positions


def check_plan(tile_size: int, overlap_fraction: float) -> None:
    """Raise ConfigError for an overlap outside [0, 1) or a tile below 1."""
    if not 0.0 <= overlap_fraction < 1.0:
        raise ConfigError(f"overlap_fraction must be in [0, 1), got {overlap_fraction}")
    if tile_size < 1:
        raise ConfigError(f"tile_size must be >= 1, got {tile_size}")


def plan_windows(
    height: int, width: int, tile_size: int, overlap_fraction: float
) -> list[TileWindow]:
    """Plan a full-coverage sliding-window pass over an ``(H, W)`` frame.

    The stride is ``max(1, round(tile_size * (1 - overlap_fraction)))``;
    boundary windows are clamped inward so every window is full size.
    Each window's crop margin is ``(tile_size - stride) // 2``, so the
    retained center regions still cover every pixel; with a stride of at
    least 1 it stays below half the tile.

    Windows are ordered row-major by corner.
    """
    check_plan(tile_size, overlap_fraction)
    if tile_size > height or tile_size > width:
        raise DimensionError(
            f"tile_size {tile_size} exceeds grid extent {height}x{width}"
        )
    stride = max(1, int(round(tile_size * (1.0 - overlap_fraction))))
    crop_margin = (tile_size - stride) // 2
    rows = _axis_positions(height, tile_size, stride)
    cols = _axis_positions(width, tile_size, stride)
    return [
        TileWindow(r, c, tile_size, crop_margin) for r in rows for c in cols
    ]


def extract_window(values: np.ndarray, window: TileWindow) -> np.ndarray:
    """View of ``values`` (``(H, W)`` or ``(B, H, W)``) under ``window``."""
    return values[..., window.rows(), window.cols()]


def stitch(
    predictions: Sequence[np.ndarray],
    plan: Sequence[TileWindow],
    shape: tuple[int, int],
    geotransform: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
    band_names: tuple[str, ...] | None = None,
    meta: dict | None = None,
) -> RasterGrid:
    """Blend per-window predictions into one raster.

    Each output pixel is the mean of the retained-center contributions
    covering it; sums and counts are accumulated in float64 and divided
    once, so the result does not depend on window order. A pixel that no
    retained region covers (possible only with hand-built plans) is 0 / 0,
    and a NaN contribution (a masked prediction pixel) keeps its sum NaN:
    either way the pixel is nodata in every band.

    Args:
        predictions: One array per window, ``(size, size)`` or
            ``(bands, size, size)``, in plan order.
        plan: The windows, as produced by :func:`plan_windows`.
        shape: Output ``(height, width)``.

    Returns:
        Stitched RasterGrid (float32), masked where any band is NaN.
    """
    height, width = int(shape[0]), int(shape[1])
    if len(predictions) != len(plan):
        raise DataError(
            f"{len(predictions)} predictions for {len(plan)} planned windows"
        )
    if not plan:
        raise DataError("empty tile plan")
    first = np.asarray(predictions[0])
    nbands = 1 if first.ndim == 2 else first.shape[0]
    acc = np.zeros((nbands, height, width), dtype=np.float64)
    count = np.zeros((height, width), dtype=np.float64)
    for window, pred in zip(plan, predictions):
        arr = np.asarray(pred, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.shape != (nbands, window.size, window.size):
            raise DataError(
                f"prediction shape {arr.shape} does not match window size "
                f"{window.size} with {nbands} bands"
            )
        if window.row0 + window.size > height or window.col0 + window.size > width:
            raise DataError(f"window {window} overruns the {height}x{width} frame")
        rel_r, rel_c = window.retained(height, width)
        abs_r = slice(window.row0 + rel_r.start, window.row0 + rel_r.stop)
        abs_c = slice(window.col0 + rel_c.start, window.col0 + rel_c.stop)
        acc[:, abs_r, abs_c] += arr[:, rel_r, rel_c]
        count[abs_r, abs_c] += 1.0
    with np.errstate(invalid="ignore"):
        acc /= count
    nodata_mask = np.isnan(acc).any(axis=0)
    if band_names is None:
        band_names = tuple(f"band_{i + 1}" for i in range(nbands))
    return RasterGrid(acc.astype(np.float32), geotransform, nodata_mask, band_names, meta or {})


def save_plan(
    path,
    plan: Sequence[TileWindow],
    shape: tuple[int, int],
    geotransform: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> None:
    """Write a window plan, with its frame shape and geotransform, as JSON,
    atomically."""
    doc = _Plan(int(shape[0]), int(shape[1]), tuple(float(v) for v in geotransform), list(plan))
    write_json(path, asdict(doc))


@dataclass(frozen=True)
class _Plan:
    """A plan file, as :func:`save_plan` writes it."""

    height: int
    width: int
    geotransform: tuple[float, float, float, float]
    windows: list[TileWindow]


def load_plan(path) -> tuple[list[TileWindow], tuple[int, int], tuple[float, float, float, float]]:
    """Read a plan written by :func:`save_plan`.

    Returns:
        (windows, (height, width), geotransform).
    """
    plan = build_config(_Plan, read_json(path, DataError), f"{path} plan", error=DataError)
    return plan.windows, (plan.height, plan.width), plan.geotransform
