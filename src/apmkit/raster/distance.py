"""Exact Euclidean distance transforms and distance-to-feature maps.

Distances are measured in map units between pixel centers, with
anisotropic pixel sizes supported. The transform is the classic two-pass
lower-envelope scheme (Felzenszwalb & Huttenlocher, "Distance Transforms
of Sampled Functions", Theory of Computing 2012): an index sweep along
columns followed by a parabolic envelope along rows, which is exact (no
chamfer approximation).

The envelope runs over all rows at once. It walks the columns twice,
keeping per-row state: the apex columns ``v`` (int32, H x W) and the
breakpoints ``z`` (float64, H x (W + 1)), about 12 bytes per pixel on top
of the input and output. Each column step touches only the rows that
still need to pop a parabola (first walk) or advance to the next one
(second walk); every row gets the same float64 formulas it would get
on its own.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ..config import read_json
from ..errors import DataError, EmptyInputError
from .grid import RasterGrid


def _lower_envelope_rows(f: np.ndarray, spacing: float) -> np.ndarray:
    """Squared-distance transform of every row of ``f`` at once.

    Returns ``min_j (spacing*(i - j))**2 + f[r, j]`` for every ``(r, i)``.
    Entries with ``f[r, j] = inf`` contribute no parabola; a row with no
    finite entry stays ``inf``. Each row keeps its own envelope in
    ``k`` (index of its last parabola), ``v`` (parabola apexes) and ``z``
    (breakpoints); the column walks update only the rows that still need
    to pop or advance.
    """
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


def distance_to_mask(
    target: np.ndarray, pixel_size_x: float, pixel_size_y: float
) -> np.ndarray:
    """Exact Euclidean distance (map units) from each pixel center to the
    nearest True pixel center in ``target``.

    Args:
        target: Boolean (H, W) array of target pixels; must contain >= 1.
        pixel_size_x: Column spacing in map units (> 0).
        pixel_size_y: Row spacing in map units (sign ignored).

    Returns:
        Float64 (H, W) distances; zero on target pixels.
    """
    target = np.asarray(target, dtype=bool)
    if target.ndim != 2:
        raise DataError(f"target mask must be 2-D, got shape {target.shape}")
    if not target.any():
        raise EmptyInputError("empty target set: no pixels to measure distance to")
    height, width = target.shape
    dx = float(pixel_size_x)
    dy = abs(float(pixel_size_y))
    # Pass 1: per-column nearest target measured in row steps.
    steps = np.where(target, 0.0, np.inf)
    for r in range(1, height):
        steps[r] = np.minimum(steps[r], steps[r - 1] + 1.0)
    for r in range(height - 2, -1, -1):
        steps[r] = np.minimum(steps[r], steps[r + 1] + 1.0)
    sq = np.where(np.isfinite(steps), (steps * dy) ** 2, np.inf)
    # Pass 2: parabolic envelope along every row at once.
    return np.sqrt(_lower_envelope_rows(sq, dx))


# --- target geometry ---------------------------------------------------------


def rasterize_points(grid: RasterGrid, points: list[tuple[float, float]]) -> np.ndarray:
    """Mark the pixel containing each point; points outside are ignored."""
    mask = np.zeros(grid.shape, dtype=bool)
    for x, y in points:
        row, col = grid.pixel_of(float(x), float(y))
        if 0 <= row < grid.height and 0 <= col < grid.width:
            mask[row, col] = True
    return mask


def rasterize_lines(
    grid: RasterGrid, lines: list[list[tuple[float, float]]]
) -> np.ndarray:
    """Mark pixels traversed by polylines, by dense sampling along segments."""
    mask = np.zeros(grid.shape, dtype=bool)
    _, _, px, py = grid.geotransform
    step = 0.5 * min(px, abs(py))
    for line in lines:
        if len(line) < 2:
            raise DataError("polyline needs at least two vertices")
        for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
            length = math.hypot(x1 - x0, y1 - y0)
            n = max(1, int(math.ceil(length / step)))
            ts = np.linspace(0.0, 1.0, n + 1)
            xs = x0 + ts * (x1 - x0)
            ys = y0 + ts * (y1 - y0)
            for x, y in zip(xs, ys):
                row, col = grid.pixel_of(float(x), float(y))
                if 0 <= row < grid.height and 0 <= col < grid.width:
                    mask[row, col] = True
    return mask


def load_targets(path: str | os.PathLike) -> tuple[list, list]:
    """Load a JSON targets file: ``{"points": [[x, y], ...], "lines": [...]}``.

    A file of any other shape raises DataError.
    """
    doc = read_json(path, DataError)
    if not isinstance(doc, dict):
        raise DataError(f"{path}: targets file must hold a JSON object")
    try:
        points = [(float(x), float(y)) for x, y in doc.get("points", [])]
        lines = [[(float(x), float(y)) for x, y in ln] for ln in doc.get("lines", [])]
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed targets: {exc}") from exc
    return points, lines


def distance_map(
    grid: RasterGrid,
    points: list[tuple[float, float]] | None = None,
    lines: list[list[tuple[float, float]]] | None = None,
    band_name: str = "distance",
) -> RasterGrid:
    """Distance surface (map units) to the nearest of the given targets.

    Targets are rasterized onto the grid first: points mark their
    containing pixel, polylines every pixel they traverse. Distance is then
    the exact center-to-center Euclidean distance to the nearest marked
    pixel; marked pixels read zero.

    Raises:
        EmptyInputError: when no target falls inside the grid.
    """
    target = np.zeros(grid.shape, dtype=bool)
    if points:
        target |= rasterize_points(grid, points)
    if lines:
        target |= rasterize_lines(grid, lines)
    if not target.any():
        raise EmptyInputError("no distance targets fall inside the grid")
    _, _, px, py = grid.geotransform
    dist = distance_to_mask(target, px, py)
    return RasterGrid.from_array(
        dist.astype(np.float32),
        grid.geotransform,
        grid.nodata_mask,
        (band_name,),
        {"targets": int(target.sum())},
    )
