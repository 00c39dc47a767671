"""Exact Euclidean distance transforms and distance-to-feature maps.

Distances are measured in map units between pixel centers, with
anisotropic pixel sizes supported. The transform is the classic two-pass
lower-envelope scheme (Felzenszwalb & Huttenlocher, "Distance Transforms
of Sampled Functions", Theory of Computing 2012): an index sweep along
columns followed by a parabolic envelope along rows, which is exact (no
chamfer approximation).

The envelope runs over all rows at once, in two walks over per-row state:
the apex columns ``v`` (int32) and the breakpoints ``z`` (float64), each
one flat array with slot ``j`` of row ``r`` at ``r * width + j``: 12 bytes
per pixel on top of the input and output.

- The build walk goes column by column. Three vectors hold each row's top
  parabola (``f[v] + p * p``, ``2 * p`` and its left breakpoint), so the
  first pop test for every row is contiguous arithmetic; only the rows
  that pop go on to read deeper slots, through flat indices.
- The evaluation walk has no column loop. The parabola row ``r`` uses at
  column ``i`` is the number of its breakpoints strictly below ``x_i``:
  one ``searchsorted`` of the breakpoints against the column positions
  and a per-row cumulative count. It runs over the row bands of
  :func:`~apmkit.raster.grid.row_bands`, about ``grid.BAND`` pixels each,
  so its temporaries stay near 1 MB whatever the frame.

Every row gets the same float64 formulas, in the same order, as it would
on its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ..config import build_config, read_json
from ..errors import DataError, EmptyInputError
from .grid import RasterGrid, row_bands


def _lower_envelope_rows(f: np.ndarray, spacing: float) -> np.ndarray:
    """Squared-distance transform of every row of ``f`` at once.

    Returns ``min_j (spacing*(i - j))**2 + f[r, j]`` for every ``(r, i)``.
    Entries with ``f[r, j] = inf`` contribute no parabola; a row with no
    finite entry stays ``inf``. Each row keeps its own envelope in
    ``k`` (index of its last parabola), ``v`` (parabola apexes) and ``z``
    (breakpoints); ``v`` and ``z`` are flat, slot ``j`` of row ``r`` at
    ``r * width + j``.
    """
    height, width = f.shape
    f_flat = f.reshape(-1)
    row0 = np.arange(height) * width
    row1 = row0 + 1
    k = np.full(height, -1)
    v = np.empty(height * width, dtype=np.int32)
    z = np.empty(height * width)
    # The top parabola of each row's stack: f[v] + p * p, 2 * p and its
    # left breakpoint. An empty stack never pops: its breakpoint is -inf,
    # and its apex sits left of column 0, so the test divides by a
    # positive number.
    top_g = np.zeros(height)
    top_2p = np.full(height, -2.0)
    top_z = np.full(height, -np.inf)
    for i in range(width):
        fi = f[:, i]
        finite = np.isfinite(fi)
        if not finite.any():
            continue
        q = i * spacing
        two_q = 2.0 * q
        # A row with no parabola at this column gets g = inf, so s = inf:
        # it never pops.
        g = fi + q * q
        s = (g - top_g) / (two_q - top_2p)
        pop = np.flatnonzero(s <= top_z)
        # The popping rows drop their top and test the slot under it.
        kp = k[pop] - 1
        while True:
            k[pop] = kp
            live = kp >= 0
            pop = pop[live]
            if pop.size == 0:
                break
            kp = kp[live]
            base = row0[pop]
            at = base + kp
            vk = v[at]
            p = vk * spacing
            sp = (g[pop] - (f_flat[base + vk] + p * p)) / (two_q - 2.0 * p)
            s[pop] = sp
            keep = sp <= z[at]
            pop = pop[keep]
            kp = kp[keep] - 1
        # Every row writes the slot above its top (k < i, so the slot is in
        # its own row), but only a row with a parabola here moves its top
        # up to it: the other rows' writes are never read.
        s[k < 0] = -np.inf  # a first parabola's breakpoint
        at = row1 + k
        v[at] = i
        z[at] = s
        k += finite
        np.copyto(top_g, g, where=finite)
        np.copyto(top_2p, two_q, where=finite)
        np.copyto(top_z, s, where=finite)
    # Row r uses parabola j at column i, where j counts the breakpoints
    # z[r, 1..k] strictly below x_i: breakpoint z counts from column
    # searchsorted(xs, z, "right") on. The live rows go in row bands to
    # bound the temporaries.
    out = np.full((height, width), np.inf)
    xs = np.arange(width) * spacing
    slots = np.arange(1, width)
    live = np.flatnonzero(k >= 0)
    bands = row_bands(live.size, width)
    for start in bands:
        rows = live[start : start + bands.step]
        kr = k[rows]
        base = row0[rows, None]
        held = (base + slots)[slots <= kr[:, None]]
        first = np.searchsorted(xs, z[held], side="right")
        del held
        first += np.repeat(np.arange(0, rows.size * (width + 1), width + 1), kr)
        j = np.bincount(first, minlength=rows.size * (width + 1))
        del first
        j = j.reshape(rows.size, width + 1)[:, :width].cumsum(axis=1)
        # (x - p) ** 2 + f[r, v_j], in place: j turns into the flat index
        # of the slot, then of the apex pixel.
        j += base
        vj = v[j]
        d = vj * spacing
        np.subtract(xs, d, out=d)
        np.square(d, out=d)
        np.add(vj, base, out=j)
        del vj
        d += f_flat[j]
        out[rows] = d
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
    ox, oy, px, py = grid.geotransform
    step = 0.5 * min(px, abs(py))
    for line in lines:
        if len(line) < 2:
            raise DataError("polyline needs at least two vertices")
        for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
            length = math.hypot(x1 - x0, y1 - y0)
            n = max(1, int(math.ceil(length / step)))
            ts = np.linspace(0.0, 1.0, n + 1)
            # The samples' pixels, by the float expression of pixel_of.
            cols = np.floor((x0 + ts * (x1 - x0) - ox) / px)
            rows = np.floor((y0 + ts * (y1 - y0) - oy) / py)
            inside = (rows >= 0) & (rows < grid.height) & (cols >= 0) & (cols < grid.width)
            mask[rows[inside].astype(np.intp), cols[inside].astype(np.intp)] = True
    return mask


@dataclass(frozen=True)
class _Targets:
    """A targets file: points and polylines, in map units."""

    points: list[tuple[float, float]] = field(default_factory=list)
    lines: list[list[tuple[float, float]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if any(len(line) < 2 for line in self.lines):
            raise DataError("polyline needs at least two vertices")


def load_targets(path: str | os.PathLike) -> tuple[list, list]:
    """Load a JSON targets file: ``{"points": [[x, y], ...], "lines": [...]}``.

    A file of any other shape, or a coordinate that is not a finite
    number, raises DataError.
    """
    targets = build_config(_Targets, read_json(path, DataError), f"{path} targets", error=DataError)
    return targets.points, targets.lines


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
