"""Raster container and IO.

A :class:`RasterGrid` is an immutable in-memory raster: band-major,
row-major ``float32`` samples, a four-number geotransform
``(origin_x, origin_y, pixel_size_x, pixel_size_y)`` and a per-pixel
nodata mask. Masked samples are normalised to NaN so that a grid has a
single canonical byte representation.

The on-disk container is deliberately minimal and portable: a 4-byte
magic, a little-endian uint32 header length, a JSON header and a raw
little-endian float32 payload.
"""

from __future__ import annotations

import errno
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..config import ReadOnlyDict, build_config
from ..errors import DataError, DimensionError, EmptyInputError

_MAGIC = b"APMG"


@dataclass(frozen=True, eq=False)
class RasterGrid:
    """Immutable raster: float32 samples plus geotransform and nodata mask.

    Attributes:
        data: Array of shape ``(bands, height, width)``, float32. Masked
            pixels hold NaN in every band.
        geotransform: ``(origin_x, origin_y, pixel_size_x, pixel_size_y)``.
            ``origin`` is the outer corner of pixel ``(0, 0)``;
            ``pixel_size_y`` is negative for north-up rasters.
        nodata_mask: Boolean array ``(height, width)``; True marks nodata.
        band_names: One name per band.
        meta: Free-form JSON-serialisable metadata.

    ``data`` and ``nodata_mask`` are read-only views and ``meta`` a
    :class:`~apmkit.config.ReadOnlyDict`, so no write through the grid,
    a copy of it or an unpickled one can break the NaN-on-the-mask rule.
    The arrays given are viewed, not copied, and stay writable to their
    owner.
    """

    data: np.ndarray
    geotransform: tuple[float, float, float, float]
    nodata_mask: np.ndarray
    band_names: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise DimensionError(f"raster data must be 3-D, got shape {data.shape}")
        bands, height, width = data.shape
        if bands < 1 or height < 1 or width < 1:
            raise DimensionError(f"degenerate raster shape {data.shape}")
        gt = tuple(float(v) for v in self.geotransform)
        if len(gt) != 4:
            raise DataError("geotransform must have four entries")
        if not all(map(math.isfinite, gt)):
            raise DataError(f"geotransform must be finite, got {gt}")
        if gt[2] <= 0.0 or gt[3] == 0.0:
            raise DataError(f"invalid pixel sizes in geotransform {gt}")
        mask = np.ascontiguousarray(self.nodata_mask, dtype=bool)
        if mask.shape != (height, width):
            raise DimensionError(
                f"mask shape {mask.shape} does not match raster {height}x{width}"
            )
        names = tuple(str(n) for n in self.band_names)
        if len(names) != bands:
            raise DataError(f"{len(names)} band names for {bands} bands")
        # Copy only when a masked sample is not yet NaN, so the caller's
        # array is never written to and a grid read back from disk is not
        # copied again. Both checks run per sample in one reused flag
        # frame, with the mask broadcast over the bands: a gather of the
        # masked samples costs several times more.
        flags = np.empty(data.shape, dtype=bool)
        if mask.any() and not np.greater_equal(np.isnan(data, out=flags), mask, out=flags).all():
            data = data.copy()
            data[:, mask] = np.nan
        # Masked samples hold NaN, so every sample is finite exactly off the mask.
        if not np.not_equal(np.isfinite(data, out=flags), mask, out=flags).all():
            raise DataError("non-finite values outside the nodata mask")
        object.__setattr__(self, "data", _read_only(data))
        object.__setattr__(self, "geotransform", gt)
        object.__setattr__(self, "nodata_mask", _read_only(mask))
        object.__setattr__(self, "band_names", names)
        object.__setattr__(self, "meta", ReadOnlyDict(self.meta))

    def __reduce__(self):
        # Rebuilt through __post_init__, so a copy's arrays are read-only too.
        return RasterGrid, (self.data, self.geotransform, self.nodata_mask, self.band_names,
                            self.meta)

    # --- construction -------------------------------------------------

    @staticmethod
    def from_array(
        values: np.ndarray,
        geotransform: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
        nodata_mask: np.ndarray | None = None,
        band_names: tuple[str, ...] | None = None,
        meta: dict | None = None,
    ) -> "RasterGrid":
        """Build a grid from a 2-D ``(H, W)`` or 3-D ``(B, H, W)`` array."""
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.ndim != 3:
            raise DimensionError(f"expected 2-D or 3-D array, got shape {arr.shape}")
        if nodata_mask is None:
            nodata_mask = np.zeros(arr.shape[1:], dtype=bool)
        if band_names is None:
            band_names = tuple(f"band_{i + 1}" for i in range(arr.shape[0]))
        return RasterGrid(arr, geotransform, nodata_mask, band_names, meta or {})

    # --- shape and geometry -------------------------------------------

    @property
    def bands(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[1], self.data.shape[2]

    def band(self, index: int) -> np.ndarray:
        return self.data[index]

    def band_index(self, name: str) -> int:
        try:
            return self.band_names.index(name)
        except ValueError:
            raise DataError(f"no band named '{name}'") from None

    def pixel_of(self, x: float, y: float) -> tuple[int, int]:
        """Return (row, col) of the pixel containing map coordinate (x, y)."""
        ox, oy, px, py = self.geotransform
        col = math.floor((x - ox) / px)
        row = math.floor((y - oy) / py)
        return row, col

    def contains(self, x: float, y: float) -> bool:
        row, col = self.pixel_of(x, y)
        return 0 <= row < self.height and 0 <= col < self.width

    def center_xy(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map coordinates of pixel centers for index arrays."""
        ox, oy, px, py = self.geotransform
        x = ox + (np.asarray(cols, dtype=np.float64) + 0.5) * px
        y = oy + (np.asarray(rows, dtype=np.float64) + 0.5) * py
        return x, y

    def disk_box(
        self, x: float, y: float, radius: float
    ) -> tuple[tuple[slice, slice], np.ndarray]:
        """Pixels whose center lies within ``radius`` of (x, y), in map
        units, as a box of the frame and a mask within it: ``(rows, cols),
        inside``, where ``inside`` has the box's shape.

        The pixel containing (x, y) is always included when it lies inside
        the grid, so point geometries survive radii below half a pixel.
        Only the box is computed, so a disk costs its own size, not the
        frame's. The box is empty when no pixel is in the disk.
        """
        if not 0 <= radius < math.inf:
            raise DataError(f"radius must be finite and >= 0, got {radius}")
        ox, oy, px, py = self.geotransform
        # Candidate index box around the disk, then an exact center check.
        half_c = int(math.ceil(radius / px)) + 1
        half_r = int(math.ceil(radius / abs(py))) + 1
        rc = (y - oy) / py - 0.5
        cc = (x - ox) / px - 0.5
        r0 = max(0, int(math.floor(rc)) - half_r)
        r1 = min(self.height - 1, int(math.ceil(rc)) + half_r)
        c0 = max(0, int(math.floor(cc)) - half_c)
        c1 = min(self.width - 1, int(math.ceil(cc)) + half_c)
        if r0 > r1 or c0 > c1:
            return (slice(0, 0), slice(0, 0)), np.zeros((0, 0), dtype=bool)
        rows = np.arange(r0, r1 + 1)
        cols = np.arange(c0, c1 + 1)
        cx, cy = self.center_xy(rows[:, None], cols[None, :])
        inside = (cx - x) ** 2 + (cy - y) ** 2 <= radius * radius
        # The pixel containing (x, y) lies in the box whenever it is in the
        # frame: the box reaches a pixel past the disk's center either way.
        row, col = self.pixel_of(x, y)
        if 0 <= row < self.height and 0 <= col < self.width:
            inside[row - r0, col - c0] = True
        return (slice(r0, r1 + 1), slice(c0, c1 + 1)), inside

    def same_frame(self, other: "RasterGrid") -> bool:
        """True when shapes and geotransforms agree."""
        return self.shape == other.shape and self.geotransform == other.geotransform


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``, which itself stays writable."""
    view = arr.view()
    view.flags.writeable = False
    return view


# --- binary container ----------------------------------------------------


class Outputs(dict):
    """The temp path of each target of a :func:`commit_outputs` block."""

    def temp(self, path: str | os.PathLike) -> Path:
        """The temp path to write ``path`` at; the commit moves it there."""
        target = Path(path)
        self[target] = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        return self[target]


@contextmanager
def commit_outputs() -> Iterator[Outputs]:
    """Write several files that appear together or not at all.

    Each file is written at ``outputs.temp(path)``, beside its target. If
    the block exits cleanly every temp replaces its target (:func:`os.replace`,
    in write order); if it raises, or a target is an existing directory,
    every temp is removed and no target moves. A crash between two renames
    still leaves the earlier files moved and the later not. An OSError
    that names a temp is re-raised naming its target instead, the path the
    caller gave, with its class and errno kept.
    """
    outputs = Outputs()
    try:
        yield outputs
        for target in outputs:
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for target, temp in outputs.items():
            os.replace(temp, target)
    except BaseException as exc:
        for temp in outputs.values():
            temp.unlink(missing_ok=True)
        targets = {str(temp): str(target) for target, temp in outputs.items()}
        if isinstance(exc, OSError) and exc.filename in targets:
            # os.replace names the target second: naming it alone loses nothing.
            named = type(exc)(exc.errno, exc.strerror, targets[exc.filename])
            raise named.with_traceback(exc.__traceback__) from None
        raise


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Open a binary file that appears at ``path`` only once fully written,
    as a :func:`commit_outputs` block of one file: if the block raises,
    ``path`` keeps whatever it held before (or stays absent)."""
    with commit_outputs() as outputs, open(outputs.temp(path), "wb") as fh:
        yield fh


def json_bytes(doc) -> bytes:
    """The JSON artifact format: sorted keys, two-space indent, a final
    newline, UTF-8."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_json(path: str | os.PathLike, doc) -> None:
    """Write ``doc`` as :func:`json_bytes` through :func:`atomic_write`."""
    with atomic_write(path) as fh:
        fh.write(json_bytes(doc))


def save_raster(grid: RasterGrid, path: str | os.PathLike) -> None:
    """Write ``grid`` to the portable binary container, atomically.

    Layout: magic ``APMG``, uint32 little-endian header length, UTF-8 JSON
    header, then the float32 little-endian band-major payload. Masked
    pixels are stored as NaN; the header records ``"nodata": null`` to say
    exactly that.
    """
    header = _Header(grid.width, grid.height, grid.bands, grid.geotransform, grid.band_names,
                     meta=grid.meta)
    try:
        blob = json.dumps(asdict(header), sort_keys=True, allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise DataError(f"raster metadata is not JSON-serialisable: {exc}") from exc
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        fh.write(np.ascontiguousarray(grid.data, dtype="<f4"))  # the buffer, not a copy


@dataclass(frozen=True)
class _Header:
    """The JSON header of a ``.grid`` file."""

    width: int
    height: int
    bands: int
    geotransform: tuple[float, float, float, float]
    band_names: tuple[str, ...]
    nodata: float | None = None
    meta: dict = field(default_factory=dict)


def load_raster(path: str | os.PathLike) -> RasterGrid:
    """Read a grid previously written by :func:`save_raster`.

    Raises:
        DataError: on a bad magic, a truncated file, bytes after the
            payload, a header that is not a JSON object typed as
            :class:`_Header` (an unknown key included), a size below 1 or
            a band-name list of the wrong length.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise DataError(f"{path}: not a raster container (bad magic {magic!r})")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise DataError(f"{path}: truncated header")
        (hlen,) = np.frombuffer(raw_len, dtype="<u4")
        blob = fh.read(int(hlen))
        if len(blob) != int(hlen):
            raise DataError(f"{path}: truncated header")
        try:
            doc = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: corrupt header: {exc}") from exc
        header = build_config(_Header, doc, f"{path} header", error=DataError)
        bands, height, width = header.bands, header.height, header.width
        if min(bands, height, width) < 1:
            raise DataError(f"{path}: bad size {bands}x{height}x{width} in header")
        if len(header.band_names) != bands:
            raise DataError(f"{path}: band_names must list {bands} names, got {header.band_names}")
        # Sized against the file, so a corrupt size never becomes a huge read.
        count = bands * height * width
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < 4 * count:
            raise DataError(f"{path}: truncated payload")
        if left > 4 * count:
            raise DataError(f"{path}: bytes after the {bands}x{height}x{width} payload")
        data = np.empty((bands, height, width), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise DataError(f"{path}: truncated payload")
    # RasterGrid sets every band to NaN on the mask.
    nodata = header.nodata
    mask = np.isnan(data[0]) if nodata is None else data[0] == np.float32(nodata)
    return RasterGrid(data, header.geotransform, mask, header.band_names, header.meta)


# --- small array utilities -------------------------------------------------

# Most float64 values one banded numpy pass touches (256 KiB): a band with
# the few arrays read beside it fits a 2 MB L2. Only row_bands reads it.
BAND = 1 << 15


def row_bands(h: int, w: int, rows: int = 1) -> range:
    """Starts of the bands of rows of an (h, w) frame, each band
    ``row_bands(h, w, rows).step`` rows: a multiple of ``rows``, and about
    ``BAND`` values. A flat buffer of n values is ``row_bands(n, 1)``.
    Every banded pass of the package, and its scratch, is sized by it."""
    return range(0, h, rows * max(1, BAND // (rows * w)))


def fill_holes(values: np.ndarray, hole_mask: np.ndarray) -> np.ndarray:
    """Fill masked cells by iterative 8-neighbour averaging.

    Used to give gradient stencils something sensible to chew on near
    nodata holes. Each pass sets every unfilled cell that has a filled
    neighbour to the mean of its filled neighbours. A pass works only on
    the bounding box of the cells still unfilled, widened by one cell
    (clipped to the frame): that box holds every neighbour of those cells,
    and the sums run in the same order as over the whole frame, so the
    result is the same. Raises when nothing at all is valid.
    """
    if hole_mask.all():
        raise EmptyInputError("cannot fill: every cell is masked")
    out = np.asarray(values, dtype=np.float64).copy()
    out[hole_mask] = 0.0
    unfilled = hole_mask.copy()
    while unfilled.any():
        rows = np.flatnonzero(unfilled.any(axis=1))
        cols = np.flatnonzero(unfilled.any(axis=0))
        box = (
            slice(max(rows[0] - 1, 0), rows[-1] + 2),
            slice(max(cols[0] - 1, 0), cols[-1] + 2),
        )
        filled, hole = out[box], unfilled[box]  # views: writes land in the frame
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
        if not ready.any():  # isolated region; cannot happen with any valid cell
            break
        filled[ready] = sums[ready] / counts[ready]
        hole[ready] = False
    return out
