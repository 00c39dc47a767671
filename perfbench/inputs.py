"""Workload definitions and the seeded input generator.

Every input is built with numpy from the workload seed alone and written
through apmkit's own writers (``save_raster``, ``write_sites_csv``), so
one seed always yields byte-identical files. Run as a script it writes
one workload's inputs into a directory; the benchmark times that script
as its set-up:

    PYTHONPATH=src python3 perfbench/inputs.py --workload survey --seed 1 --out DIR

apmkit is imported inside the functions that write, so that run.py can
import the workload table and report a missing source tree itself.
"""

from __future__ import annotations

import argparse
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CELL = 10.0  # metres per pixel, every workload
ORIGIN = (350000.0, 4100000.0)
PERIOD = "Roman Imperial"
CRF_ITERATIONS = 5
CATCHMENT_RADIUS = 295.0  # metres; the LAMAP default
KERNEL_BANDWIDTH = 1000.0  # metres; the LAMAP default
ALL_STAGES = ("features", "labels", "lamap", "crf", "pseudolabel", "evaluate")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: int  # square frame, pixels per side
    stages: tuple[str, ...]
    positives: int
    others: int  # negative or unlabeled sites
    hole: int = 0  # side of a square nodata hole in the DEM, pixels
    tile_size: int = 128
    overlap: float = 0.9
    threads: int = 2
    dem: bool = True  # False: a numpy-made 5-band guidance stack instead


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tiled-crf",
            why=(
                "shipped default config (tile 128, overlap 0.9, 2 threads), all six "
                "stages: the tiled CRF and its thread pool do most of the work"
            ),
            size=160,
            stages=ALL_STAGES,
            positives=30,
            others=60,
        ),
        Workload(
            name="whole-crf",
            why=(
                "one whole-frame CRF over a numpy-made guidance stack: the mean-field "
                "kernel and the density curve do the work, tiling and terrain none"
            ),
            size=384,
            stages=("crf", "evaluate"),
            positives=40,
            others=400,
            tile_size=384,
            dem=False,
        ),
        Workload(
            name="survey",
            why=(
                "DEM with a nodata hole, no CRF: distance transforms, flow "
                "accumulation, hole filling and the potential surface do the work"
            ),
            size=288,
            stages=("features", "labels", "lamap", "evaluate"),
            positives=30,
            others=300,
            hole=72,
        ),
    )
}


def workload_rng(workload: Workload, seed: int, purpose: str = "inputs") -> np.random.Generator:
    """Generator keyed by (seed, workload, purpose), independent across keys."""
    keys = [zlib.crc32(s.encode("utf-8")) for s in (workload.name, purpose)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *keys]))


def geotransform(size: int) -> tuple[float, float, float, float]:
    return (ORIGIN[0], ORIGIN[1] + size * CELL, CELL, -CELL)


def pixel_center(size: int, row, col):
    ox, oy, px, py = geotransform(size)
    return ox + (np.asarray(col) + 0.5) * px, oy + (np.asarray(row) + 0.5) * py


def _smooth_field(rng: np.random.Generator, size: int, bumps: int) -> np.ndarray:
    """Sum of random Gaussian hills and a tilted plane, float64 (size, size)."""
    rows = np.arange(size, dtype=np.float64)[:, None]
    cols = np.arange(size, dtype=np.float64)[None, :]
    z = rng.uniform(-0.2, 0.2) * rows + rng.uniform(-0.2, 0.2) * cols
    for _ in range(bumps):
        r0, c0 = rng.uniform(0, size, 2)
        sigma = rng.uniform(size / 14, size / 4)
        z += rng.uniform(-40.0, 60.0) * np.exp(
            -((rows - r0) ** 2 + (cols - c0) ** 2) / (2.0 * sigma * sigma)
        )
    return z


def _hole_box(workload: Workload, rng: np.random.Generator) -> tuple[int, int] | None:
    """Top-left corner of the nodata hole, kept clear of the frame edges."""
    if not workload.hole:
        return None
    lo, hi = workload.size // 8, workload.size - workload.size // 8 - workload.hole
    return int(rng.integers(lo, hi)), int(rng.integers(lo, hi))


def _segment_distance(px, py, lines) -> np.ndarray:
    """Distance from points (px, py) to the nearest segment of any polyline."""
    best = np.full(np.shape(px), np.inf)
    for line in lines:
        for (x0, y0), (x1, y1) in zip(line[:-1], line[1:]):
            dx, dy = x1 - x0, y1 - y0
            t = np.clip(((px - x0) * dx + (py - y0) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
            best = np.minimum(best, np.hypot(px - (x0 + t * dx), py - (y0 + t * dy)))
    return best


def _roads(workload: Workload, rng: np.random.Generator, hole) -> list[list[list[float]]]:
    """Three edge-to-edge polylines; none passes within two pixels of the hole."""
    size = workload.size
    lines = []
    while len(lines) < 3:
        across = rng.uniform(0.1, 0.9, 2) * size
        t = np.linspace(0.0, size, 9)
        offset = np.linspace(across[0], across[1], 9) + rng.normal(0.0, size / 20, 9)
        rows, cols = (t, offset) if len(lines) % 2 == 0 else (offset, t)
        rows = np.clip(rows, 0.5, size - 0.5)
        cols = np.clip(cols, 0.5, size - 0.5)
        xs, ys = pixel_center(size, rows - 0.5, cols - 0.5)
        line = [[float(x), float(y)] for x, y in zip(xs, ys)]
        if hole is not None:
            r0, c0 = hole
            bx, by = pixel_center(
                size,
                np.arange(r0 - 2, r0 + workload.hole + 2)[:, None],
                np.arange(c0 - 2, c0 + workload.hole + 2)[None, :],
            )
            if _segment_distance(bx, by, [line]).min() < CELL:
                continue
        lines.append(line)
    return lines


def _place(rng, candidates: np.ndarray, n: int, what: str) -> np.ndarray:
    """Pick ``n`` distinct (row, col) rows from ``candidates`` without replacement."""
    if len(candidates) < n:
        raise RuntimeError(f"only {len(candidates)} candidate pixels for {n} {what}")
    return candidates[rng.choice(len(candidates), n, replace=False)]


def _sites(workload: Workload, rng, pos_rc, other_rc, find_counts: bool):
    from apmkit import SiteRecord

    sites = []
    jitter = rng.uniform(-0.4, 0.4, (len(pos_rc) + len(other_rc), 2)) * CELL
    for i, (r, c) in enumerate(pos_rc):
        x, y = pixel_center(workload.size, r, c)
        count = int(rng.integers(1, 60)) if find_counts else None
        sites.append(
            SiteRecord(f"P{i:03d}", float(x + jitter[i, 0]), float(y + jitter[i, 1]),
                       PERIOD, "positive", count)
        )
    for j, (r, c) in enumerate(other_rc):
        x, y = pixel_center(workload.size, r, c)
        k = len(pos_rc) + j
        polarity = "unlabeled" if j % 3 == 2 else "negative"
        sites.append(
            SiteRecord(f"S{j:03d}", float(x + jitter[k, 0]), float(y + jitter[k, 1]),
                       PERIOD, polarity, None)
        )
    return sites


def _branch(rng, size: int, pos_rc: np.ndarray, noise: float) -> np.ndarray:
    """Probability raster with a Gaussian bump (sigma 6 px) on every positive."""
    rows = np.arange(size, dtype=np.float64)[:, None]
    cols = np.arange(size, dtype=np.float64)[None, :]
    bumps = np.zeros((size, size))
    for r, c in pos_rc:
        bumps += np.exp(-((rows - r) ** 2 + (cols - c) ** 2) / (2.0 * 6.0**2))
    return np.clip(0.05 + bumps + noise * rng.normal(size=(size, size)), 0.01, 0.99)


def _guidance_stack(rng, size: int) -> np.ndarray:
    """Five smooth bands on terrain-like scales (elevation, slope, aspect, two distances)."""
    scales = ((100.0, 400.0), (0.0, 30.0), (0.0, 360.0), (0.0, 1500.0), (0.0, 3000.0))
    bands = []
    for lo, hi in scales:
        f = _smooth_field(rng, size, 10)
        bands.append(lo + (hi - lo) * (f - f.min()) / (f.max() - f.min()))
    return np.stack(bands)


def generate(workload: Workload, seed: int, out_dir: str | Path) -> None:
    """Write the workload's inputs for ``seed`` into ``out_dir``."""
    from apmkit import RasterGrid, save_raster, write_sites_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = workload_rng(workload, seed)
    size = workload.size
    gt = geotransform(size)
    rows, cols = np.mgrid[0:size, 0:size]

    if workload.dem:
        z = 200.0 + _smooth_field(rng, size, 14) + rng.normal(0.0, 0.05, (size, size))
        hole = _hole_box(workload, rng)
        mask = np.zeros((size, size), dtype=bool)
        clear = np.ones((size, size), dtype=bool)  # catchments stay off the hole
        if hole is not None:
            r0, c0, n = hole[0], hole[1], workload.hole
            mask[r0:r0 + n, c0:c0 + n] = True
            reach = int(CATCHMENT_RADIUS / CELL) + 2
            clear[max(0, r0 - reach):r0 + n + reach, max(0, c0 - reach):c0 + n + reach] = False
        save_raster(RasterGrid.from_array(z.astype(np.float32), gt, mask, ("elevation",)),
                    out / "dem.grid")
        lines = _roads(workload, rng, hole)
        (out / "roads.json").write_text(
            json.dumps({"lines": lines, "points": []}, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        # Positives sit low and near a road, the others high and away from
        # one, so the potential surface ranks positives first.
        x, y = pixel_center(size, rows, cols)
        road_d = _segment_distance(x, y, lines)
        inner = (rows >= 2) & (rows < size - 2) & (cols >= 2) & (cols < size - 2)
        low = z <= np.quantile(z[~mask], 0.35)
        pos_rc = _place(rng, np.argwhere(low & (road_d < 120.0) & clear & inner),
                        workload.positives, "positives")
        high = z >= np.quantile(z[~mask], 0.5)
        other_rc = _place(rng, np.argwhere(high & (road_d > 300.0) & inner & ~mask),
                          workload.others, "other sites")
        if hole is not None:  # every 30th site, all unlabeled, falls on the hole
            other_rc[2::30] = _place(rng, np.argwhere(mask), len(other_rc[2::30]), "hole sites")
    else:
        stack = _guidance_stack(rng, size)
        save_raster(
            RasterGrid.from_array(
                stack.astype(np.float32), gt, None,
                ("elevation", "slope", "aspect", "hydro_proximity", "dist_roads"),
            ),
            out / "stack.grid",
        )
        inner = (rows >= 8) & (rows < size - 8) & (cols >= 8) & (cols < size - 8)
        pos_rc = _place(rng, np.argwhere(inner), workload.positives, "positives")
        near = np.zeros((size, size), dtype=bool)
        for r, c in pos_rc:
            near |= (rows - r) ** 2 + (cols - c) ** 2 < 30**2
        other_rc = _place(rng, np.argwhere(inner & ~near), workload.others, "other sites")

    write_sites_csv(out / "sites.csv", _sites(workload, rng, pos_rc, other_rc, workload.dem))
    for name, noise in _branches(workload):
        values = _branch(rng, size, pos_rc, noise).astype(np.float32)
        save_raster(RasterGrid.from_array(values, gt, None, ("probability",)),
                    out / f"{name}.grid")


def _branches(workload: Workload) -> list[tuple[str, float]]:
    """Branch rasters the workload's stages read, with their noise level."""
    names = []
    if "crf" in workload.stages or "pseudolabel" in workload.stages:
        names.append(("branch1", 0.03))
    if "pseudolabel" in workload.stages:
        names.append(("branch2", 0.06))
    return names


def pipeline_config(workload: Workload, seed: int, input_dir: Path, output_dir: Path) -> dict:
    """The ``apmkit run`` config document for one call of the workload.

    Tiling, CRF iterations, threads and the LAMAP radii are written out
    rather than left to the defaults, so a change of default cannot
    silently change the workload.
    """
    inputs = {"sites": str(input_dir / "sites.csv")}
    if workload.dem:
        inputs["dem"] = str(input_dir / "dem.grid")
        inputs["historical_targets"] = [str(input_dir / "roads.json")]
    else:
        inputs["stack"] = str(input_dir / "stack.grid")
    for name, _ in _branches(workload):
        inputs[name] = str(input_dir / f"{name}.grid")
    return {
        "output_dir": str(output_dir),
        "stages": list(workload.stages),
        "seed": int(seed),
        "inputs": inputs,
        "tile_size": workload.tile_size,
        "overlap": workload.overlap,
        "threads": workload.threads,
        "lamap": {"catchment_radius": CATCHMENT_RADIUS, "kernel_bandwidth": KERNEL_BANDWIDTH},
        "crf": {"iterations": CRF_ITERATIONS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
