"""Output checks for one pipeline call, and two independent spot oracles.

Each check returns a list of problems; an empty list means the call's
outputs are correct. The oracles recompute values from the written
artifacts with plain loops, never with apmkit's own kernels.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from apmkit import load_raster, read_sites_csv
from apmkit.errors import ToolkitError

from inputs import CATCHMENT_RADIUS, CELL, KERNEL_BANDWIDTH, Workload, workload_rng

# Positives sit in their own terrain niche (inputs.py) or under a bump of
# the branch rasters, so every surface should rank them well above this.
AUROC_FLOOR = 0.8
SPOT_PIXELS = 64
PROBABILITY_SURFACES = ("lamap_surface.grid", "refined_surface.grid", "surface.grid")


def required_artifacts(workload: Workload) -> set[str]:
    stages = set(workload.stages)
    names = {"manifest.json"}
    per_stage = {
        "features": ("stack.grid",),
        "labels": ("labels.grid",),
        "lamap": ("lamap_surface.grid",),
        "crf": ("refined_surface.grid",),
        "pseudolabel": ("pseudolabel.grid", "loss_breakdown.json"),
        "evaluate": ("report.json",),
    }
    for stage in stages:
        names.update(per_stage[stage])
    if {"lamap", "crf", "evaluate"} <= stages:
        names.update(("surface.grid", "surface_density.csv", "surface_difference.grid"))
    return names


def frame_mask(workload: Workload, input_dir: Path) -> np.ndarray:
    """The nodata mask every surface must carry: that of the input frame."""
    return load_raster(input_dir / ("dem.grid" if workload.dem else "stack.grid")).nodata_mask


def _check_grid(name: str, data: np.ndarray, mask: np.ndarray) -> list[str]:
    if data.shape[1:] != mask.shape:
        return [f"{name}: frame {data.shape[1:]} differs from the input {mask.shape}"]
    nan = np.isnan(data)
    off = data[:, ~mask]
    if name in PROBABILITY_SURFACES or name == "surface_difference.grid":
        lo = -1.0 if name == "surface_difference.grid" else 0.0
        if not (nan[0] == mask).all():
            return [f"{name}: NaN pixels differ from the nodata mask"]
        if not ((off >= lo) & (off <= 1.0)).all():
            return [f"{name}: values off the mask outside [{lo}, 1]"]
    elif name == "pseudolabel.grid":
        if not nan[0][mask].all():
            return [f"{name}: values on the nodata mask"]
        kept = data[~nan]
        if not ((kept >= 0.0) & (kept <= 1.0)).all():
            return [f"{name}: values outside [0, 1]"]
    elif name == "labels.grid":
        if not np.isin(data[~nan], (0.0, 1.0)).all():
            return [f"{name}: labels other than 0 and 1"]
    elif not np.isfinite(off).all() or not nan[:, mask].all():
        return [f"{name}: non-finite values off the mask or values on it"]
    return []


def check_outputs(workload: Workload, input_dir: Path, out_dir: Path) -> list[str]:
    """Artifacts exist and load; surfaces are in range and NaN exactly on the
    mask; the report's AUROC clears the floor."""
    problems = [
        f"missing artifact {name}"
        for name in sorted(required_artifacts(workload))
        if not (out_dir / name).is_file()
    ]
    mask = frame_mask(workload, input_dir)
    for path in sorted(out_dir.glob("*.grid")):
        try:
            grid = load_raster(path)
        except (ToolkitError, OSError) as exc:
            problems.append(f"{path.name}: does not load: {exc}")
            continue
        problems += _check_grid(path.name, grid.data, mask)
    report = out_dir / "report.json"
    if report.is_file():
        try:
            auroc = json.loads(report.read_text(encoding="utf-8"))["metrics"]["auroc"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            problems.append(f"report.json: unreadable: {exc!r}")
        else:
            if auroc is None or not auroc > AUROC_FLOOR:
                problems.append(f"report.json: AUROC {auroc} not above {AUROC_FLOOR}")
    return problems


def _potential_oracle(stack, positives, pixels: np.ndarray) -> np.ndarray:
    """LAMAP potential at ``pixels`` by explicit mid-rank ECDF counting."""
    ox, oy, px, py = stack.geotransform
    data = stack.data.astype(np.float64)
    rows, cols = np.mgrid[0:stack.height, 0:stack.width]
    cx, cy = ox + (cols + 0.5) * px, oy + (rows + 0.5) * py
    qx, qy = ox + (pixels[:, 1] + 0.5) * px, oy + (pixels[:, 0] + 0.5) * py
    values = data[:, pixels[:, 0], pixels[:, 1]]  # (bands, n)
    num = np.zeros(len(pixels))
    den = np.zeros(len(pixels))
    for site in positives:
        disk = (cx - site.x) ** 2 + (cy - site.y) ** 2 <= CATCHMENT_RADIUS**2
        disk[int(np.floor((site.y - oy) / py)), int(np.floor((site.x - ox) / px))] = True
        disk &= ~stack.nodata_mask
        u = np.zeros(len(pixels))
        for band in range(stack.bands):
            samples = data[band][disk]
            for i, v in enumerate(values[band]):
                f = (np.count_nonzero(samples < v) + 0.5 * np.count_nonzero(samples == v))
                u[i] += 1.0 - abs(2.0 * f / samples.size - 1.0)
        w = np.exp(-np.hypot(qx - site.x, qy - site.y) / KERNEL_BANDWIDTH)
        num += w * u / stack.bands
        den += w
    return np.clip(num / den, 0.0, 1.0)


def spot_oracles(workload: Workload, seed: int, input_dir: Path, out_dir: Path) -> list[str]:
    """At 64 seeded valid pixels: the potential matches a mid-rank ECDF loop,
    and every distance band matches brute-force distances to its zeros."""
    if not {"features", "lamap"} <= set(workload.stages):
        return []
    stack = load_raster(out_dir / "stack.grid")
    valid = np.argwhere(~stack.nodata_mask)
    rng = workload_rng(workload, seed, "oracle")
    pixels = valid[rng.choice(len(valid), SPOT_PIXELS, replace=False)]
    problems = []

    positives = [s for s in read_sites_csv(input_dir / "sites.csv") if s.polarity == "positive"]
    want = _potential_oracle(stack, positives, pixels)
    got = load_raster(out_dir / "lamap_surface.grid").band(0)[pixels[:, 0], pixels[:, 1]]
    worst = float(np.max(np.abs(got - want)))
    if not worst <= 1e-6:  # float32 storage of a value in [0, 1]
        problems.append(f"potential differs from the ECDF oracle by {worst:.3g}")

    for band, name in enumerate(stack.band_names):
        if not (name.startswith("dist_") or name == "hydro_proximity"):
            continue
        zeros = np.argwhere(stack.band(band) == 0.0)
        d = CELL * np.sqrt(
            ((pixels[:, None, :] - zeros[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        )
        got = stack.band(band)[pixels[:, 0], pixels[:, 1]]
        worst = float(np.max(np.abs(got - d) - 1e-6 * d))
        if not worst <= 1e-3:
            problems.append(f"{name} differs from brute-force distances by {worst:.3g} m")
    return problems


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every artifact except the manifest, which records wall times."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
