"""Batch pipeline: a configured run of the toolkit stages.

A run is driven by one JSON config and one seed. Stages execute in a
fixed order (features, labels, lamap, crf, pseudolabel, evaluate), each
writing its artifacts into the output directory and its wall time into
the run manifest. Randomness is stream-split per module from the run
seed, so reruns with an identical config and seed produce byte-identical
rasters and reports; the manifest is the only file allowed to differ
(it records timings).

Each stage commits its artifacts together (:func:`commit_outputs`), so a
failing stage leaves no file of its own, unless the process dies between
two of the commit's renames; the run then aborts with the stage named.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__, metrics
from ._rng import module_rng
from .config import build_config, check_seed, read_json
from .crf import CrfConfig, crf_refine
from .errors import ConfigError, DataError, ToolkitError
from .lamap import LamapConfig, build_site_models, lamap_surface
from .metrics import (
    Metrics,
    MetricsReport,
    ScoredSample,
    aul,
    auroc_from_arrays,
    bin_analysis,
    check_n_bins,
    confusion_from_counts,
    density_histogram,
    find_count_correlation,
    volume_gain,
    write_density_csv,
)
from .pseudolabel import BranchPair, DplConfig, check_step, confident_pseudolabel, dpl_objective
from .raster.distance import distance_map, load_targets
from .raster.grid import (
    Outputs,
    RasterGrid,
    commit_outputs,
    json_bytes,
    load_raster,
    save_raster,
    write_json,
)
from .raster.labels import DEFAULT_LABEL_RADIUS, check_label_radius, rasterize_labels
from .raster.sites import PERIODS, SiteRecord, filter_sites, read_sites_csv
from .raster.terrain import derive_terrain

logger = logging.getLogger(__name__)


# Keys of the retired tiled CRF path; older configs still carry them.
_RETIRED_KEYS = ("tile_size", "overlap", "threads")


@dataclass(frozen=True)
class RunInputs:
    """The ``inputs`` section of a run config: the paths a run reads."""

    dem: str | None = None
    stack: str | None = None
    sites: str | None = None
    branch1: str | None = None
    branch2: str | None = None
    logits: str | None = None
    historical_targets: tuple[str, ...] = ()


@dataclass(frozen=True)
class PipelineConfig:
    """Validated run configuration.

    Attributes mirror the JSON schema; see ``from_json``. Only the stages
    listed in ``stages`` run, in canonical order.
    """

    output_dir: str = ""
    stages: tuple[str, ...] = ()
    seed: int = 0
    inputs: RunInputs = field(default_factory=RunInputs)
    period: str | None = None
    label_radius: float = DEFAULT_LABEL_RADIUS
    lamap: LamapConfig = field(default_factory=LamapConfig)
    crf: CrfConfig = field(default_factory=CrfConfig)
    dpl: DplConfig = field(default_factory=DplConfig)
    step: int = 0

    def __post_init__(self) -> None:
        if not self.output_dir:
            raise ConfigError("output_dir is required")
        aliases = {"derive-features": "features"}
        stages = tuple(aliases.get(s, s) for s in self.stages)
        for s in stages:
            if s not in STAGES:
                raise ConfigError(f"unknown stage '{s}'; expected one of {STAGES}")
        if not stages:
            raise ConfigError("no stages requested")
        # Keep canonical order regardless of listing order.
        object.__setattr__(self, "stages", tuple(s for s in STAGES if s in stages))
        if self.period is not None and self.period not in PERIODS:
            raise ConfigError(f"unknown period {self.period!r}; expected one of {PERIODS}")
        check_label_radius(self.label_radius)
        check_seed(self.seed)
        check_step(self.step)
        self._require_inputs()

    def _require_inputs(self) -> None:
        present = {key for key, value in vars(self.inputs).items() if value}
        present.update(self.stages)
        for stage in STAGE_TABLE:
            if stage.name not in self.stages:
                continue
            for says, any_of in stage.needs:
                if not any(set(names.split()) <= present for names in any_of):
                    raise ConfigError(f"stage '{stage.name}' requires {says}")

    @staticmethod
    def from_json(source: str | os.PathLike | dict) -> "PipelineConfig":
        """Load and validate a config document (path or dict).

        Every key and value is checked here, the ``inputs``, ``lamap``,
        ``crf`` and ``dpl`` sections included, so a bad one fails before
        any stage runs. The retired keys ``tile_size``, ``overlap`` and
        ``threads`` are accepted and ignored with a warning.
        """
        doc = read_json(source, ConfigError) if isinstance(source, (str, os.PathLike)) else source
        if not isinstance(doc, dict):
            raise ConfigError("config must be an object")
        retired = [key for key in _RETIRED_KEYS if key in doc]
        if retired:
            logger.warning(
                "ignoring retired config keys %s: the crf stage refines the whole frame",
                ", ".join(retired),
            )
        top = {k: v for k, v in doc.items() if k not in retired}
        return build_config(PipelineConfig, top, "config")

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def build_feature_stack(
    dem: RasterGrid, target_paths: Sequence[str | os.PathLike] = ()
) -> RasterGrid:
    """Terrain feature stack from a DEM, plus optional distance bands.

    Bands: elevation, slope, aspect, hydro_proximity, then one
    ``dist_<name>`` band per historical-targets file (JSON with "points"
    and "lines").
    """
    terrain = derive_terrain(dem)
    bands = [dem.band(0)] + [terrain.band(i) for i in range(terrain.bands)]
    names = ["elevation", *terrain.band_names]
    for target_path in target_paths:
        points, lines = load_targets(target_path)
        dist = distance_map(dem, points, lines)
        bands.append(dist.band(0))
        names.append(f"dist_{Path(target_path).stem}")
    return RasterGrid(
        np.stack(bands),
        dem.geotransform,
        dem.nodata_mask,
        tuple(names),
        {"source": "derive_features"},
    )


class _Run:
    """Mutable state threaded through the stages of one pipeline run.

    ``values`` holds the rasters stages hand on: each stage's result under
    its name (``features``, ``labels``, ``lamap``, ``crf``) and the loaded
    ``inputs.stack`` under ``stack``. A value stays only while a requested
    stage will still read it: ``keep`` holds a result only when some
    requested stage's needs name it, and the last of those, its last
    reader, takes it out of the run when it reads it."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        # Sites first: a bad sites file fails the run before output_dir exists.
        sites = cfg.inputs.sites
        self.period_sites = read_sites_csv(sites, cfg.period) if sites else []
        self.out = Path(cfg.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.values: dict[str, RasterGrid] = {}
        self.stage = ""  # the running stage's name
        self.outputs = Outputs()  # the running stage's
        self._last_reader = {name: stage.name for stage in STAGE_TABLE if stage.name in cfg.stages
                             for _, any_of in stage.needs for names in any_of
                             for name in names.split()}

    def keep(self, name: str, value: RasterGrid) -> None:
        """Hold ``value`` under ``name`` if a requested stage will read it."""
        if name in self._last_reader:
            self.values[name] = value

    def output(self, name: str) -> Path:
        """Where to write artifact ``name``; the stage's commit moves it."""
        return self.outputs.temp(self.out / name)

    def read(self, *names: str) -> RasterGrid | None:
        """The first of ``names`` that an earlier stage set, or that the
        config names as ``inputs.stack`` (loaded once); None if none is."""
        for name in names:
            if name == "stack" and name not in self.values and self.cfg.inputs.stack:
                self.values[name] = load_raster(self.cfg.inputs.stack)
            if name in self.values:
                if self._last_reader.get(name) == self.stage:
                    return self.values.pop(name)
                return self.values[name]
        return None


def _stage_features(run: _Run) -> None:
    inputs = run.cfg.inputs
    stack = build_feature_stack(load_raster(inputs.dem), inputs.historical_targets)
    run.keep("features", stack)
    save_raster(stack, run.output("stack.grid"))


def _stage_labels(run: _Run) -> None:
    stack = run.read("features", "stack")
    labels = rasterize_labels(stack, run.period_sites, run.cfg.label_radius)
    run.keep("labels", labels)
    save_raster(labels, run.output("labels.grid"))


def lamap_from_sites(stack: RasterGrid, sites, cfg: LamapConfig) -> RasterGrid:
    """LAMAP potential surface modelled on the positive sites only.

    The one body of the ``lamap`` stage and of ``apmkit lamap``.

    Raises:
        DataError: when no site is positive.
    """
    positives = filter_sites(sites, polarity="positive")
    if not positives:
        raise DataError("no positive sites to model")
    models = build_site_models(stack, positives, cfg)
    return lamap_surface(stack, models, cfg)


def _stage_lamap(run: _Run) -> None:
    surface = lamap_from_sites(run.read("features", "stack"), run.period_sites, run.cfg.lamap)
    run.keep("lamap", surface)
    save_raster(surface, run.output("lamap_surface.grid"))


def _stage_crf(run: _Run) -> None:
    inputs = run.cfg.inputs
    if inputs.logits:
        logits = load_raster(inputs.logits)
    else:
        branch = load_raster(inputs.branch1)
        if branch.bands != 1:
            raise DataError(f"branch1 must be single-band, got {branch.bands} bands")
        p = np.clip(branch.band(0).astype(np.float64), 1e-7, 1.0 - 1e-7)
        logits = RasterGrid(
            np.log(p / (1.0 - p)).astype(np.float32)[None, :, :], branch.geotransform,
            branch.nodata_mask, ("logit",), {"source": "branch1_logit_transform"},
        )
        del branch, p  # the refinement reads only the logits
    surface = crf_refine(logits, lambda: run.read("features", "stack"), run.cfg.crf)
    run.keep("crf", surface)
    save_raster(surface, run.output("refined_surface.grid"))


def pseudolabel_with_breakdown(
    pair: BranchPair,
    labels: RasterGrid | None,
    cfg: DplConfig,
    seed: int,
    step: int,
    alpha: float | None = None,
) -> tuple[RasterGrid, dict]:
    """Confident pseudolabel raster and its loss-breakdown document.

    The one body of the ``pseudolabel`` stage and of ``apmkit pseudolabel``.
    One ``alpha`` mixes the raster, and the loss scores that raster;
    without a given one it is drawn from the run seed's ``pseudolabel``
    stream.
    """
    if alpha is None:
        alpha = float(module_rng(seed, "pseudolabel").uniform())
    masked = confident_pseudolabel(pair, cfg, alpha)
    breakdown = dpl_objective(pair, labels, cfg, step, masked)
    return masked, {"step": step, "loss_kind": cfg.loss_kind, **breakdown.as_dict()}


def _stage_pseudolabel(run: _Run) -> None:
    cfg, labels = run.cfg, run.read("labels")
    pair = BranchPair(load_raster(cfg.inputs.branch1), load_raster(cfg.inputs.branch2))
    masked, doc = pseudolabel_with_breakdown(pair, labels, cfg.dpl, cfg.seed, cfg.step)
    save_raster(masked, run.output("pseudolabel.grid"))
    run.output("loss_breakdown.json").write_bytes(json_bytes(doc))


def _site_pixels(surface: RasterGrid, sites) -> list[tuple[SiteRecord, int, int]]:
    """(site, row, col) of each site on an unmasked pixel of ``surface``,
    one lookup per site; every other site is skipped with a warning."""
    located = []
    for site in sites:
        row, col = surface.pixel_of(site.x, site.y)
        if not (0 <= row < surface.height and 0 <= col < surface.width):
            logger.warning("site '%s' outside the evaluated surface; skipped", site.site_id)
        elif surface.nodata_mask[row, col]:
            logger.warning("site '%s' falls on masked pixels; skipped", site.site_id)
        else:
            located.append((site, row, col))
    return located


def _samples_at(surface: RasterGrid, located) -> list[ScoredSample]:
    band, labels = surface.band(0), ("positive", "negative")
    return [
        ScoredSample(float(band[r, c]), s.polarity if s.polarity in labels else None, s.find_count)
        for s, r, c in located
    ]


def evaluate_surface(
    surface: RasterGrid,
    sites,
    n_bins: int = 6,
    metadata: dict | None = None,
    *,
    baseline: tuple[str, RasterGrid] | None = None,
) -> MetricsReport:
    """Score a probability surface at the given sites.

    AUROC, confusion metrics and the reliability bins need both labeled
    classes; AUL needs positives; the find-count correlation needs 3+
    sites with counts. Metrics without enough data stay None. The report
    carries the density histogram of the surface's unmasked scores, not
    the smoothed curve, which only the evaluate stage's density CSV
    holds. Each site is read at its containing pixel; sites outside the
    frame or on masked pixels are skipped with a warning.
    A (name, surface) ``baseline`` on the same frame is read at the
    pixels the surface was sampled at; when both classes were, the report
    carries the volume gain over it, or none, with a warning, where the
    baseline's radar area is zero.

    Raises:
        ConfigError: when ``n_bins`` is below 1, whatever the sites hold.
        DataError: when the surface has more than one band, the baseline
            is on another frame or masked at a sampled pixel, or no site
            can be sampled from the surface.
    """
    check_n_bins(n_bins)
    if surface.bands != 1:
        raise DataError(f"the surface must be single-band, got {surface.bands} bands")
    if baseline is not None and not surface.same_frame(baseline[1]):
        raise DataError("surface and baseline are on different frames")
    located = _site_pixels(surface, sites)
    report = _site_metrics(_samples_at(surface, located), n_bins, metadata)
    if baseline is not None and report.metrics.auroc is not None:
        # The baseline's site metrics only: the gain reads no density histogram.
        base = _site_metrics(_samples_at(baseline[1], located))
        try:
            gain = volume_gain(report, base)
        except DataError:
            logger.warning("baseline radar area is zero; volume gain omitted")
        else:
            report = dataclasses.replace(report, volume_gain=gain, baseline_name=baseline[0])
    scores = surface.band(0)[~surface.nodata_mask]
    return dataclasses.replace(report, density_histogram=tuple(density_histogram(scores).tolist()))


def _site_metrics(
    samples: Sequence[ScoredSample], n_bins: int = 6, metadata: dict | None = None
) -> MetricsReport:
    """Everything :func:`evaluate_surface` reports but the density and the gain."""
    if not samples:
        raise DataError("no evaluable sites on the surface")
    scores = np.array([s.score for s in samples])
    positive = np.array([s.label == "positive" for s in samples])
    negative = np.array([s.label == "negative" for s in samples])
    values: dict = {}
    bins: tuple = ()
    if positive.any() and negative.any():
        labeled, hit = positive | negative, scores >= 0.5
        tp, fp = int(np.count_nonzero(positive & hit)), int(np.count_nonzero(negative & hit))
        cm = confusion_from_counts(tp, fp, int(positive.sum()) - tp, int(negative.sum()) - fp)
        values.update(
            auroc=auroc_from_arrays(scores[labeled], positive[labeled]),
            dice=cm.dice, iou=cm.iou, f1=cm.f1, accuracy=cm.accuracy,
        )
        bins = tuple(bin_analysis([s for s in samples if s.label is not None], n_bins))
    if positive.any():
        values["aul"] = aul(scores, positive)
    with_counts = [s for s in samples if s.find_count is not None]
    return MetricsReport(
        Metrics(**values),
        bins=bins,
        find_count_rho=find_count_correlation(samples) if len(with_counts) >= 3 else None,
        metadata={"bins": "equal_width", "volume": "radar_polygon_area", **(metadata or {})},
    )


def _stage_evaluate(run: _Run) -> None:
    # The config requires a lamap or crf stage. Lamap's surface is the baseline of crf's.
    name, surface, baseline = "crf", run.read("crf"), run.read("lamap")
    if surface is None:
        name, surface, baseline = "lamap", baseline, None
    # Both are scored where the surface can be: its mask holds the baseline's.
    report = evaluate_surface(
        surface, run.period_sites, metadata={"surface": name, "period": run.cfg.period},
        baseline=None if baseline is None else ("lamap", baseline),
    )
    if baseline is not None:
        save_raster(surface, run.output("surface.grid"))
        # The CSV holds the report's histogram and the only smoothed density curve.
        # Looked up on the module at call time, so a wrapper set there sees the call.
        density = metrics.probability_density(surface.band(0)[~surface.nodata_mask])
        write_density_csv(run.output("surface_density.csv"), report.density_histogram, density)
        diff = surface.band(0) - baseline.band(0)  # float32: the float64 difference, rounded
        save_raster(RasterGrid(
            diff[None, :, :],
            surface.geotransform,
            surface.nodata_mask | baseline.nodata_mask,
            ("difference",),
            {"difference": "surface_minus_baseline"},
        ), run.output("surface_difference.grid"))
    run.output("report.json").write_bytes(json_bytes(report.to_dict()))


@dataclass(frozen=True)
class Stage:
    """A pipeline stage: its needs, the artifacts it may write and its body.
    A need is (what the error calls it, alternatives): met when every name
    of one alternative is an ``inputs`` key the config sets or a stage it
    runs, so an empty alternative makes a need optional. The body reads the
    run's values by these names (``_Run.read``)."""

    name: str
    needs: tuple[tuple[str, tuple[str, ...]], ...]
    outputs: tuple[str, ...]
    body: Callable[[_Run], None]


_SITES = ("inputs.sites", ("sites",))
_STACK = ("inputs.stack or the features stage", ("stack", "features"))
# In run order.
STAGE_TABLE = (
    Stage("features", (("inputs.dem", ("dem",)),), ("stack.grid",), _stage_features),
    Stage("labels", (_SITES, _STACK), ("labels.grid",), _stage_labels),
    Stage("lamap", (_SITES, _STACK), ("lamap_surface.grid",), _stage_lamap),
    Stage("crf", (("inputs.logits or inputs.branch1", ("logits", "branch1")), _STACK),
          ("refined_surface.grid",), _stage_crf),
    Stage("pseudolabel", (("inputs.branch1 and inputs.branch2", ("branch1 branch2",)),
                          ("the labels stage", ("labels", ""))),
          ("pseudolabel.grid", "loss_breakdown.json"), _stage_pseudolabel),
    Stage("evaluate", (_SITES, ("a surface stage (lamap or crf)", ("lamap", "crf"))),
          ("surface.grid", "surface_density.csv", "surface_difference.grid", "report.json"),
          _stage_evaluate),
)
STAGES = tuple(stage.name for stage in STAGE_TABLE)
# run_pipeline calls each body through this dict, so that a caller may wrap one.
_STAGE_FUNCS = {stage.name: stage.body for stage in STAGE_TABLE}


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the configured stages and write the run manifest.

    Each stage commits its artifacts together, listed in write order.

    Returns the manifest dict (also written to ``manifest.json``).

    Raises:
        ToolkitError: re-raised from the failing stage, which is named in
            the message, as a DataError where the stage's error was an
            OSError. The stage leaves no file of its own, and no manifest
            is written.
    """
    run = _Run(cfg)
    manifest_stages = []
    for stage in cfg.stages:
        start = time.perf_counter()
        run.stage = stage
        try:
            with commit_outputs() as run.outputs:
                _STAGE_FUNCS[stage](run)
        except Exception as exc:
            if isinstance(exc, ToolkitError):
                raise type(exc)(f"stage '{stage}' failed: {exc}") from exc
            # A missing or unreadable file is a data error, as in every subcommand.
            kind = DataError if isinstance(exc, OSError) else ToolkitError
            raise kind(f"stage '{stage}' failed: {exc}") from exc
        wall_time_s = time.perf_counter() - start
        artifacts = [str(path) for path in run.outputs]
        manifest_stages.append({"name": stage, "wall_time_s": wall_time_s, "artifacts": artifacts})
    manifest = {
        "toolkit_version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "stages": manifest_stages,
    }
    write_json(run.out / "manifest.json", manifest)
    return manifest
