"""Command-line front end.

Every subcommand is a thin wrapper over one library operation; the CLI
adds argument parsing, error mapping and nothing else. Exit codes:
0 success, 2 config error, 3 data error, 4 numeric failure, 1 anything
else. With ``--json-errors`` every failure, usage errors too, prints a
machine-readable JSON object to stderr instead of a plain message.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys

from .config import build_config, check_seed, read_json
from .crf import CrfConfig, crf_refine
from .errors import ConfigError, DataError, ToolkitError
from .folds import check_k, strat_components, stratified_kfold, uniform_kfold
from .lamap import DEFAULT_CATCHMENT_RADIUS, DEFAULT_KERNEL_BANDWIDTH, LamapConfig
from .metrics import MetricsReport, check_n_bins, volume_gain
from .pipeline import (
    PipelineConfig,
    build_feature_stack,
    evaluate_surface,
    lamap_from_sites,
    pseudolabel_with_breakdown,
    run_pipeline,
)
from .pseudolabel import BranchPair, DplConfig, check_alpha, check_step
from .raster.distance import distance_map, load_targets
from .raster.grid import commit_outputs, json_bytes, load_raster, save_raster, write_json
from .raster.labels import DEFAULT_LABEL_RADIUS, check_label_radius, rasterize_labels
from .raster.sites import PERIODS, read_sites_csv
from .raster.tiling import check_plan, load_plan, plan_windows, save_plan, stitch

logger = logging.getLogger(__name__)


def _optional(value: str | None, flag: str) -> str | None:
    """An optional flag's value, None if absent; an empty one is a ConfigError."""
    if value == "":
        raise ConfigError(f"{flag} given but empty")
    return value


def _load_settings(cls: type, path: str | None, what: str):
    path = _optional(path, "--config")
    return build_config(cls, {} if path is None else read_json(path, ConfigError), what)


# --- subcommand handlers ------------------------------------------------------


def _cmd_derive_features(args) -> None:
    dem = load_raster(args.dem)
    stack = build_feature_stack(dem, args.targets or ())
    save_raster(stack, args.out)


def _cmd_distance_map(args) -> None:
    grid = load_raster(args.grid)
    points, lines = load_targets(args.targets)
    save_raster(distance_map(grid, points, lines), args.out)


def _cmd_rasterize_labels(args) -> None:
    check_label_radius(args.radius)
    grid = load_raster(args.grid)
    sites = read_sites_csv(args.sites, args.period)
    save_raster(rasterize_labels(grid, sites, args.radius), args.out)


def _band_list(spec: str) -> list[int | str]:
    """The indices (ints) and names in a ``--bands`` list; none is a ConfigError."""
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ConfigError("--bands given but empty")
    return [int(t) if t.removeprefix("-").isdecimal() else t for t in tokens]


def _cmd_lamap(args) -> None:
    bands = None if args.bands is None else _band_list(args.bands)
    # The indices are checked before any read; only band names need the stack.
    indices = tuple(b for b in bands or () if isinstance(b, int)) or None
    cfg = LamapConfig(
        catchment_radius=args.catchment, kernel_bandwidth=args.bandwidth, bands=indices
    )
    stack = load_raster(args.stack)
    sites = read_sites_csv(args.sites, args.period)
    if bands is not None:
        bands = [b if isinstance(b, int) else stack.band_index(b) for b in bands]
        cfg = dataclasses.replace(cfg, bands=tuple(bands))
    save_raster(lamap_from_sites(stack, sites, cfg), args.out)


def _cmd_crf_refine(args) -> None:
    cfg = _load_settings(CrfConfig, args.config, "crf")
    overrides = {
        "beta": args.beta,
        "sigma": args.sigma,
        "compression": args.gamma,
        "temperature": args.temperature,
        "iterations": args.iters,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    refined = crf_refine(load_raster(args.logits), lambda: load_raster(args.guidance), cfg)
    save_raster(refined, args.out)


def _cmd_pseudolabel(args) -> None:
    check_seed(args.seed)
    check_step(args.step)
    if args.alpha is not None:
        check_alpha(args.alpha)
    cfg = _load_settings(DplConfig, args.config, "dpl")
    labels_path = _optional(args.labels, "--labels")
    pair = BranchPair(load_raster(args.branch1), load_raster(args.branch2))
    labels = None if labels_path is None else load_raster(labels_path)
    masked, doc = pseudolabel_with_breakdown(
        pair, labels, cfg, args.seed, args.step, alpha=args.alpha
    )
    # Both files or neither: a failed write leaves no file that looks good.
    with commit_outputs() as outputs:
        save_raster(masked, outputs.temp(args.out_raster))
        outputs.temp(args.out_json).write_bytes(json_bytes(doc))


def _cmd_split_folds(args) -> None:
    check_seed(args.seed)
    check_k(args.k)
    if not (math.isfinite(args.catchment) and args.catchment >= 0):
        raise ConfigError(f"--catchment must be finite and >= 0, got {args.catchment}")
    labels_path = _optional(args.labels, "--labels")
    if args.strategy == "stratified" and not args.stack:
        raise ConfigError("--strategy stratified requires --stack")
    sites = read_sites_csv(args.sites)
    if args.strategy == "stratified":
        stack = load_raster(args.stack)
        if labels_path is not None:
            labels = load_raster(labels_path)
        else:
            labels = rasterize_labels(stack, sites, args.catchment)
        names, components = strat_components(sites, stack, labels, args.catchment)
        assignment = stratified_kfold(sites, names, components, args.k, args.seed)
    else:
        assignment = uniform_kfold(sites, args.k, args.seed)
    assignment.save(args.out)


def _cmd_stitch(args) -> None:
    if args.out_plan:
        check_plan(args.tile, args.overlap)
        grid = load_raster(args.grid)
        plan = plan_windows(grid.height, grid.width, args.tile, args.overlap)
        save_plan(args.out_plan, plan, grid.shape, grid.geotransform)
        return
    windows, shape, gt = load_plan(args.plan)
    if len(args.pred) != len(windows):
        raise DataError(
            f"plan has {len(windows)} windows but {len(args.pred)} predictions given"
        )
    grids = [load_raster(p) for p in args.pred]
    stitched = stitch(
        [g.data for g in grids], windows, shape, gt, grids[0].band_names
    )
    save_raster(stitched, args.out)


def _cmd_evaluate(args) -> None:
    check_n_bins(args.bins)
    baseline_path = _optional(args.baseline_report, "--baseline-report")
    surface = load_raster(args.pred)
    sites = read_sites_csv(args.sites, args.period)
    report = evaluate_surface(
        surface, sites, n_bins=args.bins, metadata={"period": args.period}
    )
    if baseline_path is not None:
        baseline = MetricsReport.from_dict(read_json(baseline_path, ConfigError))
        report = dataclasses.replace(
            report,
            volume_gain=volume_gain(report, baseline),
            baseline_name=baseline.metadata.get("surface") or "baseline",
        )
    write_json(args.out, report.to_dict())


def _cmd_run(args) -> None:
    run_pipeline(PipelineConfig.from_json(args.config))


# --- parser -------------------------------------------------------------------


class _UsageError(Exception):
    """A usage error: args are the parser that found it and the message."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, for ``main`` to print as JSON or as usage text."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="apmkit",
        description="Raster toolkit for archaeological predictive mapping.",
    )
    parser.add_argument(
        "--json-errors", action="store_true",
        help="print failures as a JSON object on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-features", help="terrain + distance feature stack from a DEM")
    p.add_argument("--dem", required=True, help="input DEM raster")
    p.add_argument("--targets", nargs="*", help="historical-targets JSON files")
    p.add_argument("--out", required=True, help="output stack raster")
    p.set_defaults(func=_cmd_derive_features)

    p = sub.add_parser("distance-map", help="exact distance to point/line targets")
    p.add_argument("--grid", required=True, help="reference raster")
    p.add_argument("--targets", required=True, help="targets JSON (points, lines)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_distance_map)

    p = sub.add_parser("rasterize-labels", help="1/0 label disks around sites")
    p.add_argument("--grid", required=True, help="reference raster")
    p.add_argument("--sites", required=True, help="sites CSV")
    p.add_argument("--period", choices=PERIODS, help="restrict to one period")
    p.add_argument("--radius", type=float, default=DEFAULT_LABEL_RADIUS,
                   help="disk radius in map units")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rasterize_labels)

    p = sub.add_parser("lamap", help="site-affinity potential surface")
    p.add_argument("--stack", required=True, help="feature stack raster")
    p.add_argument("--sites", required=True, help="sites CSV")
    p.add_argument("--period", choices=PERIODS, help="restrict to one period")
    p.add_argument("--catchment", type=float, default=DEFAULT_CATCHMENT_RADIUS,
                   help="catchment radius in map units")
    p.add_argument("--bandwidth", type=float, default=DEFAULT_KERNEL_BANDWIDTH,
                   help="distance-kernel bandwidth in map units")
    p.add_argument("--bands", help="comma-separated band names or indices")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lamap)

    p = sub.add_parser("crf-refine", help="mean-field refinement of a logit raster")
    p.add_argument("--logits", required=True, help="1- or 2-band logit raster")
    p.add_argument("--guidance", required=True, help="guidance feature stack")
    p.add_argument("--config", help="settings JSON")
    p.add_argument("--beta", type=float, help="bilateral feature scale")
    p.add_argument("--sigma", type=float, help="spatial stddev in pixels")
    p.add_argument("--gamma", type=int, help="guidance compression factor")
    p.add_argument("--temperature", type=float, help="unary temperature")
    p.add_argument("--iters", type=int, help="mean-field iterations")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_crf_refine)

    p = sub.add_parser("pseudolabel", help="dual-branch pseudolabel and loss breakdown")
    p.add_argument("--branch1", required=True, help="branch-1 probability raster")
    p.add_argument("--branch2", required=True, help="branch-2 probability raster")
    p.add_argument("--labels", help="label raster for the supervised term")
    p.add_argument("--config", help="objective settings JSON")
    p.add_argument("--alpha", type=float, help="fixed mixture coefficient")
    p.add_argument("--step", type=int, default=0, help="training step for the ramps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-raster", required=True, help="masked pseudolabel raster")
    p.add_argument("--out-json", required=True, help="loss-breakdown JSON")
    p.set_defaults(func=_cmd_pseudolabel)

    p = sub.add_parser("split-folds", help="site-level k-fold assignment")
    p.add_argument("--sites", required=True, help="sites CSV")
    p.add_argument("--stack", help="feature stack (stratified strategy)")
    p.add_argument("--labels", help="label raster; derived from sites when omitted")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--strategy", choices=("stratified", "uniform"), default="stratified")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--catchment", type=float, default=DEFAULT_CATCHMENT_RADIUS,
                   help="stratification catchment radius")
    p.add_argument("--out", required=True, help="folds JSON")
    p.set_defaults(func=_cmd_split_folds)

    p = sub.add_parser("stitch", help="plan windows or blend window predictions")
    p.add_argument("--grid", help="reference raster (planning mode)")
    p.add_argument("--tile", type=int, default=128, help="window size in pixels")
    p.add_argument("--overlap", type=float, default=0.9, help="window overlap fraction")
    p.add_argument("--out-plan", help="write the window plan JSON and exit")
    p.add_argument("--plan", help="window plan JSON (stitching mode)")
    p.add_argument("--pred", nargs="+", help="per-window prediction rasters, plan order")
    p.add_argument("--out", help="stitched output raster")
    p.set_defaults(func=_cmd_stitch)

    p = sub.add_parser("evaluate", help="score a surface at labeled sites")
    p.add_argument("--pred", required=True, help="probability surface raster")
    p.add_argument("--sites", required=True, help="sites CSV")
    p.add_argument("--period", choices=PERIODS, help="restrict to one period")
    p.add_argument("--bins", type=int, default=6, help="reliability bins")
    p.add_argument("--baseline-report", help="baseline report JSON for volume gain")
    p.add_argument("--out", default="report.json", help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("run", help="execute a configured pipeline")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    # --json-errors lands here before a subcommand's parser can fail.
    args = argparse.Namespace(json_errors=False)
    try:
        parser.parse_args(argv, args)
        if args.command == "stitch":
            planning, stitching = (args.grid, args.out_plan), (args.plan, args.pred, args.out)
            if not (all(planning) and not any(stitching) or all(stitching) and not any(planning)):
                parser.error("stitch: plan with --grid and --out-plan, "
                             "or stitch with --plan, --pred and --out")
        args.func(args)
    except _UsageError as exc:
        if not args.json_errors:
            argparse.ArgumentParser.error(*exc.args)  # usage text, exit 2
        _report_error(ConfigError(exc.args[1]), True)
        return ConfigError.exit_code
    except ToolkitError as exc:
        _report_error(exc, args.json_errors)
        return exc.exit_code
    except OSError as exc:
        _report_error(DataError(str(exc)), args.json_errors)
        return DataError.exit_code
    return 0


def _report_error(exc: ToolkitError, as_json: bool) -> None:
    if as_json:
        doc = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    else:
        print(f"apmkit: error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
