"""Release gate: ten numbered criteria, one verdict line each.

Each test prints ``[criterion N] <property>: PASS|FAIL`` so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as the checklist. The
oracles here are written independently of the library internals: pair
counting for ranking metrics, dense all-pairs message passing for the
refinement, and triple loops for the potential surfaces.
"""

import json
import math
import time

import numpy as np
import pytest

from apmkit.crf import (
    CrfConfig,
    class_softmax,
    mean_field_step,
    refine_values,
    unary_potentials,
)
from apmkit.folds import StratVector, stratified_kfold, uniform_kfold
from apmkit.lamap import LamapConfig, build_site_models, lamap_surface, potential_values
from apmkit.metrics import (
    ScoredSample,
    aul,
    auroc_from_arrays,
    bin_analysis,
    confusion_from_counts,
)
from apmkit.pipeline import PipelineConfig, run_pipeline
from apmkit.pseudolabel import (
    BranchPair,
    DplConfig,
    binary_entropy,
    combine,
    confident_pseudolabel,
    dpl_objective,
)
from apmkit.raster.grid import RasterGrid, save_raster
from apmkit.raster.sites import SiteRecord, write_sites_csv
from apmkit.raster.tiling import extract_window, plan_windows, stitch


def verdict(number: int, prop: str, ok: bool) -> None:
    print(f"[criterion {number}] {prop}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {prop}"


# --- 1, 2, 3: ranking and confusion metrics -----------------------------------


def test_c01_auroc_equals_pair_counting_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 501))
        # Coarse quantization forces plenty of ties.
        scores = np.round(rng.random(n), 2)
        positive = rng.random(n) < rng.uniform(0.2, 0.8)
        if not positive.any():
            positive[0] = True
        if positive.all():
            positive[0] = False
        pos, neg = scores[positive], scores[~positive]
        pairs = (
            (pos[:, None] > neg[None, :]).sum()
            + 0.5 * (pos[:, None] == neg[None, :]).sum()
        )
        want = pairs / (pos.size * neg.size)
        worst = max(worst, abs(auroc_from_arrays(scores, positive) - want))
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        f"rank AUROC equals the pair-counting oracle within 1e-12 on 200 tied "
        f"sets (max dev {worst:.2e}, {elapsed:.1f}s < 5s)",
        worst < 1e-12 and elapsed < 5.0,
    )


def test_c02_aul_matches_prior_identity():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    n = 10_000
    worst = 0.0
    for prior in (0.1, 0.2, 0.5):
        n_pos = int(round(prior * n))
        pos_scores = rng.beta(4, 2, size=n_pos)
        rest_scores = rng.beta(2, 3, size=n - n_pos)
        scores = np.concatenate([pos_scores, rest_scores])
        labeled = np.zeros(n, dtype=bool)
        labeled[:n_pos] = True
        got = aul(scores, labeled)
        roc = auroc_from_arrays(
            np.concatenate([pos_scores, rest_scores]),
            np.concatenate([np.ones(n_pos, bool), np.zeros(n - n_pos, bool)]),
        )
        want = 0.5 * prior + (1.0 - prior) * roc
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        f"AUL equals 0.5a + (1-a) AUROC within 2/N for priors 0.1/0.2/0.5 "
        f"(max dev {worst:.2e}, {elapsed:.1f}s < 10s)",
        worst < 2.0 / n and elapsed < 10.0,
    )


def test_c03_dice_iou_identity():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 500, size=4))
        cm = confusion_from_counts(tp, fp, fn, tn)
        worst = max(worst, abs(cm.dice - 2.0 * cm.iou / (1.0 + cm.iou)))
    verdict(
        3,
        f"dice equals 2 IoU / (1 + IoU) within 1e-12 on 1000 confusion tables "
        f"(max dev {worst:.2e})",
        worst < 1e-12,
    )


# --- 4: mean-field refinement --------------------------------------------------


def dense_refine(logits2, guidance, cfg):
    """All-pairs mean-field reference, O(N^2) kernels, no truncation."""
    nclass, h, w = logits2.shape
    n = h * w
    rows, cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    pos = np.stack([rows.ravel(), cols.ravel()]).astype(np.float64)
    d2 = ((pos[:, :, None] - pos[:, None, :]) ** 2).sum(axis=0)
    w_sp = np.exp(-d2 / (2.0 * cfg.sigma**2))
    np.fill_diagonal(w_sp, 0.0)
    if guidance is not None:
        g = guidance.reshape(guidance.shape[0], n)
        gd2 = ((g[:, :, None] - g[:, None, :]) ** 2).sum(axis=0)
        w_bil = w_sp * np.exp(-0.5 * cfg.beta**2 * gd2)
    else:
        w_bil = np.zeros_like(w_sp)
    kernel = cfg.pairwise_weights[0] * w_sp + cfg.pairwise_weights[1] * w_bil
    unary = -logits2.reshape(nclass, n) / cfg.temperature

    def softmax(e):
        s = np.exp(e - e.max(axis=0, keepdims=True))
        return s / s.sum(axis=0, keepdims=True)

    q = softmax(-unary)
    for _ in range(cfg.iterations):
        msg = q @ kernel.T
        q = softmax(-unary - cfg.compatibility @ msg)
    return q[1].reshape(h, w)


def test_c04_crf_normalization_oracle_and_denoising():
    rng = np.random.default_rng(404)

    # Per-step normalization on a random 8x8 field.
    logits = rng.normal(size=(2, 8, 8)) * 2
    cfg = CrfConfig(sigma=2.0, iterations=5, compress_guidance=False)
    guidance = rng.normal(size=(3, 8, 8))
    unary = unary_potentials(logits, cfg.temperature)
    q = class_softmax(-unary)
    norm_dev = 0.0
    for _ in range(cfg.iterations):
        q = mean_field_step(q, unary, guidance, cfg)
        norm_dev = max(norm_dev, float(np.abs(q.sum(axis=0) - 1.0).max()))

    # Full refinement against the dense all-pairs oracle. The 8x8 grid has
    # Chebyshev diameter 7, below the sigma=3 truncation radius of 9, so
    # the windowed pass must equal the untruncated reference.
    oracle_dev = 0.0
    logits = rng.normal(size=(2, 8, 8))
    cfg_sp = CrfConfig(sigma=3.0, iterations=4, pairwise_weights=(1.0, 0.0))
    oracle_dev = max(
        oracle_dev,
        float(np.abs(refine_values(logits, None, cfg_sp) - dense_refine(logits, None, cfg_sp)).max()),
    )
    guidance = rng.normal(size=(2, 8, 8))
    cfg_bil = CrfConfig(sigma=3.0, beta=0.8, iterations=4, compress_guidance=False)
    oracle_dev = max(
        oracle_dev,
        float(
            np.abs(
                refine_values(logits, guidance, cfg_bil)
                - dense_refine(logits, guidance, cfg_bil)
            ).max()
        ),
    )

    # Denoising on the 32x32 two-region field with 10% flipped logits:
    # mean |q1 - clean| strictly shrinks at every step, and the hard
    # labels recover the clean map.
    h = w = 32
    clean = np.zeros((h, w), dtype=bool)
    clean[:, w // 2:] = True
    target = clean.astype(np.float64)
    field = np.where(clean, 2.0, -2.0)
    flip = np.zeros(h * w, dtype=bool)
    flip[rng.choice(h * w, size=int(0.10 * h * w), replace=False)] = True
    noisy = np.where(flip.reshape(h, w), -field, field)
    cfg_dn = CrfConfig(sigma=3.0, temperature=5.0, iterations=5, pairwise_weights=(0.3, 0.0))
    arr = np.stack([np.zeros_like(noisy), noisy])
    unary = unary_potentials(arr, cfg_dn.temperature)
    q = class_softmax(-unary)
    disagreement = [float(np.abs(q[1] - target).mean())]
    for _ in range(cfg_dn.iterations):
        q = mean_field_step(q, unary, None, cfg_dn)
        disagreement.append(float(np.abs(q[1] - target).mean()))
    strictly_down = all(b < a for a, b in zip(disagreement, disagreement[1:]))
    recovered = bool(((q[1] > 0.5) == clean).all())

    verdict(
        4,
        f"per-step |sum Q - 1| < 1e-9 (max {norm_dev:.1e}); refinement matches "
        f"the dense oracle within 1e-6 (max {oracle_dev:.1e}); 32x32 two-region "
        f"denoising disagreement strictly decreases "
        f"({disagreement[0]:.3f} -> {disagreement[-1]:.4f}) and recovers the "
        f"clean map",
        norm_dev < 1e-9 and oracle_dev < 1e-6 and strictly_down and recovered,
    )


# --- 5: objective algebra ------------------------------------------------------


def _prob_grid(rng, shape=(12, 14)):
    vals = np.clip(rng.random(shape), 0.02, 0.98).astype(np.float32)
    return RasterGrid.from_array(vals, (0.0, 0.0, 1.0, -1.0))


def test_c05_objective_algebra():
    rng = np.random.default_rng(505)
    pair = BranchPair(_prob_grid(rng), _prob_grid(rng))
    labels = RasterGrid.from_array(
        (rng.random((12, 14)) < 0.5).astype(np.float32), (0.0, 0.0, 1.0, -1.0)
    )

    zeroed = DplConfig(lambda_p=0.0, lambda_c_max=0.0, lambda_e_max=0.0)
    b0 = dpl_objective(pair, labels, zeroed, 17, confident_pseudolabel(pair, zeroed, 0.35))
    degenerate_exact = b0.total == b0.supervised

    base = DplConfig(lambda_p=0.7)
    h = 0.5
    bumped = DplConfig(lambda_p=0.7 + h)
    t1 = dpl_objective(pair, labels, base, 17, confident_pseudolabel(pair, base, 0.35))
    t2 = dpl_objective(pair, labels, bumped, 17, confident_pseudolabel(pair, bumped, 0.35))
    slope = (t2.total - t1.total) / h
    slope_dev = abs(slope - t1.pseudolabel)

    mixed = combine(pair, alpha=1.0)
    branch1_bitexact = np.array_equal(mixed.data, pair.y1.data)

    entropy_dev = abs(binary_entropy(np.array([0.5])) - math.log(2.0))

    verdict(
        5,
        f"zero-weight objective equals the supervised term exactly; "
        f"finite-difference slope in the pseudolabel weight matches the term "
        f"within 1e-9 (dev {slope_dev:.1e}); combine(alpha=1) returns branch 1 "
        f"bit-exactly; binary_entropy(0.5) = ln 2 within 1e-12 "
        f"(dev {entropy_dev:.1e})",
        degenerate_exact
        and slope_dev < 1e-9
        and branch1_bitexact
        and entropy_dev < 1e-12,
    )


# --- 6: potential surface oracle ------------------------------------------------


def count_cdf(samples, v):
    s = np.asarray(samples, dtype=float)
    return (np.sum(s < v) + 0.5 * np.sum(s == v)) / s.size


def brute_force_potential(stack, models, cfg):
    """Triple-loop reference: pixels x sites x bands, float64 throughout."""
    bands = cfg.bands if cfg.bands is not None else tuple(range(stack.bands))
    ox, oy, pw, ph = stack.geotransform
    h, w = stack.shape
    out = np.full((h, w), np.nan)
    for r in range(h):
        for c in range(w):
            if stack.nodata_mask[r, c]:
                continue
            px = ox + (c + 0.5) * pw
            py = oy + (r + 0.5) * ph
            num = den = 0.0
            for m in models:
                d = float(np.hypot(px - m.x, py - m.y))
                wgt = float(np.exp(-d / cfg.kernel_bandwidth))
                u = 0.0
                for ecdf, b in zip(m.ecdfs, bands):
                    f = count_cdf(ecdf.samples, stack.band(b)[r, c])
                    u += 1.0 - abs(2.0 * f - 1.0)
                num += wgt * u / len(bands)
                den += wgt
            out[r, c] = min(max(num / den, 0.0), 1.0)
    return out


def test_c06_potential_surface_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    in_range = True
    permutation_exact = True
    for _ in range(3):
        h, w = (int(v) for v in rng.integers(8, 17, size=2))
        nb = int(rng.integers(1, 4))
        values = rng.normal(size=(nb, h, w)).astype(np.float32)
        mask = rng.random((h, w)) < 0.1
        mask[h // 2, w // 2] = False
        grid = RasterGrid.from_array(values, (0.0, 0.0, 1.0, -1.0), nodata_mask=mask)
        cfg = LamapConfig(catchment_radius=2.5, kernel_bandwidth=5.0)
        sites = [
            SiteRecord(
                f"s{i}",
                float(rng.uniform(1, w - 1)),
                float(-rng.uniform(1, h - 1)),
                "Roman Imperial",
                "positive",
            )
            for i in range(int(rng.integers(1, 5)))
        ]
        models = build_site_models(grid, sites, cfg)
        got = potential_values(grid, models, cfg)
        want = brute_force_potential(grid, models, cfg)
        valid = ~np.isnan(want)
        worst = max(worst, float(np.abs(got[valid] - want[valid]).max()))

        surface = lamap_surface(grid, models, cfg)
        vals = surface.band(0)[~surface.nodata_mask]
        in_range &= bool(np.all((vals >= 0.0) & (vals <= 1.0)))

        for _ in range(3):
            shuffled = [models[i] for i in rng.permutation(len(models))]
            permutation_exact &= np.array_equal(
                potential_values(grid, shuffled, cfg), got, equal_nan=True
            )
    verdict(
        6,
        f"potential surfaces match the triple-loop oracle within 1e-9 "
        f"(max dev {worst:.1e}); outputs lie in [0,1]; site permutations leave "
        f"the surface bit-identical",
        worst < 1e-9 and in_range and permutation_exact,
    )


# --- 7: full-frame tiling -------------------------------------------------------


def test_c07_full_frame_identity_stitch():
    t0 = time.perf_counter()
    h, w = 1647, 3284
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    frame = (np.sin(rows / 97.0) + np.cos(cols / 131.0)).astype(np.float32)
    windows = plan_windows(h, w, 128, 0.9)
    preds = [extract_window(frame, win) for win in windows]
    out = stitch(preds, windows, (h, w))
    err = float(np.abs(out.band(0).astype(np.float64) - frame.astype(np.float64)).max())

    covered = np.zeros((h, w), dtype=bool)
    for win in windows:
        rel_r, rel_c = win.retained(h, w)
        covered[
            win.row0 + rel_r.start : win.row0 + rel_r.stop,
            win.col0 + rel_c.start : win.col0 + rel_c.stop,
        ] = True
    elapsed = time.perf_counter() - t0
    verdict(
        7,
        f"identity predictor on the 1647x3284 frame (tile 128, overlap 0.9, "
        f"{len(windows)} windows) stitches back within 1e-6 (max dev {err:.1e}) "
        f"with every pixel in a retained center ({elapsed:.1f}s < 60s)",
        err < 1e-6 and bool(covered.all()) and elapsed < 60.0,
    )


# --- 8: fold splitting ----------------------------------------------------------


def test_c08_fold_properties_and_imbalance():
    partition_ok = True
    sizes_ok = True
    never_worse = True
    strict_wins = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(12, 40))
        k = int(rng.integers(3, 6))
        dim = int(rng.integers(2, 6))
        sites = [
            SiteRecord(f"s{i}", float(i), -1.0, "Roman Imperial", "positive")
            for i in range(n)
        ]
        vecs = [
            StratVector(f"s{i}", rng.normal(size=dim), tuple(f"c{j}" for j in range(dim)))
            for i in range(n)
        ]
        strat = stratified_kfold(sites, vecs, k, seed)
        uni = uniform_kfold(sites, k, seed, vectors=vecs)
        for fa in (strat, uni):
            partition_ok &= sorted(fa.assignment) == sorted(s.site_id for s in sites)
            partition_ok &= all(0 <= f < k for f in fa.assignment.values())
            sizes = fa.fold_sizes()
            sizes_ok &= max(sizes) - min(sizes) <= 1 and sum(sizes) == n
        never_worse &= strat.imbalance <= uni.imbalance + 1e-12
        strict_wins += strat.imbalance < uni.imbalance - 1e-12
    verdict(
        8,
        f"on 100 seeded instances both splitters partition every site once "
        f"with fold sizes within one; stratified never exceeds uniform "
        f"imbalance and strictly beats it on {strict_wins}/100 (needs >= 95)",
        partition_ok and sizes_ok and never_worse and strict_wins >= 95,
    )


# --- 9: calibration simulation ---------------------------------------------------


def test_c09_bernoulli_calibration():
    rng = np.random.default_rng(909)
    n = 100_000
    scores = rng.random(n)
    labels = rng.random(n) < scores
    samples = [
        ScoredSample(float(s), "positive" if flag else "negative")
        for s, flag in zip(scores, labels)
    ]
    bins = bin_analysis(samples, 6)
    gaps = [b.calibration_gap for b in bins]
    worst = max(gaps)
    verdict(
        9,
        f"Bernoulli(score) labels over 1e5 uniform scores give six-bin "
        f"calibration gaps below 0.02 (max gap {worst:.4f})",
        all(b.count > 0 for b in bins) and worst < 0.02,
    )


# --- 10: end-to-end determinism ---------------------------------------------------


def _synth_workspace(root):
    h, w = 32, 64
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    z = 0.08 * rows + 0.05 * cols + 2.0 * np.sin(cols / 9.0) + np.cos(rows / 7.0)
    dem = RasterGrid.from_array(z.astype(np.float32), (0.0, 0.0, 1.0, -1.0))
    save_raster(dem, root / "dem.grid")
    sites = [
        SiteRecord("p1", 10.5, -10.5, "Roman Imperial", "positive", 12),
        SiteRecord("p2", 40.5, -20.5, "Roman Imperial", "positive", 7),
        SiteRecord("n1", 55.5, -5.5, "Roman Imperial", "negative", 1),
    ]
    write_sites_csv(root / "sites.csv", sites)
    rng = np.random.default_rng(99)
    for name in ("branch1", "branch2"):
        xs = (np.arange(w) + 0.5)[None, :]
        ys = -(np.arange(h) + 0.5)[:, None]
        bumps = np.zeros((h, w))
        for s in sites:
            if s.polarity == "positive":
                bumps += np.exp(-(((xs - s.x) ** 2 + (ys - s.y) ** 2)) / (2 * 8.0**2))
        vals = np.clip(bumps + 0.01 * rng.normal(size=(h, w)), 0.01, 0.99)
        save_raster(
            RasterGrid.from_array(vals.astype(np.float32), (0.0, 0.0, 1.0, -1.0)),
            root / f"{name}.grid",
        )


def test_c10_pipeline_determinism(tmp_path):
    _synth_workspace(tmp_path)
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / f"out_{run}"
        cfg = PipelineConfig.from_json({
            "output_dir": str(out_dir),
            "stages": ["features", "labels", "lamap", "crf", "pseudolabel", "evaluate"],
            "seed": 7,
            "inputs": {
                "dem": str(tmp_path / "dem.grid"),
                "sites": str(tmp_path / "sites.csv"),
                "branch1": str(tmp_path / "branch1.grid"),
                "branch2": str(tmp_path / "branch2.grid"),
            },
            "tile_size": 32,
            "overlap": 0.5,
            "label_radius": 3.0,
            "lamap": {"catchment_radius": 4.0, "kernel_bandwidth": 20.0},
            "crf": {"iterations": 2, "sigma": 2.0},
            "dpl": {"confidence_tau": 0.8},
            "step": 100,
        })
        run_pipeline(cfg)
        outputs.append(out_dir)
    a, b = outputs
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    same_artifacts = names_a == names_b
    identical = True
    compared = 0
    for name in names_a:
        if name == "manifest.json":
            continue  # stage wall times differ between runs
        identical &= (a / name).read_bytes() == (b / name).read_bytes()
        compared += 1
    verdict(
        10,
        f"two runs of the six-stage synthetic pipeline with one seed produce "
        f"byte-identical artifacts ({compared} files compared)",
        same_artifacts and identical and compared >= 5,
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
