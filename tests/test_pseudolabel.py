"""Pseudolabel mixing and the combined semi-supervised objective."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import apmkit.pseudolabel as pseudolabel_module
from apmkit.errors import ConfigError, DataError
from apmkit.pipeline import pseudolabel_with_breakdown
from apmkit.pseudolabel import (
    BranchPair,
    DplConfig,
    binary_entropy,
    combine,
    confident_pseudolabel,
    consistency,
    dpl_objective,
    ramp_weight,
    seg_loss,
)

# Hand-computed on pred (0.9, 0.1, 0.8, 0.2) vs target (1, 0, 1, 0).
PRED4 = np.array([[0.9, 0.1], [0.8, 0.2]])
TARG4 = np.array([[1.0, 0.0], [1.0, 0.0]])
FOCAL4 = 0.004989673604573325
CE4 = 0.164252033486018
CE4_W21 = 0.24637805022902698
DICE4 = 0.11999999999999988
TVERSKY4 = 0.09999999999999998


def pair_of(make_grid, a, b, mask1=None, mask2=None):
    return BranchPair(make_grid(a, mask=mask1), make_grid(b, mask=mask2))


def loss(kind, pred, target, select=None, **settings):
    return seg_loss(pred, target, DplConfig(loss_kind=kind, **settings), select=select)


class TestConfig:
    def test_defaults_and_ramp_steps(self):
        cfg = DplConfig()
        assert cfg.loss_kind == "dice"
        assert cfg.confidence_tau == 0.8
        assert cfg.ramp_steps == 250
        assert DplConfig(ramp_fraction=0.001, total_steps=100).ramp_steps == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_kind": "hinge"},
            {"confidence_tau": 0.5},
            {"confidence_tau": 0.96},
            {"lambda_p": -1.0},
            {"ramp_fraction": 0.0},
            {"ramp_fraction": 1.5},
            {"total_steps": 0},
            {"class_weights": (1.0, -1.0)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            DplConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"focal_gamma": -1.0},
            {"tversky_alpha": -0.1},
            {"tversky_beta": -0.1},
            {"dice_smooth": -1.0},
            {"tversky_alpha": 0.0, "tversky_beta": 0.0, "dice_smooth": 0.0},
            {"tversky_alpha": 0.0, "dice_smooth": 0.0},
        ],
        ids=["gamma", "alpha", "beta", "smooth", "no-weights", "no-fp-weight"],
    )
    def test_loss_settings_that_break_the_loss(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ConfigError, match=name):
            DplConfig(**kwargs)

    def test_unsmoothed_tversky_needs_only_its_false_positive_weight(self):
        # The denominator is sum(p t) + a sum(p (1 - t)) + b sum((1 - p) t):
        # with a > 0 it is positive for any targets in [0, 1], so b may be 0.
        p = np.array([0.05, 0.03, 0.9])
        for t in (np.zeros(3), np.ones(3)):
            got = loss("tversky", p, t, tversky_beta=0.0, dice_smooth=0.0)
            assert 0.0 <= got <= 1.0
        assert loss("tversky", p, np.zeros(3), tversky_alpha=0.0) == pytest.approx(0.0)

    def test_replace_reruns_the_checks(self):
        # The config is frozen, so replace() is the one way to change it.
        with pytest.raises(ConfigError, match="tversky_alpha"):
            replace(DplConfig(), tversky_alpha=0, dice_smooth=0)
        assert replace(DplConfig(), tversky_alpha=0).dice_smooth == 1.0

    def test_construct_from_json_dict(self):
        cfg = DplConfig(**{"loss_kind": "focal", "class_weights": [2.0, 1.0]})
        assert cfg.class_weights == (2.0, 1.0)


class TestCombine:
    def test_convex_mixture(self, make_grid, rng):
        a = rng.random((6, 6)).astype(np.float32)
        b = rng.random((6, 6)).astype(np.float32)
        pair = pair_of(make_grid, a, b)
        mixed = combine(pair, alpha=0.25)
        want = np.float32(0.25) * a + np.float32(0.75) * b
        assert np.array_equal(mixed.band(0), want)
        assert mixed.meta["alpha"] == 0.25

    def test_endpoints_bit_exact(self, make_grid, rng):
        a = rng.random((5, 7)).astype(np.float32)
        b = rng.random((5, 7)).astype(np.float32)
        pair = pair_of(make_grid, a, b)
        assert np.array_equal(combine(pair, alpha=1.0).band(0), a)
        assert np.array_equal(combine(pair, alpha=0.0).band(0), b)

    def test_alpha_range(self, make_grid):
        pair = pair_of(make_grid, np.zeros((3, 3)), np.ones((3, 3)))
        with pytest.raises(ConfigError):
            combine(pair, alpha=1.5)

    def test_mask_union(self, make_grid, rng):
        m1 = np.zeros((4, 4), dtype=bool)
        m1[0, 0] = True
        m2 = np.zeros((4, 4), dtype=bool)
        m2[3, 3] = True
        pair = pair_of(make_grid, rng.random((4, 4)), rng.random((4, 4)), m1, m2)
        assert combine(pair, alpha=0.5).nodata_mask[0, 0]
        assert combine(pair, alpha=0.5).nodata_mask[3, 3]

    def test_frame_mismatch(self, make_grid, rng):
        g1 = make_grid(rng.random((4, 4)))
        g2 = make_grid(rng.random((4, 5)))
        with pytest.raises(DataError):
            BranchPair(g1, g2)


class TestConfidentPseudolabel:
    def test_threshold_masks_uncertain(self, make_grid):
        a = np.array([[0.95, 0.5], [0.05, 0.7]])
        pair = pair_of(make_grid, a, a)
        out = confident_pseudolabel(pair, DplConfig(confidence_tau=0.9), alpha=0.5)
        keep = ~out.nodata_mask
        assert keep.tolist() == [[True, False], [True, False]]
        assert np.isnan(out.band(0)[0, 1])
        assert out.meta["confidence_tau"] == 0.9

    def test_matches_the_combined_raster(self, make_grid, rng):
        # Masked branch pixels are NaN in the mixture and fail the
        # confidence test; the raster is the mixture masked off the rest.
        masks = [rng.random((7, 9)) < 0.3 for _ in range(2)]
        pair = pair_of(make_grid, rng.random((7, 9)), rng.random((7, 9)), *masks)
        out = confident_pseudolabel(pair, DplConfig(confidence_tau=0.75), alpha=0.3)
        mixed = combine(pair, alpha=0.3)
        tilde = mixed.band(0).astype(np.float64)
        conf = np.where(np.isnan(tilde), 0.0, np.maximum(tilde, 1.0 - tilde))
        confident = ~mixed.nodata_mask & (conf >= 0.75)
        assert np.array_equal(out.nodata_mask, ~confident)
        assert np.array_equal(out.band(0)[confident], mixed.band(0)[confident])
        assert np.isnan(out.band(0)[~confident]).all()
        assert out.meta == {"confidence_tau": 0.75, "alpha": 0.3}


class TestRamp:
    def test_frozen_values(self):
        assert ramp_weight(0, 100, 1.0) == pytest.approx(0.006737946999085467, abs=1e-15)
        assert ramp_weight(50, 100, 1.0) == pytest.approx(0.2865047968601901, abs=1e-15)
        assert ramp_weight(100, 100, 1.0) == 1.0
        assert ramp_weight(500, 100, 1.0) == 1.0
        assert ramp_weight(0, 100, 0.1) == pytest.approx(0.0006737946999085467, abs=1e-16)

    def test_monotone(self):
        vals = [ramp_weight(s, 40, 2.0) for s in range(0, 60)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError, match="step must be >= 0, got -1"):
            ramp_weight(-1, 10, 1.0)
        with pytest.raises(ConfigError):
            ramp_weight(0, 0, 1.0)


class TestEntropyAndConsistency:
    def test_frozen_entropy(self, make_grid):
        assert binary_entropy(np.array([0.25, 0.75])) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )
        assert binary_entropy(np.array([0.5])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_extremes_are_clamped(self):
        val = binary_entropy(np.array([0.0, 1.0]))
        assert 0.0 < val < 1e-5

    def test_raster_mask_respected(self, make_grid):
        mask = np.array([[False, True]])
        grid = make_grid(np.array([[0.5, 0.99]]), mask=mask)
        assert binary_entropy(grid) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_fully_masked(self, make_grid):
        grid = make_grid(np.ones((2, 2)), mask=np.ones((2, 2), dtype=bool))
        with pytest.raises(DataError):
            binary_entropy(grid)

    def test_consistency_mse(self, make_grid):
        pair = pair_of(
            make_grid, np.array([[0.2, 0.4]]), np.array([[0.5, 0.4]])
        )
        assert consistency(pair.y1, pair.y2) == pytest.approx(0.5 * 0.3**2, abs=1e-7)

    def test_identical_branches_zero(self, make_grid, rng):
        a = rng.random((5, 5))
        pair = pair_of(make_grid, a, a)
        assert consistency(pair.y1, pair.y2) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            consistency(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_float64_reads_equal_the_rasters(self, make_grid, rng):
        # dpl_objective passes float64 reads: a raster holds NaN exactly
        # under its mask, so an array's finite pixels are the raster's valid ones.
        masks = [rng.random((6, 8)) < 0.3 for _ in range(2)]
        pair = pair_of(make_grid, rng.random((6, 8)), rng.random((6, 8)), *masks)
        y1, y2 = (g.band(0).astype(np.float64) for g in (pair.y1, pair.y2))
        assert binary_entropy(y1) == binary_entropy(pair.y1)
        assert consistency(y1, y2) == consistency(pair.y1, pair.y2)
        target = (y2 >= 0.5).astype(np.float64)
        for kind in ("weighted-ce", "dice", "dice-focal", "focal", "tversky"):
            assert loss(kind, y1, target) == loss(kind, pair.y1, target)


class TestSegLoss:
    def test_focal_frozen(self):
        assert loss("focal", PRED4, TARG4) == pytest.approx(FOCAL4, abs=1e-9)

    def test_weighted_ce_frozen(self):
        assert loss("weighted-ce", PRED4, TARG4) == pytest.approx(CE4, abs=1e-9)
        assert loss(
            "weighted-ce", PRED4, TARG4, class_weights=(2.0, 1.0)
        ) == pytest.approx(CE4_W21, abs=1e-9)

    def test_dice_frozen(self):
        assert loss("dice", PRED4, TARG4) == pytest.approx(DICE4, abs=1e-9)

    def test_tversky_frozen(self):
        assert loss("tversky", PRED4, TARG4) == pytest.approx(TVERSKY4, abs=1e-9)

    def test_dice_focal_is_sum(self):
        assert loss("dice-focal", PRED4, TARG4) == pytest.approx(
            DICE4 + FOCAL4, abs=1e-9
        )

    def test_perfect_prediction_near_zero(self):
        t = np.array([1.0, 0.0, 1.0])
        for kind in ("weighted-ce", "focal"):
            assert loss(kind, t, t) < 1e-5
        # Overlap losses keep a smoothing floor but stay small.
        assert loss("dice", t, t) < 0.2

    def test_select_subset(self):
        sel = np.array([[True, True], [False, False]])
        got = loss("weighted-ce", PRED4, TARG4, select=sel)
        want = -(np.log(0.9) + np.log(0.9)) / 2.0
        assert got == pytest.approx(want, abs=1e-9)

    def test_validation(self):
        # DplConfig is frozen, so the kind seg_loss reads passed the check.
        cfg = DplConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.loss_kind = "hinge"
        with pytest.raises(ConfigError, match="loss_kind"):
            replace(cfg, loss_kind="hinge")
        with pytest.raises(DataError):
            loss("dice", PRED4, TARG4[:1])
        with pytest.raises(DataError):
            loss("dice", PRED4, TARG4, select=np.zeros((2, 2), dtype=bool))


class TestObjective:
    def make_labeled(self, make_grid, rng):
        pair = pair_of(
            make_grid,
            rng.random((6, 6)).astype(np.float32),
            rng.random((6, 6)).astype(np.float32),
        )
        label_mask = rng.random((6, 6)) > 0.4
        labels = np.where(label_mask, (rng.random((6, 6)) > 0.5).astype(float), np.nan)
        return pair, make_grid(labels, mask=~label_mask)

    def test_zero_lambdas_reduce_to_supervised(self, make_grid, rng):
        pair, labels = self.make_labeled(make_grid, rng)
        cfg = DplConfig(lambda_p=0.0, lambda_c_max=0.0, lambda_e_max=0.0)
        out = dpl_objective(pair, labels, cfg, 500, confident_pseudolabel(pair, cfg, 0.5))
        assert out.total == out.supervised
        labeled_pixels = ~labels.nodata_mask
        want = 0.5 * (
            seg_loss(pair.y1, labels, cfg, select=labeled_pixels)
            + seg_loss(pair.y2, labels, cfg, select=labeled_pixels)
        )
        assert out.supervised == pytest.approx(want, abs=1e-12)

    def test_total_is_linear_in_lambda_p(self, make_grid, rng):
        pair = pair_of(make_grid, rng.random((6, 6)), rng.random((6, 6)))
        base = DplConfig(lambda_p=1.0, confidence_tau=0.7)
        bumped = DplConfig(lambda_p=1.0 + 1e-3, confidence_tau=0.7)
        lo = dpl_objective(pair, None, base, 10, confident_pseudolabel(pair, base, 0.3))
        hi = dpl_objective(pair, None, bumped, 10, confident_pseudolabel(pair, bumped, 0.3))
        slope = (hi.total - lo.total) / 1e-3
        assert slope == pytest.approx(lo.pseudolabel, abs=1e-9)

    def test_identical_branches_decomposition(self, make_grid):
        # Both branches at 0.9: no disagreement, and the pseudolabel term
        # is twice the single-branch loss against the shared pseudolabel.
        field = np.full((2, 1), 0.9)
        pair = pair_of(make_grid, field, field)
        cfg = DplConfig(loss_kind="dice", confidence_tau=0.7)
        out = dpl_objective(pair, None, cfg, 0, confident_pseudolabel(pair, cfg, 0.4))
        assert out.consistency == 0.0
        want = 2.0 * seg_loss(pair.y1, np.ones_like(field), cfg)
        assert out.pseudolabel == pytest.approx(want, abs=1e-12)

    def test_hard_targets_for_overlap_losses(self, make_grid, rng):
        y1 = rng.random((5, 5))
        y2 = rng.random((5, 5))
        pair = pair_of(make_grid, y1, y2)
        cfg = DplConfig(loss_kind="dice", confidence_tau=0.7)
        out = dpl_objective(pair, None, cfg, 0, confident_pseudolabel(pair, cfg, 0.5))
        tilde = combine(pair, alpha=0.5).band(0).astype(np.float64)
        conf = np.maximum(tilde, 1.0 - tilde) >= 0.7
        hard = (tilde >= 0.5).astype(float)
        want = seg_loss(pair.y1, hard, cfg, select=conf) + seg_loss(
            pair.y2, hard, cfg, select=conf
        )
        assert out.pseudolabel == pytest.approx(want, abs=1e-12)

    def test_soft_targets_for_log_losses(self, make_grid, rng):
        y1 = rng.random((5, 5))
        y2 = rng.random((5, 5))
        pair = pair_of(make_grid, y1, y2)
        cfg = DplConfig(loss_kind="focal", confidence_tau=0.7)
        out = dpl_objective(pair, None, cfg, 0, confident_pseudolabel(pair, cfg, 0.5))
        tilde = combine(pair, alpha=0.5).band(0).astype(np.float64)
        conf = np.maximum(tilde, 1.0 - tilde) >= 0.7
        want = seg_loss(pair.y1, tilde, cfg, select=conf) + seg_loss(
            pair.y2, tilde, cfg, select=conf
        )
        assert out.pseudolabel == pytest.approx(want, abs=1e-12)

    def test_unconfident_batch_contributes_zero(self, make_grid):
        lukewarm = np.full((3, 3), 0.6)
        pair = pair_of(make_grid, lukewarm, lukewarm)
        cfg = DplConfig(confidence_tau=0.8)
        pseudolabel = confident_pseudolabel(pair, cfg, 0.5)
        assert pseudolabel.nodata_mask.all()
        out = dpl_objective(pair, None, cfg, 0, pseudolabel)
        assert out.pseudolabel == 0.0
        assert out.consistency == 0.0
        assert out.entropy > 0.0

    def test_ramped_total_formula(self, make_grid, rng):
        pair = pair_of(make_grid, rng.random((4, 4)), rng.random((4, 4)))
        cfg = DplConfig(lambda_c_max=2.0, lambda_e_max=0.5, confidence_tau=0.7)
        step = 37
        out = dpl_objective(pair, None, cfg, step, confident_pseudolabel(pair, cfg, 0.6))
        lam_c = ramp_weight(step, cfg.ramp_steps, 2.0)
        lam_e = ramp_weight(step, cfg.ramp_steps, 0.5)
        want = (
            cfg.lambda_p * out.pseudolabel + lam_c * out.consistency - lam_e * out.entropy
        )
        assert out.total == pytest.approx(want, abs=1e-12)

    def test_as_dict_roundtrip_keys(self, make_grid, rng):
        pair = pair_of(make_grid, rng.random((3, 3)), rng.random((3, 3)))
        out = dpl_objective(
            pair, None, DplConfig(), 0, confident_pseudolabel(pair, DplConfig(), 0.5)
        )
        d = out.as_dict()
        assert set(d) == {"supervised", "pseudolabel", "consistency", "entropy", "total"}
        assert d["total"] == out.total

    def test_input_validation(self, make_grid, rng):
        pair, labels = self.make_labeled(make_grid, rng)
        pseudolabel = confident_pseudolabel(pair, DplConfig(), 0.5)
        with pytest.raises(ConfigError, match="step must be >= 0, got -1"):
            dpl_objective(pair, labels, DplConfig(), -1, pseudolabel)
        shifted = make_grid(labels.band(0), (1.0, 0.0, 1.0, -1.0), mask=labels.nodata_mask)
        with pytest.raises(DataError, match="labels disagree in frame"):
            dpl_objective(pair, shifted, DplConfig(), 0, pseudolabel)
        unlabeled = make_grid(np.full((6, 6), np.nan), mask=np.ones((6, 6), bool))
        with pytest.raises(DataError, match="no labeled pixels"):
            dpl_objective(pair, unlabeled, DplConfig(), 0, pseudolabel)
        two_band = make_grid(np.stack([labels.band(0)] * 2), mask=labels.nodata_mask)
        with pytest.raises(DataError, match="single-band"):
            dpl_objective(pair, two_band, DplConfig(), 0, pseudolabel)


def mixing_loop_pseudo_term(pair, cfg, alpha):
    """The pseudolabel term with the branches mixed and the confidence
    rule applied inline, as a reference for dpl_objective."""
    mixed = combine(pair, alpha=float(alpha))
    tilde = mixed.band(0).astype(np.float64)
    confident = pair.valid & ~mixed.nodata_mask
    conf = np.where(np.isnan(tilde), 0.0, np.maximum(tilde, 1.0 - tilde))
    confident &= conf >= cfg.confidence_tau
    if not confident.any():
        return 0.0
    hard = cfg.loss_kind in ("dice", "dice-focal", "tversky")
    target = (tilde >= 0.5).astype(np.float64) if hard else tilde
    return seg_loss(pair.y1, target, cfg, select=confident) + seg_loss(
        pair.y2, target, cfg, select=confident
    )


class TestObjectiveMatchesMixingLoop:
    @pytest.mark.parametrize("kind", ["weighted-ce", "dice", "dice-focal", "focal", "tversky"])
    @pytest.mark.parametrize("alphas", [None, [0.0, 1.0], [0.37, 0.5]])
    def test_pseudolabel_term_is_identical(self, make_grid, kind, alphas):
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(2):
            masks = [rng.random((9, 11)) < 0.2 for _ in range(2)]
            # Sharp branches, so most mixtures hold confident pixels.
            y1, y2 = (np.clip(rng.beta(0.3, 0.3, (9, 11)), 1e-3, 1 - 1e-3) for _ in range(2))
            pairs.append(pair_of(make_grid, y1, y2, masks[0], masks[1]))
        if alphas is None:  # drawn, as the pseudolabel stage draws its alpha
            alphas = rng.uniform(size=2).tolist()
        for tau in (0.7, 0.8, 0.95):
            cfg = DplConfig(loss_kind=kind, confidence_tau=tau)
            for pair, alpha in zip(pairs, alphas, strict=True):
                out = dpl_objective(pair, None, cfg, 5, confident_pseudolabel(pair, cfg, alpha))
                assert out.pseudolabel == mixing_loop_pseudo_term(pair, cfg, alpha)

    def test_unconfident_and_masked_batches(self, make_grid):
        lukewarm = np.full((3, 4), 0.55)
        sharp = np.full((3, 4), 0.99)
        mask = np.zeros((3, 4), bool)
        mask[0] = True
        pairs = [
            pair_of(make_grid, lukewarm, lukewarm),
            pair_of(make_grid, sharp, lukewarm, mask1=mask),
        ]
        cfg = DplConfig(confidence_tau=0.75)
        for alphas in ([0.21, 0.64], [0.5, 0.9]):
            for pair, alpha in zip(pairs, alphas, strict=True):
                out = dpl_objective(pair, None, cfg, 0, confident_pseudolabel(pair, cfg, alpha))
                assert out.pseudolabel == mixing_loop_pseudo_term(pair, cfg, alpha)


class TestObjectiveScoresThePseudolabel:
    """dpl_objective scores the rasters confident_pseudolabel builds."""

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_one_mixture_per_stage_call(self, make_grid, rng, monkeypatch, with_labels):
        pair = pair_of(make_grid, rng.random((6, 7)), rng.random((6, 7)))
        labels = make_grid((rng.random((6, 7)) < 0.5).astype(float)) if with_labels else None
        calls = []
        mixture = pseudolabel_module._mixture

        def counted(*args):
            calls.append(args)
            return mixture(*args)

        monkeypatch.setattr(pseudolabel_module, "_mixture", counted)
        masked_grid, _ = pseudolabel_with_breakdown(pair, labels, DplConfig(), seed=3, step=5)
        assert len(calls) == 1
        assert masked_grid.meta["alpha"] == calls[0][1]

    def test_negative_seed_is_config_error(self, make_grid, rng):
        pair = pair_of(make_grid, rng.random((6, 7)), rng.random((6, 7)))
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            pseudolabel_with_breakdown(pair, None, DplConfig(), seed=-1, step=0)

    @pytest.mark.parametrize(
        "values,geotransform",
        [
            (np.full((3, 4), 0.95), (0.0, 0.0, 1.0, -1.0)),
            (np.full((3, 3), 0.95), (5.0, 0.0, 1.0, -1.0)),
            (np.full((2, 3, 3), 0.95), (0.0, 0.0, 1.0, -1.0)),
        ],
        ids=["shape", "geotransform", "two-band"],
    )
    def test_bad_pseudolabel_is_data_error(self, make_grid, rng, values, geotransform):
        pair = pair_of(make_grid, rng.random((3, 3)), rng.random((3, 3)))
        with pytest.raises(DataError, match="pseudolabel"):
            dpl_objective(pair, None, DplConfig(), 0, make_grid(values, geotransform))
