"""Mean-field refinement against a dense all-pairs reference."""

import math
import tracemalloc
import weakref
from collections import namedtuple
from dataclasses import fields

import numpy as np
import pytest

from apmkit import crf
from apmkit.cli import main
from apmkit.config import build_config, read_json
from apmkit.crf import (
    CrfConfig,
    _block_sum,
    class_softmax,
    crf_refine,
    mean_field_step,
    refine_values,
    unary_potentials,
)
from apmkit.errors import ConfigError, DataError, DimensionError
from apmkit.raster import grid


class TestConfig:
    def test_defaults(self):
        cfg = CrfConfig()
        assert cfg.beta == 0.5
        assert cfg.sigma == 3.0
        assert cfg.feature_channels == 16
        assert cfg.compression == 2
        assert cfg.temperature == 1.0
        assert cfg.iterations == 5
        assert cfg.pairwise_weights == (1.0, 1.0)
        assert np.array_equal(cfg.compatibility, [[0.0, 1.0], [1.0, 0.0]])
        assert cfg.compress_guidance

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0.05},
            {"beta": 1.5},
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"feature_channels": 8},
            {"compression": 3},
            {"temperature": 0.5},
            {"temperature": 6.0},
            {"iterations": 1},
            {"iterations": 11},
            {"pairwise_weights": (1.0, -0.5)},
            {"compatibility": [[0.0, 1.0]]},
            {"sigma": math.nan},
            {"sigma": math.inf},
            {"pairwise_weights": (math.nan, 1.0)},
            {"pairwise_weights": (1.0, math.inf)},
            {"compatibility": [[0.0, math.nan], [1.0, 0.0]]},
            {"compatibility": [[0.0, 1.0], [-math.inf, 0.0]]},
        ],
    )
    def test_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            CrfConfig(**kwargs)

    def test_compatibility_is_a_read_only_copy(self):
        # The config holds a tuple of float rows; the caller's array is
        # neither changed nor frozen, and writing to it leaves the config be.
        given = np.array([[0.0, 2.0], [2.0, 0.0]])
        cfg = CrfConfig(compatibility=given)
        assert cfg.compatibility == ((0.0, 2.0), (2.0, 0.0))
        assert CrfConfig().compatibility == ((0.0, 1.0), (1.0, 0.0))
        for held in (cfg.compatibility, CrfConfig().compatibility):
            assert all(type(v) is float for row in held for v in row)
        assert given.flags.writeable and given.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        given[0, 1] = math.nan
        assert cfg.compatibility == ((0.0, 2.0), (2.0, 0.0))

    def test_json_aliases(self, tmp_path):
        aliases = {f.name: f.metadata["alias"] for f in fields(CrfConfig) if "alias" in f.metadata}
        assert aliases == {"compression": "compression_factor", "temperature": "crf_temperature"}
        cfg = build_config(
            CrfConfig, {"compression_factor": 4, "crf_temperature": 2.0, "beta": 0.3}, "crf"
        )
        assert cfg.compression == 4
        assert cfg.temperature == 2.0
        assert cfg.beta == 0.3
        path = tmp_path / "crf.json"
        path.write_text('{"sigma": 2.0, "iterations": 3}')
        cfg2 = build_config(CrfConfig, read_json(path, ConfigError), "crf")
        assert cfg2.sigma == 2.0 and cfg2.iterations == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown crf key 'bandwidth'"):
            build_config(CrfConfig, {"bandwidth": 3.0}, "crf")

    def test_invalid_json_file(self, tmp_path, capsys):
        # crf-refine reads its settings before any raster, so the missing
        # rasters are never opened.
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = main([
            "crf-refine", "--logits", str(tmp_path / "none.grid"),
            "--guidance", str(tmp_path / "none.grid"), "--config", str(path),
            "--out", str(tmp_path / "out.grid"),
        ])
        assert code == 2
        assert "bad.json: invalid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out.grid").exists()


class TestUnary:
    def test_negated_scaled_logits(self, rng):
        logits = rng.normal(size=(2, 4, 5))
        assert np.array_equal(unary_potentials(logits, 1.0), -logits)
        assert np.allclose(unary_potentials(logits, 2.0), -logits / 2.0)

    def test_temperature_flattens(self, rng):
        logits = rng.normal(size=(2, 6, 6)) * 3
        q1 = class_softmax(-unary_potentials(logits, 1.0))
        q5 = class_softmax(-unary_potentials(logits, 5.0))
        assert np.all(np.abs(q5[1] - 0.5) <= np.abs(q1[1] - 0.5) + 1e-12)

    def test_shape_and_temperature_validation(self):
        with pytest.raises(DataError):
            unary_potentials(np.zeros((3, 4, 4)))
        with pytest.raises(ConfigError):
            unary_potentials(np.zeros((2, 4, 4)), 0.0)

    def test_softmax_known_value(self):
        q = class_softmax(np.array([[[0.0]], [[np.log(3.0)]]]))
        assert q[1, 0, 0] == pytest.approx(0.75, abs=1e-12)


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


class TestMeanField:
    def test_normalised_every_step(self, rng):
        logits = rng.normal(size=(2, 8, 8)) * 2
        cfg = CrfConfig(sigma=2.0, iterations=5, compress_guidance=False)
        guidance = rng.normal(size=(3, 8, 8))
        unary = unary_potentials(logits, cfg.temperature)
        q = class_softmax(-unary)
        for _ in range(cfg.iterations):
            q = mean_field_step(q, unary, guidance, cfg)
            assert np.abs(q.sum(axis=0) - 1.0).max() < 1e-9

    def test_matches_dense_spatial_only(self, rng):
        # sigma = 3 gives window radius 9, beyond the 8x8 grid diameter,
        # so truncation drops nothing and the dense result is exact.
        logits = rng.normal(size=(2, 8, 8))
        cfg = CrfConfig(sigma=3.0, iterations=4, pairwise_weights=(1.0, 0.0))
        got = refine_values(logits, None, cfg)
        want = dense_refine(logits, None, cfg)
        assert np.abs(got - want).max() < 1e-6

    def test_matches_dense_with_bilateral(self, rng):
        logits = rng.normal(size=(2, 8, 8))
        guidance = rng.normal(size=(2, 8, 8))
        cfg = CrfConfig(
            sigma=3.0, beta=0.8, iterations=4, compress_guidance=False
        )
        got = refine_values(logits, guidance, cfg)
        want = dense_refine(logits, guidance, cfg)
        assert np.abs(got - want).max() < 1e-6

    def test_matches_dense_nonpotts_and_weights(self, rng):
        logits = rng.normal(size=(2, 7, 6))
        guidance = rng.normal(size=(1, 7, 6))
        cfg = CrfConfig(
            sigma=3.0,
            beta=0.4,
            iterations=3,
            pairwise_weights=(0.7, 1.3),
            compatibility=[[0.0, 0.5], [2.0, 0.0]],
            compress_guidance=False,
        )
        got = refine_values(logits, guidance, cfg)
        want = dense_refine(logits, guidance, cfg)
        assert np.abs(got - want).max() < 1e-6

    def test_bilateral_respects_feature_contrast(self):
        # A sharp guidance edge should stop smoothing from bleeding across
        # it: the pixel next to the edge keeps a higher probability under
        # bilateral-only smoothing with strong contrast than without any
        # guidance gap.
        h = w = 10
        logits = np.zeros((2, h, w))
        logits[1, :, : w // 2] = 2.0
        logits[1, :, w // 2 :] = -2.0
        edge = np.zeros((1, h, w))
        edge[0, :, w // 2 :] = 8.0
        flat = np.zeros((1, h, w))
        cfg = CrfConfig(
            sigma=2.0,
            beta=1.0,
            iterations=4,
            pairwise_weights=(0.0, 1.0),
            compress_guidance=False,
        )
        with_edge = refine_values(logits, edge, cfg)
        without = refine_values(logits, flat, cfg)
        col = w // 2 - 1
        assert with_edge[5, col] > without[5, col]

    def test_compressed_tracks_direct(self, rng):
        # Coarsened bilateral is an approximation; on a smooth problem it
        # should stay close to the direct computation.
        h = w = 16
        logits = rng.normal(size=(2, h, w)) * 0.5
        base = np.add.outer(np.linspace(0, 1, h), np.linspace(0, 1, w))
        guidance = base[None, :, :]
        direct = refine_values(
            logits, guidance, CrfConfig(sigma=2.0, iterations=4, compress_guidance=False)
        )
        compressed = refine_values(
            logits,
            guidance,
            CrfConfig(sigma=2.0, iterations=4, compression=2, compress_guidance=True),
        )
        assert np.all((compressed >= 0.0) & (compressed <= 1.0))
        assert np.corrcoef(direct.ravel(), compressed.ravel())[0, 1] > 0.9

    def test_masked_pixels_send_nothing(self, rng):
        logits = rng.normal(size=(2, 9, 9))
        valid = np.ones((9, 9), dtype=bool)
        valid[4, 4] = False
        cfg = CrfConfig(sigma=2.0, iterations=3, pairwise_weights=(1.0, 0.0))
        a = refine_values(logits, None, cfg, valid)
        poisoned = logits.copy()
        poisoned[:, 4, 4] = 1e6
        b = refine_values(poisoned, None, cfg, valid)
        keep = valid.copy()
        assert np.array_equal(a[keep], b[keep])

    def test_nonfinite_logits(self):
        logits = np.zeros((2, 4, 4))
        logits[1, 1, 1] = np.nan
        with pytest.raises(DataError):
            refine_values(logits, None, CrfConfig(iterations=2))
        valid = np.ones((4, 4), dtype=bool)
        valid[1, 1] = False
        refine_values(logits, None, CrfConfig(iterations=2), valid)

    def test_single_logit_convention(self, rng):
        single = rng.normal(size=(6, 6))
        stacked = np.stack([np.zeros_like(single), single])
        cfg = CrfConfig(sigma=2.0, iterations=2)
        assert np.array_equal(
            refine_values(single, None, cfg), refine_values(stacked, None, cfg)
        )

    def test_denoising_reduces_flips(self, rng):
        truth = np.zeros((16, 16))
        truth[:, 8:] = 1.0
        flip = rng.random((16, 16)) < 0.1
        noisy = np.where(flip, 1.0 - truth, truth)
        logits = np.zeros((2, 16, 16))
        logits[1] = np.where(noisy > 0.5, 2.0, -2.0)
        cfg = CrfConfig(sigma=3.0, iterations=5, pairwise_weights=(1.0, 0.0))
        refined = refine_values(logits, None, cfg)
        before = int(np.sum((noisy > 0.5) != (truth > 0.5)))
        after = int(np.sum((refined > 0.5) != (truth > 0.5)))
        assert after < before


def bilinear_upsample(arr, factor, h, w):
    """The bilinear upsample of (..., hc, wc) to (..., h, w), aligning
    block centers, gathered from the message's bands into one frame."""
    out = np.empty((*arr.shape[:-2], h, w))
    for start, band in crf._upsample_bands(arr, factor, h, w):
        out[..., start : start + band.shape[-2], :] = band
    return out


def _offset_slices(h, w, di, dj):
    """Target and source slices so target[i] pairs with source[i + (di, dj)]."""
    rt = slice(max(0, -di), h - max(0, di))
    ct = slice(max(0, -dj), w - max(0, dj))
    rs = slice(rt.start + di, rt.stop + di)
    cs = slice(ct.start + dj, ct.stop + dj)
    return rt, ct, rs, cs


def direct_messages(q, guidance, sigma, beta, want_spatial, want_bilateral):
    """Direct windowed messages: every offset of the window, every step."""
    nclass, h, w = q.shape
    msg_sp = np.zeros_like(q)
    msg_bil = np.zeros_like(q)
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    half_beta2 = 0.5 * beta * beta
    for di in range(-radius, radius + 1):
        for dj in range(-radius, radius + 1):
            if di == 0 and dj == 0:
                continue
            w_sp = math.exp(-(di * di + dj * dj) * inv_two_sigma2)
            rt, ct, rs, cs = _offset_slices(h, w, di, dj)
            if rt.start >= rt.stop or ct.start >= ct.stop:
                continue
            contrib = q[:, rs, cs]
            if want_spatial:
                msg_sp[:, rt, ct] += w_sp * contrib
            if want_bilateral and guidance is not None:
                diff = guidance[:, rt, ct] - guidance[:, rs, cs]
                w_bil = w_sp * np.exp(-half_beta2 * np.sum(diff * diff, axis=0))
                msg_bil[:, rt, ct] += w_bil * contrib
    return msg_sp, msg_bil


def direct_compressed_bilateral(q, guidance, cfg, valid):
    """Direct bilateral message on the block-mean grid, upsampled back."""
    gamma = cfg.compression
    h, w = q.shape[1], q.shape[2]
    qc = _block_sum(q, gamma)
    vc = _block_sum(valid.astype(np.float64), gamma)
    gc_sum = _block_sum(guidance * valid, gamma)
    gc = np.divide(gc_sum, vc, out=np.zeros_like(gc_sum), where=vc > 0)
    _, msg_c = direct_messages(
        qc, gc, cfg.sigma / gamma, cfg.beta, want_spatial=False, want_bilateral=True
    )
    return bilinear_upsample(msg_c, gamma, h, w)


def reference_step(q, unary, guidance, cfg, valid):
    """The direct mean-field step the separable, cached one replaced."""
    w_sp, w_bil = cfg.pairwise_weights
    qv = q * valid
    use_bilateral = guidance is not None and w_bil > 0
    if use_bilateral and cfg.compress_guidance:
        msg_sp, _ = direct_messages(
            qv, None, cfg.sigma, cfg.beta, want_spatial=w_sp > 0, want_bilateral=False
        )
        msg_bil = direct_compressed_bilateral(qv, guidance, cfg, valid)
    else:
        msg_sp, msg_bil = direct_messages(
            qv,
            guidance if use_bilateral else None,
            cfg.sigma,
            cfg.beta,
            want_spatial=w_sp > 0,
            want_bilateral=use_bilateral,
        )
    message = w_sp * msg_sp + w_bil * msg_bil
    energy = np.einsum("ab,bhw->ahw", cfg.compatibility, message)
    return class_softmax(-unary - energy)


def reference_refine(logits, guidance, cfg, valid):
    unary = unary_potentials(logits, cfg.temperature)
    q = class_softmax(-unary)
    for _ in range(cfg.iterations):
        q = reference_step(q, unary, guidance, cfg, valid)
    return q[1]


class TestMatchesDirectStep:
    """The separable spatial pass and the prebuilt bilateral weights give
    the direct windowed step's result up to summation order.

    Pairwise weights are small enough that no pixel saturates, so a wrong
    tap or a lost offset shows in the probabilities."""

    @pytest.mark.parametrize(
        "shape,channels,masked,kwargs",
        [
            pytest.param((30, 34), 3, True, {}, id="compressed-masked"),
            pytest.param((30, 34), 3, False, {"compress_guidance": False}, id="full-res"),
            pytest.param(
                (24, 26),
                2,
                True,
                {
                    "pairwise_weights": (0.7, 1.3),
                    "compatibility": [[0.0, 0.005], [0.02, 0.0]],
                },
                id="non-potts-weights",
            ),
            pytest.param((24, 26), 2, False, {"pairwise_weights": (0.05, 0.0)}, id="spatial-only"),
            pytest.param(
                (24, 26), 2, False, {"pairwise_weights": (0.0, 0.05)}, id="bilateral-only"
            ),
            pytest.param((24, 26), 2, True, {"sigma": 2.3}, id="sigma-2.3"),
            pytest.param((13, 17), 3, True, {"compression": 4}, id="compression-4-ragged"),
            pytest.param((5, 7), 2, False, {}, id="frame-below-radius"),
        ],
    )
    def test_refine_within_1e12(self, rng, shape, channels, masked, kwargs):
        logits = rng.normal(size=(2, *shape)) * 0.5
        guidance = rng.normal(size=(channels, *shape))
        valid = np.ones(shape, dtype=bool)
        if masked:
            valid[2:5, 3:7] = False
            guidance[:, ~valid] = 0.0
        cfg = CrfConfig(
            **{"beta": 0.6, "iterations": 4, "pairwise_weights": (0.05, 0.05), **kwargs}
        )
        got = refine_values(logits, guidance, cfg, valid)
        want = reference_refine(logits, guidance, cfg, valid)
        assert 0.01 < want.min() and want.max() < 0.99
        assert np.abs(got - want).max() < 1e-12

    def test_standalone_step_equals_step_in_refine(self, rng):
        logits = rng.normal(size=(2, 20, 22))
        guidance = rng.normal(size=(3, 20, 22))
        valid = rng.random((20, 22)) > 0.1
        cfg = CrfConfig(iterations=3)
        unary = unary_potentials(logits, cfg.temperature)
        q = class_softmax(-unary)
        for _ in range(cfg.iterations):
            q = mean_field_step(q, unary, guidance, cfg, valid)
        assert np.array_equal(q[1], refine_values(logits, guidance, cfg, valid))

    def test_weights_built_once_and_step_called_per_iteration(self, rng, monkeypatch):
        calls = {"weights": 0, "step": 0}
        build, step = crf.bilateral_weights, crf.mean_field_step

        def counted_build(*args, **kwargs):
            calls["weights"] += 1
            return build(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["step"] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(crf, "bilateral_weights", counted_build)
        monkeypatch.setattr(crf, "mean_field_step", counted_step)
        cfg = CrfConfig(iterations=5)
        refine_values(rng.normal(size=(2, 12, 12)), rng.normal(size=(2, 12, 12)), cfg)
        assert calls == {"weights": 1, "step": 5}


def slice_class_softmax(neg_energy):
    """The softmax with a temporary per step."""
    shifted = neg_energy - neg_energy.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def slice_spatial_message(q, sigma):
    """The separable spatial message over 2-D slices of the frame."""
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    taps = [(k, math.exp(-k * k * inv_two_sigma2)) for k in range(1, radius + 1)]
    rows = q.copy()
    for k, g in taps:
        rows[:, :-k] += g * q[:, k:]
        rows[:, k:] += g * q[:, :-k]
    msg = rows.copy()
    for k, g in taps:
        msg[:-k, :] += g * rows[k:, :]
        msg[k:, :] += g * rows[:-k, :]
    msg -= q
    return msg


def slice_block_sum(arr, factor):
    """Block sums through a zero-padded copy, whatever the shape."""
    *lead, h, w = arr.shape
    hp = (h + factor - 1) // factor * factor
    wp = (w + factor - 1) // factor * factor
    padded = np.zeros((*lead, hp, wp), dtype=np.float64)
    padded[..., :h, :w] = arr
    return padded.reshape(*lead, hp // factor, factor, wp // factor, factor).sum(
        axis=(-3, -1)
    )


SliceWeights = namedtuple("SliceWeights", "factor pairs")


def slice_bilateral_weights(guidance, cfg, valid):
    """The weight cache as 2-D overlaps: ``(rt, ct, rs, cs, weight)`` per
    half-window offset, from a (C, h, w) difference per offset."""
    if cfg.compress_guidance:
        factor = cfg.compression
        counts = slice_block_sum(valid.astype(np.float64), factor)
        sums = slice_block_sum(guidance * valid, factor)
        feats = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    else:
        factor, feats = 1, guidance
    sigma = cfg.sigma / factor
    h, w = feats.shape[1:]
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    half_beta2 = 0.5 * cfg.beta * cfg.beta
    pairs = []
    for di in range(0, radius + 1):
        for dj in range(-radius, radius + 1):
            if di == 0 and dj <= 0:
                continue
            rt, ct, rs, cs = _offset_slices(h, w, di, dj)
            if rt.start >= rt.stop or ct.start >= ct.stop:
                continue
            w_sp = math.exp(-(di * di + dj * dj) * inv_two_sigma2)
            diff = feats[:, rt, ct] - feats[:, rs, cs]
            weight = w_sp * np.exp(-half_beta2 * np.sum(diff * diff, axis=0))
            pairs.append((rt, ct, rs, cs, weight))
    return SliceWeights(factor, tuple(pairs))


def slice_bilateral_message(q, weights):
    """The bilateral message over the 2-D overlaps of the slice cache."""
    h, w = q.shape
    gamma = weights.factor
    src = slice_block_sum(q, gamma) if gamma > 1 else q
    msg = np.zeros_like(src)
    for rt, ct, rs, cs, weight in weights.pairs:
        msg[rt, ct] += weight * src[rs, cs]
        msg[rs, cs] += weight * src[rt, ct]
    return bilinear_upsample(msg, gamma, h, w) if gamma > 1 else msg


def slice_pairwise_message(field, cfg, weights):
    w_sp, w_bil = cfg.pairwise_weights
    message = np.zeros_like(field)
    if w_sp > 0:
        message += w_sp * slice_spatial_message(field, cfg.sigma)
    if weights is not None:
        message += w_bil * slice_bilateral_message(field, weights)
    return message


def slice_refine(logits, guidance, cfg, valid):
    """The class-1 refinement loop on the slice kernels."""
    unary = unary_potentials(logits, cfg.temperature)
    weights = None
    if guidance is not None and cfg.pairwise_weights[1] > 0:
        weights = slice_bilateral_weights(guidance, cfg, valid)
    valid_message = slice_pairwise_message(valid.astype(np.float64), cfg, weights)
    q = slice_class_softmax(-unary)
    for _ in range(cfg.iterations):
        m1 = slice_pairwise_message(q[1] * valid, cfg, weights)
        message = np.stack([valid_message - m1, m1])
        energy = np.einsum("ab,bhw->ahw", cfg.compatibility, message)
        q = slice_class_softmax(-unary - energy)
    return q[1]


def raw_unit_guidance(rng, channels, shape):
    """Bands in the thousands with neighbour steps of a few tens, like
    elevations and distances in metres: most weights are 0 or tiny."""
    steps = rng.uniform(0.0, 40.0, size=(channels, *shape))
    return 500.0 + np.cumsum(np.cumsum(steps, axis=2), axis=1) / shape[0]


FLAT_CASES = [
    pytest.param((30, 34), 3, True, {}, False, id="compressed-masked"),
    pytest.param((30, 34), 3, True, {"compress_guidance": False}, False, id="full-res"),
    pytest.param((13, 17), 3, True, {"compression": 4}, False, id="compression-4-ragged"),
    pytest.param((5, 7), 2, False, {}, False, id="frame-below-radius"),
    pytest.param(
        (5, 7), 2, False, {"compress_guidance": False}, False, id="frame-below-radius-full"
    ),
    pytest.param((1, 23), 2, False, {}, False, id="1xN"),
    pytest.param((23, 1), 2, False, {}, False, id="Nx1"),
    pytest.param((1, 23), 2, False, {"compress_guidance": False}, False, id="1xN-full"),
    pytest.param((23, 1), 2, False, {"compress_guidance": False}, False, id="Nx1-full"),
    pytest.param((24, 26), 2, True, {"sigma": 2.3}, False, id="sigma-2.3"),
    pytest.param((40, 44), 5, True, {}, True, id="raw-units"),
    pytest.param((40, 44), 5, True, {"compress_guidance": False}, True, id="raw-units-full"),
]


class TestFlatLayoutMatchesSlices:
    """The row-padded flat kernels equal the 2-D slice kernels they
    replaced bit for bit: the same nonzero terms reach every pixel in the
    same order, and the padding adds only +0.0."""

    @staticmethod
    def case(rng, shape, channels, masked, kwargs, raw):
        logits = rng.normal(size=(2, *shape))
        if raw:
            guidance = raw_unit_guidance(rng, channels, shape)
        else:
            guidance = rng.normal(size=(channels, *shape))
        valid = np.ones(shape, dtype=bool)
        if masked:
            valid[2:5, 3:7] = False
            guidance[:, ~valid] = 0.0
        cfg = CrfConfig(**{"beta": 0.6, "iterations": 3, **kwargs})
        return logits, guidance, valid, cfg

    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_weights(self, rng, shape, channels, masked, kwargs, raw):
        _, guidance, valid, cfg = self.case(rng, shape, channels, masked, kwargs, raw)
        got = crf.bilateral_weights(guidance, cfg, valid)
        want = slice_bilateral_weights(guidance, cfg, valid)
        h, w = got.shape
        n = h * got.pitch
        assert got.factor == want.factor
        assert len(got.pairs) == len(want.pairs)
        for (shift, weight), (rt, ct, rs, cs, old) in zip(got.pairs, want.pairs):
            di, dj = rs.start - rt.start, cs.start - ct.start
            assert shift == di * got.pitch + dj
            flat = np.zeros(n)
            flat[: n - shift] = weight
            expected = np.zeros((h, got.pitch))
            expected[rt, ct] = old
            assert np.array_equal(flat.reshape(h, got.pitch), expected)
        cache = got.pairs[0][1].base
        assert cache.nbytes == 8 * len(got.pairs) * n
        if raw:
            inside = np.concatenate([p[-1].ravel() for p in want.pairs])
            assert (inside == 0.0).any()
            assert ((inside > 0.0) & (inside < np.finfo(np.float64).tiny)).any()

    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_messages(self, rng, shape, channels, masked, kwargs, raw):
        _, guidance, valid, cfg = self.case(rng, shape, channels, masked, kwargs, raw)
        q = rng.random(shape) * valid
        got = crf._bilateral_message(q, crf.bilateral_weights(guidance, cfg, valid))
        want = slice_bilateral_message(q, slice_bilateral_weights(guidance, cfg, valid))
        assert np.array_equal(got, want)
        for field in (q, valid.astype(np.float64)):
            assert np.array_equal(
                crf._spatial_message(field, cfg.sigma),
                slice_spatial_message(field, cfg.sigma),
            )

    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_refine(self, rng, shape, channels, masked, kwargs, raw):
        logits, guidance, valid, cfg = self.case(rng, shape, channels, masked, kwargs, raw)
        got = refine_values(logits, guidance, cfg, valid)
        assert np.array_equal(got, slice_refine(logits, guidance, cfg, valid))

    @pytest.mark.parametrize("shape", [(12, 16), (13, 17), (1, 8), (7, 1), (2, 3, 8, 12)])
    @pytest.mark.parametrize("factor", [2, 4])
    def test_block_sum(self, rng, shape, factor):
        arr = rng.normal(size=shape)
        assert np.array_equal(_block_sum(arr, factor), slice_block_sum(arr, factor))

    def test_class_softmax(self, rng):
        energy = rng.normal(size=(2, 9, 11)) * 30.0
        assert np.array_equal(class_softmax(energy), slice_class_softmax(energy))


def class_axis_step(q, unary, guidance, cfg, valid):
    """The step on (2, H, W) arrays that the class-1 step replaced: the
    message stacked over both classes, the compatibility by einsum, the
    softmax over the class axis."""
    weights = None
    if guidance is not None and cfg.pairwise_weights[1] > 0:
        weights = crf.bilateral_weights(guidance, cfg, valid)
    valid_message = crf._pairwise_message(valid.astype(np.float64), cfg, weights)
    m1 = crf._pairwise_message(q[1] * valid, cfg, weights)
    message = np.stack([valid_message - m1, m1])
    energy = np.einsum("ab,bhw->ahw", cfg.compatibility, message)
    return slice_class_softmax(-unary - energy)


class TestClassOneStep:
    """The (H, W) step with four compatibility scalars and one two-field
    softmax equals the class-axis step bit for bit under Potts."""

    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_matches_class_axis_step(self, rng, shape, channels, masked, kwargs, raw):
        logits, guidance, valid, cfg = TestFlatLayoutMatchesSlices.case(
            rng, shape, channels, masked, kwargs, raw
        )
        unary = unary_potentials(logits, cfg.temperature)
        q = slice_class_softmax(-unary)
        for _ in range(3):
            got = mean_field_step(q, unary, guidance, cfg, valid)
            want = class_axis_step(q, unary, guidance, cfg, valid)
            assert got.shape == want.shape
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert np.array_equal(mean_field_step(q[1], unary, guidance, cfg, valid), got[1])
            q = want

    def test_shapes_checked(self, rng):
        unary = rng.normal(size=(2, 6, 7))
        cfg = CrfConfig(iterations=2)
        for q, u in [(np.ones((6, 8)), unary), (np.ones((3, 6, 7)), unary),
                     (np.ones((6, 7)), unary[1])]:
            with pytest.raises(DataError):
                mean_field_step(q, u, None, cfg)

    def test_one_band_logits_equal_explicit_zero_band(self, make_grid, rng):
        mask = rng.random((20, 22)) < 0.1
        logit = rng.normal(size=(20, 22))
        guidance = make_grid(rng.normal(size=(3, 20, 22)))
        cfg = CrfConfig(iterations=3)
        one = crf_refine(make_grid(logit, mask=mask), lambda: guidance, cfg)
        two = crf_refine(make_grid(np.stack([np.zeros_like(logit), logit]), mask=mask),
                         lambda: guidance, cfg)
        assert np.array_equal(one.data, two.data, equal_nan=True)
        assert np.array_equal(one.nodata_mask, two.nodata_mask)


class TestRefineMemory:
    """The loop carries one (H, W) field, so a refinement's traced peak
    stays a few float64 frames below the class-stacked loop's (17.0
    frames spatial-only and 32.6 with the default config at 256^2)."""

    @pytest.mark.parametrize(
        "weights,frames", [((1.0, 0.0), 14), ((1.0, 1.0), 30)], ids=["spatial-only", "default"]
    )
    def test_traced_peak_in_frames(self, rng, weights, frames):
        shape = (256, 256)
        valid = rng.random(shape) > 0.05
        guidance = rng.normal(size=(5, *shape)) * valid
        logits = rng.normal(size=shape) * valid
        cfg = CrfConfig(pairwise_weights=weights)
        tracemalloc.start()
        try:
            refine_values(logits, guidance, cfg, valid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames * 8 * shape[0] * shape[1]


class TestStreamedGuidanceMemory:
    """No float64 copy of the guidance stack exists, the guidance is not
    held once the weights exist, and the steps run in reused frames. At
    256^2 with a 5% mask, 5 float32 bands and one-band logits, crf_refine
    used to peak at 15.8 float64 frames spatial-only and 31.4 with the
    default config."""

    SHAPE = (256, 256)
    FRAME = 8 * 256 * 256

    @pytest.mark.parametrize(
        "weights,frames", [((1.0, 0.0), 11), ((1.0, 1.0), 27)], ids=["spatial-only", "default"]
    )
    def test_crf_refine_traced_peak_in_frames(self, make_grid, rng, weights, frames):
        mask = rng.random(self.SHAPE) < 0.05
        logits = make_grid(rng.normal(size=self.SHAPE), mask=mask)
        guidance = make_grid(rng.normal(size=(5, *self.SHAPE)), mask=mask)
        assert guidance.data.dtype == np.float32
        cfg = CrfConfig(pairwise_weights=weights)
        tracemalloc.start()
        try:
            crf_refine(logits, lambda: guidance, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames * self.FRAME

    def test_weight_build_traced_peak_above_cache(self, rng):
        valid = rng.random(self.SHAPE) > 0.05
        guidance = np.where(valid, rng.normal(size=(5, *self.SHAPE)), 0.0).astype(np.float32)
        tracemalloc.start()
        try:
            weights = crf.bilateral_weights(guidance, CrfConfig(), valid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cache = weights.pairs[0][1].base
        assert cache.nbytes == 8 * len(weights.pairs) * weights.shape[0] * weights.pitch
        assert peak < cache.nbytes + 2.5 * self.FRAME


GUIDANCE_CASES = [
    pytest.param((30, 34), 3, True, {}, id="factor-2-masked"),
    pytest.param((31, 33), 3, False, {}, id="factor-2-ragged"),
    pytest.param((13, 17), 3, True, {"compression": 4}, id="factor-4-masked-ragged"),
    pytest.param((9, 2), 2, True, {}, id="factor-2-one-block-wide"),
    pytest.param((9, 3), 2, False, {"compression": 4}, id="factor-4-one-block-wide"),
    pytest.param((30, 34), 3, True, {"compress_guidance": False}, id="full-res-masked"),
    pytest.param((13, 17), 2, False, {"compress_guidance": False}, id="full-res"),
    pytest.param((30, 34), 0, True, {}, id="zero-bands"),
    pytest.param((13, 17), 0, True, {"compress_guidance": False}, id="zero-bands-full-res"),
]


def assert_same_weights(got, want):
    assert (got.factor, got.shape, got.pitch) == (want.factor, want.shape, want.pitch)
    assert len(got.pairs) == len(want.pairs)
    for (shift, weight), (want_shift, want_weight) in zip(got.pairs, want.pairs):
        assert shift == want_shift
        assert np.array_equal(weight, want_weight)


class TestStreamedGuidance:
    """The weight build casts one band at a time to float64, which is
    exact, so a float32 stack gives the weights of its float64 copy; it
    reads the guidance only at valid pixels; and a step handed the weights
    reads no guidance."""

    @staticmethod
    def case(rng, shape, channels, masked, kwargs):
        valid = rng.random(shape) > 0.2 if masked else np.ones(shape, dtype=bool)
        guidance = (rng.normal(size=(channels, *shape)) * 40.0).astype(np.float32)
        guidance[:, ~valid] = 0.0
        return guidance, valid, CrfConfig(**{"beta": 0.6, **kwargs})

    @pytest.mark.parametrize("shape,channels,masked,kwargs", GUIDANCE_CASES)
    def test_float32_weights_equal_float64_copy(self, rng, shape, channels, masked, kwargs):
        guidance, valid, cfg = self.case(rng, shape, channels, masked, kwargs)
        assert_same_weights(
            crf.bilateral_weights(guidance, cfg, valid),
            crf.bilateral_weights(guidance.astype(np.float64), cfg, valid),
        )

    @pytest.mark.parametrize("shape,channels,masked,kwargs", GUIDANCE_CASES)
    def test_invalid_pixels_not_read(self, rng, shape, channels, masked, kwargs):
        guidance, valid, cfg = self.case(rng, shape, channels, masked, kwargs)
        raw = guidance.copy()
        raw[:, ~valid] = np.nan
        assert_same_weights(
            crf.bilateral_weights(raw, cfg, valid), crf.bilateral_weights(guidance, cfg, valid)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"compress_guidance": False}, {"pairwise_weights": (1.0, 0.0)},
         {"pairwise_weights": (0.7, 1.3), "compatibility": [[0.1, 0.9], [1.2, -0.3]]}],
        ids=["default", "full-res", "spatial-only", "non-potts-weights"],
    )
    def test_step_given_weights_reads_no_guidance(self, rng, kwargs):
        shape = (20, 22)
        guidance, valid, cfg = self.case(rng, shape, 3, True, kwargs)
        unary = unary_potentials(rng.normal(size=(2, *shape)), cfg.temperature)
        weights = crf.bilateral_weights(guidance, cfg, valid)
        # The step drops given weights when the bilateral weight is 0.
        kernel = weights if cfg.pairwise_weights[1] > 0 else None
        valid_message = crf._pairwise_message(valid.astype(np.float64), cfg, kernel)
        q1 = rng.random(shape)
        for q in (q1, np.stack([1.0 - q1, q1])):
            got = mean_field_step(
                q, unary, None, cfg, valid, weights=weights, valid_message=valid_message
            )
            assert np.array_equal(got, mean_field_step(q, unary, guidance, cfg, valid))


class TestWeightCacheGuard:
    """A weight cache larger than physical memory is refused up front."""

    def test_cache_larger_than_memory_is_refused_before_building(
        self, make_grid, rng, monkeypatch
    ):
        monkeypatch.setattr(crf, "_physical_memory", lambda: 1 << 20)
        logits = make_grid(rng.normal(size=(128, 128)))
        guidance = make_grid(rng.normal(size=(3, 128, 128)))
        cfg = CrfConfig(compress_guidance=False, iterations=2)
        # 180 half-window offsets at sigma 3, row pitch 128 + 9.
        size = 8 * 180 * 128 * 137
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError, match="compress_guidance") as err:
                crf_refine(logits, lambda: guidance, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(size) in str(err.value)
        assert err.value.exit_code == 3
        assert peak < size / 8

    def test_cache_within_memory_is_built(self, make_grid, rng, monkeypatch):
        monkeypatch.setattr(crf, "_physical_memory", lambda: 8 * 180 * 16 * 25)
        logits = make_grid(rng.normal(size=(16, 16)))
        guidance = make_grid(rng.normal(size=(3, 16, 16)))
        cfg = CrfConfig(compress_guidance=False, iterations=2)
        crf_refine(logits, lambda: guidance, cfg)

    def test_unknown_memory_skips_the_check(self, make_grid, rng, monkeypatch):
        monkeypatch.setattr(crf, "_physical_memory", lambda: None)
        logits = make_grid(rng.normal(size=(16, 16)))
        guidance = make_grid(rng.normal(size=(3, 16, 16)))
        crf_refine(logits, lambda: guidance, CrfConfig(compress_guidance=False, iterations=2))

    def test_physical_memory_lookup(self):
        mem = crf._physical_memory()
        assert mem is None or mem > 0


def two_class_spatial_message(q, sigma):
    """The separable spatial message of both classes, (2, H, W)."""
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    taps = [(k, math.exp(-k * k * inv_two_sigma2)) for k in range(1, radius + 1)]
    rows = q.copy()
    for k, g in taps:
        rows[:, :, :-k] += g * q[:, :, k:]
        rows[:, :, k:] += g * q[:, :, :-k]
    msg = rows.copy()
    for k, g in taps:
        msg[:, :-k, :] += g * rows[:, k:, :]
        msg[:, k:, :] += g * rows[:, :-k, :]
    msg -= q
    return msg


def two_class_bilateral_message(q, weights):
    """The cached-weight bilateral message of both classes, (2, H, W)."""
    h, w = q.shape[1:]
    gamma = weights.factor
    src = _block_sum(q, gamma) if gamma > 1 else q
    msg = np.zeros_like(src)
    for rt, ct, rs, cs, weight in weights.pairs:
        msg[:, rt, ct] += weight * src[:, rs, cs]
        msg[:, rs, cs] += weight * src[:, rt, ct]
    return bilinear_upsample(msg, gamma, h, w) if gamma > 1 else msg


def two_class_step(q, unary, guidance, cfg, valid):
    """The step that passed messages for both classes."""
    w_sp, w_bil = cfg.pairwise_weights
    qv = q * valid
    message = np.zeros_like(q)
    if w_sp > 0:
        message += w_sp * two_class_spatial_message(qv, cfg.sigma)
    if guidance is not None and w_bil > 0:
        weights = slice_bilateral_weights(guidance, cfg, valid)
        message += w_bil * two_class_bilateral_message(qv, weights)
    energy = np.einsum("ab,bhw->ahw", cfg.compatibility, message)
    return class_softmax(-unary - energy)


def two_class_refine(logits, guidance, cfg, valid):
    unary = unary_potentials(logits, cfg.temperature)
    q = class_softmax(-unary)
    for _ in range(cfg.iterations):
        q = two_class_step(q, unary, guidance, cfg, valid)
    return q[1]


class TestMatchesTwoClassStep:
    """Class-1 messages plus the valid mask's message give the two-class
    step's result up to rounding, since q0 = valid - q1."""

    @pytest.mark.parametrize(
        "shape,channels,masked,kwargs",
        [
            pytest.param((30, 34), 3, True, {}, id="masked"),
            pytest.param(
                (24, 26),
                2,
                True,
                {
                    "pairwise_weights": (0.7, 1.3),
                    "compatibility": [[0.0, 0.005], [0.02, 0.0]],
                },
                id="non-potts-weights",
            ),
            pytest.param((24, 26), 2, True, {"pairwise_weights": (0.05, 0.0)}, id="spatial-only"),
            pytest.param(
                (24, 26), 2, True, {"pairwise_weights": (0.0, 0.05)}, id="bilateral-only"
            ),
            pytest.param((13, 17), 3, True, {"compression": 4}, id="compression-4-ragged"),
            pytest.param((30, 34), 3, True, {"compress_guidance": False}, id="full-res"),
        ],
    )
    def test_refine_within_1e12(self, rng, shape, channels, masked, kwargs):
        logits = rng.normal(size=(2, *shape)) * 0.5
        guidance = rng.normal(size=(channels, *shape))
        valid = np.ones(shape, dtype=bool)
        if masked:
            valid[2:5, 3:7] = False
            guidance[:, ~valid] = 0.0
        cfg = CrfConfig(
            **{"beta": 0.6, "iterations": 4, "pairwise_weights": (0.05, 0.05), **kwargs}
        )
        got = refine_values(logits, guidance, cfg, valid)
        want = two_class_refine(logits, guidance, cfg, valid)
        assert 0.01 < want.min() and want.max() < 0.99
        assert np.abs(got - want).max() < 1e-12

    def test_valid_message_built_once_per_refinement(self, rng, monkeypatch):
        fields = []
        message = crf._pairwise_message

        def recorded(field, *args, **kwargs):
            fields.append(field.copy())
            return message(field, *args, **kwargs)

        monkeypatch.setattr(crf, "_pairwise_message", recorded)
        valid = rng.random((12, 12)) > 0.2
        cfg = CrfConfig(iterations=4)
        refine_values(rng.normal(size=(2, 12, 12)), rng.normal(size=(2, 12, 12)), cfg, valid)
        # One message of the valid mask, then one of class 1 per step.
        assert len(fields) == 1 + cfg.iterations
        assert np.array_equal(fields[0], valid.astype(np.float64))


def add_pairs(acc, src, pairs, buf):
    """Both directions of every flat offset in ``pairs`` into ``acc``,
    read from a separate ``src``, one band of ``acc`` at a time: the form
    that the in-place passes replaced."""
    n = acc.size
    bands = grid.row_bands(n, 1)
    for start in bands:
        crf._add_band(acc, src, 0, start, min(start + bands.step, n), pairs, buf)


def loop_add_in_place(acc, pairs, buf, zeroed=False):
    """``crf._add_pairs_in_place`` as one pass per offset (see
    :func:`loop_add_shifted`) from a copy of ``acc``."""
    src = acc.copy()
    if zeroed:
        acc.fill(0.0)
    loop_add_shifted(acc, src, pairs)


def loop_add_shifted(acc, src, pairs):
    """The one pass per offset that the banded helper replaced: both
    directions of each (shift, weight) over the whole buffer."""
    buf = np.empty_like(acc)
    for shift, weight in pairs:
        m = acc.size - shift
        prod = buf[:m]
        np.multiply(weight, src[shift:], out=prod)
        acc[:m] += prod
        np.multiply(weight, src[:m], out=prod)
        acc[shift:] += prod


def spread_values(rng, size):
    """Signed values over many magnitudes, not only [0, 1]."""
    return rng.normal(size=size) * 10.0 ** rng.uniform(-6.0, 6.0, size=size)


class TestBandedPairs:
    """The banded pairs (:func:`add_pairs`, and the messages' in-place
    passes) equal one pass per offset over the whole buffer, bit for bit,
    wherever the band edges fall. The band is shrunk so that small fields
    span several; the scratch buffer handed over is exactly one band long,
    so a pass over more than a band would fail."""

    @staticmethod
    def banded_and_loop(rng, n, shifts, per_pixel):
        src = spread_values(rng, n)
        acc = spread_values(rng, n)
        pairs = [
            (s, spread_values(rng, n - s) if per_pixel else float(spread_values(rng, 1)[0]))
            for s in shifts
        ]
        want = acc.copy()
        loop_add_shifted(want, src, pairs)
        got = acc.copy()
        add_pairs(got, src, pairs, np.empty(min(n, grid.BAND)))
        return got, want

    @pytest.mark.parametrize("per_pixel", [False, True], ids=["scalar", "per-pixel"])
    @pytest.mark.parametrize(
        "n,shifts",
        [
            pytest.param(5, [1, 2, 4], id="below-one-band"),
            pytest.param(16, [1, 3, 15], id="one-band"),
            pytest.param(17, [1, 16, 2], id="one-band-plus-one"),
            pytest.param(31, [2, 5, 30], id="two-bands-minus-one"),
            pytest.param(33, [1, 4, 9, 32], id="two-bands-plus-one"),
            pytest.param(70, [17, 40, 1, 69, 33], id="shifts-beyond-a-band"),
        ],
    )
    def test_matches_one_pass_per_offset(self, rng, monkeypatch, n, shifts, per_pixel):
        monkeypatch.setattr(grid, "BAND", 16)
        got, want = self.banded_and_loop(rng, n, shifts, per_pixel)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"compress_guidance": False}], ids=["compressed", "full-res"]
    )
    @pytest.mark.parametrize(
        "shape", [(1, 40), (40, 1), (13, 17), (1, 1)], ids=["1xN", "Nx1", "2-D", "1x1"]
    )
    def test_messages_match_one_pass_per_offset(self, rng, monkeypatch, shape, kwargs):
        q = spread_values(rng, shape)
        guidance = rng.normal(size=(2, *shape))
        cfg = CrfConfig(beta=0.6, **kwargs)
        weights = crf.bilateral_weights(guidance, cfg, np.ones(shape, dtype=bool))

        def messages():
            return crf._spatial_message(q, cfg.sigma), crf._bilateral_message(q, weights)

        with monkeypatch.context() as patch:
            patch.setattr(crf, "_add_pairs_in_place", loop_add_in_place)
            want = messages()
        # Nx1 frames pass column shifts of 10 to 90 over bands of 16.
        monkeypatch.setattr(grid, "BAND", 16)
        for got, expected in zip(messages(), want):
            assert np.array_equal(got, expected)

    def test_property_over_length_shifts_and_band(self, monkeypatch):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200, deadline=None)
        @given(
            data=st.data(),
            n=st.integers(2, 150),
            band=st.integers(1, 48),
            per_pixel=st.booleans(),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(data, n, band, per_pixel, seed):
            shifts = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6))
            monkeypatch.setattr(grid, "BAND", band)
            got, want = self.banded_and_loop(
                np.random.default_rng(seed), n, shifts, per_pixel
            )
            assert np.array_equal(got, want)

        check()


def gather_upsample(arr, factor, h, w):
    """The fancy-index form that the slice-built upsample replaced."""
    hc, wc = arr.shape[-2], arr.shape[-1]
    half = (factor - 1) / 2.0
    ri = (np.arange(h) - half) / factor
    ci = (np.arange(w) - half) / factor
    r0 = np.clip(np.floor(ri).astype(int), 0, hc - 1)
    r1 = np.clip(r0 + 1, 0, hc - 1)
    fr = np.clip(ri - r0, 0.0, 1.0)
    c0 = np.clip(np.floor(ci).astype(int), 0, wc - 1)
    c1 = np.clip(c0 + 1, 0, wc - 1)
    fc = np.clip(ci - c0, 0.0, 1.0)
    cols = arr[..., :, c0] * (1 - fc) + arr[..., :, c1] * fc
    return cols[..., r0, :] * (1 - fr[:, None]) + cols[..., r1, :] * fr[:, None]


class TestUpsampleMatchesGathers:
    """The strided-slice upsample equals the gather form bit for bit, on
    both factors, ragged frames and 1-row or 1-column grids."""

    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize(
        "shape",
        [(16, 24), (13, 17), (1, 9), (9, 1), (1, 1), (2, 3), (5, 6, 7), (2, 3, 11, 10)],
    )
    def test_matches_gathers(self, shape, factor):
        *lead, h, w = shape
        coarse = (*lead, -(-h // factor), -(-w // factor))
        for seed in range(20):
            arr = spread_values(np.random.default_rng(seed), coarse)
            got = bilinear_upsample(arr, factor, h, w)
            assert np.array_equal(got, gather_upsample(arr, factor, h, w))

    @pytest.mark.parametrize("factor", [2, 4])
    def test_strided_input(self, rng, factor):
        # The bilateral message hands over a view of its row-padded layout.
        h, w = 21, 30
        hc, wc = -(-h // factor), -(-w // factor)
        padded = spread_values(rng, (hc, wc + 5))
        arr = padded[:, :wc]
        got = bilinear_upsample(arr, factor, h, w)
        assert np.array_equal(got, gather_upsample(arr, factor, h, w))


class TestBlockSumMatchesReduction:
    """The strided-slice block sums equal numpy's multi-axis reduction of
    the zero-padded frame bit for bit, one-block-wide frames included."""

    def test_property_over_shape_and_factor(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=300, deadline=None)
        @given(
            h=st.integers(1, 40),
            w=st.integers(1, 40),
            lead=st.lists(st.integers(1, 3), max_size=2),
            factor=st.sampled_from([2, 4]),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(h, w, lead, factor, seed):
            arr = spread_values(np.random.default_rng(seed), (*lead, h, w))
            got = _block_sum(arr, factor)
            assert got.shape == (*lead, -(-h // factor), -(-w // factor))
            assert np.array_equal(got, slice_block_sum(arr, factor))

        check()

    @pytest.mark.parametrize(
        "shape,factor",
        [((7, 1), 4), ((7, 2), 4), ((8, 4), 4), ((200, 3), 4), ((2, 7, 1), 4), ((7, 2), 2)],
    )
    def test_one_block_wide(self, shape, factor):
        # numpy sums both reduced axes as one pairwise run on these.
        for seed in range(20):
            arr = spread_values(np.random.default_rng(seed), shape)
            assert np.array_equal(_block_sum(arr, factor), slice_block_sum(arr, factor))

    @pytest.mark.parametrize("factor", [2, 4])
    def test_criterion_scale(self, rng, factor):
        arr = spread_values(rng, (1647, 3284))
        assert np.array_equal(_block_sum(arr, factor), slice_block_sum(arr, factor))


class TestExpSkip:
    """The bilateral weights' exp equals ``np.exp`` bit for bit while it
    skips the arguments whose exp is exactly 0.0."""

    RANGES = ((-30.0, 0.0), (-745.1, -700.0), (-800.0, -745.5))

    def test_skipped_arguments_underflow(self):
        below = np.array([crf._EXP_ZERO, np.nextafter(crf._EXP_ZERO, -np.inf), -1e300])
        assert not np.exp(below).any()
        assert not np.exp(np.full(33, crf._EXP_ZERO)).any()

    def test_every_lane_position(self, rng):
        buf = np.empty(48)
        for n in range(1, 33):
            for start in (0, 1, 3, 8):
                for pos in range(n):
                    for lo, hi in self.RANGES:
                        kinds = rng.integers(0, 3, size=n)
                        args = np.array([rng.uniform(*self.RANGES[k]) for k in kinds])
                        args[pos] = rng.uniform(lo, hi)
                        buf[:] = 7.0
                        x = buf[start : start + n]
                        x[:] = args
                        crf._exp_in_place(x)
                        assert np.array_equal(x, np.exp(args))
                        assert (buf[:start] == 7.0).all() and (buf[start + n :] == 7.0).all()

    def test_special_arguments(self):
        args = np.array(
            [0.0, -0.0, -745.13, -745.14, crf._EXP_ZERO, -746.0001, -np.inf, np.nan, -1e-300]
        )
        x = args.copy()
        crf._exp_in_place(x)
        assert np.array_equal(x, np.exp(args), equal_nan=True)

    def test_mixed_frame(self, rng):
        args = np.concatenate([rng.uniform(lo, hi, 5000) for lo, hi in self.RANGES])
        args = rng.permutation(args)
        x = args.copy()
        crf._exp_in_place(x)
        assert np.array_equal(x, np.exp(args))
        assert (x == 0.0).any() and ((x > 0.0) & (x < np.finfo(np.float64).tiny)).any()


class TestGuidanceFrame:
    """The array API refuses a guidance stack that is not on the field's
    (H, W) frame."""

    def test_refine_values(self, rng):
        with pytest.raises(DataError, match="guidance shape"):
            refine_values(rng.normal(size=(12, 14)), rng.normal(size=(3, 12, 15)), CrfConfig())

    @pytest.mark.parametrize("stacked", [False, True], ids=["class-1", "distribution"])
    def test_mean_field_step(self, rng, stacked):
        q1 = rng.random((12, 14))
        q = np.stack([1.0 - q1, q1]) if stacked else q1
        unary = unary_potentials(rng.normal(size=(2, 12, 14)))
        with pytest.raises(DataError, match="guidance shape"):
            mean_field_step(q, unary, rng.normal(size=(3, 12, 15)), CrfConfig())


class TestFeatureChannels:
    """Every entry builds its weights from the first ``feature_channels``
    guidance bands only, as :func:`crf_refine` does."""

    @staticmethod
    def wide(rng, shape=(12, 14)):
        return rng.normal(size=(20, *shape)), CrfConfig(sigma=2.0, iterations=2)

    def test_refine_values(self, rng):
        guidance, cfg = self.wide(rng)
        logits = rng.normal(size=guidance.shape[1:])
        got = refine_values(logits, guidance, cfg)
        assert np.array_equal(got, refine_values(logits, guidance[:16], cfg))

    def test_mean_field_step(self, rng):
        guidance, cfg = self.wide(rng)
        q = rng.random(guidance.shape[1:])
        unary = unary_potentials(rng.normal(size=(2, *guidance.shape[1:])))
        got = mean_field_step(q, unary, guidance, cfg)
        assert np.array_equal(got, mean_field_step(q, unary, guidance[:16], cfg))

    def test_crf_refine_equals_refine_values(self, make_grid, rng):
        guidance, cfg = self.wide(rng)
        logits = rng.normal(size=guidance.shape[1:]).astype(np.float32)
        out = crf_refine(make_grid(logits), lambda: make_grid(guidance), cfg)
        want = refine_values(logits, make_grid(guidance).data, cfg)
        assert np.array_equal(out.band(0), want.astype(np.float32))
        assert out.meta["feature_channels"] == 16


class TestRasterWrapper:
    def test_refine_raster(self, make_grid, rng):
        logits = make_grid(rng.normal(size=(10, 10)))
        guidance = make_grid(rng.normal(size=(3, 10, 10)))
        out = crf_refine(logits, lambda: guidance, CrfConfig(sigma=2.0, iterations=2))
        assert out.bands == 1
        assert out.band_names == ("probability",)
        assert out.data.dtype == np.float32
        vals = out.band(0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_mask_union_carried(self, make_grid, rng):
        lm = np.zeros((8, 8), dtype=bool)
        lm[0, 0] = True
        gm = np.zeros((8, 8), dtype=bool)
        gm[7, 7] = True
        logits = make_grid(rng.normal(size=(8, 8)), mask=lm)
        guidance = make_grid(rng.normal(size=(2, 8, 8)), mask=gm)
        out = crf_refine(logits, lambda: guidance, CrfConfig(sigma=2.0, iterations=2))
        assert out.nodata_mask[0, 0] and out.nodata_mask[7, 7]
        assert np.isnan(out.band(0)[0, 0]) and np.isnan(out.band(0)[7, 7])
        assert np.isfinite(out.band(0)[3, 3])

    def test_shape_mismatch(self, make_grid, rng):
        with pytest.raises(DataError):
            crf_refine(
                make_grid(rng.normal(size=(8, 8))),
                lambda: make_grid(rng.normal(size=(8, 9))),
                CrfConfig(iterations=2),
            )

    def test_geotransform_mismatch(self, make_grid, rng):
        logits = make_grid(rng.normal(size=(16, 16)))
        guidance = make_grid(rng.normal(size=(2, 16, 16)), geotransform=(500.0, 900.0, 10.0, -10.0))
        with pytest.raises(DataError, match="different frames"):
            crf_refine(logits, lambda: guidance, CrfConfig(iterations=2))

    def test_band_count_validation(self, make_grid, rng):
        bad = make_grid(rng.normal(size=(3, 8, 8)))
        with pytest.raises(DataError):
            crf_refine(bad, lambda: make_grid(rng.normal(size=(8, 8))), CrfConfig(iterations=2))

    def test_feature_channel_cap(self, make_grid, rng):
        logits = make_grid(rng.normal(size=(8, 8)))
        guidance = make_grid(rng.normal(size=(2, 8, 8)))
        out = crf_refine(logits, lambda: guidance, CrfConfig(iterations=2))
        assert out.meta["feature_channels"] == 2


def stored_unary_refine(logits, guidance, cfg, valid):
    """The loop with a stored unary: float64 logits, a zero class 0 stacked
    under one-band ones, ``-logits / temperature`` kept as a (2, H, W)
    field and negated by every step, and the field masked by multiplying
    with ``valid``."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim == 2:
        arr = np.stack([np.zeros_like(arr), arr])
    unary = unary_potentials(arr, cfg.temperature)
    weights = None
    if guidance is not None and cfg.pairwise_weights[1] > 0:
        weights = crf.bilateral_weights(guidance, cfg, valid)
    valid_message = crf._pairwise_message(valid.astype(np.float64), cfg, weights)
    (c00, c01), (c10, c11) = cfg.compatibility

    def class_one(x0, x1):
        mx = np.maximum(x0, x1)
        e0, e1 = np.exp(x0 - mx), np.exp(x1 - mx)
        return e1 / (e0 + e1)

    q1 = class_one(-unary[0], -unary[1])
    for _ in range(cfg.iterations):
        m1 = crf._pairwise_message(q1 * valid, cfg, weights)
        m0 = valid_message - m1
        q1 = class_one(-unary[0] - (c00 * m0 + c01 * m1), -unary[1] - (c10 * m0 + c11 * m1))
    return q1


KERNEL_CASES = [
    pytest.param({}, id="coarsened"),
    pytest.param({"compress_guidance": False}, id="full-res"),
    pytest.param({"pairwise_weights": (1.0, 0.0)}, id="spatial-only"),
]
NON_POTTS = [[0.1, 0.9], [1.2, -0.3]]


class TestDerivedUnary:
    """Each step derives -u from the logits it was given, ``logits /
    temperature``, the same float as the stored ``-(-logits /
    temperature)``; a pinned class 0 is +0.0. Invalid pixels send nothing,
    whatever the logits hold there."""

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    @pytest.mark.parametrize("compatibility", [None, NON_POTTS], ids=["potts", "non-potts"])
    @pytest.mark.parametrize("kwargs", KERNEL_CASES)
    def test_equals_stored_unary_loop(self, rng, kwargs, compatibility, masked):
        shape = (22, 26)
        valid = rng.random(shape) > 0.15 if masked else np.ones(shape, dtype=bool)
        guidance = rng.normal(size=(3, *shape)) * valid
        two = rng.normal(size=(2, *shape)) * 1.5
        for temperature in (1.0, 2.5, 5.0):
            cfg = CrfConfig(
                beta=0.6, iterations=3, temperature=temperature,
                compatibility=compatibility, **kwargs,
            )
            for logits in (two, two[1]):
                for dtype in (np.float32, np.float64):
                    given = logits.astype(dtype)
                    got = refine_values(given, guidance, cfg, valid)
                    want = stored_unary_refine(given, guidance, cfg, valid)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kwargs", KERNEL_CASES)
    def test_logits_at_invalid_pixels_not_read(self, rng, kwargs):
        # A NaN logit at an invalid pixel used to reach every pixel through
        # the messages.
        shape = (20, 22)
        valid = rng.random(shape) > 0.1
        logits = rng.normal(size=(2, *shape))
        guidance = rng.normal(size=(3, *shape))
        cfg = CrfConfig(iterations=3, **kwargs)
        got = refine_values(np.where(valid, logits, np.nan), guidance, cfg, valid)
        want = refine_values(np.where(valid, logits, 0.0), guidance, cfg, valid)
        assert np.array_equal(got[valid], want[valid])

    @pytest.mark.parametrize("bands", [1, 2])
    def test_crf_refine_equals_zero_filled_logits(self, make_grid, rng, bands):
        # crf_refine hands over the stored bands, NaN under the mask, with
        # no zero-filled copy.
        shape = (24, 26)
        mask = rng.random(shape) < 0.1
        guidance_mask = np.zeros(shape, dtype=bool)
        guidance_mask[3:6, 4:9] = True
        logits = make_grid(rng.normal(size=(bands, *shape)), mask=mask)
        guidance = make_grid(rng.normal(size=(4, *shape)), mask=guidance_mask)
        cfg = CrfConfig(iterations=3)
        valid = ~(mask | guidance_mask)
        zeroed = np.where(valid, logits.data, 0.0)
        want = refine_values(zeroed[0] if bands == 1 else zeroed, guidance.data, cfg, valid)
        got = crf_refine(logits, lambda: guidance, cfg)
        assert got.data[0].tobytes() == np.where(valid, want, np.nan).astype(np.float32).tobytes()


def snapshot(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestArgumentsUnchanged:
    """The loop masks and reuses its own field in place; no array a caller
    passes is written."""

    @pytest.mark.parametrize(
        "kwargs", [*KERNEL_CASES, pytest.param({"compatibility": NON_POTTS}, id="non-potts")]
    )
    def test_refine_values(self, rng, kwargs):
        shape = (20, 22)
        valid = rng.random(shape) > 0.1
        guidance = rng.normal(size=(3, *shape)).astype(np.float32)
        cfg = CrfConfig(iterations=3, **kwargs)
        for logits in (rng.normal(size=shape), rng.normal(size=(2, *shape)).astype(np.float32)):
            before = snapshot(logits, guidance, valid)
            refine_values(logits, guidance, cfg, valid)
            assert snapshot(logits, guidance, valid) == before

    @pytest.mark.parametrize("kwargs", KERNEL_CASES)
    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_crf_refine(self, make_grid, rng, kwargs, masked):
        shape = (20, 22)
        mask = rng.random(shape) < (0.1 if masked else 0.0)
        logits = make_grid(rng.normal(size=shape), mask=mask)
        guidance = make_grid(rng.normal(size=(3, *shape)), mask=mask)
        arrays = (logits.data, logits.nodata_mask, guidance.data, guidance.nodata_mask)
        before = snapshot(*arrays)
        crf_refine(logits, lambda: guidance, CrfConfig(iterations=3, **kwargs))
        assert snapshot(*arrays) == before

    @pytest.mark.parametrize(
        "kwargs", [*KERNEL_CASES, pytest.param({"compatibility": NON_POTTS}, id="non-potts")]
    )
    def test_mean_field_step(self, rng, kwargs):
        shape = (20, 22)
        valid = rng.random(shape) > 0.1
        guidance = rng.normal(size=(3, *shape))
        cfg = CrfConfig(**kwargs)
        unary = unary_potentials(rng.normal(size=(2, *shape)), cfg.temperature)
        weights = crf.bilateral_weights(guidance, cfg, valid)
        valid_message = crf._pairwise_message(valid.astype(np.float64), cfg, weights)
        q1 = rng.random(shape)
        for q in (q1, np.stack([1.0 - q1, q1])):
            for given in ({}, {"weights": weights, "valid_message": valid_message}):
                arrays = (q, unary, guidance, valid, valid_message,
                          *(weight for _, weight in weights.pairs))
                before = snapshot(*arrays)
                mean_field_step(q, unary, guidance, cfg, valid, **given)
                assert snapshot(*arrays) == before


class TestRefineWorkingSet:
    """Beyond the weight cache a refinement holds three frames: the valid
    mask's message, the loop's field and the padded frame that the
    spatial passes run in place on and the message is added into. There
    is no unary field, no copy of the logits and no x0 frame, and the
    coarse bilateral message is upsampled one band of rows at a time. The
    band is cut to 2^12 values, a sixteenth of the frame, so that band
    buffers weigh as little against the frame as on large frames. At
    256^2 with a 5% mask, 5 float32 bands and one-band logits, crf_refine
    used to peak at 4.54 float64 frames spatial-only and 20.15 with the
    default config there, with a second padded frame in the spatial
    column pass; the cache is ~15.6 frames."""

    SHAPE = (256, 256)
    FRAME = 8 * 256 * 256

    @pytest.mark.parametrize(
        "weights,frames", [((1.0, 0.0), 4), ((1.0, 1.0), 19.75)], ids=["spatial-only", "default"]
    )
    def test_crf_refine_traced_peak_in_frames(self, make_grid, rng, monkeypatch, weights, frames):
        monkeypatch.setattr(grid, "BAND", 1 << 12)
        mask = rng.random(self.SHAPE) < 0.05
        logits = make_grid(rng.normal(size=self.SHAPE), mask=mask)
        guidance = make_grid(rng.normal(size=(5, *self.SHAPE)), mask=mask)
        cfg = CrfConfig(pairwise_weights=weights)
        tracemalloc.start()
        try:
            crf_refine(logits, lambda: guidance, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames * self.FRAME


class TestBandedUpsample:
    """The upsample runs one band of rows at a time, each band from the
    coarse rows beneath it; wherever the band edges fall it equals the
    gather form, and the message it is added into equals the one-band
    message, bit for bit. The band is shrunk so that small frames span
    several."""

    @pytest.mark.parametrize("band", [1, 7, 16, 40, 100])
    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("shape", [(16, 24), (13, 17), (1, 9), (9, 1), (2, 3), (5, 6, 7)])
    def test_matches_gathers(self, monkeypatch, shape, factor, band):
        monkeypatch.setattr(grid, "BAND", band)
        *lead, h, w = shape
        coarse = (*lead, -(-h // factor), -(-w // factor))
        for seed in range(5):
            arr = spread_values(np.random.default_rng(seed), coarse)
            got = bilinear_upsample(arr, factor, h, w)
            assert np.array_equal(got, gather_upsample(arr, factor, h, w))

    @pytest.mark.parametrize("band", [1, 29, 64, 200])
    @pytest.mark.parametrize(
        "kwargs", [{}, {"compression": 4}, {"pairwise_weights": (0.7, 1.3)}],
        ids=["factor-2", "factor-4", "weighted"],
    )
    def test_message_matches_one_band(self, rng, monkeypatch, kwargs, band):
        shape = (37, 29)
        valid = rng.random(shape) > 0.1
        guidance = rng.normal(size=(3, *shape))
        cfg = CrfConfig(beta=0.6, **kwargs)
        weights = crf.bilateral_weights(guidance, cfg, valid)
        q = rng.random(shape) * valid
        want = crf._pairwise_message(q, cfg, weights)
        monkeypatch.setattr(grid, "BAND", band)
        assert crf._pairwise_message(q, cfg, weights).tobytes() == want.tobytes()


def copy_spatial_message(q, sigma):
    """The spatial message with each pass into a fresh padded copy of its
    source, the form the in-place passes replaced."""
    h, w = q.shape
    radius = int(math.ceil(3.0 * sigma))
    inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma)
    taps = [(k, math.exp(-k * k * inv_two_sigma2)) for k in range(1, radius + 1)]
    pitch = w + radius
    flat = crf._padded(q, pitch)
    buf = np.empty(min(flat.size, grid.BAND))
    rows = flat.copy()
    add_pairs(rows, flat, taps, buf)
    msg = rows.copy()
    add_pairs(msg, rows, [(k * pitch, g) for k, g in taps[: h - 1]], buf)
    msg = msg.reshape(h, pitch)[:, :w]
    msg -= q
    return msg


def copy_bilateral_message(q, weights, scale=1.0, message=None):
    """The bilateral message with the block sums over the whole frame and
    the coarse message in a zeroed field beside its padded source."""
    h, w = q.shape
    gamma = weights.factor
    src = crf._padded(_block_sum(q, gamma) if gamma > 1 else q, weights.pitch)
    coarse = np.zeros_like(src)
    add_pairs(coarse, src, weights.pairs, np.empty(min(src.size, grid.BAND)))
    hc, wc = weights.shape
    coarse = coarse.reshape(hc, weights.pitch)[:, :wc]
    if message is None:
        message = np.zeros((h, w))
    message += (bilinear_upsample(coarse, gamma, h, w) if gamma > 1 else coarse) * scale
    return message


def copy_pairwise_message(field, cfg, weights):
    """Each kernel's message scaled and added to a zeroed field."""
    w_sp, w_bil = cfg.pairwise_weights
    message = np.zeros_like(field)
    if w_sp > 0:
        spatial = copy_spatial_message(field, cfg.sigma)
        spatial *= w_sp
        message += spatial
    if weights is not None:
        copy_bilateral_message(field, weights, w_bil, message)
    return message


def frame_tail(field, m1, valid_message, compatibility, neg0, neg1):
    """The step after m1 on whole frames: x0 a frame of its own, the
    products and the softmax over whole frames."""
    (c00, c01), (c10, c11) = compatibility
    m0 = valid_message - m1
    x0 = m0 * c00
    x0 += m1 * c01
    x1 = m0 * c10
    x1 += m1 * c11
    x0 = neg0 - x0
    x1 = neg1 - x1
    mx = np.maximum(x0, x1)
    x0 -= mx
    x1 -= mx
    np.exp(x0, out=x0)
    np.exp(x1, out=x1)
    total = x0 + x1
    return x0 / total, x1 / total


def frame_refine(logits, guidance, cfg, valid):
    """The loop on whole frames and copied passes: -u as ``logits /
    temperature`` (+0.0 for a pinned class 0), the messages of the copy
    forms and each step's tail over whole frames."""
    two = logits.ndim == 3
    neg1 = np.divide(logits[1] if two else logits, cfg.temperature, dtype=np.float64)
    neg0 = np.divide(logits[0], cfg.temperature, dtype=np.float64) if two else 0.0
    weights = None
    if guidance is not None and cfg.pairwise_weights[1] > 0:
        weights = crf.bilateral_weights(guidance, cfg, valid)
    valid_message = copy_pairwise_message(valid.astype(np.float64), cfg, weights)
    x0 = np.empty(neg1.shape)
    x0[...] = neg0
    q1 = crf._two_class_softmax(x0, neg1.copy())[1]
    for _ in range(cfg.iterations):
        field = np.where(valid, q1, 0.0)
        m1 = copy_pairwise_message(field, cfg, weights)
        q1 = frame_tail(field, m1, valid_message, cfg.compatibility, neg0, neg1)[1]
    return q1


def contiguous_bytes(a):
    return np.ascontiguousarray(a).tobytes()


class TestInPlacePasses:
    """The spatial row and column passes run in place on one padded frame,
    and the coarse bilateral message in place on its padded source, each
    band reading a halo copy of the original values it still needs; they
    equal the passes into fresh copies bit for bit, wherever the band
    edges fall. The band is shrunk so that small fields span several, and
    the scratch buffer is exactly one band long."""

    @staticmethod
    def in_place_and_copy(rng, n, shifts, per_pixel, zeroed):
        acc = spread_values(rng, n)
        pairs = [
            (s, spread_values(rng, n - s) if per_pixel else float(spread_values(rng, 1)[0]))
            for s in shifts
        ]
        buf = np.empty(min(n, grid.BAND))
        want = np.zeros(n) if zeroed else acc.copy()
        add_pairs(want, acc.copy(), pairs, buf)
        got = acc.copy()
        crf._add_pairs_in_place(got, pairs, buf, zeroed=zeroed)
        return got, want

    @pytest.mark.parametrize("zeroed", [False, True], ids=["plus-source", "zeroed"])
    @pytest.mark.parametrize("per_pixel", [False, True], ids=["scalar", "per-pixel"])
    @pytest.mark.parametrize(
        "n,shifts",
        [
            pytest.param(5, [1, 2, 4], id="below-one-band"),
            pytest.param(16, [1, 3, 15], id="one-band"),
            pytest.param(17, [1, 16, 2], id="one-band-plus-one"),
            pytest.param(33, [1, 4, 9, 32], id="two-bands-plus-one"),
            pytest.param(70, [17, 40, 1, 69, 33], id="shifts-beyond-a-band"),
            pytest.param(200, [3, 6, 9], id="many-bands"),
            pytest.param(9, [], id="no-pairs"),
        ],
    )
    def test_matches_copied_source(self, rng, monkeypatch, n, shifts, per_pixel, zeroed):
        monkeypatch.setattr(grid, "BAND", 16)
        got, want = self.in_place_and_copy(rng, n, shifts, per_pixel, zeroed)
        assert got.tobytes() == want.tobytes()

    def test_property_over_length_shifts_and_band(self, monkeypatch):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(max_examples=200, deadline=None)
        @given(
            data=st.data(),
            n=st.integers(2, 150),
            band=st.integers(1, 48),
            per_pixel=st.booleans(),
            zeroed=st.booleans(),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(data, n, band, per_pixel, zeroed, seed):
            shifts = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6))
            monkeypatch.setattr(grid, "BAND", band)
            got, want = self.in_place_and_copy(
                np.random.default_rng(seed), n, shifts, per_pixel, zeroed
            )
            assert got.tobytes() == want.tobytes()

        check()

    @pytest.mark.parametrize("band", [16, 200, 1 << 15])
    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_messages_match_copies(self, rng, monkeypatch, shape, channels, masked, kwargs, raw,
                                   band):
        monkeypatch.setattr(grid, "BAND", band)
        _, guidance, valid, cfg = TestFlatLayoutMatchesSlices.case(
            rng, shape, channels, masked, kwargs, raw
        )
        weights = crf.bilateral_weights(guidance, cfg, valid)
        signed = spread_values(rng, shape) * valid
        for field in (signed, rng.random(shape) * valid, valid.astype(np.float64)):
            assert contiguous_bytes(crf._spatial_message(field, cfg.sigma)) == contiguous_bytes(
                copy_spatial_message(field, cfg.sigma)
            )
            assert crf._bilateral_message(field, weights).tobytes() == (
                copy_bilateral_message(field, weights).tobytes()
            )
        # The scaled spatial message is the message for a non-negative field.
        for weighted in ((1.0, 1.0), (0.7, 1.3), (0.0, 1.0), (1.0, 0.0)):
            cfg_w = CrfConfig(sigma=cfg.sigma, pairwise_weights=weighted)
            q = rng.random(shape) * valid
            assert contiguous_bytes(crf._pairwise_message(q, cfg_w, weights)) == (
                copy_pairwise_message(q, cfg_w, weights).tobytes()
            )


class TestBandedStepTail:
    """The compatibility, -u and the two-field softmax run one band of rows
    at a time into band buffers, so x0 is no frame: the loop and the
    public step equal the tail on whole frames bit for bit. The band is
    shrunk so that small frames span several."""

    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_refine_matches_frame_tail(self, rng, monkeypatch, shape, channels, masked, kwargs,
                                       raw):
        # Bands of one or two rows for the tail, of 60 values for the passes.
        monkeypatch.setattr(grid, "BAND", 60)
        logits, guidance, valid, _ = TestFlatLayoutMatchesSlices.case(
            rng, shape, channels, masked, kwargs, raw
        )
        for settings in ({}, {"pairwise_weights": (1.0, 0.0)}):
            for temperature, compatibility in ((1.0, None), (2.5, NON_POTTS), (5.0, None)):
                cfg = CrfConfig(
                    beta=0.6, iterations=3, temperature=temperature,
                    compatibility=compatibility, **{**kwargs, **settings},
                )
                for given in (logits, logits[1].astype(np.float32)):
                    got = refine_values(given, guidance, cfg, valid)
                    want = frame_refine(given, guidance, cfg, valid)
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("band", [5, 40])
    @pytest.mark.parametrize("compatibility", [None, NON_POTTS], ids=["potts", "non-potts"])
    @pytest.mark.parametrize("kwargs", KERNEL_CASES)
    def test_public_step_matches_frame_tail(self, rng, monkeypatch, kwargs, compatibility, band):
        monkeypatch.setattr(grid, "BAND", band)
        shape = (19, 23)
        valid = rng.random(shape) > 0.15
        guidance = rng.normal(size=(3, *shape))
        cfg = CrfConfig(beta=0.6, temperature=2.0, compatibility=compatibility, **kwargs)
        unary = unary_potentials(rng.normal(size=(2, *shape)), cfg.temperature)
        q1 = rng.random(shape)
        weights = crf.bilateral_weights(guidance, cfg, valid) if cfg.pairwise_weights[1] else None
        field = np.where(valid, q1, 0.0)
        want = frame_tail(
            field, copy_pairwise_message(field, cfg, weights),
            copy_pairwise_message(valid.astype(np.float64), cfg, weights),
            cfg.compatibility, -unary[0], -unary[1],
        )
        got = mean_field_step(np.stack([1.0 - q1, q1]), unary, guidance, cfg, valid)
        assert got.tobytes() == np.stack(want).tobytes()
        assert mean_field_step(q1, unary, guidance, cfg, valid).tobytes() == want[1].tobytes()


def frame_features(guidance, valid, factor, pitch):
    """The features with each band's valid pixels in one full-resolution
    float64 frame and the valid counts from a float64 copy of the mask."""
    bands, height, width = guidance.shape
    counts = _block_sum(valid.astype(np.float64), factor)
    occupied = counts > 0
    h, w = counts.shape
    feats = np.zeros((bands, h, pitch))
    band64 = np.zeros((height, width))
    for band, row in zip(guidance, feats):
        np.copyto(band64, band, where=valid)
        np.divide(_block_sum(band64, factor), counts, out=row[:, :w], where=occupied)
    return feats.reshape(bands, h * pitch)


class TestBandStreamedFeatures:
    """The coarsened features block-sum each band one band of rows at a
    time, with no full-resolution float64 frame; wherever the band edges
    fall they equal the full-frame form bit for bit, and so do the
    weights."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize(
        "shape", [(16, 24), (13, 17), (1, 9), (9, 1), (9, 2), (9, 3), (5, 4), (30, 34)]
    )
    def test_matches_full_frame(self, rng, monkeypatch, shape, factor, dtype):
        valid = rng.random(shape) > 0.2
        guidance = rng.normal(size=(3, *shape)).astype(dtype)
        guidance[:, ~valid] = np.nan  # invalid pixels are never read
        pitch = -(-shape[1] // factor) + 3
        want = frame_features(guidance, valid, factor, pitch).tobytes()
        for band in (1, 7, 40, 1 << 15):
            monkeypatch.setattr(grid, "BAND", band)
            assert crf._features(guidance, valid, factor, pitch).tobytes() == want

    @pytest.mark.parametrize("band", [3, 50])
    @pytest.mark.parametrize("shape,channels,masked,kwargs,raw", FLAT_CASES)
    def test_weights_match_one_band(self, rng, monkeypatch, shape, channels, masked, kwargs,
                                    raw, band):
        _, guidance, valid, cfg = TestFlatLayoutMatchesSlices.case(
            rng, shape, channels, masked, kwargs, raw
        )
        want = crf.bilateral_weights(guidance, cfg, valid)
        monkeypatch.setattr(grid, "BAND", band)
        assert_same_weights(crf.bilateral_weights(guidance, cfg, valid), want)


class TestRefinementSteps:
    """crf_refine runs three steps, features, weights and the loop; run one
    by one through the array layer they give the one call's raster byte
    for byte. The stack goes once its features exist, and they go once the
    weights do."""

    @pytest.mark.parametrize("kwargs", KERNEL_CASES)
    @pytest.mark.parametrize("bands", [1, 2])
    def test_steps_equal_one_call(self, make_grid, rng, kwargs, bands):
        shape = (21, 25)
        mask = rng.random(shape) < 0.1
        logits = make_grid(rng.normal(size=(bands, *shape)), mask=mask)
        guidance = make_grid(rng.normal(size=(3, *shape)))
        cfg = CrfConfig(iterations=3, **kwargs)
        valid = ~mask
        weights = None
        if cfg.pairwise_weights[1] > 0:
            weights = crf.bilateral_weights(guidance.data, cfg, valid)
        field = logits.data[0] if bands == 1 else logits.data
        want = refine_values(field, None, cfg, valid, weights=weights)
        got = crf_refine(logits, lambda: guidance, cfg)
        assert got.data[0].tobytes() == np.where(valid, want, np.nan).astype(np.float32).tobytes()
        assert np.array_equal(got.nodata_mask, mask)
        assert got.meta["feature_channels"] == 3

    @pytest.mark.parametrize("kwargs", KERNEL_CASES[:2])
    def test_stack_and_features_let_go(self, make_grid, rng, monkeypatch, kwargs):
        shape = (21, 25)
        refs, alive = {}, {}
        build, step = crf._weights, crf.mean_field_step

        def load():
            stack = make_grid(rng.normal(size=(3, *shape)))
            refs["stack"] = [weakref.ref(stack), weakref.ref(stack.data)]
            return stack

        def recorded_build(features, beta):
            alive["stack at weights"] = [ref() is not None for ref in refs["stack"]]
            refs["features"] = weakref.ref(features)
            return build(features, beta)

        def recorded_step(*args, **kwargs):
            alive.setdefault("features at steps", []).append(refs["features"]() is not None)
            return step(*args, **kwargs)

        monkeypatch.setattr(crf, "_weights", recorded_build)
        monkeypatch.setattr(crf, "mean_field_step", recorded_step)
        crf_refine(make_grid(rng.normal(size=shape)), load, CrfConfig(iterations=3, **kwargs))
        assert alive == {"stack at weights": [False, False], "features at steps": [False] * 3}
