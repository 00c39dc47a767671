"""Mean-field refinement against a dense all-pairs reference."""

import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from apmkit import crf
from apmkit.crf import (
    CrfConfig,
    _bilinear_upsample,
    _block_sum,
    class_softmax,
    crf_refine,
    mean_field_step,
    refine_values,
    unary_potentials,
)
from apmkit.errors import ConfigError, DataError, DimensionError


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
        ],
    )
    def test_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            CrfConfig(**kwargs)

    def test_json_aliases(self, tmp_path):
        cfg = CrfConfig.from_json(
            {"compression_factor": 4, "crf_temperature": 2.0, "beta": 0.3}
        )
        assert cfg.compression == 4
        assert cfg.temperature == 2.0
        assert cfg.beta == 0.3
        path = tmp_path / "crf.json"
        path.write_text('{"sigma": 2.0, "iterations": 3}')
        cfg2 = CrfConfig.from_json(path)
        assert cfg2.sigma == 2.0 and cfg2.iterations == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            CrfConfig.from_json({"bandwidth": 3.0})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            CrfConfig.from_json(path)


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
    return _bilinear_upsample(msg_c, gamma, h, w)


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
    return _bilinear_upsample(msg, gamma, h, w) if gamma > 1 else msg


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
                crf_refine(logits, guidance, cfg)
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
        crf_refine(logits, guidance, cfg)

    def test_unknown_memory_skips_the_check(self, make_grid, rng, monkeypatch):
        monkeypatch.setattr(crf, "_physical_memory", lambda: None)
        logits = make_grid(rng.normal(size=(16, 16)))
        guidance = make_grid(rng.normal(size=(3, 16, 16)))
        crf_refine(logits, guidance, CrfConfig(compress_guidance=False, iterations=2))

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
    return _bilinear_upsample(msg, gamma, h, w) if gamma > 1 else msg


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
    """``_add_pairs`` equals one pass per offset over the whole buffer,
    bit for bit, wherever the band edges fall. The band is shrunk so that
    small fields span several; the scratch buffer handed over is exactly
    one band long, so a pass over more than a band would fail."""

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
        crf._add_pairs(got, src, pairs, np.empty(min(n, crf._BAND)))
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
        monkeypatch.setattr(crf, "_BAND", 16)
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
            patch.setattr(
                crf, "_add_pairs", lambda acc, src, pairs, buf: loop_add_shifted(acc, src, pairs)
            )
            want = messages()
        # Nx1 frames pass column shifts of 10 to 90 over bands of 16.
        monkeypatch.setattr(crf, "_BAND", 16)
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
            monkeypatch.setattr(crf, "_BAND", band)
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
            got = _bilinear_upsample(arr, factor, h, w)
            assert np.array_equal(got, gather_upsample(arr, factor, h, w))

    @pytest.mark.parametrize("factor", [2, 4])
    def test_strided_input(self, rng, factor):
        # The bilateral message hands over a view of its row-padded layout.
        h, w = 21, 30
        hc, wc = -(-h // factor), -(-w // factor)
        padded = spread_values(rng, (hc, wc + 5))
        arr = padded[:, :wc]
        got = _bilinear_upsample(arr, factor, h, w)
        assert np.array_equal(got, gather_upsample(arr, factor, h, w))


class TestRasterWrapper:
    def test_refine_raster(self, make_grid, rng):
        logits = make_grid(rng.normal(size=(10, 10)))
        guidance = make_grid(rng.normal(size=(3, 10, 10)))
        out = crf_refine(logits, guidance, CrfConfig(sigma=2.0, iterations=2))
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
        out = crf_refine(logits, guidance, CrfConfig(sigma=2.0, iterations=2))
        assert out.nodata_mask[0, 0] and out.nodata_mask[7, 7]
        assert np.isnan(out.band(0)[0, 0]) and np.isnan(out.band(0)[7, 7])
        assert np.isfinite(out.band(0)[3, 3])

    def test_shape_mismatch(self, make_grid, rng):
        with pytest.raises(DataError):
            crf_refine(
                make_grid(rng.normal(size=(8, 8))),
                make_grid(rng.normal(size=(8, 9))),
                CrfConfig(iterations=2),
            )

    def test_band_count_validation(self, make_grid, rng):
        bad = make_grid(rng.normal(size=(3, 8, 8)))
        with pytest.raises(DataError):
            crf_refine(bad, make_grid(rng.normal(size=(8, 8))), CrfConfig(iterations=2))

    def test_feature_channel_cap(self, make_grid, rng):
        logits = make_grid(rng.normal(size=(8, 8)))
        guidance = make_grid(rng.normal(size=(2, 8, 8)))
        out = crf_refine(logits, guidance, CrfConfig(iterations=2))
        assert out.meta["feature_channels"] == 2
