"""Tests for network specs, forward passes, initialization, and weight files."""

import struct
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from svkit import nnet, tensorio

MICRO_TDNN = nnet.TdnnSpec(
    "tdnn-custom", 3, 2,
    (nnet.TdnnLayer("frame1", (-1, 0, 1), 3), nnet.TdnnLayer("frame2", (0,), 3)),
    embedding_dim=4, segment2_dim=4,
)

MICRO_RESNET = nnet.ResnetSpec(
    "resnet-custom", input_freq=4, num_classes=2, embedding_dim=3,
    stem_channels=4, stage_blocks=(1,), stage_channels=(4,), stage_strides=(1,),
)

# a stride-2 block without a change of channels, so with a projection shortcut
STRIDED_RESNET = nnet.ResnetSpec(
    "resnet-custom", input_freq=5, num_classes=2, embedding_dim=3, stem_channels=4,
    stage_blocks=(1, 1), stage_channels=(4, 4), stage_strides=(1, 2),
)


def bn_ref(x, w, prefix):
    scale = w[f"{prefix}.scale"].astype(float)
    shift = w[f"{prefix}.shift"].astype(float)
    mean = w[f"{prefix}.mean"].astype(float)
    var = w[f"{prefix}.var"].astype(float)
    factor = scale / np.sqrt(var + nnet.BN_EPS)
    if x.ndim == 3:
        return (x - mean[:, None, None]) * factor[:, None, None] + shift[:, None, None]
    return (x - mean) * factor + shift


def float64(w):
    """``w`` widened to float64; a network prepared from it computes in float64."""
    return {k: v.astype(np.float64) for k, v in w.items()}


def random_bn(w, seed):
    """``w`` in float64 with every batch norm's scale, shift, mean and var drawn at
    random, so that folding a norm into its conv is far from the identity."""
    rng = np.random.default_rng(seed)
    out = float64(w)
    for name, v in out.items():
        stat = name.rsplit(".", 1)[1]
        if stat in ("scale", "var"):
            out[name] = rng.uniform(0.5, 2.0, v.shape)
        elif stat in ("shift", "mean"):
            out[name] = rng.normal(0.0, 0.5, v.shape)
    return out


def held_nbytes(obj):
    """Bytes of the numpy arrays ``obj`` holds through its attributes, mappings and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, Mapping):
        return sum(held_nbytes(v) for v in obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(held_nbytes(v) for v in obj)
    return sum(held_nbytes(v) for v in vars(obj).values()) if hasattr(obj, "__dict__") else 0


def tdnn_frames_ref(x, spec, w):
    """TDNN frame layers in the dtype of ``x`` and ``w``: splice, affine, ReLU, batch norm."""
    h = x
    for layer in spec.frame_layers:
        n = layer.name
        y = np.maximum(nnet.splice(h, layer.offsets) @ w[f"{n}.weight"].T + w[f"{n}.bias"], 0.0)
        scale, var, mean, shift = (w[f"{n}.bn.{s}"] for s in ("scale", "var", "mean", "shift"))
        y = (y - mean) * (scale / np.sqrt(var + nnet.BN_EPS)) + shift
        h = y + h if layer.residual else y
    return h


def tdnn_oracle(x, spec, w):
    """Float64 TDNN forward: explicit clamped splice, affine, ReLU, batch norm, pooling."""
    n = len(x)
    h = x.astype(float)
    for layer in spec.frame_layers:
        spliced = np.concatenate([h[np.clip(np.arange(n) + o, 0, n - 1)] for o in layer.offsets],
                                 axis=1)
        y = np.maximum(spliced @ w[f"{layer.name}.weight"].astype(float).T
                       + w[f"{layer.name}.bias"].astype(float), 0.0)
        y = bn_ref(y, w, f"{layer.name}.bn")
        h = y + h if layer.residual else y
    return w["segment1.weight"].astype(float) @ nnet.stats_pooling(h) \
        + w["segment1.bias"].astype(float)


class TestSplice:
    def test_five_frame_context_dim(self):
        x = np.zeros((200, 40))
        assert nnet.splice(x, (-2, -1, 0, 1, 2)).shape == (200, 200)

    def test_zero_offset_identity(self):
        x = np.random.default_rng(0).standard_normal((7, 3))
        assert np.array_equal(nnet.splice(x, (0,)), x)

    def test_clamping_on_ramp(self):
        t = np.arange(10, dtype=float)[:, None]
        out = nnet.splice(t, (-4, 0, 4))
        for i in range(10):
            assert out[i].tolist() == [max(i - 4, 0), i, min(i + 4, 9)]


class TestStatsPooling:
    def test_constant_sequence(self):
        v = np.array([1.5, -0.25, 3.0])
        out = nnet.stats_pooling(np.tile(v, (6, 1)))
        assert np.array_equal(out[:3], v)
        assert np.all(out[3:] <= 1e-5)

    def test_two_frames_one_dim(self):
        out = nnet.stats_pooling(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-9)

    def test_doubles_dimension(self):
        x = np.random.default_rng(1).standard_normal((4, 1500))
        assert nnet.stats_pooling(x).shape == (3000,)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 6))
        perm = rng.permutation(50)
        np.testing.assert_allclose(
            nnet.stats_pooling(x), nnet.stats_pooling(x[perm]), rtol=1e-12, atol=1e-12
        )


class TestShapeAudit:
    def test_tdnn_standard_columns(self):
        audit = nnet.tdnn_shape_audit(nnet.tdnn_spec("tdnn-standard", 40, 7))
        assert audit == [
            ("frame1", 200, 512), ("frame2", 512, 512), ("frame3", 1536, 512),
            ("frame4", 512, 512), ("frame5", 1536, 512), ("frame6", 512, 512),
            ("frame7", 1536, 512), ("frame8", 512, 512), ("frame9", 512, 1500),
            ("stats", 1500, 3000), ("segment1", 3000, 512), ("segment2", 512, 512),
            ("softmax", 512, 7),
        ]

    def test_tdnn_big_columns(self):
        audit = nnet.tdnn_shape_audit(nnet.tdnn_spec("tdnn-big", 30, 9))
        assert audit == [
            ("frame1", 150, 1024), ("frame2", 1024, 1024), ("frame3", 5120, 1024),
            ("frame4", 1024, 1024), ("frame5", 3072, 1024), ("frame6", 1024, 1024),
            ("frame7", 3072, 1024), ("frame8", 1024, 1024), ("frame9", 1024, 2000),
            ("stats", 2000, 4000), ("segment1", 4000, 512), ("segment2", 512, 512),
            ("softmax", 512, 9),
        ]

    def test_resnet34_stages(self):
        audit = nnet.resnet_shape_audit(nnet.resnet_spec(9), 200)
        assert audit == [
            ("input", (40, 200, 1)), ("conv1", (40, 200, 32)),
            ("stage1", (40, 200, 32)), ("stage2", (20, 100, 64)),
            ("stage3", (10, 50, 128)), ("stage4", (5, 25, 256)),
            ("pool", (10, 256)), ("flatten", (2560,)),
            ("dense1", (256,)), ("dense2", (9,)),
        ]

    def test_residual_variant_same_shapes(self):
        big = nnet.tdnn_shape_audit(nnet.tdnn_spec("tdnn-big", 30, 5))
        res = nnet.tdnn_shape_audit(nnet.tdnn_spec("tdnn-big-residual", 30, 5))
        assert big == res


class TestInitWeights:
    def test_deterministic(self):
        a = nnet.init_weights(MICRO_TDNN, 5)
        b = nnet.init_weights(MICRO_TDNN, 5)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_seeds_differ(self):
        a = nnet.init_weights(MICRO_TDNN, 5)
        b = nnet.init_weights(MICRO_TDNN, 6)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_fan_in_bound(self):
        spec = nnet.tdnn_spec("tdnn-big", 30, 4)
        w = nnet.init_weights(spec, 0)
        assert w["frame1.weight"].shape == (1024, 150)
        assert np.abs(w["frame1.weight"]).max() <= np.sqrt(6.0 / 150.0)

    @pytest.mark.parametrize("kind", ["resnet34", "tdnn-standard", "tdnn-big-residual"])
    def test_blocked_draw_equals_one_shot_draw(self, kind):
        spec = nnet.make_spec(kind, 40, 2)
        w = nnet.init_weights(spec, 3)
        rng = np.random.default_rng(3)
        for name, shape in nnet.tensor_shapes(spec).items():
            if name.endswith(".weight"):
                bound = np.sqrt(6.0 / int(np.prod(shape[1:])))
                expected = rng.uniform(-bound, bound, size=shape).astype(np.float32)
                assert w[name].dtype == np.float32 and np.array_equal(w[name], expected), name

    def test_bn_defaults(self):
        w = nnet.init_weights(MICRO_TDNN, 0)
        assert np.all(w["frame1.bn.scale"] == 1.0)
        assert np.all(w["frame1.bn.shift"] == 0.0)
        assert np.all(w["frame1.bn.mean"] == 0.0)
        assert np.all(w["frame1.bn.var"] == 1.0)


class TestForwardTdnn:
    def test_micro_spec_matches_manual_forward(self):
        w = nnet.init_weights(MICRO_TDNN, 7)
        x = np.random.default_rng(4).standard_normal((3, 3))
        h = x
        for name, offsets in (("frame1", (-1, 0, 1)), ("frame2", (0,))):
            spliced = np.concatenate(
                [h[np.clip(np.arange(3) + o, 0, 2)] for o in offsets], axis=1
            )
            h = spliced @ w[f"{name}.weight"].astype(float).T + w[f"{name}.bias"].astype(float)
            h = np.maximum(h, 0.0)
            h = bn_ref(h, w, f"{name}.bn")
        pooled = nnet.stats_pooling(h)
        expected = w["segment1.weight"].astype(float) @ pooled + w["segment1.bias"].astype(float)
        np.testing.assert_allclose(nnet.forward_tdnn(x, nnet.prepare(MICRO_TDNN, w)), expected,
                                   atol=1e-6)

    def test_zero_weights_zero_embedding(self):
        w = {k: np.zeros_like(v) for k, v in nnet.init_weights(MICRO_TDNN, 0).items()}
        out = nnet.forward_tdnn(np.ones((5, 3)), nnet.prepare(MICRO_TDNN, w))
        assert np.all(out == 0.0)

    def test_big_spec_dims(self):
        spec = nnet.tdnn_spec("tdnn-big", 30, 4)
        w = nnet.init_weights(spec, 1)
        emb = nnet.forward_tdnn(np.random.default_rng(0).standard_normal((200, 30)),
                                nnet.prepare(spec, w))
        assert emb.shape == (512,)

    def test_dim_mismatch(self):
        w = nnet.init_weights(MICRO_TDNN, 0)
        with pytest.raises(ValueError, match="feature dim mismatch"):
            nnet.forward_tdnn(np.ones((4, 5)), nnet.prepare(MICRO_TDNN, w))

    def test_missing_tensor(self):
        w = nnet.init_weights(MICRO_TDNN, 0)
        del w["frame2.bias"]
        with pytest.raises(ValueError, match="weights mismatch"):
            nnet.forward_tdnn(np.ones((4, 3)), nnet.prepare(MICRO_TDNN, w))

    def test_time_shift_robustness_exact(self):
        w = nnet.init_weights(MICRO_TDNN, 1)
        row = np.array([0.3, -1.1, 0.7])
        base = nnet.forward_tdnn(np.tile(row, (4, 1)), nnet.prepare(MICRO_TDNN, dict(w)))
        for extra in (1, 3, 60):
            padded = nnet.forward_tdnn(np.tile(row, (4 + extra, 1)),
                                       nnet.prepare(MICRO_TDNN, dict(w)))
            assert np.array_equal(base, padded)

    def test_deterministic(self):
        w = nnet.init_weights(MICRO_TDNN, 2)
        x = np.random.default_rng(9).standard_normal((6, 3))
        assert np.array_equal(
            nnet.forward_tdnn(x, nnet.prepare(MICRO_TDNN, dict(w))),
            nnet.forward_tdnn(x, nnet.prepare(MICRO_TDNN, dict(w))),
        )

    def test_residual_zero_map_is_identity_on_pair(self):
        spec = nnet.TdnnSpec(
            "tdnn-custom", 3, 2,
            (nnet.TdnnLayer("frame1", (0,), 3), nnet.TdnnLayer("frame2", (0,), 3, residual=True)),
            embedding_dim=4, segment2_dim=4,
        )
        w = nnet.init_weights(spec, 2)
        for key in ("frame2.weight", "frame2.bias"):
            w[key] = np.zeros_like(w[key])
        x = np.random.default_rng(0).standard_normal((5, 3))
        h = bn_ref(np.maximum(x @ w["frame1.weight"].astype(float).T
                              + w["frame1.bias"].astype(float), 0.0), w, "frame1.bn")
        expected = w["segment1.weight"].astype(float) @ nnet.stats_pooling(h) \
            + w["segment1.bias"].astype(float)
        np.testing.assert_allclose(nnet.forward_tdnn(x, nnet.prepare(spec, float64(w))), expected,
                                   atol=1e-12)

    def test_batch_norm_with_random_statistics_matches_oracle(self):
        spec = nnet.TdnnSpec(
            "tdnn-custom", 3, 2,
            (nnet.TdnnLayer("frame1", (-1, 0, 1), 3),
             nnet.TdnnLayer("frame2", (0,), 3, residual=True)),
            embedding_dim=4, segment2_dim=4,
        )
        w = random_bn(nnet.init_weights(spec, 5), 6)
        x = np.random.default_rng(7).standard_normal((11, 3))
        np.testing.assert_allclose(nnet.forward_tdnn(x, nnet.prepare(spec, dict(w))),
                                   tdnn_oracle(x, spec, w), rtol=0, atol=1e-12)


def conv_oracle(x, kern, stride):
    """Direct convolution arithmetic, padding 1."""
    c_in, h, t = x.shape
    c_out = kern.shape[0]
    h_out = (h - 1) // stride + 1
    t_out = (t - 1) // stride + 1
    out = np.zeros((c_out, h_out, t_out))
    for co in range(c_out):
        for i in range(h_out):
            for j in range(t_out):
                acc = 0.0
                for ci in range(c_in):
                    for di in range(3):
                        for dj in range(3):
                            ii = stride * i + di - 1
                            jj = stride * j + dj - 1
                            if 0 <= ii < h and 0 <= jj < t:
                                acc += kern[co, ci, di, dj] * x[ci, ii, jj]
                out[co, i, j] = acc
    return out


def resnet_oracle(frames, spec, w):
    """ResNet forward from conv_oracle, with the block layout read off the spec."""
    def f(name):
        return w[name].astype(float)

    h = np.maximum(bn_ref(conv_oracle(frames.T[None], f("conv1.weight"), 1), w, "conv1.bn"), 0)
    in_ch = spec.stem_channels
    for s, (blocks, ch, stride) in enumerate(
            zip(spec.stage_blocks, spec.stage_channels, spec.stage_strides), start=1):
        for b in range(blocks):
            p, st = f"stage{s}.block{b}", stride if b == 0 else 1
            y = np.maximum(bn_ref(conv_oracle(h, f(f"{p}.conv1.weight"), st), w, f"{p}.bn1"), 0)
            y = bn_ref(conv_oracle(y, f(f"{p}.conv2.weight"), 1), w, f"{p}.bn2")
            if st != 1 or in_ch != ch:
                h = np.einsum("oc,cij->oij", f(f"{p}.proj.weight")[:, :, 0, 0], h[:, ::st, ::st])
                h = bn_ref(h, w, f"{p}.proj_bn")
            h = np.maximum(y + h, 0)
            in_ch = ch
    mean = h.mean(axis=2)
    centered = h - mean[:, :, None]
    std = np.sqrt(np.maximum((centered * centered).mean(axis=2), 0) + nnet.STD_FLOOR)
    pooled = np.concatenate([mean.T, std.T], axis=0).ravel()
    return f("dense1.weight") @ pooled + f("dense1.bias")


def padded_conv2d(x, kern, bias, stride):
    """im2col over a zero-padded copy of ``x``: nine shifted, strided views of the
    padded input in one buffer, times the GEMM-shaped kernel, plus the bias."""
    c_in, h, t = x.shape
    h_out, t_out = (h - 1) // stride + 1, (t - 1) // stride + 1
    xp = np.zeros((c_in, h + 2, t + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    cols = np.empty((c_in, 3, 3, h_out, t_out), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, di, dj] = xp[:, di : di + stride * (h_out - 1) + 1 : stride,
                                 dj : dj + stride * (t_out - 1) + 1 : stride]
    return (kern @ cols.reshape(kern.shape[1], h_out * t_out) + bias[:, None]).reshape(
        -1, h_out, t_out)


class TestConv2d:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("frames", [8, 9, 33, 97, 98])
    @pytest.mark.parametrize("freq", [40, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_pad_free_im2col_equals_padded_im2col(self, stride, freq, frames, dtype):
        rng = np.random.default_rng(frames + freq + stride)
        x = rng.standard_normal((4, freq, frames)).astype(dtype)
        kern = rng.standard_normal((8, 36)).astype(dtype)
        bias = rng.standard_normal(8).astype(dtype)
        out = nnet._conv2d(x, kern, bias, stride)
        assert out.dtype == dtype
        assert np.array_equal(out, padded_conv2d(x, kern, bias, stride))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_conv_oracle_on_odd_sizes(self, stride):
        rng = np.random.default_rng(11 + stride)
        x = rng.standard_normal((3, 5, 7))
        kern = rng.standard_normal((4, 3, 3, 3))
        bias = rng.standard_normal(4)
        out = nnet._conv2d(x, kern.reshape(4, 27), bias, stride)  # the GEMM-shaped kernel
        assert out.shape == {1: (4, 5, 7), 2: (4, 3, 4)}[stride]
        np.testing.assert_allclose(out, conv_oracle(x, kern, stride) + bias[:, None, None],
                                   rtol=0, atol=1e-12)


class TestForwardResnet:
    def test_micro_block_matches_conv_oracle(self):
        w = nnet.init_weights(MICRO_RESNET, 3)
        frames = np.random.default_rng(5).standard_normal((8, 4))
        x = frames.T[None]
        h = np.maximum(bn_ref(conv_oracle(x, w["conv1.weight"].astype(float), 1), w, "conv1.bn"), 0)
        y = np.maximum(
            bn_ref(conv_oracle(h, w["stage1.block0.conv1.weight"].astype(float), 1),
                   w, "stage1.block0.bn1"), 0)
        y = bn_ref(conv_oracle(y, w["stage1.block0.conv2.weight"].astype(float), 1),
                   w, "stage1.block0.bn2")
        h = np.maximum(y + h, 0)
        mean = h.mean(axis=2)
        centered = h - mean[:, :, None]
        std = np.sqrt(np.maximum((centered * centered).mean(axis=2), 0) + nnet.STD_FLOOR)
        pooled = np.concatenate([mean.T, std.T], axis=0).ravel()
        expected = w["dense1.weight"].astype(float) @ pooled + w["dense1.bias"].astype(float)
        out = nnet.forward_resnet(frames, nnet.prepare(MICRO_RESNET, w))
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_stride_without_channel_change_projects_shortcut(self):
        spec = STRIDED_RESNET
        shapes = nnet.tensor_shapes(spec)
        assert shapes["stage2.block0.proj.weight"] == (4, 4, 1, 1)
        assert "stage1.block0.proj.weight" not in shapes
        w = nnet.init_weights(spec, 4)
        frames = np.random.default_rng(6).standard_normal((9, 5))
        np.testing.assert_allclose(nnet.forward_resnet(frames, nnet.prepare(spec, float64(w))),
                                   resnet_oracle(frames, spec, w), rtol=0, atol=1e-10)

    def test_folded_batch_norm_with_random_statistics_matches_oracle(self):
        # stem, both convs of a block and the projection shortcut each fold a norm
        w = random_bn(nnet.init_weights(STRIDED_RESNET, 4), 8)
        frames = np.random.default_rng(6).standard_normal((9, 5))
        np.testing.assert_allclose(nnet.forward_resnet(frames,
                                                       nnet.prepare(STRIDED_RESNET, dict(w))),
                                   resnet_oracle(frames, STRIDED_RESNET, w), rtol=0, atol=1e-10)

    def test_zero_dense_zero_embedding(self):
        w = nnet.init_weights(MICRO_RESNET, 1)
        w["dense1.weight"] = np.zeros_like(w["dense1.weight"])
        w["dense1.bias"] = np.zeros_like(w["dense1.bias"])
        out = nnet.forward_resnet(np.random.default_rng(0).standard_normal((9, 4)),
                                  nnet.prepare(MICRO_RESNET, w))
        assert np.all(out == 0.0)

    def test_full_resnet34_embedding_dim(self):
        spec = nnet.resnet_spec(3, embedding_dim=256)
        w = nnet.init_weights(spec, 0)
        emb = nnet.forward_resnet(np.random.default_rng(1).standard_normal((40, 40)),
                                  nnet.prepare(spec, w))
        assert emb.shape == (256,)

    def test_too_few_frames(self):
        w = nnet.init_weights(MICRO_RESNET, 0)
        with pytest.raises(ValueError, match="too few frames"):
            nnet.forward_resnet(np.ones((5, 4)), nnet.prepare(MICRO_RESNET, w))

    def test_dim_mismatch(self):
        w = nnet.init_weights(MICRO_RESNET, 0)
        with pytest.raises(ValueError, match="feature dim mismatch"):
            nnet.forward_resnet(np.ones((8, 5)), nnet.prepare(MICRO_RESNET, w))


class TestFloat32Path:
    """The float32 forward pass that ``svkit embed`` runs, against the float64 reference."""

    @pytest.mark.parametrize("num_frames", [98, 1000])
    @pytest.mark.parametrize("kind", ["resnet34", "tdnn-standard", "tdnn-big-residual"])
    def test_close_to_float64_and_deterministic(self, kind, num_frames):
        spec = nnet.make_spec(kind, 40, 2)
        w = nnet.init_weights(spec, 5)
        net = nnet.prepare(spec, dict(w))
        assert net.dtype == np.float32
        x = np.random.default_rng(num_frames).standard_normal((num_frames, 40))
        ref = nnet.forward(x, nnet.prepare(spec, float64(w)))
        out = nnet.forward(x.astype(np.float32), net)
        assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) <= 1e-5
        # TDNN statistics pooling and segment1 stay float64
        assert out.dtype == (np.float32 if kind == "resnet34" else np.float64)
        assert np.array_equal(out, nnet.forward(x.astype(np.float32), net))
        assert np.array_equal(out, nnet.forward(x, net))  # the network casts the frames

    @pytest.mark.parametrize("kind", ["tdnn-standard", "tdnn-big-residual"])
    def test_tdnn_is_float32_frame_layers_then_float64_segment1(self, kind):
        spec = nnet.tdnn_spec(kind, 40, 2)
        w = {k: v.astype(np.float32) for k, v in random_bn(nnet.init_weights(spec, 3), 4).items()}
        x = np.random.default_rng(2).standard_normal((98, 40)).astype(np.float32)
        h = tdnn_frames_ref(x, spec, w)
        assert h.dtype == np.float32
        expected = w["segment1.weight"].astype(np.float64) @ nnet.stats_pooling(h) \
            + w["segment1.bias"]
        assert np.array_equal(nnet.forward_tdnn(x, nnet.prepare(spec, w)), expected)

    @pytest.mark.parametrize("num_frames", [1, 5, 300])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_blocked_segment1_is_the_float64_gemv(self, dtype, num_frames):
        # segment1 is stored in the network's dtype and widened SEGMENT_ROWS rows at a time
        spec = nnet.tdnn_spec("tdnn-big", 30, 2)
        w = {k: v.astype(dtype) for k, v in random_bn(nnet.init_weights(spec, 6), 7).items()}
        assert w["segment1.weight"].shape == (512, 4000)
        x = np.random.default_rng(num_frames).standard_normal((num_frames, 30)).astype(dtype)
        expected = w["segment1.weight"].astype(np.float64) @ nnet.stats_pooling(
            tdnn_frames_ref(x, spec, w)) + w["segment1.bias"]
        net = nnet.prepare(spec, w)
        assert net.layers["segment1"][0].dtype == dtype
        assert np.array_equal(nnet.forward_tdnn(x, net), expected)

    @pytest.mark.parametrize("kind", ["resnet34", "tdnn-standard"])
    def test_prepare_moves_every_tensor_out_of_its_dict(self, kind):
        spec = nnet.make_spec(kind, 40, 2)
        w = nnet.init_weights(spec, 0)
        kept = dict(w)
        net = nnet.prepare(spec, w)
        assert w == {}
        # a tensor already in the network's dtype is held as is, not copied
        assert net.layers["dense1" if kind == "resnet34" else "segment1"][0] is (
            kept["dense1.weight" if kind == "resnet34" else "segment1.weight"])

    @pytest.mark.parametrize("kind", ["resnet34", "tdnn-standard"])
    def test_network_holds_no_more_than_its_weights(self, kind):
        spec = nnet.make_spec(kind, 40, 2)
        w = nnet.init_weights(spec, 0)
        allowed = sum(v.nbytes for v in w.values())
        assert held_nbytes(nnet.prepare(spec, w)) <= allowed

    # tracemalloc peak of one in-process ``svkit embed`` over three 98-frame files, as
    # a multiple of the network's float32 weight bytes: 1.26 (resnet34) and 1.18
    # (tdnn-standard) when each weight is held once; 1.91 and 1.51 with the caller's
    # ResNet kernels next to the folded ones and a float64 copy of TDNN segment1
    @pytest.mark.parametrize("arch, bound", [("resnet34", 1.5), ("tdnn-standard", 1.35)])
    def test_embed_holds_each_weight_once(self, tmp_path, arch, bound):
        from svkit import cli

        (tmp_path / "feats").mkdir()
        rng = np.random.default_rng(0)
        for i in range(3):
            tensorio.write_feature_matrix(tmp_path / "feats" / f"u{i}.feat",
                                          rng.standard_normal((98, 40)))
        weight_bytes = 4 * sum(int(np.prod(shape)) for shape in
                               nnet.tensor_shapes(nnet.make_spec(arch, 40, 2)).values())
        tracemalloc.start()
        try:
            assert cli.main(["embed", "--feats-dir", str(tmp_path / "feats"), "--arch", arch,
                             "--out", str(tmp_path / "emb.svw")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * weight_bytes

    def test_resnet_peak_memory_on_1000_frames(self):
        spec = nnet.resnet_spec(2)
        net = nnet.prepare(spec, nnet.init_weights(spec, 0))
        x = np.random.default_rng(0).standard_normal((1000, 40)).astype(np.float32)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            nnet.forward_resnet(x, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80 * 2**20

    @pytest.mark.parametrize("frames", [np.ones((9, 4), dtype=np.int64), np.ones((9, 4)).tolist(),
                                        np.ones((9, 4), dtype=np.float16)],
                             ids=["int64", "list", "float16"])
    def test_frames_must_be_float32_or_float64_arrays(self, frames):
        net = nnet.prepare(MICRO_RESNET, nnet.init_weights(MICRO_RESNET, 0))
        with pytest.raises(ValueError, match="float32 or float64"):
            nnet.forward(frames, net)


class TestWeightFiles:
    def test_roundtrip_exact(self, tmp_path):
        w = nnet.init_weights(MICRO_TDNN, 4)
        tensorio.write_tensors(tmp_path / "w.svw", w)
        back = tensorio.read_tensors(tmp_path / "w.svw")
        assert back.keys() == w.keys()
        assert all(np.array_equal(back[k], w[k]) for k in w)

    def test_truncated_file(self, tmp_path):
        w = nnet.init_weights(MICRO_TDNN, 4)
        path = tmp_path / "w.svw"
        tensorio.write_tensors(path, w)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError, match="bad weight file"):
            tensorio.read_tensors(path)

    def test_empty_store(self, tmp_path):
        path = tmp_path / "w.svw"
        tensorio.write_tensors(path, {})
        assert tensorio.read_tensors(path) == {}

    def test_duplicate_tensor_name_rejected(self, tmp_path):
        record = struct.pack("<H", 1) + b"a" + struct.pack("<BI", 1, 1) + struct.pack("<f", 1.0)
        path = tmp_path / "w.svw"
        path.write_bytes(b"SVW1" + struct.pack("<I", 2) + record + record)
        with pytest.raises(ValueError, match="bad weight file: duplicate tensor 'a'"):
            tensorio.read_tensors(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        record = struct.pack("<H", 1) + b"\xff" + struct.pack("<BI", 1, 1) + struct.pack("<f", 1.0)
        path = tmp_path / "w.svw"
        path.write_bytes(b"SVW1" + struct.pack("<I", 1) + record)
        with pytest.raises(ValueError, match="^bad weight file: tensor name is not UTF-8$"):
            tensorio.read_tensors(path)

    def test_resnet_spec_validation(self):
        with pytest.raises(ValueError, match="embedding_dim"):
            nnet.resnet_spec(4, embedding_dim=100)

    def test_make_spec_dispatch(self):
        assert isinstance(nnet.make_spec("tdnn-standard", 40, 4), nnet.TdnnSpec)
        assert isinstance(nnet.make_spec("resnet34", 40, 4, 160), nnet.ResnetSpec)
        with pytest.raises(ValueError, match="unknown architecture"):
            nnet.make_spec("mlp", 40, 4)

    @pytest.mark.parametrize("kind", nnet.TDNN_KINDS)
    def test_make_spec_rejects_tdnn_embedding_dim(self, kind):
        assert nnet.make_spec(kind, 40, 4, 512).embedding_dim == 512
        with pytest.raises(ValueError, match="embedding_dim is fixed at 512"):
            nnet.make_spec(kind, 40, 4, 128)
