"""Embedding extractors: TDNN x-vector variants and the ResNet34 r-vector.

Network specs are declarative layer descriptions; forward passes are
deterministic numpy inference (batch norm always uses stored running
statistics). Frame layers of the TDNN apply splice, affine, ReLU, batch
norm in that order; the embedding is the pre-activation output of the
first segment-level affine. The ResNet pools mean and standard deviation
over time and taps the embedding before the Dense1 nonlinearity.
"""

from dataclasses import dataclass

import numpy as np

from . import tensorio

BN_EPS = 1e-5
STD_FLOOR = 1e-10

TDNN_KINDS = ("tdnn-standard", "tdnn-big", "tdnn-big-residual")
ARCH_KINDS = TDNN_KINDS + ("resnet34",)


@dataclass(frozen=True)
class TdnnLayer:
    name: str
    offsets: tuple[int, ...]
    out_dim: int
    residual: bool = False


@dataclass(frozen=True)
class TdnnSpec:
    kind: str
    input_dim: int
    num_classes: int
    frame_layers: tuple[TdnnLayer, ...]
    embedding_dim: int = 512
    segment2_dim: int = 512


@dataclass(frozen=True)
class ResnetSpec:
    kind: str
    input_freq: int
    num_classes: int
    embedding_dim: int = 256
    stem_channels: int = 32
    stage_blocks: tuple[int, ...] = (3, 4, 6, 3)
    stage_channels: tuple[int, ...] = (32, 64, 128, 256)
    stage_strides: tuple[int, ...] = (1, 2, 2, 2)


NetworkSpec = TdnnSpec | ResnetSpec


def tdnn_spec(kind: str, input_dim: int, num_classes: int) -> TdnnSpec:
    """Build one of the three TDNN x-vector layouts."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if kind == "tdnn-standard":
        width, frame3, frame9_out = 512, (-2, 0, 2), 1500
        residual = False
    elif kind in ("tdnn-big", "tdnn-big-residual"):
        width, frame3, frame9_out = 1024, (-4, -2, 0, 2, 4), 2000
        residual = kind == "tdnn-big-residual"
    else:
        raise ValueError(f"unknown TDNN kind: {kind}")
    layers = (
        TdnnLayer("frame1", (-2, -1, 0, 1, 2), width),
        TdnnLayer("frame2", (0,), width, residual),
        TdnnLayer("frame3", frame3, width),
        TdnnLayer("frame4", (0,), width, residual),
        TdnnLayer("frame5", (-3, 0, 3), width),
        TdnnLayer("frame6", (0,), width, residual),
        TdnnLayer("frame7", (-4, 0, 4), width),
        TdnnLayer("frame8", (0,), width, residual),
        TdnnLayer("frame9", (0,), frame9_out),
    )
    return TdnnSpec(kind, input_dim, num_classes, layers)


def resnet_spec(num_classes: int, embedding_dim: int = 256, input_freq: int = 40) -> ResnetSpec:
    """ResNet34 r-vector layout with basic blocks {3,4,6,3}."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if embedding_dim not in (256, 160):
        raise ValueError("resnet34 embedding_dim must be 256 or 160")
    return ResnetSpec("resnet34", input_freq, num_classes, embedding_dim)


def make_spec(kind: str, input_dim: int, num_classes: int, embedding_dim: int | None = None) -> NetworkSpec:
    if kind in TDNN_KINDS:
        return tdnn_spec(kind, input_dim, num_classes)
    if kind == "resnet34":
        return resnet_spec(num_classes, embedding_dim or 256, input_dim)
    raise ValueError(f"unknown architecture kind: {kind}")


def splice(frames: np.ndarray, offsets) -> np.ndarray:
    """Concatenate context rows at the given offsets, clamping at the edges."""
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("splice needs a non-empty 2-D frame matrix")
    n = frames.shape[0]
    base = np.arange(n)
    cols = [frames[np.clip(base + o, 0, n - 1)] for o in offsets]
    return np.concatenate(cols, axis=1)


def stats_pooling(frames: np.ndarray) -> np.ndarray:
    """Concatenated per-dimension mean and population standard deviation.

    Moments are taken about the first frame so that a constant frame
    sequence pools to exactly (frame, sqrt(floor)) regardless of length.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise ValueError("stats pooling needs at least one frame")
    delta = frames - frames[0]
    mean_delta = np.mean(delta, axis=0)
    centered = delta - mean_delta
    var = np.mean(centered * centered, axis=0)
    std = np.sqrt(np.maximum(var, 0.0) + STD_FLOOR)
    return np.concatenate([frames[0] + mean_delta, std])


# ---------------------------------------------------------------------------
# Tensor inventory and initialization


def _bn_names(prefix: str, dim: int) -> dict[str, tuple[int, ...]]:
    return {
        f"{prefix}.scale": (dim,),
        f"{prefix}.shift": (dim,),
        f"{prefix}.mean": (dim,),
        f"{prefix}.var": (dim,),
    }


def _tdnn_tensor_shapes(spec: TdnnSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    in_dim = spec.input_dim
    for layer in spec.frame_layers:
        if layer.residual and (len(layer.offsets) != 1 or layer.out_dim != in_dim):
            raise ValueError("residual frame layers must preserve dimension")
        shapes[f"{layer.name}.weight"] = (layer.out_dim, len(layer.offsets) * in_dim)
        shapes[f"{layer.name}.bias"] = (layer.out_dim,)
        shapes.update(_bn_names(f"{layer.name}.bn", layer.out_dim))
        in_dim = layer.out_dim
    pooled = 2 * in_dim
    shapes["segment1.weight"] = (spec.embedding_dim, pooled)
    shapes["segment1.bias"] = (spec.embedding_dim,)
    shapes.update(_bn_names("segment1.bn", spec.embedding_dim))
    shapes["segment2.weight"] = (spec.segment2_dim, spec.embedding_dim)
    shapes["segment2.bias"] = (spec.segment2_dim,)
    shapes.update(_bn_names("segment2.bn", spec.segment2_dim))
    shapes["softmax.weight"] = (spec.num_classes, spec.segment2_dim)
    shapes["softmax.bias"] = (spec.num_classes,)
    return shapes


def _resnet_tensor_shapes(spec: ResnetSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    shapes["conv1.weight"] = (spec.stem_channels, 1, 3, 3)
    shapes.update(_bn_names("conv1.bn", spec.stem_channels))
    in_ch = spec.stem_channels
    freq = spec.input_freq
    for s, (blocks, ch, stride) in enumerate(
        zip(spec.stage_blocks, spec.stage_channels, spec.stage_strides), start=1
    ):
        for b in range(blocks):
            p = f"stage{s}.block{b}"
            blk_stride = stride if b == 0 else 1
            shapes[f"{p}.conv1.weight"] = (ch, in_ch, 3, 3)
            shapes.update(_bn_names(f"{p}.bn1", ch))
            shapes[f"{p}.conv2.weight"] = (ch, ch, 3, 3)
            shapes.update(_bn_names(f"{p}.bn2", ch))
            if blk_stride != 1 or in_ch != ch:
                shapes[f"{p}.proj.weight"] = (ch, in_ch, 1, 1)
                shapes.update(_bn_names(f"{p}.proj_bn", ch))
            in_ch = ch
        freq = -(-freq // stride)
    pooled = 2 * freq * in_ch
    shapes["dense1.weight"] = (spec.embedding_dim, pooled)
    shapes["dense1.bias"] = (spec.embedding_dim,)
    shapes["dense2.weight"] = (spec.num_classes, spec.embedding_dim)
    shapes["dense2.bias"] = (spec.num_classes,)
    return shapes


def tensor_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    if isinstance(spec, TdnnSpec):
        return _tdnn_tensor_shapes(spec)
    return _resnet_tensor_shapes(spec)


def init_weights(spec: NetworkSpec, seed: int) -> dict[str, np.ndarray]:
    """Seeded initialization: uniform +-sqrt(6/fan_in) weights, unit batch norm."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(spec).items():
        if name.endswith(".weight"):
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            weights[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        elif name.endswith(".bias") or name.endswith(".shift") or name.endswith(".mean"):
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:  # .scale / .var
            weights[name] = np.ones(shape, dtype=np.float32)
    return weights


def validate_weights(spec: NetworkSpec, weights: dict[str, np.ndarray]) -> None:
    expected = tensor_shapes(spec)
    missing = sorted(set(expected) - set(weights))
    extra = sorted(set(weights) - set(expected))
    if missing or extra:
        raise ValueError(f"weights mismatch: missing={missing} extra={extra}")
    for name, shape in expected.items():
        if tuple(weights[name].shape) != shape:
            raise ValueError(
                f"weights mismatch: {name} has shape {tuple(weights[name].shape)}, expected {shape}"
            )


def save_weights(weights: dict[str, np.ndarray], path) -> None:
    tensorio.write_tensors(path, weights)


def load_weights(path) -> dict[str, np.ndarray]:
    return tensorio.read_tensors(path)


# ---------------------------------------------------------------------------
# Forward passes


def _bn(x: np.ndarray, w: dict, prefix: str) -> np.ndarray:
    scale = np.asarray(w[f"{prefix}.scale"], dtype=np.float64)
    shift = np.asarray(w[f"{prefix}.shift"], dtype=np.float64)
    mean = np.asarray(w[f"{prefix}.mean"], dtype=np.float64)
    var = np.asarray(w[f"{prefix}.var"], dtype=np.float64)
    inv = scale / np.sqrt(var + BN_EPS)
    if x.ndim == 3:  # (channels, freq, time)
        return (x - mean[:, None, None]) * inv[:, None, None] + shift[:, None, None]
    return (x - mean) * inv + shift


def forward_tdnn(frames: np.ndarray, spec: TdnnSpec, weights: dict[str, np.ndarray]) -> np.ndarray:
    """Embedding of a feature matrix (frames x input_dim)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != spec.input_dim:
        raise ValueError("feature dim mismatch")
    if frames.shape[0] < 1:
        raise ValueError("too few frames")
    validate_weights(spec, weights)
    x = frames
    for layer in spec.frame_layers:
        w = np.asarray(weights[f"{layer.name}.weight"], dtype=np.float64)
        b = np.asarray(weights[f"{layer.name}.bias"], dtype=np.float64)
        y = splice(x, layer.offsets) @ w.T + b
        y = np.maximum(y, 0.0)
        y = _bn(y, weights, f"{layer.name}.bn")
        x = y + x if layer.residual else y
    pooled = stats_pooling(x)
    w1 = np.asarray(weights["segment1.weight"], dtype=np.float64)
    b1 = np.asarray(weights["segment1.bias"], dtype=np.float64)
    return w1 @ pooled + b1


def _conv2d(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """3x3 convolution with padding 1; x is (channels, freq, time)."""
    c_in, h, t = x.shape
    h_out = (h - 1) // stride + 1
    t_out = (t - 1) // stride + 1
    xp = np.zeros((c_in, h + 2, t + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    out = np.zeros((w.shape[0], h_out, t_out), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, di : di + stride * (h_out - 1) + 1 : stride,
                       dj : dj + stride * (t_out - 1) + 1 : stride]
            out += np.tensordot(w[:, :, di, dj], patch, axes=(1, 0))
    return out


def _conv1x1(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    sub = x[:, ::stride, ::stride]
    return np.tensordot(w[:, :, 0, 0], sub, axes=(1, 0))


def forward_resnet(frames: np.ndarray, spec: ResnetSpec, weights: dict[str, np.ndarray]) -> np.ndarray:
    """Embedding of a feature matrix (frames x input_freq)."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != spec.input_freq:
        raise ValueError("feature dim mismatch")
    if frames.shape[0] < 8:
        raise ValueError("too few frames: need at least 8")
    validate_weights(spec, weights)
    x = frames.T[None, :, :]  # (1 channel, freq, time)
    x = _conv2d(x, np.asarray(weights["conv1.weight"], dtype=np.float64), 1)
    x = np.maximum(_bn(x, weights, "conv1.bn"), 0.0)
    for s, (blocks, stride) in enumerate(zip(spec.stage_blocks, spec.stage_strides), start=1):
        for b in range(blocks):
            p = f"stage{s}.block{b}"
            blk_stride = stride if b == 0 else 1
            y = _conv2d(x, np.asarray(weights[f"{p}.conv1.weight"], dtype=np.float64), blk_stride)
            y = np.maximum(_bn(y, weights, f"{p}.bn1"), 0.0)
            y = _conv2d(y, np.asarray(weights[f"{p}.conv2.weight"], dtype=np.float64), 1)
            y = _bn(y, weights, f"{p}.bn2")
            if f"{p}.proj.weight" in weights:
                shortcut = _conv1x1(x, np.asarray(weights[f"{p}.proj.weight"], dtype=np.float64), blk_stride)
                shortcut = _bn(shortcut, weights, f"{p}.proj_bn")
            else:
                shortcut = x
            x = np.maximum(y + shortcut, 0.0)
    mean = np.mean(x, axis=2)  # (channels, freq)
    centered = x - mean[:, :, None]
    std = np.sqrt(np.maximum(np.mean(centered * centered, axis=2), 0.0) + STD_FLOOR)
    pooled = np.concatenate([mean.T, std.T], axis=0)  # (2*freq, channels)
    w1 = np.asarray(weights["dense1.weight"], dtype=np.float64)
    b1 = np.asarray(weights["dense1.bias"], dtype=np.float64)
    return w1 @ pooled.ravel() + b1


def forward(frames: np.ndarray, spec: NetworkSpec, weights: dict[str, np.ndarray]) -> np.ndarray:
    if isinstance(spec, TdnnSpec):
        return forward_tdnn(frames, spec, weights)
    return forward_resnet(frames, spec, weights)


# ---------------------------------------------------------------------------
# Shape audits (dry runs without tensor math)


def tdnn_shape_audit(spec: TdnnSpec) -> list[tuple[str, int, int]]:
    """Per-layer (name, input dim, output dim) of a dry-run forward."""
    rows = []
    in_dim = spec.input_dim
    for layer in spec.frame_layers:
        rows.append((layer.name, len(layer.offsets) * in_dim, layer.out_dim))
        in_dim = layer.out_dim
    rows.append(("stats", in_dim, 2 * in_dim))
    rows.append(("segment1", 2 * in_dim, spec.embedding_dim))
    rows.append(("segment2", spec.embedding_dim, spec.segment2_dim))
    rows.append(("softmax", spec.segment2_dim, spec.num_classes))
    return rows


def resnet_shape_audit(spec: ResnetSpec, time: int = 200) -> list[tuple[str, tuple[int, ...]]]:
    """Per-stage (name, output shape) for a freq x time x 1 input."""
    rows = [("input", (spec.input_freq, time, 1))]
    freq, t = spec.input_freq, time
    rows.append(("conv1", (freq, t, spec.stem_channels)))
    ch = spec.stem_channels
    for s, (blocks, c, stride) in enumerate(
        zip(spec.stage_blocks, spec.stage_channels, spec.stage_strides), start=1
    ):
        freq = -(-freq // stride)
        t = -(-t // stride)
        ch = c
        rows.append((f"stage{s}", (freq, t, ch)))
    rows.append(("pool", (2 * freq, ch)))
    rows.append(("flatten", (2 * freq * ch,)))
    rows.append(("dense1", (spec.embedding_dim,)))
    rows.append(("dense2", (spec.num_classes,)))
    return rows
