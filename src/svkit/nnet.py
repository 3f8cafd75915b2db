"""Embedding extractors: TDNN x-vector variants and the ResNet34 r-vector.

Network specs are declarative layer descriptions; forward passes are
deterministic numpy inference (batch norm always uses stored running
statistics) in the dtype of the frames, float32 or float64: ``svkit
embed`` runs float32 and float64 is the tests' reference. Frame layers
of the TDNN apply splice, affine, ReLU, batch norm in that order; the
embedding is the pre-activation output of the first segment-level
affine. The ResNet pools mean and standard deviation over time and taps
the embedding before the Dense1 nonlinearity.
"""

import functools
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

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
        if embedding_dim not in (None, TdnnSpec.embedding_dim):
            raise ValueError(f"{kind} embedding_dim is fixed at {TdnnSpec.embedding_dim}")
        return tdnn_spec(kind, input_dim, num_classes)
    if kind == "resnet34":
        return resnet_spec(num_classes, embedding_dim or 256, input_dim)
    raise ValueError(f"unknown architecture kind: {kind}")


def num_classes_of(kind: str, weights: Mapping[str, np.ndarray]) -> int:
    """Rows of the classifier weight in ``weights``; 2 when that tensor is absent
    or scalar, so that ``validate_weights`` names it as missing or misshapen."""
    w = weights.get("dense2.weight" if kind == "resnet34" else "softmax.weight")
    return w.shape[0] if w is not None and w.ndim else 2


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
# Layer walks and the tensor inventory. Each architecture has one walk, which
# the inventory, the shape audits and the forward passes all iterate.


def _tdnn_layers(spec: TdnnSpec) -> Iterator[tuple[TdnnLayer, int]]:
    """(layer, input width) from frame1 to the softmax; a frame layer takes its spliced width."""
    in_dim = spec.input_dim
    for layer in spec.frame_layers:
        if layer.residual and (len(layer.offsets) != 1 or layer.out_dim != in_dim):
            raise ValueError("residual frame layers must preserve dimension")
        yield layer, len(layer.offsets) * in_dim
        in_dim = layer.out_dim
    yield TdnnLayer("stats", (), 2 * in_dim), in_dim
    yield TdnnLayer("segment1", (), spec.embedding_dim), 2 * in_dim
    yield TdnnLayer("segment2", (), spec.segment2_dim), spec.embedding_dim
    yield TdnnLayer("softmax", (), spec.num_classes), spec.segment2_dim


class _ResBlock(NamedTuple):
    """One basic block; ``freq`` x ``time`` is the size of its output."""

    name: str
    stage: str
    in_ch: int
    out_ch: int
    stride: int
    proj: bool  # 1x1 projection shortcut instead of the identity
    freq: int
    time: int


def _resnet_blocks(spec: ResnetSpec, time: int = 1) -> Iterator[_ResBlock]:
    """Basic blocks after the stem, in order, for an input of ``time`` frames."""
    in_ch, freq = spec.stem_channels, spec.input_freq
    for s, (blocks, ch, stride) in enumerate(
        zip(spec.stage_blocks, spec.stage_channels, spec.stage_strides), start=1
    ):
        for b in range(blocks):
            blk_stride = stride if b == 0 else 1
            freq, time = -(-freq // blk_stride), -(-time // blk_stride)
            yield _ResBlock(f"stage{s}.block{b}", f"stage{s}", in_ch, ch, blk_stride,
                            blk_stride != 1 or in_ch != ch, freq, time)
            in_ch = ch


def _bn_names(prefix: str, dim: int) -> dict[str, tuple[int, ...]]:
    return {f"{prefix}.{stat}": (dim,) for stat in ("scale", "shift", "mean", "var")}


def _tdnn_tensor_shapes(spec: TdnnSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for layer, in_dim in _tdnn_layers(spec):
        if layer.name == "stats":
            continue
        shapes[f"{layer.name}.weight"] = (layer.out_dim, in_dim)
        shapes[f"{layer.name}.bias"] = (layer.out_dim,)
        if layer.name != "softmax":
            shapes.update(_bn_names(f"{layer.name}.bn", layer.out_dim))
    return shapes


def _resnet_tensor_shapes(spec: ResnetSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {"conv1.weight": (spec.stem_channels, 1, 3, 3)}
    shapes.update(_bn_names("conv1.bn", spec.stem_channels))
    for blk in _resnet_blocks(spec):
        p = blk.name
        shapes[f"{p}.conv1.weight"] = (blk.out_ch, blk.in_ch, 3, 3)
        shapes.update(_bn_names(f"{p}.bn1", blk.out_ch))
        shapes[f"{p}.conv2.weight"] = (blk.out_ch, blk.out_ch, 3, 3)
        shapes.update(_bn_names(f"{p}.bn2", blk.out_ch))
        if blk.proj:
            shapes[f"{p}.proj.weight"] = (blk.out_ch, blk.in_ch, 1, 1)
            shapes.update(_bn_names(f"{p}.proj_bn", blk.out_ch))
    shapes["dense1.weight"] = (spec.embedding_dim, dict(resnet_shape_audit(spec))["flatten"][0])
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


@dataclass(frozen=True, eq=False)
class Network:
    """A spec and a read-only mapping of weights checked against it; see ``prepare``."""

    spec: NetworkSpec
    weights: Mapping[str, np.ndarray]

    @functools.cached_property
    def segment1_f64(self) -> np.ndarray:
        """The TDNN's ``segment1.weight`` widened once to float64, the dtype of
        the pooled statistics it multiplies."""
        return self.weights["segment1.weight"].astype(np.float64, copy=False)


def prepare(spec: NetworkSpec, weights: dict[str, np.ndarray]) -> Network:
    """Validate ``weights`` against ``spec`` once, for any number of forward passes."""
    validate_weights(spec, weights)
    return Network(spec, MappingProxyType(dict(weights)))


# ---------------------------------------------------------------------------
# Forward passes


def _bn(x: np.ndarray, w: Mapping[str, np.ndarray], prefix: str) -> np.ndarray:
    scale, var, mean, shift = (w[f"{prefix}.{stat}"].astype(x.dtype, copy=False)
                               for stat in ("scale", "var", "mean", "shift"))
    inv = scale / np.sqrt(var + BN_EPS)
    if x.ndim == 3:  # (channels, freq, time)
        return (x - mean[:, None, None]) * inv[:, None, None] + shift[:, None, None]
    return (x - mean) * inv + shift


def _check_frames(frames: np.ndarray, dim: int, min_frames: int) -> None:
    if not isinstance(frames, np.ndarray) or frames.dtype not in (np.float32, np.float64):
        raise ValueError("frames must be a float32 or float64 array")
    if frames.ndim != 2 or frames.shape[1] != dim:
        raise ValueError("feature dim mismatch")
    if frames.shape[0] < min_frames:
        raise ValueError(f"too few frames: need at least {min_frames}")


def forward_tdnn(frames: np.ndarray, net: Network) -> np.ndarray:
    """Embedding of a float32 or float64 feature matrix (frames x input_dim)."""
    spec, w = net.spec, net.weights
    _check_frames(frames, spec.input_dim, 1)
    x = frames
    for layer, _ in _tdnn_layers(spec):
        if layer.name == "stats":  # the frame layers are done
            break
        y = splice(x, layer.offsets) @ w[f"{layer.name}.weight"].astype(x.dtype, copy=False).T
        y = _bn(np.maximum(y + w[f"{layer.name}.bias"], 0.0), w, f"{layer.name}.bn")
        x = y + x if layer.residual else y
    pooled = stats_pooling(x)  # float64 whatever the frames' dtype
    return net.segment1_f64 @ pooled + w["segment1.bias"]


def _conv2d(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    """3x3 convolution with padding 1; x is (channels, freq, time).

    Lowered to one GEMM (im2col): the nine shifted, strided views of the
    padded input are copied into a (c_in, 3, 3, h_out, t_out) buffer, which
    the (c_out, 9 c_in) weight matrix multiplies.
    """
    c_in, h, t = x.shape
    h_out = (h - 1) // stride + 1
    t_out = (t - 1) // stride + 1
    xp = np.zeros((c_in, h + 2, t + 2), dtype=x.dtype)
    xp[:, 1:-1, 1:-1] = x
    cols = np.empty((c_in, 3, 3, h_out, t_out), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            cols[:, di, dj] = xp[:, di : di + stride * (h_out - 1) + 1 : stride,
                                 dj : dj + stride * (t_out - 1) + 1 : stride]
    kern = w.reshape(w.shape[0], 9 * c_in).astype(x.dtype, copy=False)
    return (kern @ cols.reshape(9 * c_in, h_out * t_out)).reshape(w.shape[0], h_out, t_out)


def _conv1x1(x: np.ndarray, w: np.ndarray, stride: int) -> np.ndarray:
    sub = x[:, ::stride, ::stride]
    return np.tensordot(w[:, :, 0, 0].astype(x.dtype, copy=False), sub, axes=(1, 0))


def forward_resnet(frames: np.ndarray, net: Network) -> np.ndarray:
    """Embedding of a float32 or float64 feature matrix (frames x input_freq)."""
    spec, w = net.spec, net.weights
    _check_frames(frames, spec.input_freq, 8)
    x = frames.T[None, :, :]  # (1 channel, freq, time)
    x = np.maximum(_bn(_conv2d(x, w["conv1.weight"], 1), w, "conv1.bn"), 0.0)
    for blk in _resnet_blocks(spec):
        p = blk.name
        y = _conv2d(x, w[f"{p}.conv1.weight"], blk.stride)
        y = np.maximum(_bn(y, w, f"{p}.bn1"), 0.0)
        y = _bn(_conv2d(y, w[f"{p}.conv2.weight"], 1), w, f"{p}.bn2")
        if blk.proj:  # project the shortcut to the block's output shape
            x = _bn(_conv1x1(x, w[f"{p}.proj.weight"], blk.stride), w, f"{p}.proj_bn")
        x = np.maximum(y + x, 0.0)
    mean = np.mean(x, axis=2)  # (channels, freq)
    centered = x - mean[:, :, None]
    std = np.sqrt(np.maximum(np.mean(centered * centered, axis=2), 0.0) + STD_FLOOR)
    pooled = np.concatenate([mean.T, std.T], axis=0)  # (2*freq, channels)
    return w["dense1.weight"].astype(x.dtype, copy=False) @ pooled.ravel() + w["dense1.bias"]


def forward(frames: np.ndarray, net: Network) -> np.ndarray:
    if isinstance(net.spec, TdnnSpec):
        return forward_tdnn(frames, net)
    return forward_resnet(frames, net)


# ---------------------------------------------------------------------------
# Shape audits (dry runs without tensor math)


def tdnn_shape_audit(spec: TdnnSpec) -> list[tuple[str, int, int]]:
    """Per-layer (name, input dim, output dim) of a dry-run forward."""
    return [(layer.name, in_dim, layer.out_dim) for layer, in_dim in _tdnn_layers(spec)]


def resnet_shape_audit(spec: ResnetSpec, time: int = 200) -> list[tuple[str, tuple[int, ...]]]:
    """Per-stage (name, output shape) for a freq x time x 1 input."""
    rows = [("input", (spec.input_freq, time, 1)),
            ("conv1", (spec.input_freq, time, spec.stem_channels))]
    # a stage's output is that of its last block
    stages = {blk.stage: (blk.freq, blk.time, blk.out_ch) for blk in _resnet_blocks(spec, time)}
    rows.extend(stages.items())
    freq, _, ch = rows[-1][1]
    return rows + [("pool", (2 * freq, ch)), ("flatten", (2 * freq * ch,)),
                   ("dense1", (spec.embedding_dim,)), ("dense2", (spec.num_classes,))]
