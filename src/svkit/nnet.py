"""Embedding extractors: TDNN x-vector variants and the ResNet34 r-vector.

Network specs are declarative layer descriptions. ``prepare`` moves the tensors
out of the dict it is given and lays out once, in the weights' dtype, what
inference reads, so a network holds each weight once; it is deterministic numpy,
with batch norm on stored running statistics. ``svkit embed`` runs float32, the
tests' reference float64. TDNN frame layers apply splice, affine, ReLU, batch
norm; the embedding is the float64 pre-activation output of the first
segment-level affine, whose weight is stored in the network's dtype like every
other tensor and widened to float64 one block of rows at a time. The ResNet folds
each batch norm into its conv, pools its last map with the same ``stats_pooling``
and taps the embedding before the Dense1 nonlinearity.
"""

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

BN_EPS = 1e-5
STD_FLOOR = 1e-10
BN_STATS = ("scale", "shift", "mean", "var")

INIT_BLOCK = 1 << 16  # values ``init_weights`` draws per call
SEGMENT_ROWS = 64  # segment1 rows ``forward_tdnn`` widens to float64 at a time

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
# Layer walks and the tensor inventory. The inventory, the shape audits, prepare
# and the forward passes iterate one walk per architecture (TDNN: its frame layers).


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


def _tdnn_tensor_shapes(spec: TdnnSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for layer, in_dim in _tdnn_layers(spec):
        if layer.name == "stats":
            continue
        shapes[f"{layer.name}.weight"] = (layer.out_dim, in_dim)
        shapes[f"{layer.name}.bias"] = (layer.out_dim,)
        if layer.name != "softmax":
            shapes.update({f"{layer.name}.bn.{stat}": (layer.out_dim,) for stat in BN_STATS})
    return shapes


def _resnet_convs(spec: ResnetSpec) -> Iterator[tuple[str, str, tuple[int, ...]]]:
    """(conv, the batch norm after it, kernel shape) from the stem to the last block."""
    yield "conv1", "conv1.bn", (spec.stem_channels, 1, 3, 3)
    for blk in _resnet_blocks(spec):
        p = blk.name
        yield f"{p}.conv1", f"{p}.bn1", (blk.out_ch, blk.in_ch, 3, 3)
        yield f"{p}.conv2", f"{p}.bn2", (blk.out_ch, blk.out_ch, 3, 3)
        if blk.proj:
            yield f"{p}.proj", f"{p}.proj_bn", (blk.out_ch, blk.in_ch, 1, 1)


def _resnet_tensor_shapes(spec: ResnetSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for conv, bn, shape in _resnet_convs(spec):
        shapes[f"{conv}.weight"] = shape
        shapes.update({f"{bn}.{stat}": shape[:1] for stat in BN_STATS})
    emb, flat = spec.embedding_dim, dict(resnet_shape_audit(spec))["flatten"][0]
    return shapes | {"dense1.weight": (emb, flat), "dense1.bias": (emb,),
                     "dense2.weight": (spec.num_classes, emb), "dense2.bias": (spec.num_classes,)}


def tensor_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    return (_tdnn_tensor_shapes if isinstance(spec, TdnnSpec) else _resnet_tensor_shapes)(spec)


def init_weights(spec: NetworkSpec, seed: int) -> dict[str, np.ndarray]:
    """Seeded initialization: uniform +-sqrt(6/fan_in) weights, unit batch norm.

    Each weight is drawn ``INIT_BLOCK`` values at a time into its float32 array:
    the same stream and values as one float64 draw of the whole tensor, cast."""
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(spec).items():
        if name.endswith(".weight"):
            fan_in = int(np.prod(shape[1:]))
            bound = np.sqrt(6.0 / fan_in)
            weights[name] = w = np.empty(shape, dtype=np.float32)
            flat = w.reshape(-1)
            for start in range(0, flat.size, INIT_BLOCK):
                block = flat[start : start + INIT_BLOCK]
                block[...] = rng.uniform(-bound, bound, size=block.size)
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
    """A spec and, by layer name, the read-only tensors its forward pass reads; see ``prepare``."""

    spec: NetworkSpec
    dtype: np.dtype
    layers: Mapping[str, tuple[np.ndarray, ...]]


def _bn_stats(weights: dict[str, np.ndarray], prefix: str, dtype) -> tuple[np.ndarray, ...]:
    """(mean, inv, shift) of batch norm ``prefix`` in ``dtype``, moved out of ``weights``:
    y = (x - mean) inv + shift."""
    scale, shift, mean, var = (weights.pop(f"{prefix}.{s}").astype(dtype, copy=False)
                               for s in BN_STATS)
    return mean, scale / np.sqrt(var + BN_EPS), shift


def _affine(weights: dict[str, np.ndarray], name: str, dtype) -> tuple[np.ndarray, ...]:
    return tuple(weights.pop(f"{name}.{part}").astype(dtype, copy=False)
                 for part in ("weight", "bias"))


def prepare(spec: NetworkSpec, weights: dict[str, np.ndarray]) -> Network:
    """Validate ``weights`` against ``spec`` once and lay out, in their dtype, what the
    forward passes read.

    Each tensor is moved out of ``weights``, which is left empty, so the network
    holds each weight once; a caller that keeps its tensors passes ``dict(weights)``.
    A ResNet conv -> batch norm pair becomes its kernel, each output row scaled by
    inv (in float64, with no float64 copy of the kernel), and a bias of
    shift - mean inv: exact, since the zero padding comes before the conv. Each
    unfolded kernel is freed once its folded copy exists. segment2, softmax and
    dense2, which no forward pass reads, are dropped."""
    validate_weights(spec, weights)
    dtype = np.result_type(*{w.dtype for w in weights.values()})
    layers: dict[str, tuple[np.ndarray, ...]] = {}
    if isinstance(spec, TdnnSpec):
        for layer in spec.frame_layers:
            layers[layer.name] = (*_affine(weights, layer.name, dtype),
                                  *_bn_stats(weights, f"{layer.name}.bn", dtype))
        layers["segment1"] = _affine(weights, "segment1", dtype)
    else:
        for conv, bn, shape in _resnet_convs(spec):
            mean, inv, shift = _bn_stats(weights, bn, np.float64)
            w = weights.pop(f"{conv}.weight").reshape(shape[0], -1)
            kern = np.multiply(w, inv[:, None], out=np.empty(w.shape, dtype), casting="unsafe")
            layers[conv] = (kern, (shift - mean * inv).astype(dtype))
        layers["dense1"] = _affine(weights, "dense1", dtype)
    weights.clear()
    return Network(spec, dtype, MappingProxyType(layers))


# ---------------------------------------------------------------------------
# Forward passes: the frames are cast to the network's dtype, then arithmetic only


def _frames_in(frames: np.ndarray, net: Network, dim: int, min_frames: int) -> np.ndarray:
    if not isinstance(frames, np.ndarray) or frames.dtype not in (np.float32, np.float64):
        raise ValueError("frames must be a float32 or float64 array")
    if frames.ndim != 2 or frames.shape[1] != dim:
        raise ValueError("feature dim mismatch")
    if frames.shape[0] < min_frames:
        raise ValueError(f"too few frames: need at least {min_frames}")
    if not np.all(np.isfinite(frames)):
        raise ValueError("non-finite frames")
    return frames.astype(net.dtype, copy=False)


def forward_tdnn(frames: np.ndarray, net: Network) -> np.ndarray:
    """Float64 embedding of a float32 or float64 feature matrix (frames x input_dim).

    segment1 multiplies the float64 pooled statistics ``SEGMENT_ROWS`` weight rows
    at a time, each block widened to float64: the bits of one float64 GEMV."""
    x = _frames_in(frames, net, net.spec.input_dim, 1)
    for layer in net.spec.frame_layers:
        weight, bias, mean, inv, shift = net.layers[layer.name]
        y = (np.maximum(splice(x, layer.offsets) @ weight.T + bias, 0.0) - mean) * inv + shift
        x = y + x if layer.residual else y
    weight, bias = net.layers["segment1"]
    pooled = stats_pooling(x)
    out = np.empty(weight.shape[0])
    for r in range(0, len(out), SEGMENT_ROWS):
        out[r : r + SEGMENT_ROWS] = weight[r : r + SEGMENT_ROWS].astype(np.float64) @ pooled
    return out + bias


def _gemm(kern: np.ndarray, bias: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``kern`` times ``x`` (c_in [x taps] x freq x time) plus ``bias``, per output channel."""
    *_, h, t = x.shape
    y = kern @ x.reshape(kern.shape[1], h * t)
    y += bias[:, None]
    return y.reshape(-1, h, t)


def _tap(k: int, size: int, size_out: int, stride: int) -> tuple[int, int, int]:
    """For tap ``k`` of a padding-1 kernel: the outputs [lo, hi) that read an input
    row, and the first input row they read; the others read the zero border."""
    lo = 1 if k == 0 else 0
    hi = min(size_out, (size - k) // stride + 1)
    return lo, hi, stride * lo + k - 1


def _conv2d(x: np.ndarray, kern: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """3x3 convolution with padding 1, plus a bias; x is (channels, freq, time).

    Lowered to one GEMM (im2col): the nine shifted, strided views of the
    input are copied into a (c_in, 3, 3, h_out, t_out) buffer, which the
    (c_out, 9 c_in) kernel multiplies. Where a view would read the padding,
    its border strip is zeroed, so no padded copy of the input is made.
    """
    c_in, h, t = x.shape
    h_out, t_out = (h - 1) // stride + 1, (t - 1) // stride + 1
    cols = np.empty((c_in, 3, 3, h_out, t_out), dtype=x.dtype)
    for di in range(3):
        i_lo, i_hi, i_in = _tap(di, h, h_out, stride)
        for dj in range(3):
            j_lo, j_hi, j_in = _tap(dj, t, t_out, stride)
            c = cols[:, di, dj]
            c[:, :i_lo] = c[:, i_hi:] = c[:, :, :j_lo] = c[:, :, j_hi:] = 0
            c[:, i_lo:i_hi, j_lo:j_hi] = x[:, i_in::stride, j_in::stride][:, : i_hi - i_lo,
                                                                          : j_hi - j_lo]
    return _gemm(kern, bias, cols)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)


def forward_resnet(frames: np.ndarray, net: Network) -> np.ndarray:
    """Embedding, in the network's dtype, of a feature matrix (frames x input_freq)."""
    t = net.layers
    x = _frames_in(frames, net, net.spec.input_freq, 8).T[None, :, :]  # (1 channel, freq, time)
    x = _relu(_conv2d(x, *t["conv1"], 1))
    for blk in _resnet_blocks(net.spec):
        p = blk.name
        y = _conv2d(_relu(_conv2d(x, *t[f"{p}.conv1"], blk.stride)), *t[f"{p}.conv2"], 1)
        if blk.proj:  # project the shortcut to the block's output shape
            x = _gemm(*t[f"{p}.proj"], x[:, ::blk.stride, ::blk.stride])
        y += x
        x = _relu(y)
    weight, bias = t["dense1"]  # its columns: means, then deviations, each freq-major
    pooled = stats_pooling(x.transpose(2, 1, 0).reshape(x.shape[2], -1))  # time x (freq, channel)
    return weight @ pooled.astype(weight.dtype) + bias


def forward(frames: np.ndarray, net: Network) -> np.ndarray:
    return (forward_tdnn if isinstance(net.spec, TdnnSpec) else forward_resnet)(frames, net)


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
