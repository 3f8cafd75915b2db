"""Binary containers: "SVF1" feature matrices and "SVW1" named tensor stores.

SVF1: magic, u32 rows, u32 cols, row-major little-endian float32.
SVW1: magic, u32 tensor count, then per tensor u16 name length, name bytes,
u8 rank, rank x u32 dims, row-major little-endian float32 data.
"""

import math
import struct

import numpy as np

FEATURE_MAGIC = b"SVF1"
WEIGHT_MAGIC = b"SVW1"

# record fields of SVW1, compiled once: a file of embeddings is one record per utterance
_U32, _U16, _U8 = struct.Struct("<I"), struct.Struct("<H"), struct.Struct("<B")
_DIMS = tuple(struct.Struct(f"<{rank}I") for rank in range(0x100))
_F4 = np.dtype("<f4")


def write_feature_matrix(path, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ValueError("feature matrix must be 2-D")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<II", m.shape[0], m.shape[1]))
        f.write(m.tobytes())


def read_feature_matrix(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != FEATURE_MAGIC or len(data) < 12:
        raise ValueError("bad feature file: wrong magic or truncated header")
    rows, cols = struct.unpack_from("<II", data, 4)
    expected = 12 + 4 * rows * cols
    if len(data) != expected:
        raise ValueError("bad feature file: truncated payload")
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(rows, cols).astype(np.float32)


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        f.write(WEIGHT_MAGIC)
        f.write(struct.pack("<I", len(tensors)))
        for name, value in tensors.items():
            arr = np.ascontiguousarray(value, dtype="<f4")
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError("tensor name too long")
            if arr.ndim > 0xFF:
                raise ValueError("tensor rank too large")
            f.write(struct.pack("<H", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                f.write(struct.pack("<I", dim))
            f.write(arr.tobytes())


def read_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != WEIGHT_MAGIC or len(data) < 8:
        raise ValueError("bad weight file: wrong magic or truncated header")
    (count,) = _U32.unpack_from(data, 4)
    offset = 8
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = _U16.unpack_from(data, offset)
            offset += 2
            if len(data) < offset + name_len:
                raise struct.error("short read")
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            if name in out:
                raise ValueError(f"bad weight file: duplicate tensor {name!r}")
            (rank,) = _U8.unpack_from(data, offset)
            offset += 1
            dims = _DIMS[rank].unpack_from(data, offset)
            offset += 4 * rank
            size = math.prod(dims)
            end = offset + 4 * size
            if end > len(data):
                raise struct.error("short read")
            out[name] = np.ndarray(dims, _F4, data, offset).copy()
            offset = end
    except struct.error as exc:
        raise ValueError("bad weight file: truncated record") from exc
    except UnicodeDecodeError:
        raise ValueError("bad weight file: tensor name is not UTF-8") from None
    if offset != len(data):
        raise ValueError("bad weight file: trailing bytes")
    return out
