"""Binary containers: "SVF1" feature matrices and "SVW1" named tensor stores.

SVF1: magic, u32 rows, u32 cols, row-major little-endian float32.
SVW1: magic, u32 tensor count, then per tensor u16 name length, name bytes,
u8 rank, rank x u32 dims, row-major little-endian float32 data.

An embedding store is an SVW1 store of vectors of one length, one per
utterance, named by its utterance id: what ``svkit embed`` writes.
``read_embeddings`` reads one straight into the rows of one matrix. Its
records differ only in their ids, so one Python step per record finds each
id and where its vector starts, the rank and dims bytes of all records are
compared at once, and one gather copies every vector, no per-utterance
array made. Any other input is parsed record by record, as ``read_tensors``
does, so that it is named with the same message.
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
        return _parse_tensors(f.read())


def _parse_tensors(data: bytes) -> dict[str, np.ndarray]:
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


def read_embeddings(path) -> tuple[list[str], np.ndarray]:
    """The ids of the embedding store at ``path``, sorted, and its vectors as
    the rows of one float32 matrix in that order. A store that is not one is
    a ValueError: a malformed file with ``read_tensors``'s message, and tensors
    that are not vectors of one length naming the first such id in sorted order."""
    with open(path, "rb") as f:
        data = f.read()
    records = _vector_records(data)
    if records is None:
        _reject_as_embeddings(_parse_tensors(data))
    ids, heads, dim = records
    order = sorted(range(len(ids)), key=ids.__getitem__)
    # every byte offset of the file as the start of a 4 * dim byte row: one gather
    # picks the vectors out in id order, whatever the spacing of the records
    rows = np.ndarray((len(data) - 4 * dim + 1, 4 * dim), np.uint8, data, strides=(1, 1))
    return [ids[i] for i in order], rows[heads[order] + 5].view(_F4)


def _vector_records(data: bytes) -> tuple[list[str], np.ndarray, int] | None:
    """The ids, record header offsets (of each rank byte) and vector length of an
    SVW1 store of distinct UTF-8 ids and vectors of one length; None for any
    other input. The walk assumes the first record's rank and dims for each
    record, and then checks the rank and dims bytes of all records at once."""
    if data[:4] != WEIGHT_MAGIC or len(data) < 8:
        return None
    (count,) = _U32.unpack_from(data, 4)
    if count == 0:
        return ([], np.empty(0, np.intp), 0) if len(data) == 8 else None
    ids, heads, offset = [], [], 8
    try:
        (name_len,) = _U16.unpack_from(data, offset)
        (dim,) = _U32.unpack_from(data, offset + 3 + name_len)
        vector = 5 + 4 * dim  # rank byte, dims, data
        for _ in range(count):
            (name_len,) = _U16.unpack_from(data, offset)
            offset += 2 + name_len
            ids.append(data[offset - name_len : offset].decode("utf-8"))
            heads.append(offset)
            offset += vector
    except (struct.error, UnicodeDecodeError):
        return None
    if offset != len(data):  # truncated, or trailing bytes
        return None
    heads = np.array(heads)
    buf = np.frombuffer(data, np.uint8)
    fields = buf[heads[:, None] + np.arange(5)]  # each record's rank byte and dims
    if fields[0, 0] != 1 or np.any(fields != fields[0]) or len(set(ids)) != count:
        return None
    return ids, heads, dim


def _reject_as_embeddings(tensors: dict[str, np.ndarray]):
    """Raise the ValueError that names the first tensor, in sorted order, that is
    not a vector or not of the first one's shape."""
    ids = sorted(tensors)
    for utt in ids:
        if tensors[utt].ndim != 1:
            raise ValueError(f"utterance {utt} has an embedding of shape {tensors[utt].shape}, "
                             f"not a vector")
    first = tensors[ids[0]].shape
    utt = next(u for u in ids if tensors[u].shape != first)
    raise ValueError(f"utterance {utt} has an embedding of shape {tensors[utt].shape}, not "
                     f"{first} like {ids[0]}")
