"""Fuzz tests for the file parsers: any input either parses or raises ValueError.

The CLI turns ValueError into exit code 2, so any other exception would reach
the user as a traceback. Each parser gets arbitrary bytes and inputs built
around its own format with random fields.
"""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit import backend, tensorio, trials
from svkit.config import PipelineConfig, load_config


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def parse_or_value_error(parse, path, data: bytes):
    path.write_bytes(data)
    try:
        return parse(path)
    except ValueError:
        return None


u32 = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
junk = st.binary(max_size=96)


def text_lines(tokens) -> st.SearchStrategy[bytes]:
    """Lines of random tokens joined by random separators, UTF-8 encoded."""
    sep = st.sampled_from([" ", "  ", "\t", "=", " = ", ""])
    line = st.builds(lambda toks, s: s.join(toks), st.lists(tokens, max_size=5), sep)
    ending = st.sampled_from(["\n", "\r\n", "\r", ""])
    return st.builds(lambda ls, e: e.join(ls).encode("utf-8"), st.lists(line, max_size=6), ending)


def key_value_lines(keys, values, sep: str) -> st.SearchStrategy[bytes]:
    """``key<sep>value`` lines, so that some inputs are well formed."""
    line = st.builds(lambda k, v: f"{k}{sep}{v}", keys, values)
    return st.lists(line, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8"))


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0x10", "1_000", "", "-", "1.5.2"]),
)
words = st.one_of(st.text(max_size=8), st.sampled_from(["u1", "u2", "e", "t", "#", "0", "1"]))


# ---------------------------------------------------------------------------
# SVF1 feature matrices


@st.composite
def svf1(draw):
    magic = draw(st.one_of(st.just(tensorio.FEATURE_MAGIC), st.binary(min_size=4, max_size=4)))
    rows, cols = draw(u32), draw(u32)
    payload = draw(st.one_of(
        st.binary(max_size=64),
        st.just(b"\0" * (4 * rows * cols) if rows * cols <= 64 else b""),
    ))
    cut = draw(st.integers(0, 12 + len(payload)))
    return (magic + struct.pack("<II", rows, cols) + payload)[: cut or None]


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(junk, svf1()))
def test_feature_matrix_parses_or_raises_value_error(fuzz_path, data):
    out = parse_or_value_error(tensorio.read_feature_matrix, fuzz_path, data)
    if out is not None:
        rows, cols = struct.unpack_from("<II", data, 4)
        assert out.shape == (rows, cols) and out.dtype == np.float32


# ---------------------------------------------------------------------------
# SVW1 tensor stores


@st.composite
def svw1_record(draw):
    name = draw(st.one_of(st.text(max_size=6).map(lambda s: s.encode("utf-8")),
                          st.binary(max_size=6)))
    name_len = draw(st.one_of(st.just(len(name)), st.integers(0, 0xFFFF)))
    dims = draw(st.lists(u32, max_size=4))
    rank = draw(st.one_of(st.just(len(dims)), st.integers(0, 255)))
    size = math.prod(dims)
    payload = draw(st.one_of(st.just(b"\0" * (4 * size) if size <= 32 else b""),
                             st.binary(max_size=40)))
    return (struct.pack("<H", name_len) + name + struct.pack("<B", rank)
            + b"".join(struct.pack("<I", d) for d in dims) + payload)


@st.composite
def svw1(draw):
    magic = draw(st.one_of(st.just(tensorio.WEIGHT_MAGIC), st.binary(min_size=4, max_size=4)))
    records = draw(st.lists(svw1_record(), max_size=3))
    count = draw(st.one_of(st.just(len(records)), u32))
    tail = draw(st.one_of(st.just(b""), st.binary(max_size=8)))
    return magic + struct.pack("<I", count) + b"".join(records) + tail


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(junk, svw1()))
def test_tensor_store_parses_or_raises_value_error(fuzz_path, data):
    out = parse_or_value_error(tensorio.read_tensors, fuzz_path, data)
    if out is not None:
        assert all(isinstance(k, str) and v.dtype == np.float32 for k, v in out.items())


@st.composite
def vector_stores(draw):
    """SVW1 stores of vectors of one length with arbitrary float32 bits, in random
    id order. The ids have one byte length (evenly spaced records) or mixed ones,
    multi-byte UTF-8 included (unevenly spaced); some stores repeat an id, give one
    record another rank or length, are cut short or have trailing bytes."""
    dim = draw(st.integers(0, 5))
    name = (st.text(alphabet="ab", min_size=2, max_size=2) if draw(st.booleans())
            else st.text(max_size=4))
    names = draw(st.lists(name.map(lambda s: s.encode("utf-8")), max_size=8,
                          unique=draw(st.integers(0, 3)) < 3))
    records = [struct.pack("<H", len(n)) + n + struct.pack("<BI", 1, dim)
               + draw(st.binary(min_size=4 * dim, max_size=4 * dim)) for n in names]
    if records and draw(st.integers(0, 2)) == 2:
        rank, dims = draw(st.sampled_from([(1, (dim + 1,)), (2, (1, dim)), (0, ())]))
        k = draw(st.integers(0, len(records) - 1))
        records[k] = (struct.pack("<H", len(names[k])) + names[k] + struct.pack("<B", rank)
                      + b"".join(struct.pack("<I", d) for d in dims) + b"\0" * 4 * math.prod(dims))
    data = tensorio.WEIGHT_MAGIC + struct.pack("<I", len(records)) + b"".join(records)
    end = draw(st.integers(0, 5))
    if end == 4:
        return data[: draw(st.integers(0, len(data)))]
    return data + draw(st.binary(min_size=1, max_size=4)) if end == 5 else data


def stacked_vectors(path):
    """The ids and rows that ``svkit train_plda`` read with ``read_tensors``: the
    tensors sorted by name and stacked, each that is not a vector of the first
    one's shape named as it was."""
    tensors = tensorio.read_tensors(path)
    ids = sorted(tensors)
    shapes = [tensors[u].shape for u in ids]
    for utt, shape in zip(ids, shapes):
        if len(shape) != 1:
            raise ValueError(f"utterance {utt} has an embedding of shape {shape}, not a vector")
    for utt, shape in zip(ids, shapes):
        if shape != shapes[0]:
            raise ValueError(f"utterance {utt} has an embedding of shape {shape}, not "
                             f"{shapes[0]} like {ids[0]}")
    return ids, np.stack([tensors[u] for u in ids]) if ids else np.zeros((0, 0), np.float32)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(junk, svw1(), vector_stores()))
def test_embedding_store_reads_as_the_stacked_tensors(fuzz_path, data):
    """``read_embeddings`` gives the ids and float32 bits of ``read_tensors`` plus a
    stack, or the same ValueError message."""
    fuzz_path.write_bytes(data)
    try:
        ids, matrix = stacked_vectors(fuzz_path)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            tensorio.read_embeddings(fuzz_path)
        assert str(raised.value) == str(exc)
        return
    got_ids, got = tensorio.read_embeddings(fuzz_path)
    assert got_ids == ids
    assert got.dtype == np.float32 and got.shape == matrix.shape
    assert got.tobytes() == matrix.tobytes()


# ---------------------------------------------------------------------------
# Backend files: well-formed SVW1 stores whose tensors may be missing or misshapen

BACKEND_TENSORS = ("center.mean", "lda.mat", "plda.mu", "plda.V", "plda.U", "plda.psi",
                   "cohort.means")


@st.composite
def backend_tensors(draw):
    """A random subset of the backend tensors, each with a consistent or random shape."""
    d, p, r = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 2))
    consistent = {"center.mean": (d,), "lda.mat": (p, d), "plda.mu": (p,), "plda.V": (p, r),
                  "plda.U": (p, r), "plda.psi": (p,), "cohort.means": (2, p)}
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    out = {}
    for name in draw(st.lists(st.sampled_from(BACKEND_TENSORS), unique=True)):
        shape = draw(st.one_of(st.just(consistent[name]),
                               st.lists(st.integers(0, 3), max_size=3).map(tuple)))
        out[name] = rng.standard_normal(shape)
        if out[name].size and draw(st.booleans()):
            out[name].flat[0] = draw(st.sampled_from([np.nan, np.inf, 0.0]))
    return out


@settings(max_examples=300, deadline=None)
@given(tensors=backend_tensors())
def test_backend_file_loads_or_raises_value_error(fuzz_path, tensors):
    tensorio.write_tensors(fuzz_path, tensors)
    try:
        model, cohort = backend.load_backend(fuzz_path)
    except ValueError:
        return
    dim = model.plda.dim if model.kind == "plda" else len(model.mean)
    assert cohort.ndim == 2 and cohort.shape[1] == dim


# ---------------------------------------------------------------------------
# Text formats


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(junk, text_lines(st.one_of(words, st.sampled_from(["0", "1", "2"])))))
def test_trial_list_parses_or_raises_value_error(fuzz_path, data):
    out = parse_or_value_error(trials.load_trials, fuzz_path, data)
    if out is not None:
        assert len(out.enroll) == len(out.test)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(junk, text_lines(st.one_of(words, numbers))))
def test_score_file_parses_or_raises_value_error(fuzz_path, data):
    out = parse_or_value_error(trials.load_scores, fuzz_path, data)
    if out is not None:
        assert np.all(np.isfinite(out.scores))


config_fields = st.sampled_from([f.name for f in fields(PipelineConfig)])
config_values = st.one_of(numbers, words,
                          st.sampled_from(["0", "-1", "true", "off", "0.4,0.4", ",", "1,x"]))


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(junk, text_lines(st.one_of(config_fields, words, config_values)),
                     key_value_lines(config_fields, config_values, " = ")))
def test_config_parses_or_raises_value_error(fuzz_path, data):
    out = parse_or_value_error(load_config, fuzz_path, data)
    if out is not None:
        assert isinstance(out, PipelineConfig)
