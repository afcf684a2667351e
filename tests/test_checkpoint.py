import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdetox.checkpoint import load_arrays, load_params, save_arrays, save_params
from cfdetox.errors import ParseError, ShapeError
from cfdetox.model import ModelConfig, init_params, param_shapes
from helpers import checkpoint_bytes


def test_round_trip(tmp_path):
    arrays = {
        "b.w": np.arange(6, dtype=np.float64).reshape(2, 3),
        "a.scalar": np.array(3.5),
        "c.vec": np.array([1.0, -2.0]),
    }
    path = tmp_path / "ck.bin"
    save_arrays(path, arrays)
    loaded = load_arrays(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        assert (loaded[name] == arrays[name]).all()


def test_byte_identical_for_identical_content(tmp_path):
    arrays = {"x": np.linspace(0, 1, 10), "y": np.ones((2, 2))}
    save_arrays(tmp_path / "a.bin", arrays)
    save_arrays(tmp_path / "b.bin", dict(reversed(list(arrays.items()))))
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ParseError, match="magic"):
        load_arrays(path)


def test_rank_beyond_numpy_limit_is_parse_error(tmp_path):
    path = tmp_path / "deep.bin"
    rank = 100  # every dim 1, so the record's data is one float
    path.write_bytes(b"CFDX" + struct.pack("<III", 1, 1, 1) + b"a" + struct.pack("<I", rank)
                     + struct.pack(f"<{rank}Q", *[1] * rank) + struct.pack("<d", 1.0))
    with pytest.raises(ParseError, match="bad shape"):
        load_arrays(path)


def test_params_round_trip_with_schema(tmp_path):
    cfg = ModelConfig(vocab_size=9, embed_dim=4, hidden=5)
    params = init_params(cfg, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    save_params(path, params)
    loaded = load_params(path, expect_shapes=param_shapes(cfg))
    assert set(loaded) == set(params)
    for name in params:
        assert (loaded[name].data == params[name].data).all()
        assert loaded[name].requires_grad


def test_schema_mismatch_is_shape_error(tmp_path):
    cfg = ModelConfig(vocab_size=9, embed_dim=4, hidden=5)
    save_params(tmp_path / "model.bin", init_params(cfg, np.random.default_rng(0)))
    bigger_vocab = ModelConfig(vocab_size=11, embed_dim=4, hidden=5)
    with pytest.raises(ShapeError, match="mismatch"):
        load_params(tmp_path / "model.bin", expect_shapes=param_shapes(bigger_vocab))


def test_missing_parameter_is_shape_error(tmp_path):
    save_arrays(tmp_path / "model.bin", {"only.one": np.ones(2)})
    with pytest.raises(ShapeError, match="missing"):
        load_params(tmp_path / "model.bin", expect_shapes={"only.one": (2,), "other": (3,)})


def test_unexpected_parameter_is_shape_error(tmp_path):
    save_arrays(tmp_path / "model.bin", {"a": np.ones(2), "extra": np.ones(1)})
    with pytest.raises(ShapeError, match="unexpected"):
        load_params(tmp_path / "model.bin", expect_shapes={"a": (2,)})



def test_bit_equal_twin_responses_load_as_const_c(tmp_path):
    cfg = ModelConfig(vocab_size=9, embed_dim=4, hidden=5)
    arrays = {name: v.data for name, v in init_params(cfg, np.random.default_rng(0)).items()}
    c = arrays.pop("const.c") + 0.25
    save_arrays(tmp_path / "model.bin", {**arrays, "const.c_e": c, "const.c_x": c.copy()})
    loaded = load_params(tmp_path / "model.bin", expect_shapes=param_shapes(cfg))
    assert list(loaded) == sorted(param_shapes(cfg))
    assert loaded["const.c"].data.tobytes() == c.tobytes()


@pytest.mark.parametrize("records", [
    {"const.c_e": [0.5, 0.5]},
    {"const.c_e": [0.5, 0.5], "const.c_x": [0.5, 0.5 + 1e-12]},
    {"const.c_e": [0.5, 0.5], "const.c_x": [0.5, 0.5, 0.5]},
    {"const.c_e": [0.0, 0.5], "const.c_x": [-0.0, 0.5]},
    {"const.c": [0.5, 0.5], "const.c_e": [0.5, 0.5], "const.c_x": [0.5, 0.5]},
])
def test_twin_responses_that_are_not_one_response_are_parse_errors(tmp_path, records):
    save_arrays(tmp_path / "model.bin", {name: np.array(v) for name, v in records.items()})
    with pytest.raises(ParseError, match=re.escape(f"{tmp_path / 'model.bin'}:1: ")):
        load_params(tmp_path / "model.bin")


def test_format_layout_is_as_documented(tmp_path):
    # magic, version+count, then (name_len, name, rank, dims, data)
    path = tmp_path / "ck.bin"
    save_arrays(path, {"ab": np.array([1.0, 2.0])})
    blob = path.read_bytes()
    assert blob[:4] == b"CFDX"
    assert int.from_bytes(blob[4:8], "little") == 1   # version
    assert int.from_bytes(blob[8:12], "little") == 1  # count
    assert int.from_bytes(blob[12:16], "little") == 2  # name_len
    assert blob[16:18] == b"ab"
    assert int.from_bytes(blob[18:22], "little") == 1  # rank
    assert int.from_bytes(blob[22:30], "little") == 2  # dim
    assert np.frombuffer(blob[30:46], dtype="<f8").tolist() == [1.0, 2.0]


@pytest.fixture(scope="module")
def real_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ck") / "model.bin"
    save_params(path, init_params(ModelConfig(vocab_size=9, embed_dim=4, hidden=5), np.random.default_rng(0)))
    return path


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_truncated_checkpoint_is_parse_error(real_checkpoint, data):
    blob = real_checkpoint.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    target = real_checkpoint.with_name("cut.bin")
    target.write_bytes(blob[:cut])
    with pytest.raises(ParseError):
        load_arrays(target)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_non_finite_value_is_parse_error_naming_the_parameter(real_checkpoint, data):
    arrays = load_arrays(real_checkpoint)
    name = data.draw(st.sampled_from(sorted(arrays)), label="name")
    index = data.draw(st.integers(0, arrays[name].size - 1), label="index")
    arrays[name].flat[index] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
    target = real_checkpoint.with_name("non_finite.bin")
    save_arrays(target, arrays)
    with pytest.raises(ParseError, match=re.escape(f"parameter {name!r} holds")):
        load_params(target)


@settings(max_examples=50, deadline=None)
@given(tail=st.binary(min_size=1, max_size=64))
def test_trailing_bytes_are_parse_error(real_checkpoint, tail):
    target = real_checkpoint.with_name("tail.bin")
    target.write_bytes(real_checkpoint.read_bytes() + tail)
    with pytest.raises(ParseError, match="trailing"):
        load_arrays(target)


def test_every_truncation_of_a_small_checkpoint_is_parse_error(tmp_path):
    # two records, so every header field of a record is cut at some offset
    path = tmp_path / "ck.bin"
    save_arrays(path, {"ab": np.array([1.0, 2.0]), "m": np.ones((2, 1))})
    blob = path.read_bytes()
    assert load_arrays(path)["m"].shape == (2, 1)
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ParseError):
            load_arrays(path)


@pytest.mark.parametrize("names, message", [
    (("a", "b.w", "b.w"), "record 'b.w' follows 'b.w'"),
    (("b", "a"), "record 'a' follows 'b'"),
])
def test_record_names_out_of_order_are_parse_error(tmp_path, names, message):
    # a repeated record would otherwise silently replace the first one
    path = tmp_path / "ck.bin"
    path.write_bytes(checkpoint_bytes([(name, [float(i)]) for i, name in enumerate(names)]))
    with pytest.raises(ParseError, match=re.escape(message)):
        load_arrays(path)
    path.write_bytes(checkpoint_bytes([(name, [float(i)]) for i, name in enumerate(sorted(set(names)))]))
    assert list(load_arrays(path)) == sorted(set(names))


def test_load_params_reads_each_array_once(tmp_path):
    # a train-long-sized checkpoint (3.85 MB): no whole-file buffer, no
    # per-record copy, no copy into the Values
    path = tmp_path / "model.bin"
    save_params(path, init_params(ModelConfig(vocab_size=3023, embed_dim=128, hidden=256),
                                  np.random.default_rng(0)))
    tracemalloc.start()
    try:
        params = load_params(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert params["encoder.embed"].data.shape == (3023, 128)
    assert peak <= 1.3 * path.stat().st_size
