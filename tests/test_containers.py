"""Tensor container wire format: round trips and malformed input."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowagg.containers import (
    ContainerError,
    pack_tensors,
    read_container,
    unpack_tensors,
    write_container,
)


def test_round_trip_preserves_names_shapes_values():
    named = [
        ("points", np.arange(12.0).reshape(4, 3)),
        ("mask", np.array([1.0, 0.0, 1.0])),
        ("gate", np.asarray(0.25)),
    ]
    out = unpack_tensors(pack_tensors(named))
    assert list(out) == ["points", "mask", "gate"]
    for name, arr in named:
        np.testing.assert_array_equal(out[name], np.asarray(arr, dtype=np.float64))
        assert out[name].dtype == np.float64


def test_exact_byte_layout():
    # one tensor, shape (2,), values 1.0 and -2.0, built by hand
    want = b"GTC1" + struct.pack("<I", 1)
    want += struct.pack("<H", 2) + b"ab"
    want += struct.pack("<I", 1) + struct.pack("<I", 2)
    want += struct.pack("<2f", 1.0, -2.0)
    assert pack_tensors([("ab", np.array([1.0, -2.0]))]) == want


def test_values_stored_as_float32():
    x = np.array([1.0 + 1e-12])  # below float32 resolution
    out = unpack_tensors(pack_tensors([("x", x)]))
    assert out["x"][0] == 1.0
    y = np.array([0.1])
    out = unpack_tensors(pack_tensors([("y", y)]))
    assert out["y"][0] == np.float32(0.1)


def test_finite_value_beyond_float32_rejected():
    top = float(np.finfo(np.float32).max)
    assert unpack_tensors(pack_tensors([("top", np.array([top, -top]))]))["top"][1] == -top
    with np.errstate(all="raise"):
        with pytest.raises(ContainerError, match="'far'"):
            pack_tensors([("near", np.zeros(2)), ("far", np.array([0.0, -3.5e38]))])


def test_duplicate_names_rejected():
    with pytest.raises(ContainerError):
        pack_tensors([("a", np.zeros(1)), ("a", np.ones(1))])


def test_bad_magic_rejected():
    blob = pack_tensors([("a", np.zeros(2))])
    with pytest.raises(ContainerError):
        unpack_tensors(b"XXXX" + blob[4:])


def test_truncated_payload_rejected():
    blob = pack_tensors([("a", np.zeros(5))])
    with pytest.raises(ContainerError):
        unpack_tensors(blob[:-3])


def test_trailing_bytes_rejected():
    blob = pack_tensors([("a", np.zeros(2))])
    with pytest.raises(ContainerError):
        unpack_tensors(blob + b"\x00")


def test_non_utf8_name_rejected_with_its_offset():
    blob = bytearray(pack_tensors([("a", np.zeros(1)), ("bc", np.zeros(1))]))
    at = blob.index(b"bc")   # 25: header 8, first tensor 15, length field 2
    blob[at:at + 2] = b"\xff\xfe"
    with pytest.raises(ContainerError, match=f"name at offset {at} is not UTF-8"):
        unpack_tensors(bytes(blob))


def test_empty_container():
    assert unpack_tensors(pack_tensors([])) == {}


def test_file_round_trip(tmp_path):
    path = tmp_path / "t.gtc"
    named = [("flow", np.random.default_rng(0).normal(size=(6, 3)))]
    write_container(path, named)
    out = read_container(path)
    np.testing.assert_array_equal(out["flow"], named[0][1].astype(np.float32))


def test_rank_and_high_dims():
    arr = np.arange(24.0).reshape(2, 3, 4)
    out = unpack_tensors(pack_tensors([("cube", arr)]))
    assert out["cube"].shape == (2, 3, 4)
    np.testing.assert_array_equal(out["cube"], arr)


@given(st.lists(
    st.tuples(
        st.text(st.characters(min_codepoint=33, max_codepoint=0x24F), min_size=1, max_size=12),
        st.integers(0, 3),
    ),
    min_size=0, max_size=5,
    unique_by=lambda t: t[0],
))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(specs):
    rng = np.random.default_rng(0)
    named = []
    for name, rank in specs:
        shape = tuple(rng.integers(1, 4, size=rank))
        named.append((name, rng.normal(size=shape).astype(np.float32).astype(np.float64)))
    out = unpack_tensors(pack_tensors(named))
    assert list(out) == [n for n, _ in named]
    for name, arr in named:
        np.testing.assert_array_equal(out[name], arr)
