import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq.checkpoint import (
    CheckpointError,
    _parse_record,
    pack_layer_record,
    read_checkpoint,
    record_bytes,
    write_checkpoint,
)
from fedmpq.quant import quantize

# A 7x5 4-bit layer: 35 entries leave 5 padding bits in each plane's last byte.
RECORD = pack_layer_record(0, quantize(np.random.default_rng(11).normal(size=(7, 5)), 4))


@pytest.fixture
def layers():
    rng = np.random.default_rng(11)
    return [
        quantize(rng.normal(size=(7, 5)), 4),
        quantize(rng.normal(size=(3, 9)), 2),
        quantize(rng.normal(size=(1, 1)), 8),
    ]


def test_round_trip_is_byte_identical(tmp_path, layers):
    first = tmp_path / "a.fmpq"
    second = tmp_path / "b.fmpq"
    write_checkpoint(first, layers)
    write_checkpoint(second, read_checkpoint(first))
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) == sum(record_bytes(layer) for layer in layers)


def test_round_trip_preserves_values(tmp_path, layers):
    path = tmp_path / "m.fmpq"
    write_checkpoint(path, layers)
    for original, loaded in zip(layers, read_checkpoint(path)):
        assert loaded.bit_width == original.bit_width
        assert loaded.scale == original.scale
        np.testing.assert_array_equal(loaded.codes, original.codes)


def test_bad_magic(tmp_path, layers):
    path = tmp_path / "m.fmpq"
    write_checkpoint(path, layers)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_bad_version(tmp_path, layers):
    path = tmp_path / "m.fmpq"
    write_checkpoint(path, layers)
    data = bytearray(path.read_bytes())
    data[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(path)


def test_truncated_file(tmp_path, layers):
    path = tmp_path / "m.fmpq"
    write_checkpoint(path, layers)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_corrupt_zero_point(tmp_path, layers):
    record = bytearray(pack_layer_record(0, layers[0]))
    record[17] = 5  # zero_point byte: header offset 4+2+2+4+4+1
    path = tmp_path / "m.fmpq"
    path.write_bytes(bytes(record))
    with pytest.raises(CheckpointError, match="invalid layer"):
        read_checkpoint(path)


def test_padding_bits_must_be_zero(tmp_path):
    record = bytearray(RECORD)
    record[-1] |= 0x80  # bit 39 of the top plane; the layer has 35 entries
    path = tmp_path / "m.fmpq"
    path.write_bytes(bytes(record))
    with pytest.raises(CheckpointError, match="padding"):
        read_checkpoint(path)


@given(
    st.lists(st.tuples(st.integers(0, len(RECORD) - 1), st.integers(0, 255)), max_size=6),
    st.integers(0, len(RECORD)),
)
@settings(max_examples=1000)
def test_corrupted_record_raises_only_checkpoint_error(edits, length):
    data = bytearray(RECORD)
    for position, value in edits:
        data[position] = value
    data = bytes(data[:length])
    try:
        index, layer, end = _parse_record(data, 0)
    except CheckpointError:
        return
    # Whatever the parser accepts is a layer that writes back the same bytes.
    assert pack_layer_record(index, layer) == data[:end]


def test_empty_file(tmp_path):
    path = tmp_path / "empty.fmpq"
    path.write_bytes(b"")
    with pytest.raises(CheckpointError, match="no layer records"):
        read_checkpoint(path)
