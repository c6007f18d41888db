"""Binary checkpoint format for quantized layers.

Each layer record is a little-endian header followed by the packed planes:

    magic "FMPQ" | version u16 | layer index u16 | rows u32 | cols u32 |
    bit_width u8 | zero_point u8 | scale f64

then ``bit_width`` planes of ceil(rows*cols/8) bytes each, row-major,
bit 0 of every byte holding the first element, LSB plane first. A
checkpoint file is simply the records of all layers back to back.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .quant import QuantizedLayer, average_bits, plane_density

MAGIC = b"FMPQ"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHIIBBd")


class CheckpointError(Exception):
    """Raised for corrupt, truncated, or unsupported checkpoint data."""


def _plane_bytes(num_params: int) -> int:
    return (num_params + 7) // 8


def record_bytes(layer: QuantizedLayer) -> int:
    """Size of the layer's record: the header plus its byte-padded planes."""
    return _HEADER.size + layer.bit_width * _plane_bytes(layer.num_params)


def pack_layer_record(index: int, layer: QuantizedLayer) -> bytes:
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        index,
        layer.rows,
        layer.cols,
        layer.bit_width,
        layer.zero_point,
        layer.scale,
    )
    return header + layer.packed.tobytes()


def _parse_record(data: bytes, offset: int) -> tuple[int, QuantizedLayer, int]:
    if len(data) - offset < _HEADER.size:
        raise CheckpointError(f"truncated header at byte {offset}")
    magic, version, index, rows, cols, bits, zero_point, scale = _HEADER.unpack_from(
        data, offset
    )
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r} at byte {offset}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    # Also bounds bits to [1, 8], since zero_point is one byte.
    if 2 * zero_point != 1 << bits:
        raise CheckpointError(f"invalid layer {index}: zero point {zero_point} for {bits} bits")
    offset += _HEADER.size
    num_params = rows * cols
    plane_bytes = _plane_bytes(num_params)
    body = bits * plane_bytes
    if len(data) - offset < body:
        raise CheckpointError(
            f"truncated planes for layer {index}: need {body} bytes, "
            f"have {len(data) - offset}"
        )
    packed = np.frombuffer(data, dtype=np.uint8, count=body, offset=offset)
    planes = np.unpackbits(packed.reshape(bits, plane_bytes), axis=1, bitorder="little")
    if planes[:, num_params:].any():
        raise CheckpointError(f"invalid layer {index}: padding bits are not zero")
    try:
        layer = QuantizedLayer.from_planes(planes[:, :num_params].reshape(bits, rows, cols), scale)
    except ValueError as exc:
        raise CheckpointError(f"invalid layer {index}: {exc}") from exc
    return index, layer, offset + body


def write_checkpoint(path: str | Path, layers: list[QuantizedLayer]) -> None:
    with open(path, "wb") as fh:
        for index, layer in enumerate(layers):
            fh.write(pack_layer_record(index, layer))


def read_checkpoint(path: str | Path) -> list[QuantizedLayer]:
    data = Path(path).read_bytes()
    layers: list[QuantizedLayer] = []
    offset = 0
    while offset < len(data):
        index, layer, offset = _parse_record(data, offset)
        if index != len(layers):
            raise CheckpointError(
                f"layer records out of order: expected index {len(layers)}, got {index}"
            )
        layers.append(layer)
    if not layers:
        raise CheckpointError("checkpoint contains no layer records")
    return layers


@dataclass(frozen=True)
class LayerReport:
    index: int
    rows: int
    cols: int
    bit_width: int
    scale: float
    zero_point: int
    densities: tuple[float, ...]


@dataclass(frozen=True)
class CheckpointReport:
    layers: tuple[LayerReport, ...]

    @property
    def average_bit_width(self) -> float:
        """Parameter-count-weighted mean bit width across layers."""
        widths = [l.bit_width for l in self.layers]
        return average_bits(widths, [l.rows * l.cols for l in self.layers])


def inspect_checkpoint(path: str | Path) -> CheckpointReport:
    reports = []
    for index, layer in enumerate(read_checkpoint(path)):
        reports.append(
            LayerReport(
                index=index,
                rows=layer.rows,
                cols=layer.cols,
                bit_width=layer.bit_width,
                scale=layer.scale,
                zero_point=layer.zero_point,
                densities=plane_density(layer).values,
            )
        )
    return CheckpointReport(tuple(reports))
