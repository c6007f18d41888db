"""Fixed-point representation of weight matrices and its bit planes.

A b-bit layer stores one integer code per weight plus a real scale s; its
zero point is z = 2^(b-1). Bit i of the codes forms binary plane i (LSB
first), the view the shift-add product and the plane densities use. Code c in
[0, 2^b - 1] maps to the real value s / (2^b - 1) * (c - z), so the
representable range is [-s*z/(2^b-1), s*(2^b-1-z)/(2^b-1)].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

MAX_BITS = 8

# Bit i of code c at [c, i], for every code of the widest layer.
_CODE_BITS = (np.arange(1 << MAX_BITS)[:, None] >> np.arange(MAX_BITS)) & 1

# 2^i for plane i: as the uint8 mask that keeps bit i of a code, and as a float.
_PLANE_MASKS = (1 << np.arange(MAX_BITS)).astype(np.uint8)
PLANE_WEIGHTS = _PLANE_MASKS.astype(np.float64)


def scale_for(max_abs: float, bit_width: int) -> float:
    """Scale for a layer whose largest absolute weight is ``max_abs``.

    The scale is stretched by (2^b - 1) / 2^(b-1) so that the lowest grid
    point lands exactly on -max|W| and no weight clips. An all-zero layer
    would give scale 0; it gets the documented degenerate scale 1.0 instead.
    """
    if max_abs == 0.0:
        return 1.0
    return float(max_abs) * ((1 << bit_width) - 1) / (1 << (bit_width - 1))


@dataclass(frozen=True, eq=False)
class QuantizedLayer:
    """Immutable fixed-point store for one weight matrix.

    ``codes`` is the read-only uint8 matrix of integer codes. The binary
    planes and their packed wire bytes are derived from it on demand.
    """

    codes: np.ndarray
    bit_width: int
    scale: float

    # Derived arrays of a layer that several clients share (see memoize): the
    # plane stack under "planes", group-Lasso terms (ste.group_lasso) under
    # their weight. None on every other layer. Only memoize sets it.
    memo = None

    def __post_init__(self):
        if not (1 <= self.bit_width <= MAX_BITS):
            raise ValueError(f"bit_width must be in [1, {MAX_BITS}], got {self.bit_width}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.codes.dtype != np.uint8 or self.codes.ndim != 2 or self.codes.size == 0:
            raise ValueError("codes must be a uint8 matrix of at least 1x1")
        if np.maximum.reduce(self.codes, axis=None) >> self.bit_width:
            raise ValueError(f"codes out of range for {self.bit_width}-bit layer")
        self.codes.flags.writeable = False

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    @property
    def num_params(self) -> int:
        return self.codes.size

    @property
    def zero_point(self) -> int:
        return 1 << (self.bit_width - 1)

    @property
    def step(self) -> float:
        """Width of one grid cell, s / (2^b - 1)."""
        return self.scale / ((1 << self.bit_width) - 1)

    def planes(self) -> np.ndarray:
        """Binary planes, shape (bit_width, rows, cols), LSB plane first."""
        shifts = np.arange(self.bit_width, dtype=np.uint8)[:, None, None]
        return (self.codes >> shifts) & 1

    def masked_codes(self) -> np.ndarray:
        """Codes masked bit by bit, shape (bit_width, rows, cols): entry [i]
        is codes & 2^i, that is 2^i times plane i, in one pass."""
        return self.codes & _PLANE_MASKS[: self.bit_width, None, None]

    def memoize(self) -> None:
        """Keep this layer's derived arrays once computed: its plane stack and
        its group-Lasso terms, read-only, for as long as the layer lives."""
        object.__setattr__(self, "memo", {})

    def plane_stack(self) -> np.ndarray:
        """masked_codes() as float64: built once and read-only on a memoized
        layer, a fresh array on any other."""
        memo = self.memo
        if memo is None:
            return self.masked_codes().astype(np.float64)
        stack = memo.get("planes")
        if stack is None:
            stack = memo["planes"] = self.masked_codes().astype(np.float64)
            stack.flags.writeable = False
        return stack

    def plane_counts(self) -> list[int]:
        """Number of ones in each plane, LSB plane first, read off a histogram
        of the codes rather than the planes themselves."""
        n = 1 << self.bit_width
        histogram = np.bincount(self.codes.ravel(), minlength=n)
        return (histogram @ _CODE_BITS[:n, : self.bit_width]).tolist()

    @property
    def packed(self) -> np.ndarray:
        """Wire bytes: one row per plane, LSB plane first, each row the
        little-bit-order packing of the plane flattened row-major."""
        flat = self.planes().reshape(self.bit_width, -1)
        return np.packbits(flat, axis=1, bitorder="little")

    def values(self) -> np.ndarray:
        # Widened to float first, where a uint8 difference would wrap around
        # and a mixed-dtype subtraction would cast in numpy's buffered loop;
        # code minus zero point is a small integer, so exact, and IEEE
        # multiplication commutes.
        out = self.codes.astype(np.float64)
        out -= self.zero_point
        out *= self.step
        return out

    @classmethod
    def from_codes(cls, codes: np.ndarray, scale: float, bit_width: int) -> "QuantizedLayer":
        codes = np.asarray(codes)
        # A float code would be truncated by the uint8 cast, and a NaN one
        # would pass both range tests.
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
        # Reject what the uint8 cast would wrap; the width check is the constructor's.
        if codes.size and (
            np.minimum.reduce(codes, axis=None) < 0
            or np.maximum.reduce(codes, axis=None) >= 1 << MAX_BITS
        ):
            raise ValueError(f"codes out of range for {bit_width}-bit layer")
        return cls(codes.astype(np.uint8), bit_width, float(scale))


FP_WIRE_BITS = 32  # real matrices and biases travel as 32-bit floats


def dequantize(layer: QuantizedLayer | np.ndarray) -> np.ndarray:
    """Real weights of either kind of layer: s / (2^b - 1) * (code - z) per
    entry of a quantized layer, a real matrix as it is."""
    return layer.values() if isinstance(layer, QuantizedLayer) else layer


def wire_bits(layer: QuantizedLayer | np.ndarray) -> int:
    """Bits per weight of either kind of layer: the grid width, or 32 for a
    real matrix."""
    return layer.bit_width if isinstance(layer, QuantizedLayer) else FP_WIRE_BITS


def average_bits(widths, param_counts) -> float:
    """Parameter-count-weighted mean of integer bit widths. The weighted sum
    is exact in Python integers and divided once, so every caller gets one
    value; on a few layers this is faster than numpy's calls."""
    widths, counts = list(map(int, widths)), list(map(int, param_counts))
    if len(widths) != len(counts):
        raise ValueError(f"{len(widths)} widths for {len(counts)} parameter counts")
    return sum(map(operator.mul, widths, counts)) / sum(counts)


def quantize(weights: np.ndarray, bit_width: int) -> QuantizedLayer:
    """Map a real matrix onto the nearest codes of a fresh b-bit grid.

    Weights are clipped to the representable range first; rounding is to
    the nearest code with ties going to the larger code, so the round trip
    stays within half a grid step of the clipped input.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("weights must be a 2-D matrix")
    if not (1 <= bit_width <= MAX_BITS):
        raise ValueError(f"bit_width must be in [1, {MAX_BITS}]")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    scale = scale_for(float(np.abs(w).max()), bit_width)
    n_max = (1 << bit_width) - 1
    z = 1 << (bit_width - 1)
    step = scale / n_max
    clipped = np.clip(w, -step * z, step * (n_max - z))
    codes = np.floor(clipped / step + z + 0.5).astype(np.int64)
    np.clip(codes, 0, n_max, out=codes)
    return QuantizedLayer.from_codes(codes, scale, bit_width)


def shift_add_matmul(activations: np.ndarray, layer: QuantizedLayer) -> np.ndarray:
    """Product of the layer's weights with activations, plane by plane.

    ``activations`` is (K, U) with K the layer's column count; the result is
    (C, U) and equals dequantize(layer) @ activations up to float round-off.
    Per-plane integer-weighted products are accumulated first, then the
    zero-point correction and scale are applied once.
    """
    a = np.asarray(activations, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != layer.cols:
        raise ValueError(
            f"activations must be ({layer.cols}, U), got {a.shape}"
        )
    # codes & 2^i is 2^i * plane i, so each product comes out scaled by 2^i
    # exactly. One stacked matmul makes one (rows, cols) product per plane;
    # a single (bit_width * rows, cols) product would not do: BLAS picks its
    # kernel by shape, so its rows can round differently. The products are
    # added in plane order, since np.add.reduce sums pairwise when the output
    # has one entry. The sum starts from plane 0 plus +0.0, which IEEE
    # addition makes bitwise 0.0 plus plane 0, -0.0 and NaN included.
    terms = layer.plane_stack() @ a
    acc = terms[0] + 0.0
    for term in terms[1:]:
        acc += term
    # step * (acc - z * colsum), in place: IEEE multiplication commutes.
    acc -= layer.zero_point * np.add.reduce(a, axis=0)
    acc *= layer.step
    return acc


def plane_density(layer: QuantizedLayer) -> tuple[float, ...]:
    """Fraction of ones in each plane, LSB plane first."""
    return tuple(c / layer.num_params for c in layer.plane_counts())


def prune_msbs(layer: QuantizedLayer, epsilon: float) -> tuple[QuantizedLayer, int]:
    """Drop top planes whose density is at most ``epsilon``, floor 1 bit.

    The minority entries that carried ones in a dropped plane lose that
    contribution; the surviving values (still on the old grid) are then
    re-quantized onto the reduced grid so the new zero point 2^(b'-1) holds.
    Reinterpreting raw codes under the new zero point instead would shift
    every weight, so it is deliberately avoided.
    """
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError("epsilon must lie in [0, 1]")
    # Only the planes the walk tests are counted, each in one pass over the
    # codes: the top plane is the sign plane and stops most walks at once.
    codes, n = layer.codes, layer.num_params
    width = layer.bit_width
    while width > 1 and np.count_nonzero(codes & _PLANE_MASKS[width - 1]) / n <= epsilon:
        width -= 1
    if width == layer.bit_width:
        return layer, width
    kept = (layer.codes & ((1 << width) - 1)).astype(np.int64)
    survivors = layer.step * (kept - layer.zero_point)
    return quantize(survivors, width), width


def quantize_activations(tensor: np.ndarray, bits: int) -> np.ndarray:
    """Snap a non-negative activation tensor onto a 2^bits-level grid.

    The grid is unsigned, spanning [0, max|tensor|]; an all-zero tensor is
    returned unchanged since its scale would be zero.
    """
    if not (1 <= bits <= MAX_BITS):
        raise ValueError(f"bits must be in [1, {MAX_BITS}]")
    arr = np.asarray(tensor, dtype=np.float64)
    peak = np.maximum.reduce(np.abs(arr), axis=None) if arr.size else 0.0
    if peak == 0.0:
        return arr
    levels = (1 << bits) - 1
    step = peak / levels
    grid = np.divide(arr, step)
    np.rint(grid, out=grid)
    # np.clip in two ufuncs, without its Python wrapper; 0 goes first so a
    # -0.0 stays -0.0, as np.clip keeps it.
    np.maximum(0.0, grid, out=grid)
    np.minimum(grid, levels, out=grid)
    grid *= step
    return grid
