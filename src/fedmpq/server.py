"""Server-side aggregation and per-client bit-width reallocation.

Uploads are de-quantized into full precision (a full-precision arm
uploads its real matrices at 32 bits), combined with weights proportional
to budget times shard size, and the per-layer bit widths are averaged into
a fractional vector. Before the next round each client gets a customized
re-quantization of the global model whose integer bit widths are adjusted
to its budget by the greedy pruning-growing policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .quant import (
    MAX_BITS,
    QuantizedLayer,
    average_bits,
    dequantize,
    quantize,
    wire_bits,
)


def check_width_budget(client_id: int, bit_widths, param_counts, budget: float, what: str) -> None:
    """Average bits must fit the budget, one growing step of slack allowed."""
    counts = [int(c) for c in param_counts]
    avg = average_bits(bit_widths, counts)
    slack = max(counts) / sum(counts)
    if avg > budget + slack + 1e-9:
        raise ValueError(
            f"client {client_id}: {what} average {avg:.3f} bits exceeds its budget {budget}"
        )


@dataclass(frozen=True)
class ClientUpdate:
    """One client's upload: quantized layers or real matrices, the biases,
    and the widths the client was delivered at."""

    client_id: int
    layers: tuple[QuantizedLayer | np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    delivered_bits: tuple[int, ...]
    num_samples: int
    budget: float

    def __post_init__(self):
        if any(d < w for d, w in zip(self.delivered_bits, self.bit_widths, strict=True)):
            raise ValueError("local training can only reduce bit-widths")
        if self.num_samples < 0:
            raise ValueError("num_samples must be non-negative")

    @cached_property
    def bit_widths(self) -> tuple[int, ...]:
        """Widths the layers travel at: 32 for a real matrix. Computed once;
        the checks, the upload cost, the round state and aggregate read it."""
        return tuple(wire_bits(l) for l in self.layers)

    def check_budget(self, param_counts: np.ndarray) -> None:
        check_width_budget(self.client_id, self.bit_widths, param_counts, self.budget, "upload")


def aggregation_weights(updates: list[ClientUpdate]) -> np.ndarray:
    """p_n proportional to budget * shard size, normalized over participants."""
    mass = np.array([u.budget * u.num_samples for u in updates], dtype=np.float64)
    total = mass.sum()
    if total <= 0:
        raise ValueError("aggregation weights must have positive total mass")
    return mass / total


def aggregate(
    updates: list[ClientUpdate],
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Weighted averages of the de-quantized uploads, the biases and the
    per-layer bit widths, the last a fractional vector.

    Updates are sorted by client id first so the result does not depend on
    arrival order.
    """
    if not updates:
        raise ValueError("cannot aggregate an empty set of client updates")
    ups = sorted(updates, key=lambda u: u.client_id)
    p = aggregation_weights(ups)
    n_layers = len(ups[0].layers)
    # Each sum starts at zero: 0.0 plus the first term makes a float64 array,
    # which the later terms are added into. The widths are summed in Python
    # floats, the same IEEE operations as a float64 vector without its calls.
    weights = [0.0] * n_layers
    biases = [0.0] * n_layers
    bits = [0.0] * n_layers
    for p_n, u in zip(p.tolist(), ups):
        per_layer = zip(u.layers, u.biases, u.bit_widths, strict=True)
        for l, (layer, bias, width) in enumerate(per_layer):
            weights[l] += p_n * dequantize(layer)
            biases[l] += p_n * bias
            bits[l] += p_n * width
    return weights, biases, np.array(bits)


def round_bitwidths(bits) -> np.ndarray:
    """Fractional bit widths to integers, half to even, clamped to [1, 8]."""
    return np.clip(np.rint(np.asarray(bits, dtype=np.float64)), 1, MAX_BITS).astype(np.int64)


def pruning_growing(bits, delta_bits, param_counts, budget: float) -> np.ndarray:
    """Greedy per-client bit-width adjustment toward the budget.

    Layers are ranked by param_count * (delta + 1), descending, ties broken
    by lower index. If the average exceeds the budget, the highest-ranked
    layer is repeatedly decremented (floor 1 bit) until the average fits,
    moving down the ranking as layers bottom out. If the average is below
    the budget, the walk starts from the lowest-ranked layer and increments
    (cap 8 bits) until the budget is met or exceeded; the top-ranked layer
    is never grown and the final average may overshoot the budget by less
    than one step of the largest layer. Exactly on budget, nothing changes.
    """
    b = np.asarray(bits, dtype=np.int64)
    m = np.asarray(param_counts, dtype=np.int64)
    d = np.asarray(delta_bits, dtype=np.int64)
    if b.shape != m.shape or d.shape != m.shape:
        raise ValueError("bits, delta_bits, and param_counts must share a shape")
    # A few layers: Python ints cost less than numpy calls, and are exact.
    b, m, d = b.tolist(), m.tolist(), d.tolist()
    if any(not (1 <= w <= MAX_BITS) for w in b):
        raise ValueError(f"bit widths must lie in [1, {MAX_BITS}]")
    # Python's sort is stable: equal priorities keep the lower index first.
    order = sorted(range(len(m)), key=lambda l: -m[l] * (d[l] + 1))
    v = average_bits(b, m)
    if v > budget:
        cur = 0
        while v > budget and cur < len(m):
            l = order[cur]
            if b[l] > 1:
                b[l] -= 1
                v = average_bits(b, m)
            else:
                cur += 1
    elif v < budget:
        cur = len(m) - 1
        while v < budget and cur > 0:
            l = order[cur]
            if b[l] < MAX_BITS:
                b[l] += 1
                v = average_bits(b, m)
            else:
                cur -= 1
    return np.array(b, dtype=np.int64)


def binary_representation(
    weights: list[np.ndarray],
    bit_widths,
    grids: dict[tuple[int, int], QuantizedLayer] | None = None,
) -> list[QuantizedLayer]:
    """Customized quantized model: each layer on a fresh grid at its width.

    ``grids`` maps (layer index, width) to a layer already quantized from
    these same weights. It is read first and filled with what is missing,
    so the deliveries of one round quantize each layer once per width and
    share the immutable result. Each layer stored there is memoized
    (QuantizedLayer.memoize): every client delivered its width then reads
    one read-only plane stack and one group-Lasso term per weight. Without
    ``grids`` the layers carry no memo.
    """
    widths = np.asarray(bit_widths, dtype=np.int64)
    if len(widths) != len(weights):
        raise ValueError("one bit width per layer is required")
    if grids is None:
        return [quantize(w, bw) for w, bw in zip(weights, widths.tolist())]
    layers = []
    for l, bw in enumerate(widths.tolist()):
        if (l, bw) not in grids:
            grids[l, bw] = quantize(weights[l], bw)
            grids[l, bw].memoize()
        layers.append(grids[l, bw])
    return layers
