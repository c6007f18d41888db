"""Helpers that only tests call: closed forms to check the package against,
and writers for the inputs a run reads."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from fedmpq.data import _IDX_MAGIC_IMAGES, _IDX_MAGIC_LABELS
from fedmpq.nn import Model, forward, softmax_cross_entropy
from fedmpq.quant import QuantizedLayer
from fedmpq.ste import group_lasso, plane_steps


def min_value(layer: QuantizedLayer) -> float:
    """Lowest value on the layer's grid, -step * z."""
    return -layer.step * layer.zero_point


def max_value(layer: QuantizedLayer) -> float:
    """Highest value on the layer's grid, step * (2^b - 1 - z)."""
    return layer.step * ((1 << layer.bit_width) - 1 - layer.zero_point)


def task_plane_grads(grad_w, layer):
    """Closed-form straight-through plane gradients, built independently."""
    out = np.empty((layer.bit_width, *grad_w.shape))
    for i in range(1, layer.bit_width + 1):
        out[i - 1] = layer.scale * 2 ** (i - 1) / (2**layer.bit_width - 1) * grad_w
    return out


def plane_update_powers(plane_grads: np.ndarray, lr: float) -> np.ndarray:
    """Power q_i of the snapped per-plane step, -inf where the gradient is 0.

    q_i = 1 + round(log2(lr * |g_i|)), rounding at a frexp mantissa of
    sqrt(1/2) with ties up. The significance factor 2^(i-1) that
    ste_backward bakes into plane i is kept, not divided out, so planes that
    share one weight-space gradient land on consecutive powers:
    q_{i+1} = q_i + 1 exactly.
    """
    with np.errstate(divide="ignore"):
        return 1.0 + np.log2(plane_steps(plane_grads, lr))


def local_objective(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    lasso_coeff: float,
    act_bits: int | None = 4,
) -> float:
    """Task cross-entropy plus the parameter-share-weighted group Lasso."""
    logits, _ = forward(model, features, act_bits)
    loss, _ = softmax_cross_entropy(logits, labels)
    if lasso_coeff:
        counts = model.spec.param_counts
        total = model.spec.total_params
        reg = sum(
            (c / total) * group_lasso(layer)[0] for c, layer in zip(counts, model.layers)
        )
        loss += lasso_coeff * reg
    return float(loss)


def write_idx_images(path: str | Path, images: np.ndarray) -> None:
    arr = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", _IDX_MAGIC_IMAGES, *arr.shape))
        fh.write(arr.tobytes())


def write_idx_labels(path: str | Path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", _IDX_MAGIC_LABELS, len(arr)))
        fh.write(arr.tobytes())
