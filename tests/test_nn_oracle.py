"""The forward and backward building blocks against frozen references, bit for bit.

``_ref_shift_add_matmul``, ``_ref_quantize_activations``, ``_ref_forward``
and ``_ref_backward`` (with ``_ref_im2col`` and ``_ref_col2im``) are the
earlier implementations, kept verbatim bar names and docstrings: one matmul
per binary plane, scaled afterwards; np.clip; fresh arrays throughout; and a
backward pass that also computes the gradient with respect to the network's
input, then drops it. The references cache each layer's pre-activation
(``_RefCache``, the earlier ``ForwardCache``); ``forward`` caches the ReLU
output of each hidden layer instead, so those entries are compared against
``np.maximum(ref_z, 0.0)``. Every result must match to the byte.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq.nn import (
    Conv2dSpec,
    DenseSpec,
    ForwardCache,
    Model,
    ModelSpec,
    backward,
    forward,
    softmax_cross_entropy,
)
from fedmpq.quant import QuantizedLayer, dequantize, quantize, quantize_activations, shift_add_matmul


@dataclass
class _RefCache:
    spec: ModelSpec
    weights: list[np.ndarray]
    inputs: list[tuple[np.ndarray, tuple[int, ...]]]
    preacts: list[np.ndarray]


def _ref_shift_add_matmul(activations: np.ndarray, layer: QuantizedLayer) -> np.ndarray:
    a = np.asarray(activations, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != layer.cols:
        raise ValueError(
            f"activations must be ({layer.cols}, U), got {a.shape}"
        )
    planes = layer.planes().astype(np.float64)
    acc = np.zeros((layer.rows, a.shape[1]))
    for i in range(layer.bit_width):
        acc += float(1 << i) * (planes[i] @ a)
    return layer.step * (acc - layer.zero_point * a.sum(axis=0)[None, :])


def _ref_quantize_activations(tensor: np.ndarray, bits: int) -> np.ndarray:
    arr = np.asarray(tensor, dtype=np.float64)
    peak = np.abs(arr).max() if arr.size else 0.0
    if peak == 0.0:
        return arr
    levels = (1 << bits) - 1
    step = peak / levels
    return np.clip(np.rint(arr / step), 0, levels) * step


def _ref_im2col(x: np.ndarray, k: int) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    # windows: (batch, C, oh, ow, k, k) -> rows ordered (batch, oh, ow)
    patches = windows.transpose(0, 2, 3, 1, 4, 5)
    return patches.reshape(-1, x.shape[1] * k * k)


def _ref_forward(
    model: Model,
    x: np.ndarray,
    act_bits: int | None = 4,
) -> tuple[np.ndarray, _RefCache]:
    weights = [dequantize(l) for l in model.layers]
    spec = model.spec
    a = np.asarray(x, dtype=np.float64)
    inputs: list = []
    preacts: list[np.ndarray] = []
    last = len(spec.layers) - 1
    for idx, (layer_spec, layer) in enumerate(zip(spec.layers, model.layers, strict=True)):
        conv = isinstance(layer_spec, Conv2dSpec)
        if conv:
            if a.ndim != 4 or a.shape[1] != layer_spec.in_channels:
                raise ValueError(f"layer {idx}: expected {layer_spec.in_channels}-channel images")
            rows = _ref_im2col(a, layer_spec.kernel_size)
        else:
            if a.ndim > 2:
                a = a.reshape(len(a), -1)
            if a.ndim != 2 or a.shape[1] != layer_spec.in_features:
                raise ValueError(
                    f"layer {idx}: expected {layer_spec.in_features} features, got {a.shape}"
                )
            rows = a
        inputs.append((rows, a.shape))
        if isinstance(layer, QuantizedLayer):
            z = _ref_shift_add_matmul(rows.T, layer).T
        else:
            z = rows @ layer.T
        z = z + model.biases[idx]
        if conv:
            oh = a.shape[2] - layer_spec.kernel_size + 1
            ow = a.shape[3] - layer_spec.kernel_size + 1
            z = z.reshape(len(a), oh, ow, layer_spec.out_channels).transpose(0, 3, 1, 2)
        preacts.append(z)
        if idx < last:
            a = np.maximum(z, 0.0)
            if act_bits is not None:
                a = _ref_quantize_activations(a, act_bits)
        else:
            a = z
    return a, _RefCache(spec, weights, inputs, preacts)


def _ref_col2im(dpatches: np.ndarray, x_shape: tuple[int, ...], k: int) -> np.ndarray:
    batch, cin, h, w = x_shape
    oh, ow = h - k + 1, w - k + 1
    dm = dpatches.reshape(batch, oh, ow, cin, k, k)
    dx = np.zeros(x_shape)
    for di in range(k):
        for dj in range(k):
            dx[:, :, di : di + oh, dj : dj + ow] += dm[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return dx


def _ref_backward(cache, dlogits: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    specs = cache.spec.layers
    n = len(specs)
    grads_w: list[np.ndarray] = [np.empty(0)] * n
    grads_b: list[np.ndarray] = [np.empty(0)] * n
    delta = dlogits
    for idx in range(n - 1, -1, -1):
        spec = specs[idx]
        conv = isinstance(spec, Conv2dSpec)
        rows, x_shape = cache.inputs[idx]
        if conv:
            delta = delta.transpose(0, 2, 3, 1).reshape(-1, spec.out_channels)
        grads_w[idx] = delta.T @ rows
        grads_b[idx] = delta.sum(axis=0)
        da = delta @ cache.weights[idx]
        if conv:
            da = _ref_col2im(da, x_shape, spec.kernel_size)
        if idx > 0:
            z_prev = cache.preacts[idx - 1]
            delta = da.reshape(z_prev.shape) * (z_prev > 0.0)
    return grads_w, grads_b


def _signed_data(rng: np.random.Generator, shape, scale_exp: int) -> np.ndarray:
    """Normal entries at 10^scale_exp with exact zeros, some all-zero rows
    and columns, and a few negative zeros."""
    x = rng.normal(size=shape) * 10.0**scale_exp
    x[rng.random(shape) < 0.2] = 0.0
    x[rng.random(shape[0]) < 0.25] = 0.0
    x[..., rng.random(shape[-1]) < 0.25] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


def _layer(rng: np.random.Generator, bits: int, rows: int, cols: int) -> QuantizedLayer:
    return QuantizedLayer.from_codes(rng.integers(0, 1 << bits, (rows, cols)), rng.uniform(0.1, 4.0), bits)


@given(
    st.integers(1, 8),
    st.integers(1, 6),
    st.integers(1, 9),
    st.integers(1, 7),
    st.integers(-6, 6),
    st.sampled_from(["C", "F", "transposed"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=400, deadline=None)
def test_shift_add_matmul_matches_reference(bits, rows, cols, batch, scale_exp, order, seed):
    rng = np.random.default_rng(seed)
    layer = _layer(rng, bits, rows, cols)
    if order == "transposed":
        # forward's own layout: (batch, K) rows, multiplied through their transpose.
        a = _signed_data(rng, (batch, cols), scale_exp).T
    else:
        a = np.asarray(_signed_data(rng, (cols, batch), scale_exp), order=order)
    got = shift_add_matmul(a, layer)
    assert got.tobytes() == _ref_shift_add_matmul(a, layer).tobytes()


@given(st.integers(1, 8), st.integers(1, 5), st.integers(1, 9), st.integers(-6, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_quantize_activations_matches_reference(bits, batch, width, scale_exp, seed):
    rng = np.random.default_rng(seed)
    x = _signed_data(rng, (batch, width), scale_exp)
    for tensor in (x, np.maximum(x, 0.0), np.zeros_like(x)):
        got = quantize_activations(tensor, bits)
        assert got.tobytes() == _ref_quantize_activations(tensor, bits).tobytes()


@st.composite
def networks(draw):
    """A small dense or conv network, each weight quantized or real, a batch and labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = draw(st.integers(2, 4))
    if draw(st.booleans()):
        dims = [draw(st.integers(1, 6)) for _ in range(draw(st.integers(1, 3)))] + [classes]
        layers = tuple(DenseSpec(dims[i], dims[i + 1]) for i in range(len(dims) - 1))
        input_shape = (dims[0],)
    else:
        channels, size = draw(st.integers(1, 2)), draw(st.integers(3, 6))
        k1 = draw(st.integers(1, 3))
        mid = draw(st.integers(1, 3))
        k2 = draw(st.integers(1, size - k1 + 1))
        side = size - k1 - k2 + 2
        layers = (Conv2dSpec(channels, mid, k1), Conv2dSpec(mid, 2, k2), DenseSpec(2 * side * side, classes))
        input_shape = (channels, size, size)
    spec = ModelSpec(layers, input_shape, classes)
    weights = []
    for layer_spec in layers:
        w = rng.normal(size=layer_spec.weight_shape)
        weights.append(quantize(w, draw(st.integers(1, 8))) if draw(st.booleans()) else w)
    biases = [rng.normal(size=s.weight_shape[0]) * 0.1 for s in layers]
    batch = draw(st.integers(1, 5))
    x = _signed_data(rng, (batch, *input_shape), draw(st.integers(-2, 2)))
    labels = rng.integers(0, classes, size=batch)
    act_bits = draw(st.sampled_from([None, 1, 2, 4, 8]))
    return Model(spec, weights, biases), x, labels, act_bits


def _arrays(cache: ForwardCache) -> list[np.ndarray]:
    return [*cache.weights, *(rows for rows, _ in cache.inputs), *cache.outputs]


def _ref_arrays(cache: _RefCache) -> list[np.ndarray]:
    *hidden, logits = cache.preacts
    outputs = [np.maximum(z, 0.0) for z in hidden] + [logits]
    return [*cache.weights, *(rows for rows, _ in cache.inputs), *outputs]


@given(networks())
@settings(max_examples=200, deadline=None)
def test_forward_and_backward_match_reference(case):
    model, x, labels, act_bits = case
    logits, cache = forward(model, x, act_bits)
    ref_logits, ref_cache = _ref_forward(model, x, act_bits)
    assert logits.tobytes() == ref_logits.tobytes()
    assert [s for _, s in cache.inputs] == [s for _, s in ref_cache.inputs]
    for got, want in zip(_arrays(cache), _ref_arrays(ref_cache), strict=True):
        assert got.tobytes() == want.tobytes()
    _, dlogits = softmax_cross_entropy(logits, labels)
    grads_w, grads_b = backward(cache, dlogits)
    ref_w, ref_b = _ref_backward(ref_cache, dlogits)
    for got, want in zip(grads_w + grads_b, ref_w + ref_b, strict=True):
        assert got.tobytes() == want.tobytes()
