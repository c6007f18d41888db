"""Small networks and the client-side training loop.

Architectures are dense MLPs or a few valid-padding convolutions followed
by a dense classifier. Each weight matrix lives on the fixed-point grid or
in full precision; biases always stay full precision. Hidden activations
pass through ReLU and an optional unsigned activation grid; the logits
layer is excluded from both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .quant import (
    MAX_BITS,
    QuantizedLayer,
    dequantize,
    prune_msbs,
    quantize_activations,
    shift_add_matmul,
)
from .ste import UpdateContext, sgd_step


@dataclass(frozen=True)
class DenseSpec:
    in_features: int
    out_features: int

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_features, self.in_features)


@dataclass(frozen=True)
class Conv2dSpec:
    """Valid-padding, stride-1 convolution; weights stored (out, in*k*k)."""

    in_channels: int
    out_channels: int
    kernel_size: int

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_channels, self.in_channels * self.kernel_size**2)


LayerSpec = DenseSpec | Conv2dSpec


@dataclass(frozen=True)
class ModelSpec:
    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, ...]
    num_classes: int

    def __post_init__(self):
        shape = self.input_shape
        for i, spec in enumerate(self.layers):
            if isinstance(spec, Conv2dSpec):
                if len(shape) != 3 or shape[0] != spec.in_channels:
                    raise ValueError(f"layer {i}: expected {spec.in_channels}-channel image input")
                h, w = shape[1] - spec.kernel_size + 1, shape[2] - spec.kernel_size + 1
                if h < 1 or w < 1:
                    raise ValueError(f"layer {i}: kernel larger than input")
                shape = (spec.out_channels, h, w)
            else:
                flat = int(np.prod(shape))
                if flat != spec.in_features:
                    raise ValueError(
                        f"layer {i}: expects {spec.in_features} inputs, gets {flat}"
                    )
                shape = (spec.out_features,)
        if shape != (self.num_classes,):
            raise ValueError("final layer width must equal num_classes")

    # Computed once per spec: the round loop reads them for every client.
    @cached_property
    def param_counts(self) -> tuple[int, ...]:
        return tuple(math.prod(s.weight_shape) for s in self.layers)

    @cached_property
    def total_params(self) -> int:
        return sum(self.param_counts)

    @cached_property
    def flat_layout(self) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
        """Where each bias, then each weight matrix, sits in one flat vector."""
        sizes = [s.weight_shape[0] for s in self.layers] + list(self.param_counts)
        bounds = (0, *accumulate(sizes))
        regions = tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
        return regions[: len(self.layers)], regions[len(self.layers) :]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs resolved against the dataset at build time."""

    kind: str = "mlp"
    hidden: tuple[int, ...] = (48, 24)
    channels: tuple[int, ...] = (8, 8)
    kernel_size: int = 3

    def __post_init__(self):
        if self.kind not in ("mlp", "conv"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if min((*self.hidden, *self.channels, self.kernel_size)) < 1:
            raise ValueError("hidden widths, channel counts and kernel_size must be at least 1")


def build_model_spec(cfg: ModelConfig, input_shape: tuple[int, ...], num_classes: int) -> ModelSpec:
    layers: list[LayerSpec] = []
    if cfg.kind == "mlp":
        dims = [int(np.prod(input_shape)), *cfg.hidden, num_classes]
        layers = [DenseSpec(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        input_shape = (dims[0],)
    else:
        if len(input_shape) != 3:
            raise ValueError("conv models need (channels, height, width) input")
        shape = input_shape
        for out_ch in cfg.channels:
            layers.append(Conv2dSpec(shape[0], out_ch, cfg.kernel_size))
            shape = (out_ch, shape[1] - cfg.kernel_size + 1, shape[2] - cfg.kernel_size + 1)
        layers.append(DenseSpec(int(np.prod(shape)), num_classes))
    return ModelSpec(tuple(layers), input_shape, num_classes)


@dataclass
class Model:
    """A network whose weights are each a QuantizedLayer or a real matrix.

    Clients train the grid form at their delivered widths; the server
    aggregates and evaluates the real form.
    """

    spec: ModelSpec
    layers: list[QuantizedLayer | np.ndarray]
    biases: list[np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lasso_coeff: float = 0.01  # 0 turns the group Lasso off
    prune_threshold: float | None = 0.03  # None turns MSB pruning off
    activation_bits: int | None = 4

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        # Written so that NaN fails each range check.
        if not (0.0 < self.learning_rate < math.inf):
            raise ValueError("learning_rate must be positive and finite")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if not (0.0 <= self.weight_decay < math.inf):
            raise ValueError("weight_decay must be non-negative and finite")
        if self.activation_bits is not None and not (1 <= self.activation_bits <= MAX_BITS):
            raise ValueError(f"activation_bits must be none or in [1, {MAX_BITS}]")
        if not (0.0 <= self.lasso_coeff < math.inf):
            raise ValueError("lasso_coeff must be non-negative and finite")
        if self.prune_threshold is not None and not (0.0 <= self.prune_threshold <= 1.0):
            raise ValueError("prune_threshold must be none or lie in [0, 1]")


def init_dense_model(spec: ModelSpec, rng: np.random.Generator) -> Model:
    weights, biases = [], []
    for layer in spec.layers:
        fan_in = layer.weight_shape[1]
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), layer.weight_shape))
        biases.append(np.zeros(layer.weight_shape[0]))
    return Model(spec, weights, biases)


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """Patches of a (batch, C, H, W) tensor, shape (batch*oh*ow, C*k*k)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    # windows: (batch, C, oh, ow, k, k) -> rows ordered (batch, oh, ow)
    patches = windows.transpose(0, 2, 3, 1, 4, 5)
    return patches.reshape(-1, x.shape[1] * k * k)


def _col2im(dpatches: np.ndarray, x_shape: tuple[int, ...], k: int) -> np.ndarray:
    batch, cin, h, w = x_shape
    oh, ow = h - k + 1, w - k + 1
    dm = dpatches.reshape(batch, oh, ow, cin, k, k)
    dx = np.zeros(x_shape)
    for di in range(k):
        for dj in range(k):
            dx[:, :, di : di + oh, dj : dj + ow] += dm[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
    return dx


@dataclass
class ForwardCache:
    spec: ModelSpec
    weights: list[np.ndarray]
    inputs: list[tuple[np.ndarray, tuple[int, ...]]]  # (matmul rows, layer input shape)
    outputs: list[np.ndarray]  # ReLU output of each hidden layer, then the logits


def forward(
    model: Model,
    x: np.ndarray,
    act_bits: int | None = 4,
) -> tuple[np.ndarray, ForwardCache]:
    """Logits and a backward cache for a batch.

    Quantized layers multiply through the bit planes, real ones use a plain
    matmul. A conv layer multiplies its im2col patches. Hidden layers apply
    ReLU and, when ``act_bits`` is set, snap the result onto the unsigned
    activation grid. The logits layer gets neither. ReLU runs in place, so
    without the grid the cached output is also the next layer's input.
    """
    weights = [dequantize(l) for l in model.layers]
    spec = model.spec
    a = np.asarray(x, dtype=np.float64)
    inputs: list = []
    outputs: list[np.ndarray] = []
    last = len(spec.layers) - 1
    for idx, (layer_spec, layer) in enumerate(zip(spec.layers, model.layers, strict=True)):
        conv = isinstance(layer_spec, Conv2dSpec)
        if conv:
            if a.ndim != 4 or a.shape[1] != layer_spec.in_channels:
                raise ValueError(f"layer {idx}: expected {layer_spec.in_channels}-channel images")
            rows = _im2col(a, layer_spec.kernel_size)
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
            z = shift_add_matmul(rows.T, layer).T
        else:
            z = rows @ layer.T
        z += model.biases[idx]
        if conv:
            oh = a.shape[2] - layer_spec.kernel_size + 1
            ow = a.shape[3] - layer_spec.kernel_size + 1
            z = z.reshape(len(a), oh, ow, layer_spec.out_channels).transpose(0, 3, 1, 2)
        if idx < last:
            np.maximum(z, 0.0, out=z)
        outputs.append(z)
        a = z if idx == last or act_bits is None else quantize_activations(z, act_bits)
    return a, ForwardCache(spec, weights, inputs, outputs)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    z -= np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
    n = len(labels)
    picked = (np.arange(n), labels)
    loss = -float(np.add.reduce(z[picked]) / n)
    grad = np.exp(z, out=z)
    grad[picked] -= 1.0
    grad /= n
    return loss, grad


def backward(
    cache: ForwardCache,
    dlogits: np.ndarray,
    grads_w: list[np.ndarray] | None = None,
    grads_b: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Task-loss gradients per layer on the dequantized weights.

    ReLU is differentiated through its stored output: relu(z) > 0 exactly
    where z > 0, NaN and -0.0 included. The activation grid is treated as
    identity (straight-through). The gradient with respect to the network's
    input is not computed. Given ``grads_w`` and ``grads_b`` (one array per
    layer, of the weight and bias shapes), the gradients are written there;
    without them they are allocated.

    The mask multiplies in place, from a C-ordered copy. ``da`` is always a
    fresh C-ordered array (a matmul or ``_col2im``), but a quantized layer's
    output is a transposed view and a conv output a non-contiguous one, so
    ``da * (relu > 0.0)`` would cast the bool mask in numpy's buffered
    mixed-order loop, about four times slower. The product is the same IEEE
    multiply by 1.0 or 0.0, so -0.0, NaN and inf come out as before. The
    outputs themselves keep their order: it fixes the rounding of
    softmax's row sums, of ``shift_add_matmul``'s column sums and of the
    BLAS call each matmul makes.
    """
    specs = cache.spec.layers
    n = len(specs)
    grads_w = [None] * n if grads_w is None else list(grads_w)
    grads_b = [None] * n if grads_b is None else list(grads_b)
    delta = dlogits
    for idx in range(n - 1, -1, -1):
        spec = specs[idx]
        conv = isinstance(spec, Conv2dSpec)
        rows, x_shape = cache.inputs[idx]
        if conv:
            delta = delta.transpose(0, 2, 3, 1).reshape(-1, spec.out_channels)
        grads_w[idx] = np.matmul(delta.T, rows, out=grads_w[idx])
        grads_b[idx] = np.add.reduce(delta, axis=0, out=grads_b[idx])
        if idx == 0:
            break
        da = delta @ cache.weights[idx]
        if conv:
            da = _col2im(da, x_shape, spec.kernel_size)
        relu = cache.outputs[idx - 1]
        delta = da.reshape(relu.shape)
        np.multiply(delta, np.ascontiguousarray(relu > 0.0), out=delta)
    return grads_w, grads_b


def _train(model: Model, features, labels, cfg: TrainConfig, rng, lams) -> Model:
    """Epochs of shuffled minibatches, the one client loop of every arm.

    The forward pass snaps hidden activations onto cfg.activation_bits.
    Every bias and weight matrix has a region of one flat parameter vector
    p (laid out by ``spec.flat_layout``); the gradients g and the momentum
    m are two more vectors of the same layout. The working model's biases
    and real matrices are views into p. Each minibatch takes
    m = momentum * m + (g + weight_decay * w) over the whole vector, where
    w is p for a real region and, for a QuantizedLayer, the matrix
    ``forward`` dequantized for this minibatch (its region of p is unused).
    A QuantizedLayer then takes the snapped step
    ``sgd_step(layer, m_l, ctx, lams[l])`` with the client's one
    UpdateContext, in layer order; every real region takes p - lr * m.
    """
    spec = model.spec
    bias_at, weight_at = spec.flat_layout
    size = weight_at[-1].stop
    p, g, m, t = np.empty(size), np.empty(size), np.zeros(size), np.empty(size)

    def matrix(flat: np.ndarray, l: int) -> np.ndarray:
        return flat[weight_at[l]].reshape(spec.layers[l].weight_shape)

    biases = [p[r] for r in bias_at]
    grads_b = [g[r] for r in bias_at]
    grads_w = [matrix(g, l) for l in range(len(bias_at))]
    momenta = [matrix(m, l) for l in range(len(bias_at))]
    np.concatenate(model.biases, out=p[: weight_at[0].start])
    layers = list(model.layers)
    quantized = [l for l, layer in enumerate(layers) if isinstance(layer, QuantizedLayer)]
    reals = [l for l in range(len(layers)) if l not in quantized]
    for l in reals:
        layers[l] = matrix(p, l)
        np.copyto(layers[l], model.layers[l])
    # All biases, then each real matrix; an all-real model is one region.
    real_at = [slice(0, size)]
    if quantized:
        real_at = [slice(0, weight_at[0].start), *(weight_at[l] for l in reals)]
    moves = [(p[r], m[r], t[r]) for r in real_at]
    decays = [(l, matrix(t, l)) for l in quantized]
    work = Model(spec, layers, biases)
    ctx = UpdateContext(cfg.learning_rate, rng)

    n = len(labels)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            logits, cache = forward(work, features[sel], cfg.activation_bits)
            _, dlogits = softmax_cross_entropy(logits, labels[sel])
            backward(cache, dlogits, grads_w, grads_b)
            # m = momentum * m + (g + weight_decay * w); float addition and
            # multiplication commute, so each entry's bits are as before.
            for p_r, _, t_r in moves:
                np.multiply(p_r, cfg.weight_decay, out=t_r)
            for l, t_l in decays:
                np.multiply(cache.weights[l], cfg.weight_decay, out=t_l)
            t += g
            m *= cfg.momentum
            m += t
            for l in quantized:
                work.layers[l] = sgd_step(work.layers[l], momenta[l], ctx, lams[l])
            for p_r, m_r, t_r in moves:
                p_r -= np.multiply(m_r, cfg.learning_rate, out=t_r)
    # Copies, so that nothing returned keeps the flat vectors alive.
    work.biases = [b.copy() for b in biases]
    work.layers = [w if l in quantized else w.copy() for l, w in enumerate(work.layers)]
    return work


def local_update(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> Model:
    """Client-side training on the grid: snapped steps, then MSB pruning.

    Each layer's Lasso weight is lasso_coeff * M_l / M, so a zero coefficient
    trains without the Lasso. Pruning runs unless prune_threshold is None.
    Bit widths can only shrink; the returned model's widths reflect any
    planes dropped at the end. An empty shard takes no step; run_round
    never passes one.
    """
    spec = model.spec
    lams = [cfg.lasso_coeff * c / spec.total_params for c in spec.param_counts]
    trained = _train(model, features, labels, cfg, rng, lams)
    if cfg.prune_threshold is not None:
        trained.layers = [prune_msbs(layer, cfg.prune_threshold)[0] for layer in trained.layers]
    return trained


def local_update_dense(
    model: Model,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> Model:
    """Full-precision counterpart of local_update: plain momentum SGD on
    real weights. Activations snap to cfg.activation_bits, which the fp32
    arm sets to None. An empty shard takes no step; run_round never passes
    one."""
    return _train(model, features, labels, cfg, rng, [0.0] * len(model.layers))


def evaluate(model: Model, features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset, without the activation grid;
    deterministic.

    ``forward`` runs over evenly split row blocks of at most 512 samples
    (2,000 samples make four blocks of 500), so peak memory is one block's
    activations, whatever the size of the dataset. The loss is taken over
    4,096-sample batches of the gathered logits, each batch's mean weighted
    by its size. The block size is part of the result: a float64 matmul's
    rows need not keep their bits when the row count changes, and
    128-sample blocks change one of the blobs goldens where blocks of 500
    keep them all.
    """
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = np.empty((n, model.spec.num_classes))
    blocks = -(-n // 512)
    for xb, out in zip(np.array_split(features, blocks), np.array_split(logits, blocks)):
        out[...] = forward(model, xb, act_bits=None)[0]
    loss_sum = 0.0
    for start in range(0, n, 4096):
        yb = labels[start : start + 4096]
        loss, _ = softmax_cross_entropy(logits[start : start + 4096], yb)
        loss_sum += loss * len(yb)
    hits = int((logits.argmax(axis=1) == labels).sum())
    return loss_sum / n, hits / n
