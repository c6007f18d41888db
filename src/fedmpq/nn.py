"""Small quantized networks and the client-side training loop.

Architectures are dense MLPs or a few valid-padding convolutions followed
by a dense classifier. Weight matrices live on the fixed-point grid; biases
stay full precision. Hidden activations pass through ReLU and an optional
unsigned activation grid; the logits layer is excluded from both.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .quant import (
    QuantizedLayer,
    ScalePolicy,
    dequantize,
    prune_msbs,
    quantize,
    quantize_activations,
    shift_add_matmul,
)
from .ste import UpdateContext, group_lasso, sgd_step

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DenseSpec:
    in_features: int
    out_features: int

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_features, self.in_features)

    @property
    def param_count(self) -> int:
        return self.in_features * self.out_features


@dataclass(frozen=True)
class Conv2dSpec:
    """Valid-padding, stride-1 convolution; weights stored (out, in*k*k)."""

    in_channels: int
    out_channels: int
    kernel_size: int

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_channels, self.in_channels * self.kernel_size**2)

    @property
    def param_count(self) -> int:
        return self.out_channels * self.in_channels * self.kernel_size**2


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

    @property
    def param_counts(self) -> tuple[int, ...]:
        return tuple(s.param_count for s in self.layers)

    @property
    def total_params(self) -> int:
        return sum(self.param_counts)


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
class QuantizedModel:
    spec: ModelSpec
    layers: list[QuantizedLayer]
    biases: list[np.ndarray]

    @property
    def bit_widths(self) -> tuple[int, ...]:
        return tuple(l.bit_width for l in self.layers)


@dataclass
class DenseModel:
    spec: ModelSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass(frozen=True)
class TrainConfig:
    local_epochs: int = 3
    batch_size: int = 32
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lasso_coeff: float = 0.01
    prune_threshold: float = 0.03
    activation_bits: int | None = 4
    scale_policy: ScalePolicy = ScalePolicy.RANGE_COVERING

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.lasso_coeff < 0:
            raise ValueError("lasso_coeff must be non-negative")
        if not (0.0 <= self.prune_threshold <= 1.0):
            raise ValueError("prune_threshold must lie in [0, 1]")


def init_dense_model(spec: ModelSpec, rng: np.random.Generator) -> DenseModel:
    weights, biases = [], []
    for layer in spec.layers:
        fan_in = layer.weight_shape[1]
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), layer.weight_shape))
        biases.append(np.zeros(layer.weight_shape[0]))
    return DenseModel(spec, weights, biases)


def quantize_model(
    dense: DenseModel,
    bit_widths,
    policy: ScalePolicy = ScalePolicy.RANGE_COVERING,
) -> QuantizedModel:
    layers = [quantize(w, int(b), policy) for w, b in zip(dense.weights, bit_widths)]
    return QuantizedModel(dense.spec, layers, [b.copy() for b in dense.biases])


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
    inputs: list
    preacts: list[np.ndarray]


def forward(
    model: QuantizedModel | DenseModel,
    x: np.ndarray,
    act_bits: int | None = 4,
) -> tuple[np.ndarray, ForwardCache]:
    """Logits and a backward cache for a batch.

    Quantized models multiply through the bit planes; dense models use a
    plain matmul. Hidden layers apply ReLU and, when ``act_bits`` is set,
    snap the result onto the unsigned activation grid. The logits layer
    gets neither.
    """
    quantized = isinstance(model, QuantizedModel)
    weights = [dequantize(l) for l in model.layers] if quantized else model.weights
    spec = model.spec
    a = np.asarray(x, dtype=np.float64)
    inputs: list = []
    preacts: list[np.ndarray] = []
    last = len(spec.layers) - 1
    for idx, layer_spec in enumerate(spec.layers):
        if isinstance(layer_spec, DenseSpec):
            if a.ndim > 2:
                a = a.reshape(len(a), -1)
            if a.ndim != 2 or a.shape[1] != layer_spec.in_features:
                raise ValueError(
                    f"layer {idx}: expected {layer_spec.in_features} features, got {a.shape}"
                )
            inputs.append(a)
            if quantized:
                z = shift_add_matmul(a.T, model.layers[idx]).T
            else:
                z = a @ weights[idx].T
            z = z + model.biases[idx]
        else:
            if a.ndim != 4 or a.shape[1] != layer_spec.in_channels:
                raise ValueError(f"layer {idx}: expected {layer_spec.in_channels}-channel images")
            patches = _im2col(a, layer_spec.kernel_size)
            inputs.append((patches, a.shape))
            if quantized:
                zf = shift_add_matmul(patches.T, model.layers[idx]).T
            else:
                zf = patches @ weights[idx].T
            zf = zf + model.biases[idx]
            oh = a.shape[2] - layer_spec.kernel_size + 1
            ow = a.shape[3] - layer_spec.kernel_size + 1
            z = zf.reshape(len(a), oh, ow, layer_spec.out_channels).transpose(0, 3, 1, 2)
        preacts.append(z)
        if idx < last:
            a = np.maximum(z, 0.0)
            if act_bits is not None:
                a = quantize_activations(a, act_bits)
        else:
            a = z
    return a, ForwardCache(spec, weights, inputs, preacts)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = len(labels)
    loss = float(-logp[np.arange(n), labels].mean())
    grad = np.exp(logp)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def backward(cache: ForwardCache, dlogits: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Task-loss gradients per layer on the dequantized weights.

    ReLU is differentiated at the stored pre-activations; the activation
    grid is treated as identity (straight-through).
    """
    specs = cache.spec.layers
    n = len(specs)
    grads_w: list[np.ndarray] = [np.empty(0)] * n
    grads_b: list[np.ndarray] = [np.empty(0)] * n
    delta = dlogits
    for idx in range(n - 1, -1, -1):
        spec = specs[idx]
        if isinstance(spec, DenseSpec):
            x_in = cache.inputs[idx]
            grads_w[idx] = delta.T @ x_in
            grads_b[idx] = delta.sum(axis=0)
            da = delta @ cache.weights[idx]
        else:
            patches, x_shape = cache.inputs[idx]
            deltaf = delta.transpose(0, 2, 3, 1).reshape(-1, spec.out_channels)
            grads_w[idx] = deltaf.T @ patches
            grads_b[idx] = deltaf.sum(axis=0)
            da = _col2im(deltaf @ cache.weights[idx], x_shape, spec.kernel_size)
        if idx > 0:
            z_prev = cache.preacts[idx - 1]
            delta = da.reshape(z_prev.shape) * (z_prev > 0.0)
    return grads_w, grads_b


def local_objective(
    model: QuantizedModel,
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


def _momentum_sgd(cfg: TrainConfig, params: list[np.ndarray]):
    """Weight-space momentum SGD with weight decay, one buffer per tensor."""
    bufs = [np.zeros_like(p) for p in params]

    def step(l: int, w: np.ndarray, grad: np.ndarray) -> np.ndarray:
        bufs[l] = cfg.momentum * bufs[l] + (grad + cfg.weight_decay * w)
        return w - cfg.learning_rate * bufs[l]

    return step


def _train(model, params: list, features, labels, cfg: TrainConfig, rng, act_bits, weight_step):
    """Epochs of shuffled minibatches, the one client loop of every arm.

    ``weight_step(l, param, grad)`` returns layer l's weight moved by its
    task gradient; ``param`` is a QuantizedLayer or a real matrix, matching
    ``model``. Biases always take a full-precision momentum-SGD step.
    """
    params = list(params)
    biases = [b.copy() for b in model.biases]
    bias_step = _momentum_sgd(cfg, biases)
    n = len(labels)
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            work = type(model)(model.spec, params, biases)
            logits, cache = forward(work, features[sel], act_bits)
            _, dlogits = softmax_cross_entropy(logits, labels[sel])
            grads_w, grads_b = backward(cache, dlogits)
            for l in range(len(params)):
                params[l] = weight_step(l, params[l], grads_w[l])
                biases[l] = bias_step(l, biases[l], grads_b[l])
    return params, biases


def local_update(
    model: QuantizedModel,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    *,
    use_lasso: bool = True,
    use_msb_pruning: bool = True,
) -> tuple[QuantizedModel, tuple[int, ...]]:
    """Client-side training on the grid: snapped steps, then MSB pruning.

    Each layer's Lasso weight is lasso_coeff * M_l / M. Bit widths can only
    shrink; the returned vector reflects any planes dropped at the end.
    An empty shard leaves the model untouched.
    """
    if len(labels) == 0:
        logger.warning("empty shard: returning the model unchanged")
        return model, model.bit_widths
    spec = model.spec
    ctxs = [
        UpdateContext(cfg.learning_rate, cfg.momentum, cfg.weight_decay, None, rng)
        for _ in model.layers
    ]
    total = spec.total_params
    lams = [cfg.lasso_coeff * c / total if use_lasso else 0.0 for c in spec.param_counts]

    def snapped(l: int, layer: QuantizedLayer, grad: np.ndarray) -> QuantizedLayer:
        return sgd_step(layer, grad, ctxs[l], lams[l])

    layers, biases = _train(
        model, model.layers, features, labels, cfg, rng, cfg.activation_bits, snapped
    )
    if use_msb_pruning:
        layers = [prune_msbs(layer, cfg.prune_threshold, cfg.scale_policy)[0] for layer in layers]
    trained = QuantizedModel(spec, layers, biases)
    return trained, trained.bit_widths


def local_update_dense(
    model: DenseModel,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> DenseModel:
    """Full-precision counterpart of local_update: plain momentum SGD."""
    if len(labels) == 0:
        logger.warning("empty shard: returning the model unchanged")
        return model
    weight_step = _momentum_sgd(cfg, model.weights)
    weights, biases = _train(model, model.weights, features, labels, cfg, rng, None, weight_step)
    return DenseModel(model.spec, weights, biases)


def evaluate(
    model: QuantizedModel | DenseModel,
    features: np.ndarray,
    labels: np.ndarray,
    act_bits: int | None = None,
    batch_size: int = 4096,
) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset; deterministic."""
    n = len(labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    loss_sum = 0.0
    hits = 0
    for start in range(0, n, batch_size):
        xb = features[start : start + batch_size]
        yb = labels[start : start + batch_size]
        logits, _ = forward(model, xb, act_bits)
        loss, _ = softmax_cross_entropy(logits, yb)
        loss_sum += loss * len(yb)
        hits += int((logits.argmax(axis=1) == yb).sum())
    return loss_sum / n, hits / n
