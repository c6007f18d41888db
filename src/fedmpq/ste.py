"""Straight-through gradients and fixed-point parameter updates.

The quantized forward pass is not differentiable in the binary planes, so
gradients are propagated as if the dequantization map were linear: plane i
receives s * 2^(i-1) / (2^b - 1) times the weight-space gradient. Updates
are snapped to powers of two so that the applied delta is always an integer
number of grid steps; sub-step remainders are applied stochastically as a
single minimum step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quant import QuantizedLayer

# Mantissas from frexp live in [0.5, 1); those below sqrt(1/2) round the
# exponent down, the rest (ties included) round up.
_SQRT_HALF = math.sqrt(0.5)


def power_of_two(x: float) -> float:
    """Nearest power of two to a non-negative x, ties rounding up; 0 -> 0."""
    if x < 0:
        raise ValueError("power_of_two requires x >= 0")
    if x == 0:
        return 0.0
    m, e = math.frexp(x)
    return math.ldexp(1.0, e - (m < _SQRT_HALF))


# Nearest power of two of |x| for a normal float64 x, done on its bits. A
# mantissa field at or above that of 2 * sqrt(1/2) (a frexp mantissa of at
# least sqrt(1/2)) rounds the exponent up, so adding the distance from there
# to 2^52 carries into the exponent exactly then; keeping only the exponent
# field then drops the mantissa and the sign. Zeros map to +0.
_MANTISSA = (1 << 52) - 1
_ROUND_UP = np.int64((1 << 52) - (int(np.float64(2 * _SQRT_HALF).view(np.int64)) & _MANTISSA))
_EXPONENT = np.int64(0x7FF << 52)


@dataclass
class UpdateContext:
    """Per-layer optimizer state owned by a single client.

    The momentum buffer lives in full-precision weight space; only the
    snapped delta ever touches the fixed-point weights. The RNG stream is
    private to the owning client and feeds the sub-step Bernoulli draws.
    """

    lr: float
    momentum: float = 0.9
    weight_decay: float = 5e-4
    momentum_buffer: np.ndarray | None = None
    rng: np.random.Generator = field(default_factory=np.random.default_rng)


def ste_backward(grad_w: np.ndarray, layer: QuantizedLayer) -> np.ndarray:
    """Spread a weight-space gradient over the binary planes.

    Plane i (1-based from the LSB) gets s * 2^(i-1) / (2^b - 1) times the
    incoming gradient, elementwise; the result has shape (bit_width, rows, cols).
    """
    g = np.asarray(grad_w, dtype=np.float64)
    if g.shape != (layer.rows, layer.cols):
        raise ValueError(
            f"gradient shape {g.shape} does not match layer {(layer.rows, layer.cols)}"
        )
    factors = layer.step * np.exp2(np.arange(layer.bit_width, dtype=np.float64))
    return factors[:, None, None] * g[None, :, :]


def group_lasso(layer: QuantizedLayer) -> tuple[float, np.ndarray]:
    """Sum of per-plane l2 norms and its subgradient.

    For a binary plane the norm is sqrt(popcount); the subgradient of an
    all-zero plane is taken to be zero.
    """
    norms = np.sqrt(layer.plane_counts())
    safe = np.where(norms > 0.0, norms, 1.0)
    subgradient = layer.planes().astype(np.float64)
    # Plane entries are 0 or 1, so scaling by 1/norm equals dividing by it.
    subgradient *= (1.0 / safe)[:, None, None]
    return float(norms.sum()), subgradient


def plane_steps(plane_grads: np.ndarray, lr: float) -> np.ndarray:
    """Snapped per-plane step 2^(q_i - 1) in grid steps, 0 where the gradient is 0.

    That is the power of two nearest to lr * |g_i| (see plane_update_powers),
    taken on the float bits, so every step is exact. It agrees with rounding
    the frexp exponent wherever lr * |g_i| is a normal float; below 2^-1022
    the step is 0 or 2^-1022.
    """
    # |g| * lr and |g * lr| round alike.
    steps = np.asarray(plane_grads, dtype=np.float64) * lr
    bits = steps.view(np.int64)
    bits += _ROUND_UP
    bits &= _EXPONENT
    return steps


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


def fixed_point_delta(
    grad_w: np.ndarray,
    plane_grads: np.ndarray,
    ctx: UpdateContext,
    layer: QuantizedLayer,
) -> np.ndarray:
    """Grid-aligned weight delta from snapped per-plane steps.

    Per entry, with q_i the per-plane powers and step the grid cell width:

    * if max(q) > b the delta saturates at one full range, -sign * s;
    * powers q_i >= 1 contribute 2^(q_i - 1) grid steps outright;
    * powers q_i <= 0 are below one step; their total p < 1 is applied as a
      single extra step with probability p (one Bernoulli draw per entry).

    The sign is taken from the significance-weighted combination of the
    plane gradients, which for pure straight-through gradients equals the
    sign of ``grad_w``; where that combination cancels exactly, ``grad_w``
    breaks the tie. With non-proportional plane gradients (regularizer
    terms added) the sub-step total can reach 1; whole steps are then
    carried into the integer part so the Bernoulli probability stays in
    [0, 1). The magnitude never exceeds s.
    """
    g = np.asarray(plane_grads, dtype=np.float64)
    b = layer.bit_width
    if g.shape != (b, layer.rows, layer.cols):
        raise ValueError(
            f"plane gradient shape {g.shape} does not match "
            f"{(b, layer.rows, layer.cols)}"
        )
    gw = np.asarray(grad_w, dtype=np.float64)
    if gw.shape != (layer.rows, layer.cols):
        raise ValueError("grad_w shape does not match the layer")

    work = plane_steps(g, ctx.lr)
    whole = work >= 1.0
    steps = np.add.reduce(work, axis=0, where=whole)
    p = np.add.reduce(work, axis=0, where=~whole)

    # The steps are summed, so their buffer takes the weighted gradients: a
    # fresh full-size array per call costs more in page faults than in math.
    significance = np.exp2(np.arange(b, dtype=np.float64))[:, None, None]
    nu = np.sign(np.multiply(significance, g, out=work).sum(axis=0))
    nu = np.where(nu == 0.0, np.sign(gw), nu)

    carry = np.floor(p)
    p -= carry
    steps += carry
    steps += ctx.rng.random(p.shape) < p
    # q_i > b means a plane step of at least 2^b, so saturating entries
    # already sum past the cap.
    np.minimum(steps, (1 << b) - 1, out=steps)
    return -nu * layer.step * steps


def apply_update(layer: QuantizedLayer, delta: np.ndarray) -> QuantizedLayer:
    """Add a grid-aligned delta, clipping into the representable range.

    ``delta`` must be a finite, integer number of grid steps per entry;
    anything else raises ValueError. Scale and bit width are unchanged.
    """
    d = np.asarray(delta, dtype=np.float64)
    if d.shape != (layer.rows, layer.cols):
        raise ValueError("delta shape does not match the layer")
    ratio = d / layer.step
    k = np.rint(ratio)
    # Written so that NaN fails it too.
    if not np.abs(ratio - k).max() <= 1e-6:
        raise ValueError("delta is not a finite integer number of grid steps")
    # Whole numbers stay exact in float64; np.clip's Python wrapper costs
    # more here than the two ufuncs.
    codes = np.add(k, layer.codes, out=k)
    np.maximum(codes, 0.0, out=codes)
    np.minimum(codes, (1 << layer.bit_width) - 1, out=codes)
    return QuantizedLayer.from_codes(codes, layer.scale, layer.bit_width)


def sgd_step(
    layer: QuantizedLayer,
    grad_w_task: np.ndarray,
    ctx: UpdateContext,
    lasso_coeff: float = 0.0,
) -> QuantizedLayer:
    """One momentum-SGD step on the fixed-point grid.

    Weight decay is added to the task gradient and momentum accumulated in
    full-precision weight space; the buffered gradient is spread over the
    planes, the (optionally weighted) group-Lasso subgradient is added
    there, and the combined plane gradients drive the snapped update.
    With lasso_coeff 0, momentum 0, and weight decay 0 this reduces to
    fixed_point_delta followed by apply_update on the task gradient alone.

    ctx.lr is a plane-space rate, not a weight-space one: for a buffered
    gradient m, a range s and a grid step s / (2^b - 1), an entry moves by
    about s * P(lr * step * |m|) in weight space, P rounding to a power of
    two, and never by more than s. The same lr applied directly to weights,
    as local_update_dense does, is a far larger step.
    """
    if lasso_coeff < 0:
        raise ValueError("lasso_coeff must be non-negative")
    g = np.asarray(grad_w_task, dtype=np.float64)
    if ctx.weight_decay:
        g = g + ctx.weight_decay * layer.values()
    if ctx.momentum_buffer is None:
        ctx.momentum_buffer = np.zeros((layer.rows, layer.cols))
    ctx.momentum_buffer = ctx.momentum * ctx.momentum_buffer + g
    combined = ctx.momentum_buffer
    plane_g = ste_backward(combined, layer)
    if lasso_coeff > 0.0:
        _, lasso = group_lasso(layer)
        lasso *= lasso_coeff
        plane_g += lasso
    delta = fixed_point_delta(combined, plane_g, ctx, layer)
    return apply_update(layer, delta)
