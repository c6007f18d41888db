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
from dataclasses import dataclass

import numpy as np

from .quant import PLANE_WEIGHTS, QuantizedLayer

# Mantissas from frexp live in [0.5, 1); those below sqrt(1/2) round the
# exponent down, the rest (ties included) round up.
_SQRT_HALF = math.sqrt(0.5)


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
    """A client's plane-space rate (see sgd_step) and its private RNG stream,
    which feeds the sub-step Bernoulli draws. Momentum lives in nn._train."""

    lr: float
    rng: np.random.Generator


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
    return np.multiply.outer(layer.step * PLANE_WEIGHTS[: layer.bit_width], g)


def group_lasso(layer: QuantizedLayer, weight: float = 1.0) -> tuple[float, np.ndarray]:
    """Sum of per-plane l2 norms and its subgradient, times ``weight``.

    For a binary plane the norm is sqrt(popcount); the subgradient of an
    all-zero plane is taken to be zero. The returned sum is not weighted.
    """
    norms = np.sqrt(layer.plane_counts())
    # A norm is 0 or at least 1, so the maximum only lifts the empty planes.
    # Entry [i] of the masked codes is 0 or 2^i, and scaling by 2^i is exact,
    # so 2^i * (1 / (2^i * norm) * weight) is (1 / norm) * weight to the bit:
    # the weighted quotient of a plane entry of 1 (weight / (2^i * norm),
    # rounded once, is not).
    factors = 1.0 / (PLANE_WEIGHTS[: layer.bit_width] * np.maximum(norms, 1.0))
    factors *= weight
    subgradient = layer.masked_codes().astype(np.float64)
    subgradient *= factors[:, None, None]
    return float(np.add.reduce(norms)), subgradient


def plane_steps(plane_grads: np.ndarray, lr: float) -> np.ndarray:
    """Snapped per-plane step 2^(q_i - 1) in grid steps, 0 where the gradient is 0.

    That is the power of two nearest to lr * |g_i|, rounding at a frexp
    mantissa of sqrt(1/2) with ties up, taken on the float bits, so every
    step is exact. It agrees with rounding the frexp exponent wherever
    lr * |g_i| is a normal float; below 2^-1022 the step is 0 or 2^-1022.
    """
    # |g| * lr and |g * lr| round alike.
    steps = np.asarray(plane_grads, dtype=np.float64) * lr
    bits = steps.view(np.int64)
    bits += _ROUND_UP
    bits &= _EXPONENT
    return steps


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

    When no plane step reaches one grid step (most calls), the mask, the
    masked sum and the cap are skipped: each sub-step is at most 1/2, so
    the total is at most floor(b/2) + 1 <= 2^b - 1 and the cap cannot bind.
    The per-entry sums are taken first: where none reaches 1, no step does,
    so the full-size maximum over the steps is skipped too, and so is the
    floor of the sums, which is then +0 everywhere.
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
    p = np.add.reduce(work, axis=0)
    p_max = np.maximum.reduce(p, axis=None)
    # The steps are non-negative, so no step reaches 1 where their sum does
    # not; the full-size maximum runs only where some sum does.
    any_whole = p_max >= 1.0 and np.maximum.reduce(work, axis=None) >= 1.0
    if any_whole:
        whole = work >= 1.0
        whole_steps = np.add.reduce(work, axis=0, where=whole)
        # Steps are +0, powers of two or +inf, so the zeroed whole steps add
        # nothing to p.
        np.copyto(work, 0.0, where=whole)
        p = np.add.reduce(work, axis=0)

    # The steps are summed, so their buffer takes the weighted gradients: a
    # fresh full-size array per call costs more in page faults than in math.
    significance = PLANE_WEIGHTS[:b, None, None]
    nu = np.sign(np.add.reduce(np.multiply(significance, g, out=work), axis=0))
    tie = nu == 0.0
    if np.logical_or.reduce(tie, axis=None):
        nu[tie] = np.sign(gw[tie])

    draws = ctx.rng.random(p.shape)
    if p_max < 1.0:
        # Every sum lies in [0, 1), so the step is the draw's outcome alone.
        steps = np.less(draws, p, out=draws)
    else:
        steps = np.floor(p)
        p -= steps
        steps += np.less(draws, p, out=draws)
    if any_whole:
        # Whole numbers below the cap add exactly in any order, and a sum
        # that rounds is past the cap either way. q_i > b means a plane step
        # of at least 2^b, so saturating entries already sum past the cap.
        steps += whole_steps
        np.minimum(steps, (1 << b) - 1, out=steps)
    # -nu * step * steps, in place.
    np.negative(nu, out=nu)
    nu *= layer.step
    nu *= steps
    return nu


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
    # |ratio - k| in the ratio's buffer; written so that NaN fails it too.
    np.subtract(ratio, k, out=ratio)
    if not np.maximum.reduce(np.abs(ratio, out=ratio), axis=None) <= 1e-6:
        raise ValueError("delta is not a finite integer number of grid steps")
    # Whole numbers stay exact in float64; np.clip's Python wrapper costs
    # more here than the two ufuncs.
    codes = np.add(k, layer.codes, out=k)
    np.maximum(codes, 0.0, out=codes)
    np.minimum(codes, (1 << layer.bit_width) - 1, out=codes)
    # Whole numbers in [0, 2^b - 1] now: the uint8 cast is exact, so the
    # codes go straight to the constructor, whose checks all still run.
    return QuantizedLayer(codes.astype(np.uint8), layer.bit_width, layer.scale)


def sgd_step(
    layer: QuantizedLayer,
    grad_w: np.ndarray,
    ctx: UpdateContext,
    lasso_coeff: float = 0.0,
) -> QuantizedLayer:
    """One snapped step on the fixed-point grid from a buffered gradient.

    ``grad_w`` is the weight-space gradient after momentum and weight decay,
    as nn._train buffers it. It is spread over the planes, the (optionally
    weighted) group-Lasso subgradient is added there, and the combined plane
    gradients drive the snapped update. With lasso_coeff 0 this is
    fixed_point_delta followed by apply_update. A non-finite gradient
    raises ValueError before any RNG draw.

    ctx.lr is a plane-space rate, not a weight-space one: for a buffered
    gradient m, a range s and a grid step s / (2^b - 1), an entry moves by
    about s * P(lr * step * |m|) in weight space, P rounding to a power of
    two, and never by more than s. The same lr applied directly to weights,
    as local_update_dense does, is a far larger step.
    """
    if lasso_coeff < 0:
        raise ValueError("lasso_coeff must be non-negative")
    g = np.asarray(grad_w, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(g), axis=None):
        raise ValueError("gradient is not finite")
    plane_g = ste_backward(g, layer)
    if lasso_coeff > 0.0:
        plane_g += group_lasso(layer, lasso_coeff)[1]
    return apply_update(layer, fixed_point_delta(g, plane_g, ctx, layer))
