"""The snapped update against a frozen reference, bit for bit.

``_ref_plane_update_powers``, ``_ref_fixed_point_delta``, ``_ref_group_lasso``
and ``_ref_sgd_step`` are the earlier mask-per-case implementation, kept
verbatim (bar names and docstrings) as the oracle for the current one:
every delta, Lasso value and subgradient must match to the byte, and both
must leave the client RNG in the same state. ``_RefContext`` is the
optimizer state they ran on, momentum buffer included; the current
``sgd_step`` takes that buffer from the client loop instead.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq.quant import QuantizedLayer
from fedmpq.ste import (
    UpdateContext,
    apply_update,
    fixed_point_delta,
    group_lasso,
    plane_steps,
    sgd_step,
    ste_backward,
)

from helpers import plane_update_powers

_SQRT_HALF = math.sqrt(0.5)


@dataclass
class _RefContext:
    lr: float
    momentum: float
    weight_decay: float
    momentum_buffer: np.ndarray | None
    rng: np.random.Generator


def _nearest_pow2_exponent(x: np.ndarray) -> np.ndarray:
    """round(log2(x)) for strictly positive x, computed exactly via frexp."""
    m, e = np.frexp(x)
    return e - (m < _SQRT_HALF)


def _ref_group_lasso(layer: QuantizedLayer) -> tuple[float, np.ndarray]:
    planes = layer.planes().astype(np.float64)
    counts = planes.reshape(layer.bit_width, -1).sum(axis=1)
    norms = np.sqrt(counts)
    safe = np.where(norms > 0.0, norms, 1.0)
    return float(norms.sum()), planes / safe[:, None, None]


def _ref_plane_update_powers(plane_grads: np.ndarray, lr: float) -> np.ndarray:
    mag = lr * np.abs(plane_grads)
    q = np.full(mag.shape, -np.inf)
    nz = mag > 0
    if nz.any():
        q[nz] = 1.0 + _nearest_pow2_exponent(mag[nz])
    return q


def _ref_fixed_point_delta(
    grad_w: np.ndarray,
    plane_grads: np.ndarray,
    ctx: _RefContext,
    layer: QuantizedLayer,
) -> np.ndarray:
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

    q = _ref_plane_update_powers(g, ctx.lr)
    finite = np.isfinite(q)
    any_grad = finite.any(axis=0)
    max_q = np.where(finite, q, -np.inf).max(axis=0)
    clip_hit = any_grad & (max_q > b)

    significance = np.exp2(np.arange(b, dtype=np.float64))[:, None, None]
    nu = np.sign((significance * g).sum(axis=0))
    nu = np.where(nu == 0.0, np.sign(gw), nu)

    live = finite & ~clip_hit[None, :, :]
    whole = live & (q >= 1.0)
    frac = live & (q <= 0.0)
    steps = np.where(whole, np.exp2(np.where(whole, q, 1.0) - 1.0), 0.0).sum(axis=0)
    p = np.where(frac, np.exp2(np.where(frac, q, 0.0) - 1.0), 0.0).sum(axis=0)
    carry = np.floor(p)
    p = p - carry
    steps = steps + carry

    draw = ctx.rng.random(p.shape)
    steps = steps + (draw < p)
    cap = float((1 << b) - 1)
    steps = np.minimum(steps, cap)
    steps = np.where(clip_hit, cap, steps)
    return -nu * layer.step * steps


def _ref_sgd_step(
    layer: QuantizedLayer,
    grad_w_task: np.ndarray,
    ctx: _RefContext,
    lasso_coeff: float = 0.0,
) -> QuantizedLayer:
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
        _, lasso = _ref_group_lasso(layer)
        plane_g = plane_g + lasso_coeff * lasso
    delta = _ref_fixed_point_delta(combined, plane_g, ctx, layer)
    return apply_update(layer, delta)


# lr * |g| relative to one grid step: all below it, around it, past the range.
REGIMES = {"sub-step": (-30, -2), "whole-step": (-1, 6), "clip-hit": (8, 40)}


@st.composite
def snapped_cases(draw):
    """A layer, a weight gradient and plane gradients, with an lr in one regime.

    Some gradient entries are exactly zero; some plane gradients cancel
    exactly under the significance weighting, so the sign falls back on the
    weight gradient (itself sometimes zero there).
    """
    bits = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = QuantizedLayer.from_codes(rng.integers(0, 1 << bits, (rows, cols)), rng.uniform(0.1, 4.0), bits)
    grad_w = rng.normal(size=(rows, cols)) * 10.0 ** draw(st.integers(-8, 3))
    grad_w[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    plane_grads = ste_backward(grad_w, layer)
    if draw(st.booleans()):
        # Regularizer-like terms: any sign, any scale, zeros included.
        extra = rng.normal(size=plane_grads.shape) * 10.0 ** draw(st.integers(-8, 3))
        extra[rng.random(extra.shape) < 0.3] = 0.0
        plane_grads = plane_grads + extra
    if bits > 1 and draw(st.booleans()):
        # 1 * 2a + 2 * (-a) = 0 on the two lowest planes, nothing above.
        tie = rng.random((rows, cols)) < 0.5
        a = rng.normal(size=(rows, cols))
        plane_grads[:, tie] = 0.0
        plane_grads[0][tie] = 2.0 * a[tie]
        plane_grads[1][tie] = -a[tie]
    peak = np.abs(plane_grads).max()
    lo, hi = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    lr = math.ldexp(rng.uniform(0.5, 2.0), draw(st.integers(lo, hi)))
    lr = lr * layer.step / peak if peak > 0 else lr
    return layer, grad_w, plane_grads, lr


def _ref_ctx(lr: float, seed: int, momentum: float = 0.0, weight_decay: float = 0.0) -> _RefContext:
    return _RefContext(lr, momentum, weight_decay, None, np.random.default_rng(seed))


@given(snapped_cases(), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_fixed_point_delta_matches_reference(case, seed):
    layer, grad_w, plane_grads, lr = case
    ctx, ref = UpdateContext(lr, np.random.default_rng(seed)), _ref_ctx(lr, seed)
    got = fixed_point_delta(grad_w, plane_grads, ctx, layer)
    want = _ref_fixed_point_delta(grad_w, plane_grads, ref, layer)
    assert got.tobytes() == want.tobytes()
    assert ctx.rng.bit_generator.state == ref.rng.bit_generator.state
    powers = plane_update_powers(plane_grads, lr)
    assert powers.tobytes() == _ref_plane_update_powers(plane_grads, lr).tobytes()


def test_powers_round_at_sqrt_half_like_reference():
    # Mantissas on either side of the rounding point and at the ends of
    # their range, tiny and huge exponents, both signs and both zeros. The
    # bit rounding matches frexp's wherever lr * |g| is a normal float.
    edge = np.array([_SQRT_HALF, 2 * _SQRT_HALF, 0.5, 1.0, np.nextafter(1.0, 0.0), 2.0**-1010, 2.0**1010])
    x = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), [0.0, -0.0]])
    x = np.concatenate([x, -x]) * np.exp2(np.arange(-3, 4))[:, None]
    plane_grads = x.reshape(7, 2, -1)
    for lr in (1.0, 0.5, 0.75):
        got = plane_update_powers(plane_grads, lr)
        assert got.tobytes() == _ref_plane_update_powers(plane_grads, lr).tobytes()


@given(snapped_cases())
@settings(max_examples=200, deadline=None)
def test_group_lasso_matches_reference(case):
    layer = case[0]
    value, sub = group_lasso(layer)
    ref_value, ref_sub = _ref_group_lasso(layer)
    assert value == ref_value
    assert sub.tobytes() == ref_sub.tobytes()


@given(snapped_cases(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 0.3]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_sgd_step_matches_reference(case, seed, lasso_coeff, decay):
    # The client loop's buffer rule, m = momentum * m + (g + weight_decay * w),
    # as the reference accumulates it.
    layer, grad_w, _, lr = case
    momentum, weight_decay = (0.9, 5e-4) if decay else (0.0, 0.0)
    ctx, ref = UpdateContext(lr, np.random.default_rng(seed)), _ref_ctx(lr, seed, momentum, weight_decay)
    m = np.zeros((layer.rows, layer.cols))
    for _ in range(3):
        g = grad_w + weight_decay * layer.values() if decay else grad_w
        m = momentum * m + g
        got = sgd_step(layer, m, ctx, lasso_coeff)
        want = _ref_sgd_step(layer, grad_w, ref, lasso_coeff)
        assert got.codes.tobytes() == want.codes.tobytes()
        assert m.tobytes() == ref.momentum_buffer.tobytes()
        assert ctx.rng.bit_generator.state == ref.rng.bit_generator.state
        layer = got


@st.composite
def weighted_layers(draw):
    """A layer of any width 1-8, some planes empty, and a per-layer Lasso
    weight lasso_coeff * M_l / M as local_update forms it."""
    bits = draw(st.integers(1, 8))
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, 1 << bits, (rows, cols)) & rng.integers(0, 1 << bits)
    layer = QuantizedLayer.from_codes(codes, rng.uniform(0.1, 4.0), bits)
    coeff = draw(st.floats(1e-6, 10.0) | st.sampled_from([1e-3, 0.01, 0.1]))
    total = draw(st.integers(1, 10**6))
    return layer, coeff * draw(st.integers(1, total)) / total


@given(weighted_layers())
@settings(max_examples=500, deadline=None)
def test_group_lasso_weight_folds_bit_for_bit(case):
    # sgd_step adds group_lasso(layer, w)[1] where the reference added
    # w times the unweighted subgradient; the two must agree to the byte.
    layer, weight = case
    value, sub = group_lasso(layer, weight)
    ref_value, ref_sub = _ref_group_lasso(layer)
    assert value == ref_value
    assert sub.tobytes() == (ref_sub * weight).tobytes()


def _planes_of(steps, signs) -> np.ndarray:
    """Plane gradients, shape (b, 1, cols), whose snapped steps at lr 1 are
    ``steps`` (one row per plane), signed per entry."""
    return np.asarray(steps, dtype=np.float64)[:, None, :] * np.asarray(signs, dtype=np.float64)


# Named inputs for both paths of fixed_point_delta: (bits, per-plane steps,
# per-entry signs). The sub-step-only ones carry whole steps out of the
# sub-step total without any plane step reaching 1; one plane alone (b = 1)
# cannot carry, so that case covers the largest single sub-step.
FIXED_CASES = {
    "sub-step-b1": (1, [[0.5, 0.25, 2.0**-20, 0.0]], [1, -1, 1, -1]),
    "carry-b2": (2, [[0.5, 0.5, 0.25, 0.0], [0.5, 0.25, 0.5, 0.5]], [-1, 1, 1, -1]),
    "carry-b8-all-halves": (8, [[0.5] * 4] * 8, [1, -1, -1, 1]),
    "carry-b8-mixed": (8, [[0.5, 0.25, 0.125, 0.0]] * 4 + [[0.5, 0.5, 2.0**-9, 0.25]] * 4, [1, 1, -1, -1]),
    "whole-step": (4, [[1.0, 0.5, 0.25, 0.0], [2.0, 0.5, 0.0, 0.125], [0.0, 4.0, 0.5, 0.0], [0.5, 0.0, 0.5, 0.5]],
                   [1, -1, 1, -1]),
    "clip-hit": (3, [[16.0, 0.5, 0.25, 0.0], [0.5, 1.0, 0.0, 0.125], [0.0, 0.5, 64.0, 0.25]], [-1, 1, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(FIXED_CASES))
def test_fixed_point_delta_named_cases(name):
    bits, steps, signs = FIXED_CASES[name]
    plane_grads = _planes_of(steps, signs)
    cols = plane_grads.shape[2]
    layer = QuantizedLayer.from_codes(np.arange(cols)[None, :] % (1 << bits), 1.7, bits)
    grad_w = np.asarray(signs, dtype=np.float64)[None, :]
    assert plane_steps(plane_grads, 1.0).tobytes() == np.abs(plane_grads).tobytes()
    sub_steps_only = np.abs(plane_grads).max() < 1.0
    assert sub_steps_only == name.startswith(("sub-step", "carry"))
    if name.startswith("carry"):
        assert np.abs(plane_grads).sum(axis=0).max() >= 1.0
    for seed in range(5):
        ctx, ref = UpdateContext(1.0, np.random.default_rng(seed)), _ref_ctx(1.0, seed)
        got = fixed_point_delta(grad_w, plane_grads, ctx, layer)
        want = _ref_fixed_point_delta(grad_w, plane_grads, ref, layer)
        assert got.tobytes() == want.tobytes()
        assert ctx.rng.bit_generator.state == ref.rng.bit_generator.state
