import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq.quant import QuantizedLayer, dequantize, quantize
from fedmpq.ste import (
    UpdateContext,
    apply_update,
    fixed_point_delta,
    group_lasso,
    plane_steps,
    sgd_step,
    ste_backward,
)

from helpers import max_value, plane_update_powers, planes, task_plane_grads


def unit_step_layer(code=2, scale=3.0, bits=2, shape=(1, 1)):
    """b=2 layer with s=3 so one grid step is exactly 1."""
    return QuantizedLayer.from_codes(np.full(shape, code), scale, bits)


def power_of_two(x: float) -> float:
    """plane_steps' rounding of one value at rate 1."""
    return float(plane_steps(np.array([x]), 1.0)[0])


class TestPowerOfTwo:
    """The power-of-two rounding of the snapped update, as plane_steps does it."""

    def test_exact_powers_fixed(self):
        assert power_of_two(1.0) == 1.0
        assert power_of_two(0.25) == 0.25
        assert power_of_two(2048.0) == 2048.0

    def test_rounding(self):
        # log2(0.3) = -1.737 -> -2; log2(3) = 1.585 -> 2
        assert power_of_two(0.3) == 0.25
        assert power_of_two(3.0) == 4.0

    def test_zero_maps_to_zero(self):
        assert power_of_two(0.0) == 0.0

    def test_sign_is_dropped(self):
        assert power_of_two(-0.3) == 0.25
        assert power_of_two(-3.0) == 4.0
        assert power_of_two(-0.0) == 0.0

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_agrees_with_log2_rounding(self, x):
        expected = 2.0 ** math.floor(math.log2(x) + 0.5)
        assert power_of_two(x) == expected

    @given(st.integers(-1000, 1000))
    def test_powers_are_fixed_points(self, e):
        x = math.ldexp(1.0, e)
        assert power_of_two(x) == x


class TestSteBackward:
    def test_zero_gradient(self):
        layer = quantize(np.random.default_rng(0).normal(size=(3, 3)), 4)
        grads = ste_backward(np.zeros((3, 3)), layer)
        np.testing.assert_array_equal(grads, 0.0)

    def test_unit_entry_two_bits(self):
        layer = unit_step_layer()
        grad = np.array([[1.0]])
        grads = ste_backward(grad, layer)
        assert grads[0, 0, 0] == 1.0
        assert grads[1, 0, 0] == 2.0

    def test_plane_ratio_is_two(self):
        rng = np.random.default_rng(5)
        layer = quantize(rng.normal(size=(4, 4)), 5)
        g = rng.normal(size=(4, 4))
        grads = ste_backward(g, layer)
        nz = g != 0
        for i in range(4):
            np.testing.assert_allclose(grads[i + 1][nz] / grads[i][nz], 2.0)

    def test_matches_closed_form_exactly(self):
        rng = np.random.default_rng(9)
        for bits in (1, 3, 8):
            layer = quantize(rng.normal(size=(5, 6)), bits)
            g = rng.normal(size=(5, 6))
            expected = task_plane_grads(g, layer)
            got = ste_backward(g, layer)
            assert np.abs(got - expected).max() <= 1e-12

    def test_shape_mismatch(self):
        layer = unit_step_layer()
        with pytest.raises(ValueError):
            ste_backward(np.zeros((2, 2)), layer)


class TestGroupLasso:
    def test_all_zero_planes(self):
        layer = QuantizedLayer.from_codes(np.zeros((3, 3), dtype=int), 1.0, 2)
        value, grads = group_lasso(layer)
        assert value == 0.0
        np.testing.assert_array_equal(grads, 0.0)

    def test_four_ones(self):
        codes = np.zeros((2, 4), dtype=int)
        codes[0] = 1
        layer = QuantizedLayer.from_codes(codes, 1.0, 1)
        value, grads = group_lasso(layer)
        assert value == pytest.approx(2.0)  # sqrt(4)
        np.testing.assert_array_equal(grads[0, 0], 0.5)
        np.testing.assert_array_equal(grads[0, 1], 0.0)

    def test_value_is_sum_of_sqrt_counts(self):
        rng = np.random.default_rng(2)
        layer = quantize(rng.normal(size=(6, 6)), 4)
        counts = layer.plane_counts()
        value, _ = group_lasso(layer)
        assert value == pytest.approx(sum(math.sqrt(c) for c in counts))


class TestUpdatePowers:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_task_only_powers_ascend_by_one(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(2, 9))
        layer = quantize(rng.normal(size=(4, 5)), bits)
        g = rng.normal(size=(4, 5)) * 10.0 ** rng.integers(-6, 4)
        q = plane_update_powers(task_plane_grads(g, layer), lr=0.1)
        nz = g != 0
        for i in range(bits - 1):
            assert np.array_equal(q[i + 1][nz], q[i][nz] + 1.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_task_only_fraction_below_one(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(1, 9))
        layer = quantize(rng.normal(size=(3, 4)), bits)
        g = rng.normal(size=(3, 4)) * 10.0 ** rng.integers(-8, 2)
        q = plane_update_powers(task_plane_grads(g, layer), lr=0.1)
        frac = np.where(np.isfinite(q) & (q <= 0), np.exp2(q - 1), 0.0).sum(axis=0)
        assert frac.max() < 1.0


class TestFixedPointDelta:
    def run_delta(self, g1, layer=None, lr=1.0, seed=0):
        layer = layer or unit_step_layer()
        grad_w = np.array([[g1]])
        grads = task_plane_grads(grad_w, layer)
        ctx = UpdateContext(lr=lr, rng=np.random.default_rng(seed))
        return fixed_point_delta(grad_w, grads, ctx, layer)[0, 0]

    def test_plain_update(self):
        # eta*|g1| = 1 -> powers {1, 2} -> delta = -(2^0 + 2^1) * step = -3
        assert self.run_delta(1.0) == -3.0
        assert self.run_delta(-1.0) == 3.0

    def test_clipped_update(self):
        # eta*|g1| = 4 -> max power 3 > bit width -> delta saturates at -s
        assert self.run_delta(4.0) == -3.0
        assert self.run_delta(-4.0) == 3.0

    def test_fractional_update_support_and_rate(self):
        # eta*|g1| = 0.25 -> powers {-1, 0}, p = 2^-2 + 2^-1 = 0.75;
        # the delta is one minimum step with that probability.
        draws = np.array([self.run_delta(0.25, seed=s) for s in range(4000)])
        assert set(np.unique(draws)) <= {0.0, -1.0}
        rate = float((draws == -1.0).mean())
        assert rate == pytest.approx(0.75, abs=3 * math.sqrt(0.75 * 0.25 / 4000))

    def test_zero_gradient_no_update(self):
        assert self.run_delta(0.0) == 0.0

    def test_bernoulli_is_unbiased_at_scale(self):
        # 10^5 draws at p = 0.75, empirical frequency within 3 sigma.
        layer = unit_step_layer(shape=(250, 400))
        grad_w = np.full((250, 400), 0.25)
        grads = task_plane_grads(grad_w, layer)
        ctx = UpdateContext(lr=1.0, rng=np.random.default_rng(123))
        delta = fixed_point_delta(grad_w, grads, ctx, layer)
        p = 0.75
        n = delta.size
        freq = float((delta == -1.0).mean())
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_magnitude_never_exceeds_scale(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(1, 9))
        layer = quantize(rng.normal(size=(4, 4)), bits)
        g = rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-4, 6)
        ctx = UpdateContext(lr=0.1, rng=rng)
        delta = fixed_point_delta(g, task_plane_grads(g, layer), ctx, layer)
        assert np.abs(delta).max() <= layer.scale + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_delta_lands_on_grid(self, seed):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(1, 9))
        layer = quantize(rng.normal(size=(3, 5)), bits)
        g = rng.normal(size=(3, 5)) * 10.0 ** rng.integers(-4, 6)
        ctx = UpdateContext(lr=0.1, rng=rng)
        delta = fixed_point_delta(g, task_plane_grads(g, layer), ctx, layer)
        steps = delta / layer.step
        np.testing.assert_allclose(steps, np.rint(steps), atol=1e-9)


class TestApplyUpdate:
    def test_zero_delta_is_identity(self):
        layer = quantize(np.random.default_rng(1).normal(size=(3, 3)), 4)
        updated = apply_update(layer, np.zeros((3, 3)))
        np.testing.assert_array_equal(updated.codes, layer.codes)

    def test_clip_at_maximum(self):
        layer = unit_step_layer(code=3)  # already at the top of the range
        updated = apply_update(layer, np.array([[1.0]]))
        assert updated.codes[0, 0] == 3
        assert dequantize(updated)[0, 0] == max_value(layer)

    def test_single_step_updates_planes(self):
        layer = unit_step_layer(code=1)
        updated = apply_update(layer, np.array([[1.0]]))
        assert updated.codes[0, 0] == 2
        bits = planes(updated)
        assert bits[0, 0, 0] == 0  # LSB
        assert bits[1, 0, 0] == 1  # MSB

    def test_off_grid_delta_rejected(self):
        layer = unit_step_layer()
        with pytest.raises(ValueError, match="grid"):
            apply_update(layer, np.array([[0.5]]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta_rejected(self, bad):
        layer = quantize(np.array([[0.5, -0.2]]), 4)  # codes [[15, 5]]
        with pytest.raises(ValueError, match="finite"):
            apply_update(layer, np.array([[bad, 0.0]]))

    def test_scale_and_zero_point_preserved(self):
        layer = unit_step_layer()
        updated = apply_update(layer, np.array([[-1.0]]))
        assert updated.scale == layer.scale
        assert updated.zero_point == layer.zero_point


class TestSgdStep:
    def test_reduces_to_delta_plus_apply(self):
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        layer = quantize(np.random.default_rng(4).normal(size=(4, 4)), 3)
        g = np.random.default_rng(5).normal(size=(4, 4))
        ctx = UpdateContext(lr=0.5, rng=rng_a)
        stepped = sgd_step(layer, g, ctx, lasso_coeff=0.0)
        ctx_ref = UpdateContext(lr=0.5, rng=rng_b)
        delta = fixed_point_delta(g, ste_backward(g, layer), ctx_ref, layer)
        reference = apply_update(layer, delta)
        np.testing.assert_array_equal(stepped.codes, reference.codes)

    def test_nan_gradient_rejected(self):
        layer = quantize(np.array([[0.5, -0.2]]), 4)
        ctx = UpdateContext(lr=0.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            sgd_step(layer, np.array([[np.nan, 1.0]]), ctx, lasso_coeff=0.01)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_rejected_before_momentum(self, bad):
        layer = quantize(np.array([[0.5, -0.2]]), 4)
        ctx = UpdateContext(lr=0.5, rng=np.random.default_rng(0))
        state = ctx.rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            sgd_step(layer, np.array([[bad, 1.0]]), ctx, lasso_coeff=0.01)
        assert ctx.rng.bit_generator.state == state

    def test_lasso_only_reduces_plane_mass(self):
        # With no task gradient the regularizer should drain ones from the
        # planes on average.
        rng = np.random.default_rng(8)
        layer = quantize(rng.normal(size=(20, 20)), 4)
        before = sum(layer.plane_counts())
        ctx = UpdateContext(lr=10.0, rng=np.random.default_rng(3))
        stepped = layer
        for _ in range(10):
            stepped = sgd_step(stepped, np.zeros((20, 20)), ctx, lasso_coeff=1.0)
        after = sum(stepped.plane_counts())
        assert after < before

    def test_invariants_hold_after_step(self):
        rng = np.random.default_rng(10)
        layer = quantize(rng.normal(size=(6, 6)), 5)
        ctx = UpdateContext(lr=0.3, rng=np.random.default_rng(1))
        stepped = sgd_step(layer, rng.normal(size=(6, 6)), ctx, lasso_coeff=0.01)
        assert stepped.zero_point == 1 << (stepped.bit_width - 1)
        assert stepped.codes.min() >= 0
        assert stepped.codes.max() <= (1 << stepped.bit_width) - 1
