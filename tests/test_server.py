import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq.quant import QuantizedLayer, dequantize, quantize, shift_add_matmul
from fedmpq.server import (
    ClientUpdate,
    aggregate,
    aggregation_weights,
    binary_representation,
    check_width_budget,
    pruning_growing,
    round_bitwidths,
)
from fedmpq.ste import group_lasso

from helpers import max_value, min_value


def make_update(client_id, weights, bits, num_samples, budget):
    layers = tuple(quantize(w, b) for w, b in zip(weights, bits))
    biases = tuple(np.zeros(w.shape[0]) for w in weights)
    return ClientUpdate(
        client_id=client_id,
        layers=layers,
        biases=biases,
        delivered_bits=tuple(bits),
        num_samples=num_samples,
        budget=budget,
    )


class TestConvertToFp:
    """aggregate converts each upload to full precision, so one client's
    average is its de-quantized upload."""

    def test_one_bit_values(self):
        layer = QuantizedLayer.from_codes(np.array([[0, 1]]), 2.5, 1)
        update = ClientUpdate(0, (layer,), (np.zeros(1),), (1,), 10, 2.0)
        np.testing.assert_array_equal(aggregate([update])[0][0], [[-2.5, 0.0]])

    def test_round_trip_bound(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(6, 4))
        update = make_update(0, [w], [6], 10, 6.0)
        layer = update.layers[0]
        clipped = np.clip(w, min_value(layer), max_value(layer))
        assert np.abs(aggregate([update])[0][0] - clipped).max() <= 0.5 * layer.step + 1e-12


class TestAggregate:
    def test_single_client_identity(self):
        rng = np.random.default_rng(2)
        update = make_update(3, [rng.normal(size=(4, 4))], [4], 50, 4.0)
        weights, _, bits = aggregate([update])
        np.testing.assert_array_equal(weights[0], dequantize(update.layers[0]))
        np.testing.assert_array_equal(bits, [4.0])

    def test_weighting_formula(self):
        # v = {2, 8}, |D| = {100, 100} gives p = {0.2, 0.8}, for quantized
        # uploads and for full-precision ones, which travel at 32 bits.
        rng = np.random.default_rng(3)
        wa, wb = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        quantized = (make_update(0, [wa], [2], 100, 2.0), make_update(1, [wb], [8], 100, 8.0))
        full = (
            ClientUpdate(0, (wa,), (np.zeros(3),), (32,), 100, 2.0),
            ClientUpdate(1, (wb,), (np.zeros(3),), (32,), 100, 8.0),
        )
        for a, b in (quantized, full):
            p = aggregation_weights([a, b])
            np.testing.assert_allclose(p, [0.2, 0.8])
            weights, _, bits = aggregate([a, b])
            expected = 0.2 * dequantize(a.layers[0]) + 0.8 * dequantize(b.layers[0])
            np.testing.assert_allclose(weights[0], expected)
            np.testing.assert_allclose(bits, [0.2 * a.bit_widths[0] + 0.8 * b.bit_widths[0]])
        np.testing.assert_array_equal(dequantize(full[0].layers[0]), wa)

    def test_equal_budgets_plain_average(self):
        rng = np.random.default_rng(4)
        ups = [make_update(i, [rng.normal(size=(3, 3))], [4], 25, 4.0) for i in range(4)]
        weights, _, _ = aggregate(ups)
        expected = sum(dequantize(u.layers[0]) for u in ups) / 4
        np.testing.assert_allclose(weights[0], expected)

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        ups = [make_update(i, [rng.normal(size=(3, 3))], [4], 10 + i, 4.0) for i in range(3)]
        forward_order, _, _ = aggregate(ups)
        reverse_order, _, _ = aggregate(ups[::-1])
        np.testing.assert_array_equal(forward_order[0], reverse_order[0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(6)
        ups = [
            make_update(i, [rng.normal(size=(2, 2))], [3], int(rng.integers(1, 500)), float(rng.integers(1, 9)))
            for i in range(6)
        ]
        assert aggregation_weights(ups).sum() == pytest.approx(1.0)
        assert (aggregation_weights(ups) > 0).all()


class TestRoundBitwidths:
    def test_integers_pass_through(self):
        np.testing.assert_array_equal(round_bitwidths([4.0]), [4])

    def test_half_to_even(self):
        np.testing.assert_array_equal(round_bitwidths([4.5, 5.5]), [4, 6])

    def test_nearest_and_clamp(self):
        np.testing.assert_array_equal(round_bitwidths([2.3, 7.9]), [2, 8])
        np.testing.assert_array_equal(round_bitwidths([0.2, 9.7]), [1, 8])


class TestPruningGrowing:
    def test_on_budget_unchanged(self):
        out = pruning_growing([4, 4], [0, 0], [10, 10], 4.0)
        np.testing.assert_array_equal(out, [4, 4])

    def test_hand_traced_pruning(self):
        # m = {100, 10}, start {4, 4}, budget 3: layer 0 is decremented
        # twice (4.0 -> 3.09 -> 2.18) and nothing grows back.
        out = pruning_growing([4, 4], [0, 0], [100, 10], 3.0)
        np.testing.assert_array_equal(out, [2, 4])

    def test_growing_saturates_at_cap(self):
        out = pruning_growing([8, 8, 8], [0, 0, 0], [5, 5, 5], 9.0)
        np.testing.assert_array_equal(out, [8, 8, 8])

    def test_growing_never_touches_top_priority_layer(self):
        out = pruning_growing([2, 2], [0, 0], [100, 10], 8.0)
        assert out[0] == 2
        assert out[1] == 8

    def test_reduction_history_reorders_priority(self):
        # Equal sizes: the layer pruned more locally is cut first.
        out = pruning_growing([4, 4], [0, 1], [50, 50], 3.5)
        np.testing.assert_array_equal(out, [4, 3])

    def test_priority_tie_prefers_lower_index(self):
        out = pruning_growing([4, 4], [0, 0], [50, 50], 3.5)
        np.testing.assert_array_equal(out, [3, 4])

    def test_fixed_point_when_exactly_on_budget(self):
        m = [100, 10]
        first = pruning_growing([4, 4], [0, 0], m, 3.0)
        v = float(first @ np.asarray(m)) / sum(m)
        if v == 3.0:
            second = pruning_growing(first, [0, 0], m, 3.0)
            np.testing.assert_array_equal(second, first)

    @given(st.integers(0, 100_000))
    @settings(max_examples=200)
    def test_random_instances_satisfy_postconditions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        bits = rng.integers(1, 9, n)
        delta = rng.integers(0, 4, n)
        m = rng.integers(1, 10_000, n)
        budget = float(rng.integers(1, 9))
        out = pruning_growing(bits, delta, m, budget)
        assert out.min() >= 1 and out.max() <= 8
        avg = float(out @ m) / m.sum()
        start = float(bits @ m) / m.sum()
        if start > budget:
            assert avg <= budget + 1e-12
        elif start < budget:
            assert avg < budget + m.max() / m.sum() + 1e-12
        else:
            np.testing.assert_array_equal(out, bits)
        np.testing.assert_array_equal(out, pruning_growing(bits, delta, m, budget))

    @given(st.integers(0, 100_000))
    @settings(max_examples=300)
    def test_matches_the_numpy_walk(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        # Small counts and few distinct deltas, so that priorities often tie.
        bits, delta = rng.integers(1, 9, n), rng.integers(0, 2, n)
        m = rng.integers(1, 4, n) * int(rng.choice([1, 1000]))
        budget = float(rng.choice([rng.integers(1, 9), rng.uniform(1, 8)]))
        out = pruning_growing(bits, delta, m, budget)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, _pruning_growing_numpy(bits, delta, m, budget))


def _pruning_growing_numpy(bits, delta_bits, param_counts, budget):
    """pruning_growing as it ran on numpy vectors: the reference."""
    b = np.asarray(bits, dtype=np.int64).copy()
    m = np.asarray(param_counts, dtype=np.int64)
    d = np.asarray(delta_bits, dtype=np.int64)
    order = np.argsort(-(m * (d + 1)), kind="stable")
    v = float(b @ m) / m.sum()
    if v > budget:
        cur = 0
        while v > budget and cur < len(m):
            if b[order[cur]] > 1:
                b[order[cur]] -= 1
                v = float(b @ m) / m.sum()
            else:
                cur += 1
    elif v < budget:
        cur = len(m) - 1
        while v < budget and cur > 0:
            if b[order[cur]] < 8:
                b[order[cur]] += 1
                v = float(b @ m) / m.sum()
            else:
                cur -= 1
    return b


class TestBinaryRepresentation:
    def test_round_trip_bound(self):
        rng = np.random.default_rng(9)
        weights = [rng.normal(size=(5, 4)), rng.normal(size=(3, 5))]
        layers = binary_representation(weights, [4, 6])
        for w, layer in zip(weights, layers):
            clipped = np.clip(w, min_value(layer), max_value(layer))
            assert np.abs(dequantize(layer) - clipped).max() <= 0.5 * layer.step + 1e-12

    def test_zero_layer_degenerate_scale(self):
        layers = binary_representation([np.zeros((2, 2))], [4])
        assert layers[0].scale == 1.0

    def test_initialization_uses_uniform_budget(self):
        rng = np.random.default_rng(10)
        weights = [rng.normal(size=(4, 4)), rng.normal(size=(2, 4))]
        layers = binary_representation(weights, [3, 3])
        assert [l.bit_width for l in layers] == [3, 3]
        assert [l.zero_point for l in layers] == [4, 4]

    def test_layers_without_grids_carry_no_memo(self):
        rng = np.random.default_rng(11)
        layers = binary_representation([rng.normal(size=(4, 3))] * 2, [2, 5])
        assert [l.memo for l in layers] == [None, None]


def _same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


class TestDeliveredMemo:
    """Layers delivered through ``grids`` share their plane stack and Lasso
    terms; every result must match an unshared copy of the layer bit for bit."""

    def delivered(self, bits, seed=12):
        rng = np.random.default_rng(seed)
        weights = [rng.normal(size=(9, 7)), rng.normal(size=(3, 9))]
        grids = {}
        layers = binary_representation(weights, [bits, bits], grids)
        assert binary_representation(weights, [bits, bits], grids) == layers
        assert all(l.memo == {} for l in layers)
        return layers

    @staticmethod
    def unshared(layer):
        return QuantizedLayer(layer.codes.copy(), layer.bit_width, layer.scale)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_group_lasso_matches_an_unshared_copy(self, bits):
        for layer in self.delivered(bits):
            plain = self.unshared(layer)
            for weight in (0.01 * layer.num_params / 90, 1.0):
                want_sum, want_grad = group_lasso(plain, weight)
                for _ in range(3):  # the first call fills the memo, the others read it
                    got_sum, got_grad = group_lasso(layer, weight)
                    assert got_sum == want_sum
                    _same_bytes(got_grad, want_grad)
            assert group_lasso(layer, 1.0)[1] is group_lasso(layer, 1.0)[1]

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_shift_add_matmul_matches_an_unshared_copy(self, bits):
        rng = np.random.default_rng(bits)
        for layer in self.delivered(bits):
            plain = self.unshared(layer)
            for _ in range(3):
                a = rng.uniform(0.0, 2.0, size=(layer.cols, 5))
                _same_bytes(shift_add_matmul(a, layer), shift_add_matmul(a, plain))
            _same_bytes(layer.plane_stack(), plain.plane_stack())

    def test_memo_arrays_are_read_only(self):
        layer = self.delivered(4)[0]
        group_lasso(layer, 0.5)
        shift_add_matmul(np.ones((layer.cols, 2)), layer)
        arrays = [layer.memo["planes"], layer.memo[0.5][1]]
        assert len(layer.memo) == 2
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0

    def test_unshared_layers_return_fresh_writable_arrays(self):
        plain = quantize(np.random.default_rng(13).normal(size=(4, 3)), 3)
        first, second = group_lasso(plain, 0.5)[1], group_lasso(plain, 0.5)[1]
        assert first is not second and first.flags.writeable
        assert plain.plane_stack().flags.writeable and plain.memo is None


class TestClientUpdateValidation:
    def test_rejects_width_growth(self):
        layers = (quantize(np.ones((2, 2)), 4), quantize(np.ones((2, 2)), 5))
        with pytest.raises(ValueError, match="only reduce"):
            ClientUpdate(0, layers, (np.zeros(2), np.zeros(2)), (4, 4), 10, 4.0)

    def test_budget_check_allows_one_growing_step(self):
        update = make_update(0, [np.ones((10, 10)), np.ones((2, 5))], [5, 8], 10, 5.0)
        update.check_budget(np.array([100, 10]))

    def test_budget_check_rejects_blowout(self):
        m = np.array([100, 10])
        update = make_update(3, [np.ones((10, 10)), np.ones((2, 5))], [8, 8], 10, 2.0)
        checks = (
            lambda: update.check_budget(m),
            lambda: check_width_budget(3, np.array([8, 8]), m, 2.0, "delivered widths"),
        )
        for check in checks:
            with pytest.raises(ValueError, match="client 3"):
                check()
