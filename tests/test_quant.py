from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq.quant import (
    QuantizedLayer,
    average_bits,
    dequantize,
    plane_density,
    prune_msbs,
    quantize,
    quantize_activations,
    shift_add_matmul,
)

from helpers import max_value, min_value


def layer_from_code_grid(codes, scale, bits):
    return QuantizedLayer.from_codes(np.asarray(codes), scale, bits)


class TestAverageBits:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 32), st.integers(1, 10**7)), min_size=1, max_size=6))
    def test_exact_weighted_mean_rounded_once(self, pairs):
        widths, counts = zip(*pairs)
        exact = Fraction(sum(w * c for w, c in pairs), sum(counts))
        assert average_bits(widths, counts) == float(exact)


class TestDequantize:
    def test_code_at_zero_point_is_zero(self):
        layer = layer_from_code_grid([[2]], 1.0, 2)
        assert dequantize(layer)[0, 0] == 0.0

    def test_two_bit_code_above_zero_point(self):
        # s/(2^b-1) * (code - z) = (3/3) * (3 - 2)
        layer = layer_from_code_grid([[3]], 3.0, 2)
        assert dequantize(layer)[0, 0] == 1.0

    def test_one_bit_code_zero(self):
        # (1/1) * (0 - 1)
        layer = layer_from_code_grid([[0]], 1.0, 1)
        assert dequantize(layer)[0, 0] == -1.0

    def test_full_two_bit_grid(self):
        layer = layer_from_code_grid([[0, 1, 2, 3]], 3.0, 2)
        np.testing.assert_array_equal(dequantize(layer), [[-2.0, -1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_every_code_matches_widened_integers(self, bits):
        # Every code of the width, on steps whose products round (their
        # mantissas use more than 20 bits): the float zero point must give
        # the bits of the int64 difference.
        codes = np.arange(1 << bits, dtype=np.uint8).reshape(1, -1)
        for scale in (0.1, 1 / 3, np.pi, 7.3, 1234.567):
            layer = QuantizedLayer(codes, bits, scale)
            mantissa, _ = np.frexp(layer.step)
            assert mantissa * 2**20 % 1 != 0
            want = layer.step * (codes.astype(np.int64) - layer.zero_point)
            assert layer.values().tobytes() == want.tobytes()


class TestLayerInvariants:
    def test_zero_point_is_forced(self):
        # The zero point follows from the width; no other value can be given or set.
        layer = QuantizedLayer.from_codes(np.zeros((1, 2), dtype=int), 1.0, 2)
        assert layer.zero_point == 2
        with pytest.raises(TypeError):
            QuantizedLayer(np.zeros((1, 2), dtype=np.uint8), 2, 1.0, 3)
        with pytest.raises(AttributeError):
            layer.zero_point = 3

    def test_bit_width_bounds(self):
        with pytest.raises(ValueError):
            QuantizedLayer.from_codes(np.zeros((1, 1), dtype=int), 1.0, 9)

    @pytest.mark.parametrize("code, bits", [(4, 2), (-1, 8), (256, 8)])
    def test_codes_must_fit_the_width(self, code, bits):
        with pytest.raises(ValueError, match="out of range"):
            QuantizedLayer.from_codes(np.full((1, 2), code), 1.0, bits)

    @pytest.mark.parametrize(
        "codes",
        [[[1.5, 2.9]], [[np.nan, 1.0]], [[1.0, 2.0]], [[True, False]]],
        ids=["fractional", "nan", "whole-floats", "bool"],
    )
    def test_codes_must_be_integers(self, codes):
        # The uint8 cast would truncate 1.5 and 2.9 to 1 and 2, and a NaN
        # passes both range tests.
        with pytest.raises(ValueError, match="integers"):
            QuantizedLayer.from_codes(np.array(codes), 1.0, 2)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            QuantizedLayer.from_codes(np.zeros((1, 1), dtype=int), 0.0, 2)

    def test_planes_are_immutable(self):
        layer = quantize(np.ones((2, 2)), 4)
        with pytest.raises(ValueError):
            layer.codes[0, 0] = 15


class TestQuantize:
    def test_all_zero_weights(self):
        layer = quantize(np.zeros((3, 4)), 4)
        assert layer.scale == 1.0
        np.testing.assert_array_equal(layer.codes, np.full((3, 4), 8))
        np.testing.assert_array_equal(dequantize(layer), np.zeros((3, 4)))

    def test_range_covering_policy_reaches_min(self):
        w = np.array([[-0.7, 0.3]])
        layer = quantize(w, 3)
        assert min_value(layer) == pytest.approx(-0.7)

    def test_ties_round_to_larger_code(self):
        # max|w| = 1 at 2 bits gives s = 1.5 and step = 1/2, so the grid is
        # {-1, -1/2, 0, 1/2}; -1/4 is midway between codes 1 and 2 and must
        # land on 2.
        w = np.array([[1.0, -0.25]])
        layer = quantize(w, 2)
        assert layer.step == 0.5
        assert layer.codes[0, 1] == 2

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_round_trip_half_step_bound(self, bits):
        rng = np.random.default_rng(7)
        w = rng.uniform(-1, 1, (13, 9))
        layer = quantize(w, bits)
        clipped = np.clip(w, min_value(layer), max_value(layer))
        err = np.abs(dequantize(layer) - clipped).max()
        assert err <= 0.5 * layer.step + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([[np.nan]]), 4)


class TestShiftAddMatmul:
    def test_identity_activation_recovers_weights(self):
        rng = np.random.default_rng(0)
        layer = quantize(rng.normal(size=(5, 4)), 3)
        out = shift_add_matmul(np.eye(4), layer)
        np.testing.assert_allclose(out, dequantize(layer), rtol=1e-12)

    def test_all_zero_planes(self):
        # Every code 0 dequantizes to -s*z/(2^b-1); the product collapses
        # onto that constant times the activation column sums.
        layer = QuantizedLayer.from_codes(np.zeros((3, 4), dtype=int), 2.0, 3)
        a = np.arange(8, dtype=float).reshape(4, 2)
        expected = (-2.0 * 4 / 7) * a.sum(axis=0)[None, :].repeat(3, axis=0)
        np.testing.assert_allclose(shift_add_matmul(a, layer), expected, rtol=1e-12)

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(3)
        layer = quantize(rng.normal(size=(5, 4)), 2)
        a = rng.normal(size=(4, 3))
        dense = dequantize(layer) @ a
        shifted = shift_add_matmul(a, layer)
        np.testing.assert_allclose(shifted, dense, rtol=1e-6)

    def test_dimension_mismatch(self):
        layer = quantize(np.ones((2, 3)), 2)
        with pytest.raises(ValueError):
            shift_add_matmul(np.ones((4, 2)), layer)


class TestPlaneDensity:
    def test_all_zero_and_all_one(self):
        zero = QuantizedLayer.from_codes(np.zeros((2, 5), dtype=int), 1.0, 1)
        assert plane_density(zero) == (0.0,)
        ones = QuantizedLayer.from_codes(np.ones((2, 5), dtype=int), 1.0, 1)
        assert plane_density(ones) == (1.0,)

    def test_three_ones_in_ten(self):
        codes = np.zeros((2, 5), dtype=int)
        codes[0, :3] = 1
        layer = QuantizedLayer.from_codes(codes, 1.0, 1)
        assert layer.plane_counts() == [3]
        assert plane_density(layer) == (0.3,)

    @given(st.integers(0, 2**4 - 1), st.integers(1, 4))
    def test_counts_match_bit_expansion(self, code, bits):
        code %= 1 << bits
        layer = QuantizedLayer.from_codes(np.full((3, 3), code), 1.0, bits)
        expected = tuple(9 * ((code >> i) & 1) for i in range(bits))
        assert tuple(layer.plane_counts()) == expected

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_density_linearity_against_mean(self, seed):
        # The density-weighted power sum recovers the mean offset from the
        # grid minimum: mean(W) - min = step * sum_i 2^(i-1) * density_i.
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(1, 9))
        layer = quantize(rng.normal(size=(6, 7)), bits)
        dens = plane_density(layer)
        offset = layer.step * sum(
            (1 << i) * d for i, d in enumerate(dens)
        )
        assert offset == pytest.approx(dequantize(layer).mean() - min_value(layer), abs=1e-12)


def build_layer_with_densities(densities, bits, rows=10, cols=10, scale=1.0):
    """Layer whose plane i has exactly round(density_i * size) ones."""
    size = rows * cols
    planes = np.zeros((bits, size), dtype=np.uint8)
    rng = np.random.default_rng(42)
    for i, d in enumerate(densities):
        k = int(round(d * size))
        planes[i, rng.choice(size, k, replace=False)] = 1
    codes = np.tensordot(1 << np.arange(bits), planes.reshape(bits, rows, cols), axes=1)
    return QuantizedLayer.from_codes(codes, scale, bits)


class TestPruneMsbs:
    def test_four_bits_to_two(self):
        # Top two planes sit below the 0.4 threshold, the next does not.
        layer = build_layer_with_densities([0.6, 0.5, 0.3, 0.2], 4)
        pruned, width = prune_msbs(layer, 0.4)
        assert width == 2
        assert pruned.bit_width == 2
        assert pruned.zero_point == 2

    def test_dense_msb_is_kept(self):
        layer = build_layer_with_densities([0.2, 0.9], 2)
        pruned, width = prune_msbs(layer, 0.4)
        assert width == 2
        assert pruned is layer

    def test_one_bit_floor(self):
        layer = QuantizedLayer.from_codes(np.zeros((3, 3), dtype=int), 1.0, 1)
        pruned, width = prune_msbs(layer, 0.9)
        assert width == 1
        assert pruned is layer

    def test_epsilon_zero_prunes_only_empty_planes(self):
        empty_top = build_layer_with_densities([0.5, 0.4, 0.0], 3)
        _, width = prune_msbs(empty_top, 0.0)
        assert width == 2
        one_msb = build_layer_with_densities([0.5, 0.4, 0.01], 3)
        _, width = prune_msbs(one_msb, 0.0)
        assert width == 3

    def test_pruned_values_track_truncated_codes(self):
        # Entries without MSB ones keep their value to within half a step
        # of the new grid after re-quantization.
        layer = build_layer_with_densities([0.5, 0.5, 0.02], 3)
        pruned, width = prune_msbs(layer, 0.1)
        assert width == 2
        msb = layer.planes()[2].astype(bool)
        before = dequantize(layer)[~msb]
        after = dequantize(pruned)[~msb]
        assert np.abs(before - after).max() <= 0.5 * pruned.step + 1e-12

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_never_grows_and_respects_floor(self, seed, epsilon):
        rng = np.random.default_rng(seed)
        bits = int(rng.integers(1, 9))
        layer = quantize(rng.normal(size=(4, 5)), bits)
        pruned, width = prune_msbs(layer, epsilon)
        assert 1 <= width <= layer.bit_width
        assert pruned.bit_width == width
        assert pruned.zero_point == 1 << (width - 1)

    @pytest.mark.parametrize("densities, epsilon", [([0.5, 0.9], 0.4), ([0.5, 0.3, 0.1, 0.0], 0.2)])
    def test_reads_no_histogram(self, monkeypatch, densities, epsilon):
        # The walk counts only the planes it tests, whether it stops at a
        # dense top plane or drops sparse ones.
        layer = build_layer_with_densities(densities, len(densities))
        histograms = []
        counts = QuantizedLayer.plane_counts
        monkeypatch.setattr(
            QuantizedLayer, "plane_counts", lambda self: histograms.append(self) or counts(self)
        )
        prune_msbs(layer, epsilon)
        assert histograms == []

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_all_densities_walk(self, data):
        bits = data.draw(st.integers(1, 8), label="bits")
        rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        # Low codes with a few wide ones, so that top planes are often sparse.
        low = data.draw(st.integers(0, bits))
        codes = np.array(
            data.draw(st.lists(st.integers(0, (1 << low) - 1), min_size=rows * cols, max_size=rows * cols)),
            dtype=np.int64,
        ).reshape(rows, cols)
        for _ in range(data.draw(st.integers(0, 2))):
            r, c = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
            codes[r, c] = data.draw(st.integers(0, (1 << bits) - 1))
        layer = QuantizedLayer.from_codes(codes, data.draw(st.floats(0.01, 100.0)), bits)
        # Epsilons exactly at a plane's density, at both ends, and anywhere.
        epsilon = data.draw(
            st.one_of(st.sampled_from([0.0, 1.0, *plane_density(layer)]), st.floats(0.0, 1.0)),
            label="epsilon",
        )
        pruned, width = prune_msbs(layer, epsilon)
        want, want_width = _prune_msbs_all_densities(layer, epsilon)
        assert width == want_width == pruned.bit_width
        assert pruned.codes.tobytes() == want.codes.tobytes()
        assert pruned.scale == want.scale


def _prune_msbs_all_densities(layer, epsilon):
    """MSB pruning as it was before it counted planes lazily: every plane's
    density first, then the walk down from the top plane."""
    densities = plane_density(layer)
    width = layer.bit_width
    while width > 1 and densities[width - 1] <= epsilon:
        width -= 1
    if width == layer.bit_width:
        return layer, width
    kept = (layer.codes & ((1 << width) - 1)).astype(np.int64)
    return quantize(layer.step * (kept - layer.zero_point), width), width


class TestQuantizeActivations:
    def test_zero_tensor_unchanged(self):
        x = np.zeros((3, 3))
        np.testing.assert_array_equal(quantize_activations(x, 4), x)

    def test_grid_points_are_fixed(self):
        peak = 1.7
        x = np.arange(16) * (peak / 15)
        np.testing.assert_array_equal(quantize_activations(x, 4), x)

    def test_one_bit_snaps_to_extremes(self):
        x = np.array([1.0, 0.49, 0.51])
        np.testing.assert_array_equal(quantize_activations(x, 1), [1.0, 0.0, 1.0])

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=40)
    def test_idempotent(self, seed, bits):
        rng = np.random.default_rng(seed)
        x = np.abs(rng.normal(size=(4, 6)))
        once = quantize_activations(x, bits)
        twice = quantize_activations(once, bits)
        np.testing.assert_array_equal(once, twice)
