import math

import numpy as np
import pytest

from fedmpq.data import DataConfig, make_blobs
from fedmpq.nn import (
    Conv2dSpec,
    DenseModel,
    DenseSpec,
    ModelConfig,
    ModelSpec,
    QuantizedModel,
    TrainConfig,
    backward,
    build_model_spec,
    evaluate,
    forward,
    init_dense_model,
    local_objective,
    local_update,
    local_update_dense,
    quantize_model,
    softmax_cross_entropy,
)
from fedmpq.quant import dequantize
from fedmpq.ste import group_lasso


def tiny_mlp(rng, dims=(6, 5, 4), bits=6):
    spec = ModelSpec(
        tuple(DenseSpec(dims[i], dims[i + 1]) for i in range(len(dims) - 1)),
        (dims[0],),
        dims[-1],
    )
    dense = init_dense_model(spec, rng)
    return dense, quantize_model(dense, [bits] * (len(dims) - 1))


def tiny_conv(rng, bits=6):
    spec = ModelSpec(
        (Conv2dSpec(1, 3, 3), Conv2dSpec(3, 2, 3), DenseSpec(2 * 4 * 4, 5)),
        (1, 8, 8),
        5,
    )
    dense = init_dense_model(spec, rng)
    return dense, quantize_model(dense, [bits] * 3)


def numeric_gradients(model: DenseModel, x, y, act_bits=None, step=1e-3):
    """Central finite differences of the loss in each weight entry."""

    def loss_at(weights):
        probe = DenseModel(model.spec, weights, model.biases)
        logits, _ = forward(probe, x, act_bits)
        return softmax_cross_entropy(logits, y)[0]

    grads = []
    for l, w in enumerate(model.weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            bumped = [wi.copy() for wi in model.weights]
            bumped[l][idx] += step
            up = loss_at(bumped)
            bumped[l][idx] -= 2 * step
            down = loss_at(bumped)
            g[idx] = (up - down) / (2 * step)
        grads.append(g)
    return grads


class TestModelSpec:
    def test_shapes_must_compose(self):
        with pytest.raises(ValueError):
            ModelSpec((DenseSpec(4, 3), DenseSpec(5, 2)), (4,), 2)

    def test_final_width_is_class_count(self):
        with pytest.raises(ValueError):
            ModelSpec((DenseSpec(4, 3),), (4,), 2)

    def test_param_counts(self):
        spec = ModelSpec((DenseSpec(4, 3), DenseSpec(3, 2)), (4,), 2)
        assert spec.param_counts == (12, 6)
        assert spec.total_params == 18

    def test_conv_chain(self):
        spec = build_model_spec(
            ModelConfig(kind="conv", channels=(4, 4), kernel_size=3), (1, 10, 10), 3
        )
        assert spec.param_counts == (36, 144, 4 * 6 * 6 * 3)


class TestForward:
    def test_identity_single_layer(self):
        spec = ModelSpec((DenseSpec(3, 3),), (3,), 3)
        model = DenseModel(spec, [np.eye(3)], [np.zeros(3)])
        x = np.array([[1.0, -2.0, 0.5]])
        logits, _ = forward(model, x, act_bits=None)
        np.testing.assert_array_equal(logits, x)

    def test_zero_model_gives_uniform_softmax(self):
        spec = ModelSpec((DenseSpec(4, 6),), (4,), 6)
        model = DenseModel(spec, [np.zeros((6, 4))], [np.zeros(6)])
        x = np.random.default_rng(0).normal(size=(8, 4))
        logits, _ = forward(model, x, None)
        loss, _ = softmax_cross_entropy(logits, np.zeros(8, dtype=int))
        assert loss == pytest.approx(math.log(6))

    def test_quantized_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        dense, qmodel = tiny_mlp(rng)
        reference = DenseModel(
            qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases
        )
        x = rng.normal(size=(7, 6))
        for act_bits in (None, 4):
            got, _ = forward(qmodel, x, act_bits)
            want, _ = forward(reference, x, act_bits)
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_conv_quantized_matches_dense_reference(self):
        rng = np.random.default_rng(21)
        dense, qmodel = tiny_conv(rng)
        reference = DenseModel(
            qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases
        )
        x = rng.normal(size=(3, 1, 8, 8))
        got, _ = forward(qmodel, x, 4)
        want, _ = forward(reference, x, 4)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_feature_mismatch(self):
        spec = ModelSpec((DenseSpec(3, 3),), (3,), 3)
        model = DenseModel(spec, [np.eye(3)], [np.zeros(3)])
        with pytest.raises(ValueError):
            forward(model, np.ones((2, 4)), None)


class TestBackward:
    def test_uniform_prediction_logit_gradient(self):
        spec = ModelSpec((DenseSpec(4, 5),), (4,), 5)
        model = DenseModel(spec, [np.zeros((5, 4))], [np.zeros(5)])
        x = np.ones((1, 4))
        logits, cache = forward(model, x, None)
        _, dlogits = softmax_cross_entropy(logits, np.array([2]))
        expected = np.full(5, 1 / 5)
        expected[2] -= 1.0
        np.testing.assert_allclose(dlogits[0], expected, atol=1e-12)

    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(3)
        dense, _ = tiny_mlp(rng)
        x = rng.normal(size=(4, 6))
        _, cache = forward(dense, x, None)
        grads_w, grads_b = backward(cache, np.zeros((4, 4)))
        for g in grads_w:
            np.testing.assert_array_equal(g, 0.0)

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        dense, qmodel = tiny_mlp(rng, dims=(5, 4, 3), bits=7)
        work = DenseModel(qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        logits, cache = forward(work, x, None)
        _, dlogits = softmax_cross_entropy(logits, y)
        grads_w, _ = backward(cache, dlogits)
        numeric = numeric_gradients(work, x, y)
        for got, want in zip(grads_w, numeric):
            denom = np.maximum(np.abs(want), 1e-6)
            assert (np.abs(got - want) / denom).max() <= 1e-4

    def test_conv_matches_finite_differences(self):
        rng = np.random.default_rng(44)
        dense, qmodel = tiny_conv(rng, bits=7)
        work = DenseModel(qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases)
        x = rng.normal(size=(2, 1, 8, 8))
        y = rng.integers(0, 5, size=2)
        logits, cache = forward(work, x, None)
        _, dlogits = softmax_cross_entropy(logits, y)
        grads_w, _ = backward(cache, dlogits)
        numeric = numeric_gradients(work, x, y)
        for got, want in zip(grads_w, numeric):
            denom = np.maximum(np.abs(want), 1e-6)
            assert (np.abs(got - want) / denom).max() <= 1e-4


class TestLocalObjective:
    def test_zero_coefficient_equals_task_loss(self):
        rng = np.random.default_rng(8)
        _, qmodel = tiny_mlp(rng)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 4, size=5)
        logits, _ = forward(qmodel, x, 4)
        task, _ = softmax_cross_entropy(logits, y)
        assert local_objective(qmodel, x, y, 0.0) == pytest.approx(task)

    def test_layer_weights_sum_to_one(self):
        spec = ModelSpec((DenseSpec(4, 3), DenseSpec(3, 2)), (4,), 2)
        counts = spec.param_counts
        assert sum(c / spec.total_params for c in counts) == pytest.approx(1.0)

    def test_hand_computed_regularizer(self):
        rng = np.random.default_rng(8)
        _, qmodel = tiny_mlp(rng)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 4, size=5)
        lam = 0.3
        base = local_objective(qmodel, x, y, 0.0)
        counts = qmodel.spec.param_counts
        total = qmodel.spec.total_params
        reg = sum(
            (c / total) * group_lasso(layer)[0]
            for c, layer in zip(counts, qmodel.layers)
        )
        assert local_objective(qmodel, x, y, lam) == pytest.approx(base + lam * reg)

    def test_affine_increasing_in_coefficient(self):
        rng = np.random.default_rng(8)
        _, qmodel = tiny_mlp(rng)
        x = rng.normal(size=(5, 6))
        y = rng.integers(0, 4, size=5)
        values = [local_objective(qmodel, x, y, lam) for lam in (0.0, 0.5, 1.0)]
        assert values[0] <= values[1] <= values[2]
        assert values[2] - values[1] == pytest.approx(values[1] - values[0])


@pytest.fixture(scope="module")
def blob_shard():
    data = make_blobs(
        DataConfig(train_samples=120, test_samples=60, features=8, classes=4, cluster_std=0.8),
        seed=5,
    )
    return data


class TestLocalUpdate:
    def cfg(self, **kw):
        defaults = dict(
            local_epochs=2,
            batch_size=16,
            learning_rate=0.5,
            lasso_coeff=0.0,
            prune_threshold=0.0,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def model(self, bits=5):
        spec = ModelSpec((DenseSpec(8, 10), DenseSpec(10, 4)), (8,), 4)
        dense = init_dense_model(spec, np.random.default_rng([5, 202]))
        return quantize_model(dense, [bits, bits])

    def test_widths_unchanged_without_pruning_triggers(self, blob_shard):
        model = self.model()
        trained, widths = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(),
            np.random.default_rng(0),
        )
        assert widths == (5, 5)

    def test_threshold_one_prunes_to_single_bit(self, blob_shard):
        model = self.model()
        _, widths = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(prune_threshold=1.0),
            np.random.default_rng(0),
        )
        assert widths == (1, 1)

    def test_widths_never_increase(self, blob_shard):
        model = self.model(bits=3)
        _, widths = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(prune_threshold=0.2),
            np.random.default_rng(1),
        )
        assert all(1 <= w <= 3 for w in widths)

    def test_empty_shard_returns_model_unchanged(self):
        model = self.model()
        trained, widths = local_update(
            model,
            np.empty((0, 8)),
            np.empty(0, dtype=int),
            self.cfg(),
            np.random.default_rng(0),
        )
        assert trained is model
        assert widths == (5, 5)

    def test_determinism(self, blob_shard):
        outs = []
        for _ in range(2):
            trained, _ = local_update(
                self.model(),
                blob_shard.train_x,
                blob_shard.train_y,
                self.cfg(lasso_coeff=0.01),
                np.random.default_rng([7, 3]),
                use_lasso=True,
            )
            outs.append(trained)
        for a, b in zip(outs[0].layers, outs[1].layers):
            np.testing.assert_array_equal(a.codes, b.codes)
        for a, b in zip(outs[0].biases, outs[1].biases):
            np.testing.assert_array_equal(a, b)

    def test_training_reduces_loss(self, blob_shard):
        model = self.model(bits=6)
        before = local_objective(model, blob_shard.train_x, blob_shard.train_y, 0.0)
        trained, _ = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(local_epochs=5),
            np.random.default_rng(2),
        )
        after = local_objective(trained, blob_shard.train_x, blob_shard.train_y, 0.0)
        assert after < before


class TestLocalUpdateDense:
    def test_one_minibatch_is_one_sgd_step(self, blob_shard):
        # With zero momentum buffers the first step is w - lr * (g + wd * w).
        spec = ModelSpec((DenseSpec(8, 10), DenseSpec(10, 4)), (8,), 4)
        model = init_dense_model(spec, np.random.default_rng([5, 202]))
        before = [w.copy() for w in model.weights]
        x, y = blob_shard.train_x, blob_shard.train_y
        cfg = TrainConfig(local_epochs=1, batch_size=len(y), learning_rate=0.1, weight_decay=0.01)
        trained = local_update_dense(model, x, y, cfg, np.random.default_rng(4))

        order = np.random.default_rng(4).permutation(len(y))
        logits, cache = forward(model, x[order], None)
        _, dlogits = softmax_cross_entropy(logits, y[order])
        grads_w, grads_b = backward(cache, dlogits)
        pairs = [(trained.weights, model.weights, grads_w), (trained.biases, model.biases, grads_b)]
        lr, wd = cfg.learning_rate, cfg.weight_decay
        for got, start, grads in pairs:
            for p, p0, g in zip(got, start, grads):
                np.testing.assert_array_equal(p, p0 - lr * (g + wd * p0))
        for w, w0 in zip(model.weights, before):
            np.testing.assert_array_equal(w, w0)


class TestEvaluate:
    def test_chance_level_for_random_model(self):
        data = make_blobs(
            DataConfig(train_samples=10, test_samples=4000, features=6, classes=10, cluster_std=1.0),
            seed=9,
        )
        spec = ModelSpec((DenseSpec(6, 10),), (6,), 10)
        model = init_dense_model(spec, np.random.default_rng(0))
        _, acc = evaluate(model, data.test_x, data.test_y)
        assert abs(acc - 0.1) < 0.05

    def test_perfect_logits(self):
        spec = ModelSpec((DenseSpec(3, 3),), (3,), 3)
        model = DenseModel(spec, [np.eye(3) * 100.0], [np.zeros(3)])
        x = np.eye(3)
        y = np.arange(3)
        _, acc = evaluate(model, x, y)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec((DenseSpec(3, 3),), (3,), 3)
        model = DenseModel(spec, [np.eye(3)], [np.zeros(3)])
        with pytest.raises(ValueError):
            evaluate(model, np.empty((0, 3)), np.empty(0, dtype=int))

    def test_repeat_evaluations_identical(self, blob_shard):
        spec = ModelSpec((DenseSpec(8, 4),), (8,), 4)
        model = init_dense_model(spec, np.random.default_rng(3))
        first = evaluate(model, blob_shard.test_x, blob_shard.test_y)
        second = evaluate(model, blob_shard.test_x, blob_shard.test_y)
        assert first == second
