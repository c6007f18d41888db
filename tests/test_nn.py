import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fedmpq.data import DataConfig, make_blobs
from fedmpq.nn import (
    Conv2dSpec,
    DenseSpec,
    Model,
    ModelConfig,
    ModelSpec,
    TrainConfig,
    _col2im,
    backward,
    build_model_spec,
    evaluate,
    forward,
    init_dense_model,
    local_update,
    local_update_dense,
    softmax_cross_entropy,
)
from fedmpq.quant import QuantizedLayer, dequantize, wire_bits
from fedmpq.server import binary_representation
from fedmpq.ste import UpdateContext, group_lasso, sgd_step

from helpers import local_objective


def quantized(dense: Model, widths) -> Model:
    """The dense model on fresh grids at ``widths``, biases copied."""
    return Model(dense.spec, binary_representation(dense.layers, widths), [b.copy() for b in dense.biases])


def tiny_mlp(rng, dims=(6, 5, 4), bits=6):
    spec = ModelSpec(
        tuple(DenseSpec(dims[i], dims[i + 1]) for i in range(len(dims) - 1)),
        (dims[0],),
        dims[-1],
    )
    dense = init_dense_model(spec, rng)
    return dense, quantized(dense, [bits] * (len(dims) - 1))


def tiny_conv(rng, bits=6):
    spec = ModelSpec(
        (Conv2dSpec(1, 3, 3), Conv2dSpec(3, 2, 3), DenseSpec(2 * 4 * 4, 5)),
        (1, 8, 8),
        5,
    )
    dense = init_dense_model(spec, rng)
    return dense, quantized(dense, [bits] * 3)


def numeric_gradients(model: Model, x, y, act_bits=None, step=1e-3):
    """Central finite differences of the loss in each weight entry."""

    def loss_at(weights):
        probe = Model(model.spec, weights, model.biases)
        logits, _ = forward(probe, x, act_bits)
        return softmax_cross_entropy(logits, y)[0]

    grads = []
    for l, w in enumerate(model.layers):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            bumped = [wi.copy() for wi in model.layers]
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
        model = Model(spec, [np.eye(3)], [np.zeros(3)])
        x = np.array([[1.0, -2.0, 0.5]])
        logits, _ = forward(model, x, act_bits=None)
        np.testing.assert_array_equal(logits, x)

    def test_zero_model_gives_uniform_softmax(self):
        spec = ModelSpec((DenseSpec(4, 6),), (4,), 6)
        model = Model(spec, [np.zeros((6, 4))], [np.zeros(6)])
        x = np.random.default_rng(0).normal(size=(8, 4))
        logits, _ = forward(model, x, None)
        loss, _ = softmax_cross_entropy(logits, np.zeros(8, dtype=int))
        assert loss == pytest.approx(math.log(6))

    def test_quantized_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        dense, qmodel = tiny_mlp(rng)
        reference = Model(
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
        reference = Model(
            qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases
        )
        x = rng.normal(size=(3, 1, 8, 8))
        got, _ = forward(qmodel, x, 4)
        want, _ = forward(reference, x, 4)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_feature_mismatch(self):
        spec = ModelSpec((DenseSpec(3, 3),), (3,), 3)
        model = Model(spec, [np.eye(3)], [np.zeros(3)])
        with pytest.raises(ValueError):
            forward(model, np.ones((2, 4)), None)


class TestBackward:
    def test_uniform_prediction_logit_gradient(self):
        spec = ModelSpec((DenseSpec(4, 5),), (4,), 5)
        model = Model(spec, [np.zeros((5, 4))], [np.zeros(5)])
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
        work = Model(qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases)
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
        work = Model(qmodel.spec, [dequantize(l) for l in qmodel.layers], qmodel.biases)
        x = rng.normal(size=(2, 1, 8, 8))
        y = rng.integers(0, 5, size=2)
        logits, cache = forward(work, x, None)
        _, dlogits = softmax_cross_entropy(logits, y)
        grads_w, _ = backward(cache, dlogits)
        numeric = numeric_gradients(work, x, y)
        for got, want in zip(grads_w, numeric):
            denom = np.maximum(np.abs(want), 1e-6)
            assert (np.abs(got - want) / denom).max() <= 1e-4


# SHA-256 of the logits, then each layer's weight gradient, then each bias
# gradient, for tiny_conv at seed 61 on one fixed batch of four images.
CONV_DIGESTS = {
    "quantized": (
        "6d1a305997f487c71f0328f495095cecdaf3f6b044223f6084f08a5c53645749",
        "8c9d5c3e6f6f5b5b60923dbbc7e12f2aa771acf7b6ed27788d8544bbedf2e7d0",
        "05d77bbb2863b32e6ed0e5867bf457e2ce49032c6e6ba85c4e469bb4ea4a5ea4",
        "a8997929710b8bcbdc02f826f426ab60786226584ce3a96e249c8e10f8c2bd8f",
        "7fab75fd86973dd936800897e69637e21900db4f703e6e0528e5564502226897",
        "fbd3106111b59c3de920d346fb2b1263909579c97ac97983ddb1629917b81ad5",
        "ef435889f2750a92acb420065a3a73e110b133bdef23c1d136a08655c1d320d7",
    ),
    "real": (
        "9352f6c4ae68bc84a4e0fb08f3598c09f4fbb67286154f06ea9982417554d930",
        "ca44b88587f21ae4bc0e33e281ea63b2dfea3e4bb8256f0e9333dc196456e5c2",
        "62d45a4e1e8dbdc28aca76fbf62610ab3df744d9d8f70c04b3882eecb4417c6c",
        "a4309aa0fed63c55ce85997e5e3110fd8ca2e99c276d837263bf6943131859be",
        "96f0ebf564d591bdfd39bac95db6df69105938253e25432179196bbdda93a306",
        "2686b0c2e322dec15fcacc86b37d406254f04ccac435792ea6e3ccb3cf17cec7",
        "1e5fb6b9c2d26c52821244705d2778f11e4e6ce4ac353f8633fb1414cd6bae8e",
    ),
}


def test_conv_path_is_byte_identical():
    """Pins the conv forward and backward bits; no golden run has a conv layer."""
    rng = np.random.default_rng(61)
    dense, qmodel = tiny_conv(rng)
    x = rng.normal(size=(4, 1, 8, 8))
    y = rng.integers(0, 5, size=4)
    for name, model, act_bits in (("quantized", qmodel, 4), ("real", dense, None)):
        logits, cache = forward(model, x, act_bits)
        _, dlogits = softmax_cross_entropy(logits, y)
        grads_w, grads_b = backward(cache, dlogits)
        digests = tuple(
            hashlib.sha256(a.tobytes()).hexdigest() for a in (logits, *grads_w, *grads_b)
        )
        assert digests == CONV_DIGESTS[name], name


def reference_backward(cache, dlogits):
    """backward as it was written before the in-place mask: the kept oracle."""
    specs = cache.spec.layers
    grads_w, grads_b = [None] * len(specs), [None] * len(specs)
    delta = dlogits
    for idx in range(len(specs) - 1, -1, -1):
        spec = specs[idx]
        rows, x_shape = cache.inputs[idx]
        if isinstance(spec, Conv2dSpec):
            delta = delta.transpose(0, 2, 3, 1).reshape(-1, spec.out_channels)
        grads_w[idx] = delta.T @ rows
        grads_b[idx] = delta.sum(axis=0)
        if idx == 0:
            break
        da = delta @ cache.weights[idx]
        if isinstance(spec, Conv2dSpec):
            da = _col2im(da, x_shape, spec.kernel_size)
        relu = cache.outputs[idx - 1]
        delta = da.reshape(relu.shape) * (relu > 0.0)
    return grads_w, grads_b


class ProductIs:
    """Stands in for a weight matrix whose product with the delta is ``da``,
    so that each special value sits where the test puts it."""

    def __init__(self, da):
        self.da = da

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        assert ufunc is np.matmul
        return self.da.copy()


def assert_same_bits(got, want):
    """Weight, then bias gradients, compared by their bits."""
    for g, w in zip([*got[0], *got[1]], [*want[0], *want[1]], strict=True):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


class TestBackwardMaskBits:
    """backward's in-place mask gives the bits of ``da * (relu > 0.0)``."""

    def batch(self, seed, model, shape):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        y = rng.integers(0, model.spec.num_classes, size=shape[0])
        logits, cache = forward(model, x, 4)
        return cache, softmax_cross_entropy(logits, y)[1]

    def test_quantized_cache_with_transposed_outputs(self):
        _, qmodel = tiny_mlp(np.random.default_rng(71), dims=(6, 9, 7, 4))
        cache, dlogits = self.batch(72, qmodel, (11, 6))
        assert all(o.flags.f_contiguous and not o.flags.c_contiguous for o in cache.outputs)
        assert_same_bits(backward(cache, dlogits), reference_backward(cache, dlogits))

    def test_conv_cache_with_strided_outputs(self):
        _, qmodel = tiny_conv(np.random.default_rng(73))
        cache, dlogits = self.batch(74, qmodel, (3, 1, 8, 8))
        assert not any(o.flags.contiguous for o in cache.outputs[:2])
        assert_same_bits(backward(cache, dlogits), reference_backward(cache, dlogits))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_signed_zeros_nan_and_inf_in_da(self):
        _, qmodel = tiny_mlp(np.random.default_rng(75), dims=(6, 9, 4))
        cache, dlogits = self.batch(76, qmodel, (5, 6))
        rng = np.random.default_rng(77)
        # Written in place, so the ReLU output keeps its transposed layout.
        relu = cache.outputs[0]
        relu[...] = np.maximum(rng.normal(size=relu.shape), 0.0)
        relu[:, 0] = relu[:, 2] = 0.0
        relu[:, 1] = 1.0
        da = rng.normal(size=relu.shape)
        # A stopped -x gives -0.0, but no gradient can show it: numpy's
        # reductions and BLAS both start their sums from +0.0. A stopped
        # NaN or inf gives NaN, where np.where(relu > 0.0, da, 0.0) gives 0.
        da[:, 0] = [-1.5, -0.0, -2.0, -0.5, -3.0]  # stopped
        da[:, 1] = [-0.0, 0.0, np.nan, np.inf, -np.inf]  # passed
        da[:, 2] = [np.nan, np.inf, -np.inf, -0.0, 0.0]  # stopped
        cache.weights[1] = ProductIs(da)
        got = backward(cache, dlogits)
        want = reference_backward(cache, dlogits)
        assert np.isnan(want[1][0][1:3]).all() and np.isnan(want[0][0][1:3]).all()
        assert_same_bits(got, want)


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


# Two-layer models over the blob shard's 8 features: a dense MLP, and a
# convolution that reads each sample as a 1 x 2 x 4 image.
SHARD_SPECS = {
    "mlp": ModelSpec((DenseSpec(8, 10), DenseSpec(10, 4)), (8,), 4),
    "conv": ModelSpec((Conv2dSpec(1, 3, 2), DenseSpec(9, 4)), (1, 2, 4), 4),
}


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

    def model(self, bits=5, spec=SHARD_SPECS["mlp"]):
        dense = init_dense_model(spec, np.random.default_rng([5, 202]))
        return quantized(dense, [bits, bits])

    def test_widths_unchanged_without_pruning_triggers(self, blob_shard):
        model = self.model()
        trained = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(),
            np.random.default_rng(0),
        )
        assert tuple(map(wire_bits, trained.layers)) == (5, 5)

    def test_threshold_one_prunes_to_single_bit(self, blob_shard):
        model = self.model()
        trained = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(prune_threshold=1.0),
            np.random.default_rng(0),
        )
        assert tuple(map(wire_bits, trained.layers)) == (1, 1)

    def test_widths_never_increase(self, blob_shard):
        model = self.model(bits=3)
        trained = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(prune_threshold=0.2),
            np.random.default_rng(1),
        )
        assert all(1 <= wire_bits(l) <= 3 for l in trained.layers)

    def test_empty_shard_returns_model_unchanged(self):
        model = self.model()
        trained = local_update(
            model,
            np.empty((0, 8)),
            np.empty(0, dtype=int),
            self.cfg(),
            np.random.default_rng(0),
        )
        assert trained is model
        assert tuple(map(wire_bits, trained.layers)) == (5, 5)

    def test_determinism(self, blob_shard):
        outs = []
        for _ in range(2):
            trained = local_update(
                self.model(),
                blob_shard.train_x,
                blob_shard.train_y,
                self.cfg(lasso_coeff=0.01),
                np.random.default_rng([7, 3]),
            )
            outs.append(trained)
        for a, b in zip(outs[0].layers, outs[1].layers):
            np.testing.assert_array_equal(a.codes, b.codes)
        for a, b in zip(outs[0].biases, outs[1].biases):
            np.testing.assert_array_equal(a, b)

    def test_training_reduces_loss(self, blob_shard):
        model = self.model(bits=6)
        before = local_objective(model, blob_shard.train_x, blob_shard.train_y, 0.0)
        trained = local_update(
            model,
            blob_shard.train_x,
            blob_shard.train_y,
            self.cfg(local_epochs=5),
            np.random.default_rng(2),
        )
        after = local_objective(trained, blob_shard.train_x, blob_shard.train_y, 0.0)
        assert after < before

    @pytest.mark.parametrize("kind", SHARD_SPECS)
    def test_two_minibatches_are_two_snapped_steps(self, blob_shard, kind):
        # The first step snaps m1 = g1 + wd * w0; the second carries it as
        # m2 = momentum * m1 + (g2 + wd * w1). Biases take b - lr * m by the
        # same rule. w is the dequantized matrix, one Lasso weight per layer.
        spec = SHARD_SPECS[kind]
        model = self.model(spec=spec)
        x, y = blob_shard.train_x.reshape(-1, *spec.input_shape), blob_shard.train_y
        half = (len(y) + 1) // 2
        cfg = self.cfg(
            local_epochs=1, batch_size=half, lasso_coeff=0.01, weight_decay=0.01, prune_threshold=None
        )
        trained = local_update(model, x, y, cfg, np.random.default_rng(4))

        rng = np.random.default_rng(4)
        order = rng.permutation(len(y))
        ctx = UpdateContext(cfg.learning_rate, rng)
        lams = [cfg.lasso_coeff * c / model.spec.total_params for c in model.spec.param_counts]
        lr, mu, wd = cfg.learning_rate, cfg.momentum, cfg.weight_decay

        def grads(current, sel):
            logits, cache = forward(current, x[sel], cfg.activation_bits)
            return (*backward(cache, softmax_cross_entropy(logits, y[sel])[1]), cache.weights)

        def step(current, m_w, m_b):
            layers = [sgd_step(l, m, ctx, lam) for l, m, lam in zip(current.layers, m_w, lams)]
            return Model(current.spec, layers, [b - lr * m for b, m in zip(current.biases, m_b)])

        g_w, g_b, w0 = grads(model, order[:half])
        m_w = [g + wd * w for g, w in zip(g_w, w0)]
        m_b = [g + wd * b for g, b in zip(g_b, model.biases)]
        first = step(model, m_w, m_b)
        g_w, g_b, w1 = grads(first, order[half:])
        m_w = [mu * m + (g + wd * w) for m, g, w in zip(m_w, g_w, w1)]
        m_b = [mu * m + (g + wd * b) for m, g, b in zip(m_b, g_b, first.biases)]
        second = step(first, m_w, m_b)

        for got, want in zip(trained.layers, second.layers):
            np.testing.assert_array_equal(got.codes, want.codes)
        for got, want in zip(trained.biases, second.biases):
            np.testing.assert_array_equal(got, want)

    def test_values_once_per_layer_per_minibatch(self, blob_shard, monkeypatch):
        # forward dequantizes each layer; weight decay reuses that matrix.
        calls = []
        values = QuantizedLayer.values
        monkeypatch.setattr(QuantizedLayer, "values", lambda layer: calls.append(layer) or values(layer))
        model, cfg = self.model(), self.cfg(lasso_coeff=0.01)
        local_update(model, blob_shard.train_x, blob_shard.train_y, cfg, np.random.default_rng(0))
        minibatches = cfg.local_epochs * math.ceil(len(blob_shard.train_y) / cfg.batch_size)
        assert cfg.weight_decay > 0
        assert len(calls) == minibatches * len(model.layers)

    def test_no_planes_on_the_hot_path(self, blob_shard, monkeypatch):
        # The shift-add product and the Lasso subgradient read the masked
        # codes; the binary planes are built only for wire bytes.
        calls = []
        planes = QuantizedLayer.planes
        monkeypatch.setattr(QuantizedLayer, "planes", lambda layer: calls.append(layer) or planes(layer))
        model, cfg = self.model(), self.cfg(lasso_coeff=0.01, prune_threshold=0.2)
        local_update(model, blob_shard.train_x, blob_shard.train_y, cfg, np.random.default_rng(0))
        assert cfg.lasso_coeff > 0
        assert calls == []


class TestLocalUpdateDense:
    def test_one_minibatch_is_one_sgd_step(self, blob_shard):
        # With zero momentum buffers the first step is w - lr * (g + wd * w).
        spec = ModelSpec((DenseSpec(8, 10), DenseSpec(10, 4)), (8,), 4)
        model = init_dense_model(spec, np.random.default_rng([5, 202]))
        before = [w.copy() for w in model.layers]
        x, y = blob_shard.train_x, blob_shard.train_y
        cfg = TrainConfig(
            local_epochs=1, batch_size=len(y), learning_rate=0.1, weight_decay=0.01, activation_bits=None
        )
        trained = local_update_dense(model, x, y, cfg, np.random.default_rng(4))

        order = np.random.default_rng(4).permutation(len(y))
        logits, cache = forward(model, x[order], None)
        _, dlogits = softmax_cross_entropy(logits, y[order])
        grads_w, grads_b = backward(cache, dlogits)
        pairs = [(trained.layers, model.layers, grads_w), (trained.biases, model.biases, grads_b)]
        lr, wd = cfg.learning_rate, cfg.weight_decay
        for got, start, grads in pairs:
            for p, p0, g in zip(got, start, grads):
                np.testing.assert_array_equal(p, p0 - lr * (g + wd * p0))
        for w, w0 in zip(model.layers, before):
            np.testing.assert_array_equal(w, w0)

    @pytest.mark.parametrize("kind", SHARD_SPECS)
    def test_two_minibatches_carry_momentum(self, blob_shard, kind):
        # Every weight and bias keeps m = momentum * m + (g + wd * w) and
        # moves by w - lr * m; the second step carries the first's buffer.
        spec = SHARD_SPECS[kind]
        model = init_dense_model(spec, np.random.default_rng([5, 202]))
        x, y = blob_shard.train_x.reshape(-1, *spec.input_shape), blob_shard.train_y
        half = (len(y) + 1) // 2
        cfg = TrainConfig(
            local_epochs=1, batch_size=half, learning_rate=0.1, weight_decay=0.01, activation_bits=None
        )
        trained = local_update_dense(model, x, y, cfg, np.random.default_rng(4))

        order = np.random.default_rng(4).permutation(len(y))
        lr, mu, wd = cfg.learning_rate, cfg.momentum, cfg.weight_decay
        params = [*model.layers, *model.biases]
        bufs = [np.zeros_like(w) for w in params]
        for sel in (order[:half], order[half:]):
            current = Model(spec, params[: len(model.layers)], params[len(model.layers) :])
            logits, cache = forward(current, x[sel], None)
            grads_w, grads_b = backward(cache, softmax_cross_entropy(logits, y[sel])[1])
            bufs = [mu * m + (g + wd * w) for m, g, w in zip(bufs, [*grads_w, *grads_b], params)]
            params = [w - lr * m for w, m in zip(params, bufs)]

        for got, want in zip([*trained.layers, *trained.biases], params, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_quantized_layer_takes_snapped_steps_without_lasso(self, blob_shard):
        # A grid layer trains as local_update trains it with no Lasso and no
        # pruning; the real layer beside it takes plain momentum SGD.
        spec = ModelSpec((DenseSpec(8, 10), DenseSpec(10, 4)), (8,), 4)
        dense = init_dense_model(spec, np.random.default_rng([5, 202]))
        mixed = Model(spec, [quantized(dense, [5, 5]).layers[0], dense.layers[1]], dense.biases)
        x, y = blob_shard.train_x, blob_shard.train_y
        cfg = TrainConfig(local_epochs=1, batch_size=16, lasso_coeff=0.0, prune_threshold=None)
        got = local_update_dense(mixed, x, y, cfg, np.random.default_rng(4))
        want = local_update(mixed, x, y, cfg, np.random.default_rng(4))
        assert isinstance(got.layers[0], QuantizedLayer)
        assert got.layers[0].bit_width == want.layers[0].bit_width
        np.testing.assert_array_equal(dequantize(got.layers[0]), dequantize(want.layers[0]))
        for g, w in zip([got.layers[1], *got.biases], [want.layers[1], *want.biases], strict=True):
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("kind", SHARD_SPECS)
def test_trained_arrays_pin_no_training_state(blob_shard, kind):
    # A returned bias or real weight that is a view into the client's whole
    # training state keeps that state alive as long as the upload lives.
    spec = SHARD_SPECS[kind]
    x, y = blob_shard.train_x.reshape(-1, *spec.input_shape), blob_shard.train_y
    dense = init_dense_model(spec, np.random.default_rng(8))
    cfg = TrainConfig(
        local_epochs=1, batch_size=32, learning_rate=0.1, lasso_coeff=0.01, activation_bits=None
    )
    for trained in (
        local_update(quantized(dense, [4, 4]), x, y, cfg, np.random.default_rng(0)),
        local_update_dense(dense, x, y, cfg, np.random.default_rng(0)),
    ):
        reals = [w for w in trained.layers if isinstance(w, np.ndarray)]
        assert all(a.base is None or a.base.nbytes <= a.nbytes for a in (*reals, *trained.biases))
    assert len(reals) == len(spec.layers)


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
        model = Model(spec, [np.eye(3) * 100.0], [np.zeros(3)])
        x = np.eye(3)
        y = np.arange(3)
        _, acc = evaluate(model, x, y)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        spec = ModelSpec((DenseSpec(3, 3),), (3,), 3)
        model = Model(spec, [np.eye(3)], [np.zeros(3)])
        with pytest.raises(ValueError):
            evaluate(model, np.empty((0, 3)), np.empty(0, dtype=int))

    def test_peak_memory_is_one_hidden_activation(self):
        # 6,000 test rows through a 20-256-8-10 MLP. Evaluation runs in
        # row blocks of at most 512 samples, so its peak is set by one
        # block's (<= 512, 256) float64 activation (1 MiB), not by the test
        # set's (6000, 256) one (11.7 MiB). ReLU runs in place, so a block
        # holds one such array, not a pre-activation and a copy.
        spec = ModelSpec((DenseSpec(20, 256), DenseSpec(256, 8), DenseSpec(8, 10)), (20,), 10)
        rng = np.random.default_rng(0)
        model = init_dense_model(spec, rng)
        x = rng.normal(size=(6000, 20))
        y = rng.integers(0, 10, size=6000)
        tracemalloc.start()
        try:
            evaluate(model, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize("kind", ["mlp", "conv"])
    def test_blocks_match_one_forward(self, kind):
        # 1,100 samples make three blocks (367, 367, 366). The reference is
        # one forward over every sample and one mean cross-entropy.
        rng = np.random.default_rng(5)
        if kind == "mlp":
            spec = ModelSpec((DenseSpec(6, 32), DenseSpec(32, 4)), (6,), 4)
            model = init_dense_model(spec, rng)
        else:
            model, _ = tiny_conv(rng)
        x = rng.normal(size=(1100, *model.spec.input_shape))
        y = rng.integers(0, model.spec.num_classes, size=1100)
        logits, _ = forward(model, x, act_bits=None)
        ref_loss, _ = softmax_cross_entropy(logits, y)
        ref_acc = float(np.mean(logits.argmax(axis=1) == y))
        loss, acc = evaluate(model, x, y)
        assert acc == ref_acc
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)

    def test_repeat_evaluations_identical(self, blob_shard):
        spec = ModelSpec((DenseSpec(8, 4),), (8,), 4)
        model = init_dense_model(spec, np.random.default_rng(3))
        first = evaluate(model, blob_shard.test_x, blob_shard.test_y)
        second = evaluate(model, blob_shard.test_x, blob_shard.test_y)
        assert first == second
