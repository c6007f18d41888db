import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmpq import server, simulation
from fedmpq.config import parse_config
from fedmpq.data import DataConfig
from fedmpq.nn import ModelConfig, TrainConfig
from fedmpq.quant import QuantizedLayer, average_bits, wire_bits
from fedmpq.server import pruning_growing
from fedmpq.simulation import (
    METRICS_COLUMNS,
    ExperimentConfig,
    PartitionError,
    _arm_settings,
    _client_avg_bits,
    _delivery_bits,
    dirichlet_partition,
    init_state,
    metrics_csv_rows,
    run_experiment,
    run_round,
    sample_clients,
    upload_cost_bits,
)


def small_config(**kw):
    defaults = dict(
        algorithm="fedmpq",
        clients=4,
        participation=1.0,
        rounds=2,
        budgets=(2, 4, 6, 8),
        alpha=0.5,
        seed=3,
        train=TrainConfig(local_epochs=1, batch_size=16, learning_rate=0.5),
        model=ModelConfig(kind="mlp", hidden=(12,)),
        data=DataConfig(train_samples=200, test_samples=80, features=6, classes=4, cluster_std=1.0),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestDirichletPartition:
    def test_huge_alpha_is_nearly_balanced(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=4000)
        shards = dirichlet_partition(labels, 4, alpha=1e6, seed=1)
        for shard in shards:
            share = len(shard) / len(labels)
            assert abs(share - 0.25) < 0.05

    def test_single_client_owns_everything(self):
        labels = np.arange(100) % 5
        shards = dirichlet_partition(labels, 1, alpha=0.5, seed=0)
        assert len(shards) == 1
        np.testing.assert_array_equal(np.sort(shards[0]), np.arange(100))

    def test_deterministic(self):
        labels = np.arange(300) % 3
        a = dirichlet_partition(labels, 5, alpha=0.3, seed=42)
        b = dirichlet_partition(labels, 5, alpha=0.3, seed=42)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_every_client_gets_a_sample(self):
        labels = np.arange(60) % 2
        for seed in range(20):
            shards = dirichlet_partition(labels, 6, alpha=0.05, seed=seed)
            assert all(len(s) >= 1 for s in shards)

    def test_partition_covers_dataset_exactly(self):
        labels = np.arange(500) % 7
        shards = dirichlet_partition(labels, 8, alpha=0.5, seed=9)
        merged = np.sort(np.concatenate(shards))
        np.testing.assert_array_equal(merged, np.arange(500))

    def test_impossible_partition_raises(self):
        labels = np.zeros(3, dtype=int)
        with pytest.raises(PartitionError, match="larger dataset or a larger alpha"):
            dirichlet_partition(labels, 10, alpha=0.5, seed=0, max_retries=50)

    def test_classes_with_gaps_cover_the_dataset(self):
        labels = np.array([9, 2, 2, 9, 5, 0, 9, 5] * 10)
        shards = dirichlet_partition(labels, 3, alpha=0.5, seed=4)
        np.testing.assert_array_equal(np.sort(np.concatenate(shards)), np.arange(len(labels)))

    def test_init_state_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma, which every run would then load.
        root = Path(__file__).resolve().parent.parent
        code = (
            "import sys\n"
            "from fedmpq.config import parse_config\n"
            "from fedmpq.simulation import init_state\n"
            "init_state(parse_config(sys.argv[1]))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, "-c", code, str(root / "configs" / "blobs.ini")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "[]"

    def test_init_state_rejects_a_wrong_shard_count(self, tmp_path):
        config = small_config(clients=2, budgets=(8, 8))
        shards = np.array_split(np.arange(config.data.train_samples), 3)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"shards": [s.tolist() for s in shards]}))
        config = replace(config, data=replace(config.data, partition=str(path)))
        with pytest.raises(PartitionError, match="^partition holds 3 shards but the config has 2 clients$"):
            init_state(config)


class TestSampleClients:
    def test_full_participation(self):
        np.testing.assert_array_equal(sample_clients(7, 1.0, 3, 0), np.arange(7))

    def test_half_of_ten_is_five_distinct(self):
        ids = sample_clients(10, 0.5, 1, 4)
        assert len(ids) == 5
        assert len(set(ids.tolist())) == 5

    def test_ceil_rule(self):
        assert len(sample_clients(10, 0.55, 0, 0)) == 6

    @pytest.mark.parametrize(
        "n, fraction, count",
        [(100, 0.07, 7), (25, 0.28, 7), (10, 0.01, 1), (10, 1.0, 10), (200, 0.5, 100)],
    )
    def test_count(self, n, fraction, count):
        # The float products 0.07 * 100 and 0.28 * 25 overshoot 7; the last
        # two rows are the benchmark's counts.
        assert len(sample_clients(n, fraction, 0, 0)) == count

    def test_exact_fractions_draw_exactly(self):
        # Every k/n up to 200 clients that six decimals write exactly draws
        # k ids; 31 of these pairs drew k + 1 when the count was the float
        # product's ceiling.
        for n in range(1, 201):
            for k in range(1, n + 1):
                if k * 10**6 % n == 0:
                    assert len(sample_clients(n, float(f"{k / n:.6f}"), 0, 0)) == k, (n, k)

    def test_deterministic_per_round(self):
        a = sample_clients(10, 0.5, 2, 11)
        b = sample_clients(10, 0.5, 2, 11)
        np.testing.assert_array_equal(a, b)
        c = sample_clients(10, 0.5, 3, 11)
        assert not np.array_equal(a, c)


class TestRunRound:
    def test_budget_postcondition_every_round(self):
        config = small_config(rounds=4)
        state = init_state(config)
        m = np.asarray(state.global_model.spec.param_counts)
        slack = m.max() / m.sum()
        for r in range(1, 5):
            run_round(state, config, r)
            for n, widths in enumerate(state.delivered):
                avg = float(widths @ m) / m.sum()
                assert avg <= config.budgets[n] + slack + 1e-9
                assert widths.min() >= 1 and widths.max() <= 8

    def test_client_without_upload_reallocates_from_zero_reductions(self):
        config = small_config(clients=8, budgets=(2, 3, 4, 5, 6, 7, 8, 8), participation=0.5)
        state = init_state(config)
        run_round(state, config, 1)
        drawn = sample_clients(config.clients, config.participation, 1, config.seed)
        fresh = [n for n in range(config.clients) if n not in drawn]
        assert fresh
        zeros = np.zeros(len(state.global_model.spec.layers), dtype=np.int64)
        for n in fresh:
            budget = config.budgets[n]
            expected = pruning_growing(
                state.global_widths, zeros, state.global_model.spec.param_counts, budget
            )
            got = _delivery_bits(state, _arm_settings(config), n, budget)
            np.testing.assert_array_equal(got, expected)

    def test_single_client_fp32_global_equals_local(self):
        config = small_config(algorithm="fp32", clients=1, budgets=(8,), rounds=1)
        state = init_state(config)
        before = [w.copy() for w in state.global_model.layers]
        run_round(state, config, 1)
        # Aggregation over one client is that client's trained model.
        changed = any(
            not np.array_equal(w, b) for w, b in zip(state.global_model.layers, before)
        )
        assert changed

    def test_uploaded_bits_accounting(self, monkeypatch):
        config = small_config(rounds=1)
        state = init_state(config)
        updates = []  # the uploads of the round, as aggregate receives them
        aggregate = simulation.aggregate

        def spy(ups):
            updates.extend(ups)
            return aggregate(ups)

        monkeypatch.setattr(simulation, "aggregate", spy)
        run_round(state, config, 1)
        m = state.global_model.spec.param_counts
        assert updates
        for update in updates:
            got = upload_cost_bits(update)
            header = 8 * 26
            expected = 0
            for layer in update.layers:
                padded = 8 * ((layer.num_params + 7) // 8)
                expected += header + layer.bit_width * padded
            expected += 32 * sum(len(b) for b in update.biases)
            assert got == expected
            # and the plane payload itself is at least bits * params
            assert got >= sum(b * c for b, c in zip(update.bit_widths, m))


# Seeds of one, two and three 32-bit words, at the word boundaries.
LONG_SEEDS = [0, 1, 2**32 - 1, 2**32, 99999999999, 2**64 + 3]


@pytest.mark.parametrize("seed", LONG_SEEDS)
def test_seed_words_give_the_list_seeded_stream(seed):
    salt = simulation._SALT_CLIENT
    for n, r in ((0, 1), (7, 3), (199, 2**32 + 1)):
        got = np.random.default_rng(simulation._seed_words(seed, salt, n, r))
        want = np.random.default_rng([seed, salt, n, r])
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(16).tobytes() == want.random(16).tobytes()


def test_seed_words_reject_negative_entries():
    with pytest.raises(ValueError, match="non-negative"):
        simulation._seed_words(1, -1)


@pytest.mark.parametrize("seed", [2**32 + 5, 99999999999])
def test_run_round_trains_each_client_on_its_list_seeded_stream(seed, monkeypatch):
    config = small_config(algorithm="fp32", seed=seed, rounds=1)
    state = init_state(config)
    seen = []
    train = simulation.local_update_dense

    def spy(model, xs, ys, cfg, rng):
        seen.append(rng.bit_generator.state)
        return train(model, xs, ys, cfg, rng)

    monkeypatch.setattr(simulation, "local_update_dense", spy)
    run_round(state, config, 1)
    drawn = sample_clients(config.clients, config.participation, 1, seed)
    assert seen == [
        np.random.default_rng([seed, simulation._SALT_CLIENT, int(n), 1]).bit_generator.state
        for n in drawn
    ]


# configs/blobs.ini as the cross-device benchmark workload runs it.
CROSS_DEVICE = {
    "clients": "200",
    "participation": "0.5",
    "local_epochs": "1",
    "budgets": ",".join(["2", "4", "6", "8"] * 50),
    "seed": "1",
}


def test_cross_device_delivery_quantizes_once_per_layer_and_width(monkeypatch):
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "blobs.ini", CROSS_DEVICE)
    state = init_state(config)
    quantized = []  # (real matrix, width) of every quantize call the server makes
    quantize = server.quantize

    def counted(w, bits):
        quantized.append((w, bits))
        return quantize(w, bits)

    monkeypatch.setattr(server, "quantize", counted)
    delivered = []  # (widths, layers, codes as delivered) per client
    local_update = simulation.local_update

    def spy(model, *args, **kwargs):
        widths = tuple(map(wire_bits, model.layers))
        delivered.append((widths, model.layers, [l.codes.copy() for l in model.layers]))
        return local_update(model, *args, **kwargs)

    monkeypatch.setattr(simulation, "local_update", spy)
    for r in (1, 2):
        global_layers = state.global_model.layers
        quantized.clear()
        delivered.clear()
        run_round(state, config, r)
        # Metrics quantize the new aggregate; delivery quantizes the old one.
        calls = [(l, bits) for w, bits in quantized for l, g in enumerate(global_layers) if w is g]
        assert sorted(calls) == sorted({(l, b) for widths, _, _ in delivered for l, b in enumerate(widths)})
        shared = {}
        for widths, layers, codes in delivered:
            for layer, first, before in zip(layers, shared.setdefault(widths, layers), codes):
                assert layer is first
                assert not layer.codes.flags.writeable
                np.testing.assert_array_equal(layer.codes, before)
        assert len(shared) < len(delivered) == 100


def test_cross_device_round_counts_each_delivered_grid_once(monkeypatch):
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "blobs.ini", CROSS_DEVICE)
    state = init_state(config)
    run_round(state, config, 1)
    delivered = {}  # id -> layer, for every layer a round delivers through its grids
    deliver = simulation.binary_representation

    def spy(weights, widths, grids=None):
        layers = deliver(weights, widths, grids)
        if grids is not None:
            delivered.update((id(l), l) for l in layers)
        return layers

    counted = []
    plane_counts = QuantizedLayer.plane_counts
    monkeypatch.setattr(simulation, "binary_representation", spy)
    monkeypatch.setattr(QuantizedLayer, "plane_counts", lambda layer: counted.append(layer) or plane_counts(layer))
    run_round(state, config, 2)
    # Every client's first snapped step takes the Lasso term of each delivered
    # layer; the clients delivered one (layer, width) grid share one count.
    per_grid = Counter(id(l) for l in counted if id(l) in delivered)
    assert 3 < len(delivered) < 100
    assert sorted(per_grid) == sorted(delivered)
    assert set(per_grid.values()) == {1}


def test_cross_device_rounds_global_widths_once_per_round(monkeypatch):
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "blobs.ini", CROSS_DEVICE)
    state = init_state(config)
    calls = []
    rounded = simulation.round_bitwidths

    def counted(bits):
        calls.append(bits)
        return rounded(bits)

    monkeypatch.setattr(simulation, "round_bitwidths", counted)
    per_round = []
    for r in (1, 2):
        calls.clear()
        run_round(state, config, r)
        per_round.append(len(calls))
    # The aggregated widths are rounded once, when they are aggregated;
    # delivery to all 100 clients and the metrics read the rounded ones.
    assert per_round == [1, 1]


def test_cross_device_round_delivers_all_then_trains_all_then_accepts_all(monkeypatch):
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "blobs.ini", CROSS_DEVICE)
    state = init_state(config)
    events = []

    def recording(kind, fn):
        def recorded(*args, **kwargs):
            events.append(kind)
            return fn(*args, **kwargs)

        return recorded

    monkeypatch.setattr(simulation, "binary_representation", recording("deliver", simulation.binary_representation))
    monkeypatch.setattr(simulation, "local_update", recording("train", simulation.local_update))
    monkeypatch.setattr(server.ClientUpdate, "check_budget", recording("accept", server.ClientUpdate.check_budget))
    for r in (1, 2):
        events.clear()
        run_round(state, config, r)
        phases = [kind for i, kind in enumerate(events) if i == 0 or events[i - 1] != kind]
        # The last binary_representation is the metrics' plane densities of
        # the new aggregate, after every upload was accepted.
        assert phases == ["deliver", "train", "accept", "deliver"]
        assert (events.count("deliver"), events.count("train"), events.count("accept")) == (101, 100, 100)


def test_failed_round_leaves_the_state_as_it_was(monkeypatch):
    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "blobs.ini", {"seed": "1"})
    state = init_state(config)
    run_round(state, config, 1)
    before = dict(vars(state))
    arrays = {name: value.copy() for name, value in before.items() if isinstance(value, np.ndarray)}
    assert state.delivered[:2].tolist() == state.uploaded[:2].tolist() == [[2, 2, 2]] * 2
    calls = []
    train = simulation.local_update

    def third_client_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise ValueError("diverged")
        return train(*args, **kwargs)

    monkeypatch.setattr(simulation, "local_update", third_client_fails)
    with pytest.raises(ValueError, match=r"^round 2, client 2: diverged$"):
        run_round(state, config, 2)
    # Two clients trained before the failure; neither their rows nor any
    # other field of the state changed.
    assert len(calls) == 3
    for name, value in vars(state).items():
        assert value is before[name], name
    for name, value in arrays.items():
        np.testing.assert_array_equal(getattr(state, name), value, err_msg=name)


class TestReductionEquivalence:
    def test_degenerate_fedmpq_matches_aqfl(self):
        base = dict(rounds=3, participation=0.5)
        fed = small_config(
            algorithm="fedmpq",
            use_bit_reallocation=False,
            train=TrainConfig(
                local_epochs=1, batch_size=16, learning_rate=0.5, lasso_coeff=0.0, prune_threshold=None
            ),
            **base,
        )
        aq = small_config(algorithm="aqfl", **base)
        m_fed, _ = run_experiment(fed)
        m_aq, _ = run_experiment(aq)
        assert metrics_csv_rows(m_fed) == metrics_csv_rows(m_aq)


@given(st.integers(0, 100_000))
@settings(max_examples=100, deadline=None)
def test_client_avg_bits_is_average_bits_per_row(seed):
    rng = np.random.default_rng(seed)
    state = init_state(small_config(rounds=0))
    state.delivered = rng.integers(1, 33, size=state.delivered.shape)
    counts = state.global_model.spec.param_counts
    assert _client_avg_bits(state) == tuple(average_bits(row, counts) for row in state.delivered)


class TestRunExperiment:
    def test_zero_rounds_evaluates_init_only(self):
        metrics, _ = run_experiment(small_config(rounds=0))
        assert len(metrics) == 1
        assert metrics[0].round == 0
        assert 0.0 <= metrics[0].test_accuracy <= 1.0

    def test_one_row_per_round(self):
        metrics, _ = run_experiment(small_config(rounds=3))
        assert [m.round for m in metrics] == [1, 2, 3]

    def test_metrics_files_byte_identical_across_runs(self, tmp_path):
        config = small_config(rounds=2)
        run_experiment(config, tmp_path / "a")
        run_experiment(config, tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/rounds.jsonl").read_bytes() == (tmp_path / "b/rounds.jsonl").read_bytes()
        assert (
            tmp_path / "a/checkpoints/final.fmpq"
        ).read_bytes() == (tmp_path / "b/checkpoints/final.fmpq").read_bytes()

    def test_csv_and_jsonl_rows_share_the_columns(self, tmp_path):
        metrics, _ = run_experiment(small_config(rounds=1), tmp_path)
        header, row = (tmp_path / "metrics.csv").read_text().splitlines()
        record = json.loads((tmp_path / "rounds.jsonl").read_text())
        assert header.split(",") == list(metrics[0].row()) == list(METRICS_COLUMNS)
        assert record == json.loads(json.dumps(metrics[0].row()))
        assert row.split(",")[2] == repr(record["test_accuracy"])

    def test_budget_vector_accepted_and_tracked(self):
        config = small_config(
            clients=10,
            budgets=(2, 2, 4, 4, 4, 6, 6, 6, 8, 8),
            rounds=1,
            data=DataConfig(
                train_samples=400, test_samples=80, features=6, classes=4, cluster_std=1.0
            ),
        )
        metrics, state = run_experiment(config)
        assert len(metrics[0].client_avg_bits) == 10
        m = np.asarray(state.global_model.spec.param_counts)
        for n in range(10):
            assert metrics[0].client_avg_bits[n] <= config.budgets[n] + m.max() / m.sum() + 1e-9

    def test_fp32_and_fpq_arms_run(self):
        for algo in ("fp32", "fpq-k"):
            metrics, _ = run_experiment(small_config(algorithm=algo, rounds=2))
            assert len(metrics) == 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="budget"):
            small_config(budgets=(2, 4))
        with pytest.raises(ValueError, match="algorithm"):
            small_config(algorithm="fedavg")
        with pytest.raises(ValueError, match="participation"):
            small_config(participation=0.0)
        with pytest.raises(ValueError, match="alpha"):
            small_config(alpha=0.0)
