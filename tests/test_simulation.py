import json
from pathlib import Path

import numpy as np
import pytest

from fedmpq import server, simulation
from fedmpq.config import parse_config
from fedmpq.data import DataConfig
from fedmpq.nn import ModelConfig, TrainConfig
from fedmpq.server import pruning_growing, round_bitwidths
from fedmpq.simulation import (
    METRICS_COLUMNS,
    ExperimentConfig,
    PartitionError,
    _arm_settings,
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


class TestSampleClients:
    def test_full_participation(self):
        np.testing.assert_array_equal(sample_clients(7, 1.0, 3, 0), np.arange(7))

    def test_half_of_ten_is_five_distinct(self):
        ids = sample_clients(10, 0.5, 1, 4)
        assert len(ids) == 5
        assert len(set(ids.tolist())) == 5

    def test_ceil_rule(self):
        assert len(sample_clients(10, 0.55, 0, 0)) == 6

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
        m = state.param_counts
        slack = m.max() / m.sum()
        for r in range(1, 5):
            run_round(state, config, r)
            for n, update in state.last_updates.items():
                widths = np.asarray(update.delivered_bits)
                avg = float(widths @ m) / m.sum()
                assert avg <= config.budgets[n] + slack + 1e-9
                assert widths.min() >= 1 and widths.max() <= 8

    def test_client_without_upload_reallocates_from_zero_reductions(self):
        config = small_config(clients=8, budgets=(2, 3, 4, 5, 6, 7, 8, 8), participation=0.5)
        state = init_state(config)
        run_round(state, config, 1)
        fresh = [n for n in range(config.clients) if n not in state.last_updates]
        assert fresh
        zeros = np.zeros(len(state.spec.layers), dtype=np.int64)
        for n in fresh:
            expected = pruning_growing(
                round_bitwidths(state.global_bits), zeros, state.param_counts, config.budgets[n]
            )
            widths = round_bitwidths(state.global_bits)
            np.testing.assert_array_equal(_delivery_bits(state, _arm_settings(config), n, widths), expected)

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

    def test_uploaded_bits_accounting(self):
        config = small_config(rounds=1)
        state = init_state(config)
        run_round(state, config, 1)
        m = state.param_counts
        for n, update in state.last_updates.items():
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

    def counted(w, bits, policy):
        quantized.append((w, bits))
        return quantize(w, bits, policy)

    monkeypatch.setattr(server, "quantize", counted)
    delivered = []  # (widths, layers, codes as delivered) per client
    local_update = simulation.local_update

    def spy(model, *args, **kwargs):
        delivered.append((model.bit_widths, model.layers, [l.codes.copy() for l in model.layers]))
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
    # Round 1 delivers at the budgets; from round 2 delivery rounds the old
    # global widths once for all 100 clients. The metrics round the new ones.
    assert per_round == [1, 2]


class TestReductionEquivalence:
    def test_degenerate_fedmpq_matches_aqfl(self):
        base = dict(rounds=3, participation=0.5)
        fed = small_config(
            algorithm="fedmpq",
            use_lasso=False,
            use_msb_pruning=False,
            use_bit_reallocation=False,
            train=TrainConfig(
                local_epochs=1, batch_size=16, learning_rate=0.5, lasso_coeff=0.0, prune_threshold=0.0
            ),
            **base,
        )
        aq = small_config(algorithm="aqfl", **base)
        m_fed, _ = run_experiment(fed)
        m_aq, _ = run_experiment(aq)
        assert metrics_csv_rows(m_fed) == metrics_csv_rows(m_aq)


class TestRunExperiment:
    def test_zero_rounds_evaluates_init_only(self):
        metrics, _ = run_experiment(small_config(rounds=0))
        assert len(metrics) == 1
        assert metrics[0].round_index == 0
        assert 0.0 <= metrics[0].test_accuracy <= 1.0

    def test_one_row_per_round(self):
        metrics, _ = run_experiment(small_config(rounds=3))
        assert [m.round_index for m in metrics] == [1, 2, 3]

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
        m = state.param_counts
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
