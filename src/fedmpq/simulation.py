"""Experiment orchestration: partitioning, the round loop, and metrics.

Four algorithm arms share one round loop. ``fedmpq`` runs the full
pipeline (sparsity-promoting local training, MSB pruning, server-side bit
reallocation); ``aqfl`` fixes every client at its own budget; ``fpq-k``
fixes everyone at ``fpq_bits``; ``fp32`` trains full precision. Everything
is deterministic given the master seed: clients own private RNG streams
keyed by (seed, client, round) and aggregation sorts by client id.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import record_bytes, write_checkpoint
from .data import DataConfig, Dataset, load_dataset
from .nn import (
    Model,
    ModelConfig,
    ModelSpec,
    TrainConfig,
    build_model_spec,
    evaluate,
    init_dense_model,
    local_update,
    local_update_dense,
)
from .quant import FP_WIRE_BITS, QuantizedLayer, average_bits, plane_density, prune_msbs
from .server import (
    ClientUpdate,
    aggregate,
    binary_representation,
    check_width_budget,
    pruning_growing,
    round_bitwidths,
)

logger = logging.getLogger(__name__)

ALGORITHMS = ("fedmpq", "aqfl", "fpq-k", "fp32")

_SALT_PARTITION = 101
_SALT_INIT = 202
_SALT_CLIENT = 303
_SALT_SAMPLE = 404

METRICS_COLUMNS = (
    "round",
    "test_loss",
    "test_accuracy",
    "global_bits",
    "client_avg_bits",
    "plane_densities",
    "uploaded_bits",
    "total_uploaded_bits",
)


class PartitionError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "fedmpq"
    clients: int = 10
    participation: float = 0.5
    rounds: int = 30
    budgets: tuple[int, ...] = (2, 2, 4, 4, 4, 6, 6, 6, 8, 8)
    alpha: float = 0.5
    seed: int = 0
    fpq_bits: int = 8
    use_lasso: bool = True
    use_msb_pruning: bool = True
    use_bit_reallocation: bool = True
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.clients < 1:
            raise ValueError("clients must be at least 1")
        if not (0.0 < self.participation <= 1.0):
            raise ValueError("participation must lie in (0, 1]")
        if self.rounds < 0:
            raise ValueError("rounds must be non-negative")
        if len(self.budgets) != self.clients:
            raise ValueError(
                f"need one budget per client: {len(self.budgets)} budgets, "
                f"{self.clients} clients"
            )
        if any(not (1 <= v <= 8) for v in self.budgets):
            raise ValueError("budgets must lie in [1, 8]")
        # Written so that NaN fails it too.
        if not (0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")
        if not (1 <= self.fpq_bits <= 8):
            raise ValueError("fpq_bits must lie in [1, 8]")


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    test_loss: float
    test_accuracy: float
    global_bits: tuple[float, ...]
    client_avg_bits: tuple[float, ...]
    plane_densities: tuple[tuple[float, ...], ...]
    uploaded_bits: tuple[int, ...]
    total_uploaded_bits: int
    wall_time_sec: float

    def row(self) -> dict:
        """One row of metrics.csv and rounds.jsonl: the METRICS_COLUMNS in order.

        The fields are declared in column order; the wall time, last, is no column.
        """
        return {c: getattr(self, f.name) for c, f in zip(METRICS_COLUMNS, fields(self))}


def dirichlet_partition(
    labels: np.ndarray,
    n_clients: int,
    alpha: float,
    seed: int,
    max_retries: int = 1000,
) -> list[np.ndarray]:
    """Split sample indices across clients, class by class.

    Per class, the client proportions are drawn from a symmetric Dirichlet
    with concentration ``alpha``; smaller alpha means more skew. The whole
    draw is retried until every client holds at least one sample.
    """
    if not (0.0 < alpha < math.inf):
        raise ValueError("alpha must be positive and finite")
    labels = np.asarray(labels)
    rng = np.random.default_rng([seed, _SALT_PARTITION])
    classes = np.unique(labels)
    for _ in range(max_retries):
        shards: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for cls in classes:
            idx = rng.permutation(np.flatnonzero(labels == cls))
            proportions = rng.dirichlet(np.full(n_clients, alpha))
            cuts = (np.cumsum(proportions)[:-1] * len(idx)).astype(np.int64)
            for client, part in enumerate(np.split(idx, cuts)):
                shards[client].append(part)
        merged = [np.sort(np.concatenate(parts)) for parts in shards]
        if all(len(s) >= 1 for s in merged):
            return merged
    raise PartitionError(
        f"could not give every one of {n_clients} clients a sample after "
        f"{max_retries} draws; use a larger dataset or a larger alpha"
    )


def sample_clients(n_clients: int, fraction: float, round_index: int, seed: int) -> np.ndarray:
    """ceil(fraction * N) distinct ids, uniform without replacement."""
    count = math.ceil(fraction * n_clients)
    rng = np.random.default_rng([seed, _SALT_SAMPLE, round_index])
    return np.sort(rng.choice(n_clients, size=count, replace=False))


@dataclass(frozen=True)
class _ArmSettings:
    quantized: bool
    act_bits: int | None
    use_lasso: bool
    use_msb_pruning: bool
    use_bit_reallocation: bool
    fixed_bits: int | None  # uniform width for every layer and client (32 for fp32), or None


def _arm_settings(config: ExperimentConfig) -> _ArmSettings:
    if config.algorithm == "fp32":
        return _ArmSettings(False, None, False, False, False, FP_WIRE_BITS)
    if config.algorithm == "fpq-k":
        return _ArmSettings(True, config.fpq_bits, False, False, False, config.fpq_bits)
    if config.algorithm == "aqfl":
        return _ArmSettings(True, config.train.activation_bits, False, False, False, None)
    return _ArmSettings(
        True,
        config.train.activation_bits,
        config.use_lasso,
        config.use_msb_pruning,
        config.use_bit_reallocation,
        None,
    )


@dataclass
class SimState:
    """What the server holds between rounds: the global model, its
    fractional widths (None until a quantized round aggregates) and each
    client's last upload, which records the widths it was delivered at."""

    config: ExperimentConfig
    spec: ModelSpec
    param_counts: np.ndarray  # int64, one per layer of spec
    dataset: Dataset
    shards: list[np.ndarray]
    global_model: Model
    global_bits: np.ndarray | None
    last_updates: dict[int, ClientUpdate]


def init_state(config: ExperimentConfig, shards: list[np.ndarray] | None = None) -> SimState:
    dataset = load_dataset(config.data, config.seed)
    if shards is None:
        shards = dirichlet_partition(
            dataset.train_y, config.clients, config.alpha, config.seed
        )
    if len(shards) != config.clients:
        raise ValueError("partition does not match the configured client count")
    n_train = len(dataset.train_y)
    for client, shard in enumerate(shards):
        if len(shard) and (shard.min() < 0 or shard.max() >= n_train):
            raise PartitionError(
                f"shard {client} holds an index outside the {n_train} training samples"
            )
    holders = np.bincount(np.concatenate(shards), minlength=n_train)
    if (holders != 1).any():
        i = int(np.argmax(holders != 1))
        raise PartitionError(f"training sample {i} is in {holders[i]} shards, not exactly one")
    spec = build_model_spec(config.model, dataset.input_shape, dataset.num_classes)
    rng = np.random.default_rng([config.seed, _SALT_INIT])
    return SimState(
        config=config,
        spec=spec,
        param_counts=np.asarray(spec.param_counts, dtype=np.int64),
        dataset=dataset,
        shards=shards,
        global_model=init_dense_model(spec, rng),
        global_bits=None,
        last_updates={},
    )


def _delivery_bits(
    state: SimState, arm: _ArmSettings, client: int, global_widths: np.ndarray | None
) -> np.ndarray:
    """Integer bit widths this client's model is delivered at this round, given
    the round's rounded global widths (None before a quantized aggregate)."""
    n_layers = len(state.spec.layers)
    if arm.fixed_bits is not None:
        return np.full(n_layers, arm.fixed_bits, dtype=np.int64)
    budget = state.config.budgets[client]
    default = np.full(n_layers, budget, dtype=np.int64)
    last = state.last_updates.get(client)
    if not arm.use_bit_reallocation:
        # Without server-side reallocation a client keeps whatever widths
        # its own pruning left behind.
        return default if last is None else np.asarray(last.bit_widths, dtype=np.int64)
    if global_widths is None:
        return default
    reductions = np.zeros(n_layers, dtype=np.int64) if last is None else last.reductions
    return pruning_growing(global_widths, reductions, state.param_counts, budget)


def upload_cost_bits(update: ClientUpdate) -> int:
    """Wire cost of one upload.

    A quantized layer travels as a checkpoint record. Real matrices and
    biases travel at 32 bits per entry.
    """
    total = FP_WIRE_BITS * sum(len(b) for b in update.biases)
    for layer in update.layers:
        if isinstance(layer, QuantizedLayer):
            total += 8 * record_bytes(layer)
        else:
            total += FP_WIRE_BITS * layer.size
    return total


def _client_avg_bits(state: SimState, arm: _ArmSettings) -> tuple[float, ...]:
    """Weighted average delivered width per client, budget until first delivery."""
    m = state.param_counts
    out = []
    for n in range(state.config.clients):
        fallback = arm.fixed_bits if arm.fixed_bits is not None else state.config.budgets[n]
        last = state.last_updates.get(n)
        widths = np.full(len(m), fallback) if last is None else last.delivered_bits
        out.append(average_bits(widths, m))
    return tuple(out)


def _global_densities(state: SimState) -> tuple[tuple[float, ...], ...]:
    if state.global_bits is None:  # fp32, or no round aggregated yet
        return ()
    widths = round_bitwidths(state.global_bits)
    layers = binary_representation(
        state.global_model.layers, widths, state.config.train.scale_policy
    )
    return tuple(plane_density(layer).values for layer in layers)


def _evaluate_global(state: SimState) -> tuple[float, float]:
    return evaluate(state.global_model, state.dataset.test_x, state.dataset.test_y, act_bits=None)


def _round_metrics(
    state: SimState,
    arm: _ArmSettings,
    round_index: int,
    uploaded: dict[int, int],
    started: float,
) -> RoundMetrics:
    loss, acc = _evaluate_global(state)
    per_client = tuple(uploaded.get(n, 0) for n in range(state.config.clients))
    bits = state.global_bits if state.global_bits is not None else ()
    return RoundMetrics(
        round_index=round_index,
        test_loss=loss,
        test_accuracy=acc,
        global_bits=tuple(float(x) for x in bits),
        client_avg_bits=_client_avg_bits(state, arm),
        plane_densities=_global_densities(state),
        uploaded_bits=per_client,
        total_uploaded_bits=int(sum(per_client)),
        wall_time_sec=time.perf_counter() - started,
    )


def run_round(state: SimState, config: ExperimentConfig, round_index: int) -> RoundMetrics:
    """One global round: deliver, train locally, aggregate, reallocate.

    Clients train one at a time in id order; every arm's uploads go through
    the same FedAvg aggregation.
    """
    started = time.perf_counter()
    arm = _arm_settings(config)
    m = state.param_counts
    train_cfg = replace(config.train, activation_bits=arm.act_bits)
    global_model = state.global_model
    updates: list[ClientUpdate] = []
    uploaded: dict[int, int] = {}
    grids: dict[tuple[int, int], QuantizedLayer] = {}  # delivered layers, shared by clients
    global_widths = None if state.global_bits is None else round_bitwidths(state.global_bits)
    for n in sample_clients(config.clients, config.participation, round_index, config.seed):
        n = int(n)
        widths = _delivery_bits(state, arm, n, global_widths)
        if arm.fixed_bits is None:
            check_width_budget(n, widths, m, config.budgets[n], "delivered widths")

        rng = np.random.default_rng([config.seed, _SALT_CLIENT, n, round_index])
        idx = state.shards[n]
        xs, ys = state.dataset.train_x[idx], state.dataset.train_y[idx]
        try:
            if arm.quantized:
                layers = binary_representation(
                    global_model.layers, widths, train_cfg.scale_policy, grids
                )
                trained = local_update(
                    Model(state.spec, layers, global_model.biases),
                    xs,
                    ys,
                    train_cfg,
                    rng,
                    use_lasso=arm.use_lasso,
                    use_msb_pruning=arm.use_msb_pruning,
                )
            else:
                trained = local_update_dense(global_model, xs, ys, train_cfg, rng)
            trained_arrays = list(trained.biases) + ([] if arm.quantized else trained.layers)
            if not all(np.isfinite(a).all() for a in trained_arrays):
                raise ValueError("trained model is not finite")
        except ValueError as exc:
            raise ValueError(f"round {round_index}, client {n}: {exc}") from exc
        update = ClientUpdate(
            client_id=n,
            layers=tuple(trained.layers),
            biases=tuple(trained.biases),
            delivered_bits=tuple(int(b) for b in widths),
            num_samples=len(ys),
            budget=float(config.budgets[n]),
        )
        if arm.fixed_bits is None:
            update.check_budget(m)
        uploaded[n] = upload_cost_bits(update)
        state.last_updates[n] = update
        updates.append(update)

    weights, biases, bits = aggregate(updates)
    state.global_model = Model(state.spec, weights, biases)
    if arm.quantized:
        state.global_bits = bits
    return _round_metrics(state, arm, round_index, uploaded, started)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    shards: list[np.ndarray] | None = None,
    config_text: str | None = None,
) -> tuple[list[RoundMetrics], SimState]:
    """Full T-round experiment; optionally writes the output directory.

    With zero rounds the single emitted row evaluates the random
    initialization. Two runs with the same config produce byte-identical
    metrics.csv and rounds.jsonl; wall-clock timings go to a separate file.
    """
    state = init_state(config, shards)
    arm = _arm_settings(config)
    metrics: list[RoundMetrics] = []
    if config.rounds == 0:
        metrics.append(_round_metrics(state, arm, 0, {}, time.perf_counter()))
    for r in range(1, config.rounds + 1):
        metrics.append(run_round(state, config, r))
        logger.info(
            "round %d/%d: loss %.4f acc %.4f",
            r,
            config.rounds,
            metrics[-1].test_loss,
            metrics[-1].test_accuracy,
        )
    if out_dir is not None:
        write_outputs(Path(out_dir), config, metrics, state, config_text)
    return metrics, state


def _cell(value) -> str:
    """A CSV cell: values of a tuple joined by ';', of a tuple of tuples by '|'."""
    if isinstance(value, tuple):
        sep = "|" if value and isinstance(value[0], tuple) else ";"
        return sep.join(_cell(v) for v in value)
    return str(value)  # a Python float's str is its repr, the shortest exact form


def metrics_csv_rows(metrics: list[RoundMetrics]) -> list[str]:
    rows = [",".join(METRICS_COLUMNS)]
    rows += [",".join(_cell(v) for v in m.row().values()) for m in metrics]
    return rows


def write_outputs(
    out_dir: Path,
    config: ExperimentConfig,
    metrics: list[RoundMetrics],
    state: SimState,
    config_text: str | None = None,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text("\n".join(metrics_csv_rows(metrics)) + "\n")
    with open(out_dir / "rounds.jsonl", "w") as fh:
        for m in metrics:
            fh.write(json.dumps(m.row(), sort_keys=True) + "\n")
    with open(out_dir / "timings.csv", "w") as fh:
        fh.write("round,wall_time_sec\n")
        for m in metrics:
            fh.write(f"{m.round_index},{m.wall_time_sec!r}\n")

    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    if state.global_bits is not None:
        widths = round_bitwidths(state.global_bits)
    else:
        widths = np.full(len(state.spec.layers), 8, dtype=np.int64)
    layers = binary_representation(state.global_model.layers, widths, config.train.scale_policy)
    write_checkpoint(ckpt_dir / "final.fmpq", layers)
    np.savez(
        ckpt_dir / "final_biases.npz",
        **{f"bias_{i}": b for i, b in enumerate(state.global_model.biases)},
    )
    if config_text is not None:
        manifest = {
            "algorithm": config.algorithm,
            "seed": config.seed,
            "rounds": config.rounds,
            "budgets": list(config.budgets),
            "config": config_text,
            "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
            "checkpoint_bits": [int(b) for b in widths],
            "param_counts": [int(c) for c in state.spec.param_counts],
            "files": ["metrics.csv", "rounds.jsonl", "timings.csv", "checkpoints/final.fmpq"],
            "version": _package_version(),
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _package_version() -> str:
    from . import __version__

    return __version__


def count_prunable_msb_planes(updates: list[ClientUpdate], epsilon: float) -> int:
    """Total planes across uploads that the MSB rule would drop at epsilon."""
    total = 0
    for update in updates:
        for layer in update.layers:
            _, width = prune_msbs(layer, epsilon)
            total += layer.bit_width - width
    return total
