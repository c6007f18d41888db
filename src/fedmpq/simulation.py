"""Experiment orchestration: partitioning, the round loop, and metrics.

Four algorithm arms share one round loop. ``fedmpq`` runs the full
pipeline (sparsity-promoting local training, MSB pruning, server-side bit
reallocation); ``aqfl`` fixes every client at its own budget; ``fpq-k``
fixes everyone at ``fpq_bits``; ``fp32`` trains full precision. A round
runs in three passes over its sampled clients: deliver every model, train
every client, accept every upload; the server state changes only once all
three have passed and the uploads are aggregated. Everything is
deterministic given the master seed: clients own private RNG streams keyed
by (seed, client, round) and aggregation sorts by client id.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import record_bytes, write_checkpoint
from .data import DataConfig, Dataset, load_dataset
from .nn import (
    Model,
    ModelConfig,
    TrainConfig,
    build_model_spec,
    evaluate,
    init_dense_model,
    local_update,
    local_update_dense,
)
from .quant import FP_WIRE_BITS, MAX_BITS, QuantizedLayer, plane_density
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
        if any(not (1 <= v <= MAX_BITS) for v in self.budgets):
            raise ValueError(f"budgets must lie in [1, {MAX_BITS}]")
        # Written so that NaN fails it too.
        if not (0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (1 <= self.fpq_bits <= MAX_BITS):
            raise ValueError(f"fpq_bits must lie in [1, {MAX_BITS}]")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    test_loss: float
    test_accuracy: float
    global_bits: tuple[float, ...]
    client_avg_bits: tuple[float, ...]
    plane_densities: tuple[tuple[float, ...], ...]
    uploaded_bits: tuple[int, ...]
    total_uploaded_bits: int
    wall_time_sec: float

    def row(self) -> dict:
        """One row of metrics.csv and rounds.jsonl: the METRICS_COLUMNS in order."""
        return {c: getattr(self, c) for c in METRICS_COLUMNS}


# Every field but the wall time, which cannot be byte-reproducible.
METRICS_COLUMNS = tuple(f.name for f in fields(RoundMetrics) if f.name != "wall_time_sec")


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
    draw is retried until every client holds at least one sample. Labels
    are class indices, non-negative integers.
    """
    if not (0.0 < alpha < math.inf):
        raise ValueError("alpha must be positive and finite")
    labels = np.asarray(labels)
    rng = np.random.default_rng([seed, _SALT_PARTITION])
    # The classes present, in increasing order; np.unique would import
    # numpy.ma into every run.
    classes = np.flatnonzero(np.bincount(labels))
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


def read_partition(path: str) -> list[np.ndarray]:
    """Shards from a file written by ``fedmpq partition``; ``init_state``
    checks them against the config and the dataset."""
    try:
        shards = json.loads(Path(path).read_text())["shards"]
    except (OSError, ValueError) as exc:
        raise PartitionError(f"cannot read partition file {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise PartitionError(f"partition file {path} has no 'shards' list of lists") from exc
    # JSON true and 1.5 would cast to indices 1 and 1 without a word.
    if not isinstance(shards, list) or not all(
        isinstance(s, list) and all(type(i) is int for i in s) for s in shards
    ):
        raise PartitionError(f"partition file {path}: every shard must be a list of integers")
    try:
        return [np.asarray(s, dtype=np.int64) for s in shards]
    except OverflowError as exc:
        raise PartitionError(f"partition file {path}: {exc}") from exc


def shards_sha256(shards: list[np.ndarray]) -> str:
    """SHA-256 of the shards written as a partition file's ``shards`` list,
    ``json.dumps`` of the lists of indices, so a run names the split it
    trained on whether it came from a file or from the Dirichlet draw."""
    return hashlib.sha256(json.dumps([s.tolist() for s in shards]).encode()).hexdigest()


def sample_clients(n_clients: int, fraction: float, round_index: int, seed: int) -> np.ndarray:
    """ceil(fraction * N) distinct ids, uniform without replacement.

    The product is taken on the decimal the fraction prints as, so 0.07 of
    100 is 7 ids, not the 8 that the float product 7.000000000000001 gives.
    """
    count = math.ceil(Fraction(str(fraction)) * n_clients)
    rng = np.random.default_rng([seed, _SALT_SAMPLE, round_index])
    return np.sort(rng.choice(n_clients, size=count, replace=False))


@dataclass(frozen=True)
class _ArmSettings:
    train: TrainConfig  # the arm's client training, its Lasso and pruning resolved
    use_bit_reallocation: bool
    fixed_bits: int | None  # uniform width for every layer and client (32 for fp32), or None

    @property
    def quantized(self) -> bool:
        return self.fixed_bits != FP_WIRE_BITS


def _arm_settings(config: ExperimentConfig) -> _ArmSettings:
    if config.algorithm == "fedmpq":
        return _ArmSettings(config.train, config.use_bit_reallocation, None)
    # The baselines train without the Lasso and without MSB pruning.
    plain = replace(config.train, lasso_coeff=0.0, prune_threshold=None)
    if config.algorithm == "fp32":
        return _ArmSettings(replace(plain, activation_bits=None), False, FP_WIRE_BITS)
    if config.algorithm == "fpq-k":
        return _ArmSettings(replace(plain, activation_bits=config.fpq_bits), False, config.fpq_bits)
    return _ArmSettings(plain, False, None)


@dataclass
class SimState:
    """What the server holds between rounds: the global model, its integer
    widths (the aggregated widths rounded; None until a quantized round
    aggregates) and, per client and layer, the widths the client was last
    delivered and the widths it last uploaded. A client that has not trained
    yet holds its default widths in both: the arm's fixed width, otherwise
    its budget."""

    dataset: Dataset
    shards: list[np.ndarray]
    global_model: Model
    global_widths: np.ndarray | None  # int64, (layers,)
    delivered: np.ndarray  # int64, (clients, layers)
    uploaded: np.ndarray  # int64, (clients, layers)


def init_state(config: ExperimentConfig) -> SimState:
    """The state before round 1. Clients hold the shards of ``data.partition``
    if it names a file, read before the dataset, else a Dirichlet split."""
    shards = read_partition(config.data.partition) if config.data.partition else None
    dataset = load_dataset(config.data, config.seed)
    if shards is None:
        shards = dirichlet_partition(
            dataset.train_y, config.clients, config.alpha, config.seed
        )
    if len(shards) != config.clients:
        raise PartitionError(
            f"partition holds {len(shards)} shards but the config has {config.clients} clients"
        )
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
    fixed = _arm_settings(config).fixed_bits
    defaults = config.budgets if fixed is None else (fixed,) * config.clients
    widths = np.repeat(np.asarray(defaults, dtype=np.int64)[:, None], len(spec.layers), axis=1)
    return SimState(
        dataset=dataset,
        shards=shards,
        global_model=init_dense_model(spec, rng),
        global_widths=None,
        delivered=widths,
        uploaded=widths.copy(),
    )


def _delivery_bits(state: SimState, arm: _ArmSettings, client: int, budget: float) -> np.ndarray:
    """Integer bit widths this client's model is delivered at this round."""
    if not arm.use_bit_reallocation or state.global_widths is None:
        # Without server-side reallocation, and before the first quantized
        # aggregate, a client keeps the widths it last uploaded: what its own
        # pruning left behind, or its defaults.
        return state.uploaded[client].copy()
    reductions = state.delivered[client] - state.uploaded[client]
    return pruning_growing(
        state.global_widths, reductions, state.global_model.spec.param_counts, budget
    )


def upload_cost_bits(update: ClientUpdate) -> int:
    """Wire cost of one upload.

    A quantized layer travels as a checkpoint record. Real matrices and
    biases travel at 32 bits per entry.
    """
    total = FP_WIRE_BITS * sum(len(b) for b in update.biases)
    for layer, bits in zip(update.layers, update.bit_widths):
        # Only a real matrix has the 32-bit width.
        total += bits * layer.size if bits == FP_WIRE_BITS else 8 * record_bytes(layer)
    return total


def _client_avg_bits(state: SimState) -> tuple[float, ...]:
    """Weighted average delivered width per client: average_bits for every
    row at once. The int64 sums are exact and each is divided once, as the
    Python integers are."""
    counts = state.global_model.spec.param_counts
    sums = state.delivered @ np.array(counts, dtype=np.int64)
    return tuple((sums / sum(counts)).tolist())


def _global_densities(state: SimState) -> tuple[tuple[float, ...], ...]:
    if state.global_widths is None:  # fp32, or no round aggregated yet
        return ()
    layers = binary_representation(state.global_model.layers, state.global_widths)
    return tuple(plane_density(layer) for layer in layers)


def _round_metrics(
    state: SimState,
    config: ExperimentConfig,
    round_index: int,
    upload_bits: dict[int, int],
    started: float,
    global_bits=(),
) -> RoundMetrics:
    """The round's metrics row; ``global_bits`` is the round's aggregated,
    fractional width vector, empty when no quantized round aggregated."""
    data = state.dataset
    loss, acc = evaluate(state.global_model, data.test_x, data.test_y)
    per_client = tuple(upload_bits.get(n, 0) for n in range(config.clients))
    return RoundMetrics(
        round=round_index,
        test_loss=loss,
        test_accuracy=acc,
        global_bits=tuple(float(x) for x in global_bits),
        client_avg_bits=_client_avg_bits(state),
        plane_densities=_global_densities(state),
        uploaded_bits=per_client,
        total_uploaded_bits=int(sum(per_client)),
        wall_time_sec=time.perf_counter() - started,
    )


def _seed_words(*values: int) -> np.ndarray:
    """The uint32 words SeedSequence derives from a list of non-negative
    ints: each int's 32-bit little-endian words, at least one per int.
    Prebuilt, they give the list's generator state without SeedSequence's
    Python-level coercion of the list."""
    words = []
    for v in values:
        if v < 0:
            raise ValueError(f"seed entries must be non-negative, got {v}")
        while True:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
            if not v:
                break
    return np.array(words, dtype=np.uint32)


def run_round(state: SimState, config: ExperimentConfig, round_index: int) -> RoundMetrics:
    """One global round: three passes over the sampled clients in id order,
    then FedAvg aggregation and reallocation, shared by every arm.

    Deliver reads ``state``: each client's widths, checked against its
    budget, its generator keyed by (seed, client, round) and its model at
    those widths; clients delivered one width share each layer, and its
    memoized plane stack and Lasso term, through ``grids``, which is
    dropped once every client is delivered. Train gathers each client's
    shard and trains on it; a model that is not finite fails the round.
    Each delivered model is released once its client has trained, so a
    shared layer and its memo are freed after their last client. Accept
    turns each trained model into a ClientUpdate, checks its widths and
    counts its wire cost. Only after the aggregate does ``state`` change,
    so a round that fails leaves it as it was; the error names the round
    and the client.
    """
    started = time.perf_counter()
    arm = _arm_settings(config)
    global_model = state.global_model
    m = global_model.spec.param_counts

    jobs = []  # (client, delivered widths, generator, delivered model)
    grids: dict[tuple[int, int], QuantizedLayer] = {}  # delivered layers, shared by clients
    for n in sample_clients(config.clients, config.participation, round_index, config.seed).tolist():
        widths = _delivery_bits(state, arm, n, config.budgets[n])
        if arm.fixed_bits is None:
            check_width_budget(n, widths, m, config.budgets[n], "delivered widths")
        rng = np.random.default_rng(_seed_words(config.seed, _SALT_CLIENT, n, round_index))
        model = global_model
        if arm.quantized:
            try:
                layers = binary_representation(global_model.layers, widths, grids)
            except ValueError as exc:
                raise ValueError(f"round {round_index}, client {n}: {exc}") from exc
            model = Model(global_model.spec, layers, global_model.biases)
        jobs.append((n, widths, rng, model))
    del grids

    train = local_update if arm.quantized else local_update_dense
    trained = []  # (client, delivered widths, trained model)
    jobs.reverse()  # popped in client order, so each delivered model goes once trained
    while jobs:
        n, widths, rng, model = jobs.pop()
        idx = state.shards[n]
        try:
            model = train(model, state.dataset.train_x[idx], state.dataset.train_y[idx], arm.train, rng)
            arrays = [*model.biases, *([] if arm.quantized else model.layers)]
            if not np.isfinite(np.concatenate(arrays, axis=None)).all():
                raise ValueError("trained model is not finite")
        except ValueError as exc:
            raise ValueError(f"round {round_index}, client {n}: {exc}") from exc
        trained.append((n, widths, model))

    updates: list[ClientUpdate] = []
    upload_bits: dict[int, int] = {}  # wire cost per sampled client
    for n, widths, model in trained:
        update = ClientUpdate(
            client_id=n,
            layers=tuple(model.layers),
            biases=tuple(model.biases),
            delivered_bits=tuple(widths.tolist()),
            num_samples=len(state.shards[n]),
            budget=float(config.budgets[n]),
        )
        if arm.fixed_bits is None:
            update.check_budget(m)
        upload_bits[n] = upload_cost_bits(update)
        updates.append(update)

    weights, biases, bits = aggregate(updates)
    state.delivered[list(upload_bits)] = [u.delivered_bits for u in updates]
    state.uploaded[list(upload_bits)] = [u.bit_widths for u in updates]
    state.global_model = Model(global_model.spec, weights, biases)
    if arm.quantized:
        state.global_widths = round_bitwidths(bits)
    else:
        bits = ()  # real matrices: no grid widths to report
    return _round_metrics(state, config, round_index, upload_bits, started, bits)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> tuple[list[RoundMetrics], SimState]:
    """Full T-round experiment; optionally writes the output directory.

    With zero rounds the single emitted row evaluates the random
    initialization. Two runs with the same config produce byte-identical
    metrics.csv and rounds.jsonl; wall-clock timings go to a separate file.
    """
    state = init_state(config)
    metrics: list[RoundMetrics] = []
    if config.rounds == 0:
        metrics.append(_round_metrics(state, config, 0, {}, time.perf_counter()))
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
        write_outputs(Path(out_dir), config, metrics, state)
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
) -> None:
    # config.py imports this module, so its serializer is imported here.
    from .config import serialize_config

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text("\n".join(metrics_csv_rows(metrics)) + "\n")
    with open(out_dir / "rounds.jsonl", "w") as fh:
        for m in metrics:
            fh.write(json.dumps(m.row(), sort_keys=True) + "\n")
    with open(out_dir / "timings.csv", "w") as fh:
        fh.write("round,wall_time_sec\n")
        for m in metrics:
            fh.write(f"{m.round},{m.wall_time_sec!r}\n")

    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    widths = state.global_widths
    if widths is None:
        widths = np.full(len(state.global_model.spec.layers), MAX_BITS, dtype=np.int64)
    layers = binary_representation(state.global_model.layers, widths)
    write_checkpoint(ckpt_dir / "final.fmpq", layers)
    np.savez(
        ckpt_dir / "final_biases.npz",
        **{f"bias_{i}": b for i, b in enumerate(state.global_model.biases)},
    )
    config_text = serialize_config(config)
    manifest = {
        "algorithm": config.algorithm,
        "seed": config.seed,
        "rounds": config.rounds,
        "budgets": list(config.budgets),
        "config": config_text,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "shards_sha256": shards_sha256(state.shards),
        "checkpoint_bits": [int(b) for b in widths],
        "param_counts": [int(c) for c in state.global_model.spec.param_counts],
        "files": [
            "metrics.csv",
            "rounds.jsonl",
            "timings.csv",
            "checkpoints/final.fmpq",
            "checkpoints/final_biases.npz",
        ],
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
