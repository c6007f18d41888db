"""The benchmark's workloads, built the way the CLI builds a run.

Every workload starts from ``configs/blobs.ini`` and changes it only
through ``fedmpq.config.apply_overrides`` followed by
``parse_config_text``, so the benchmark holds no copy of the setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASE_CONFIG = ROOT / "configs" / "blobs.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    overrides: dict[str, str]
    # Rounds of one experiment. A run repeats the experiment at one seed, so
    # every run times the same mix of early (wide) and later (pruned) rounds.
    rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-fedmpq",
            "headline fedmpq arm as configured: bulk bit-plane training, lasso, "
            "MSB pruning and reallocation dominate a round",
            {},
            2,
        ),
        Workload(
            "train-fp32",
            "same data, model and schedule with quant and ste bypassed: the "
            "no-change side of any quant or ste change",
            {"algorithm": "fp32"},
            20,
        ),
        Workload(
            "cross-device",
            "200 clients, half sampled, one local epoch: per-client fixed costs "
            "in ste, delivery and aggregation outweigh the arithmetic",
            {
                "clients": "200",
                "participation": "0.5",
                "local_epochs": "1",
                "budgets": ",".join(["2", "4", "6", "8"] * 50),
            },
            4,
        ),
    )
}

# Quantized arms whose 3-round metrics.csv at seed 1 is committed under
# golden/ as the byte-identity gate for refactors of the training path.
GOLDEN_ARMS = ("fedmpq", "aqfl", "fpq-k")
GOLDEN_SEED = 1
GOLDEN_ROUNDS = 3


def config_for(overrides: dict[str, str]):
    """The ExperimentConfig the CLI would build from blobs.ini and these flags."""
    from fedmpq.config import apply_overrides, parse_config_text

    return parse_config_text(apply_overrides(BASE_CONFIG.read_text(), overrides))


def workload_config(workload: Workload, seed: int):
    return config_for(
        {**workload.overrides, "seed": str(seed), "rounds": str(workload.rounds)}
    )


def golden_config(arm: str):
    return config_for(
        {"algorithm": arm, "seed": str(GOLDEN_SEED), "rounds": str(GOLDEN_ROUNDS)}
    )
