"""Byte-identity gates: fixed configs must reproduce committed outputs.

The benchmark's own configs and golden files (bench/workloads.py,
bench/golden/) are only read here. Two further shapes of the round loop
have their goldens in tests/golden/: all three deterministic outputs of a
3-round run at seed 1.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedmpq.config import parse_config
from fedmpq.simulation import run_experiment

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# Overrides of configs/blobs.ini, as the CLI flags would give them.
WIDER = {
    "no-reallocation": {"use_bit_reallocation": "false"},
    "cross-device": {
        "clients": "200",
        "participation": "0.5",
        "local_epochs": "1",
        "budgets": ",".join(["2", "4", "6", "8"] * 50),
    },
}
OUTPUTS = ("metrics.csv", "rounds.jsonl", "checkpoints/final.fmpq")


@pytest.mark.parametrize("arm", workloads.GOLDEN_ARMS)
def test_metrics_match_golden(arm, tmp_path):
    run_experiment(workloads.golden_config(arm), tmp_path)
    golden = BENCH / "golden" / f"{arm}.metrics.csv"
    assert (tmp_path / "metrics.csv").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("name", sorted(WIDER))
def test_outputs_match_golden(name, tmp_path):
    config = parse_config(ROOT / "configs" / "blobs.ini", {**WIDER[name], "seed": "1", "rounds": "3"})
    run_experiment(config, tmp_path)
    for output in OUTPUTS:
        golden = ROOT / "tests" / "golden" / name / Path(output).name
        assert (tmp_path / output).read_bytes() == golden.read_bytes(), output
