"""Byte-identity gates: fixed configs must reproduce committed outputs.

The benchmark's own configs and golden files (bench/workloads.py,
bench/golden/) are only read here. Three further shapes of the round loop
have their goldens in tests/golden/: fedmpq without reallocation, fedmpq
without the Lasso, and the cross-device shape; so has the fp32 arm at the
weight-space rate 0.05 (at the shared 0.5 it collapses to chance). Each
holds all three deterministic outputs of a 3-round run at seed 1.

pytest runs at the machine's default BLAS thread count and bench/run.py at
one thread; the last test reruns the comparisons at one thread.
"""

import importlib.util
import os
import subprocess
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

# Overrides of configs/blobs.ini, as the CLI flags would give them. The
# cross-device shape is the benchmark workload's own.
WIDER = {
    "fp32": {"algorithm": "fp32", "learning_rate": "0.05"},
    "no-reallocation": {"use_bit_reallocation": "false"},
    "no-lasso": {"lasso_coeff": "0"},
    "cross-device": workloads.WORKLOADS["cross-device"].overrides,
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


@pytest.mark.slow
def test_goldens_hold_at_one_blas_thread(tmp_path):
    # A float64 matmul's bits may depend on the BLAS thread count, so
    # the byte-identity above is rechecked in a fresh process, where the
    # thread count is read when numpy loads its BLAS.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    tests = [f"{__file__}::{t.__name__}" for t in (test_metrics_match_golden, test_outputs_match_golden)]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--basetemp={tmp_path}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-3000:]
    assert f"{len(workloads.GOLDEN_ARMS) + len(WIDER)} passed" in result.stdout
