"""Byte-identity gate: the committed golden metrics.csv of each quantized arm.

The configs and the golden files are the benchmark's own
(bench/workloads.py, bench/golden/); this test only reads them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedmpq.simulation import run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("arm", workloads.GOLDEN_ARMS)
def test_metrics_match_golden(arm, tmp_path):
    run_experiment(workloads.golden_config(arm), tmp_path)
    golden = BENCH / "golden" / f"{arm}.metrics.csv"
    assert (tmp_path / "metrics.csv").read_bytes() == golden.read_bytes()
