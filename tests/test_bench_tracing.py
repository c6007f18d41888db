"""Contract between the package and the benchmark's traced mode.

``bench/run.py --trace 1`` wraps the functions listed in bench/tracing.py
wherever a fedmpq module holds them, and fails its run when one that must
run on the workload records no call. This runs that wrapping on short
versions of the benchmark workloads, so a refactor that renames, inlines or
stops calling a traced function fails here too. The bench files are only
read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from fedmpq.simulation import run_experiment

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("name", ["train-fedmpq", "train-fp32", "cross-device"])
def test_traced_run_records_every_required_call(name, tmp_path):
    # Two rounds of one local epoch keep the workload's data and model, so
    # the tracer still sees the layer shapes it splits its metrics by.
    workload = workloads.WORKLOADS[name]
    config = workloads.config_for({**workload.overrides, "seed": "1", "rounds": "2", "local_epochs": "1"})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_experiment(config, tmp_path)
    finally:
        tracer.uninstall()
    summary = tracer.summary(rounds=2, experiments=1)
    assert tracer.missing_calls(summary, quantized=config.algorithm != "fp32") == []
    assert summary["simulation.run_round.calls"] == 1.0
