"""The benchmark's command, run as the benchmark pipeline runs it.

Each workload that BENCHMARK.json declares runs untraced for zero seconds
(two experiments) in its own process. Its last line must parse as the
result the pipeline reads, with every round correct, so a change that
makes a workload fail, lose determinism or print a malformed result fails
here too. An untraced run writes only to a temporary folder, which it
removes; the bench files are only read.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _files_under(folder: Path) -> set[Path]:
    return {p for p in folder.rglob("*") if p.is_file() and "__pycache__" not in p.parts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_a_correct_result(workload):
    before = _files_under(BENCH)
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "0", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, run.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) >= {"round_s.p50", "samples_per_s", "setup_s", "peak_rss_mib"}
    assert _files_under(BENCH) == before
