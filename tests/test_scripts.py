"""Smoke runs of the study scripts: each reads configs/blobs.ini through the
config parser, so a config key they rely on cannot go without a failure here."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ACCURACY = r"[01]\.\d{4}"


def run_script(name: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), "--rounds", "1", "--seeds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_arms_one_row_per_arm():
    lines = run_script("run_arms.py")
    medians = lines[lines.index("medians over seeds:") + 1 :]
    assert [line.split()[0] for line in medians] == ["fp32", "fpq-k", "fedmpq", "aqfl"]
    pattern = rf"\s+\S+\s+{ACCURACY}  range \[{ACCURACY}, {ACCURACY}\]"
    assert all(re.fullmatch(pattern, line) for line in medians)


def test_run_ablation_one_row_per_variant():
    header, *rows = run_script("run_ablation.py")
    assert header.split() == ["variant", "median", "per-seed"]
    assert len(rows) == 6
    assert all(re.fullmatch(rf".+ {ACCURACY}  {ACCURACY}", row) for row in rows)
