"""Smoke runs of the study script: it reads configs/blobs.ini through the
config parser, so a config key it relies on cannot go without a failure here."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_variants.py"
ACCURACY = r"[01]\.\d{4}"
VARIANTS = ["fp32", "fpq-k", "aqfl", "lasso", "msb", "msb+lasso", "msb+realloc", "fedmpq"]


def run_script(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=300
    )


def table_rows(variants: list[str], seeds: list[str]) -> list[str]:
    """Runs one round per seed and checks the header and one row per variant, in order."""
    proc = run_script("--rounds", "1", "--seeds", *seeds, "--variants", *variants)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["variant", "median", "per-seed"]
    assert [row.split()[0] for row in rows] == variants
    per_seed = " ".join([ACCURACY] * len(seeds))
    assert all(re.fullmatch(rf"\S+\s+{ACCURACY}  {per_seed}", row) for row in rows)
    return rows


def test_run_variants_one_row_per_variant():
    proc = run_script("--rounds", "1", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == table_rows(VARIANTS, ["1"])


def test_run_arms_one_row_per_arm():
    table_rows(["fp32", "fpq-k", "fedmpq", "aqfl"], ["1"])


def test_run_ablation_one_row_per_variant():
    table_rows(["aqfl", "lasso", "msb", "msb+lasso", "msb+realloc", "fedmpq"], ["1", "2"])


def test_run_variants_bad_config_is_one_line(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nclients = 0\n")
    proc = run_script(str(bad), "--seeds", "1")
    assert proc.returncode == 2
    assert proc.stderr == "config error: clients must be at least 1\n"
    assert "Traceback" not in proc.stdout
