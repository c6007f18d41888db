#!/usr/bin/env python3
"""Ablation study: how lasso, MSB pruning, and bit reallocation combine.

Runs the fixed-budget baseline plus fedmpq variants, each of which turns
off the stages it leaves out (lasso_coeff = 0, prune_threshold = none,
use_bit_reallocation = false), mirroring the usual ablation layout. The
setup is the INI config given (default configs/blobs.ini); the flags
override single keys of it.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from fedmpq.cli import add_override_flags
from fedmpq.config import parse_config
from fedmpq.simulation import run_experiment


NO_LASSO = {"lasso_coeff": "0"}
NO_MSB = {"prune_threshold": "none"}
NO_REALLOC = {"use_bit_reallocation": "false"}

VARIANTS = [
    ("baseline (fixed budgets)", "aqfl", {}),
    ("lasso", "fedmpq", {**NO_MSB, **NO_REALLOC}),
    ("msb", "fedmpq", {**NO_LASSO, **NO_REALLOC}),
    ("msb + lasso", "fedmpq", NO_REALLOC),
    ("msb + realloc", "fedmpq", NO_LASSO),
    ("msb + lasso + realloc", "fedmpq", {}),
]
# Each flag overrides the OVERRIDE_KEYS entry of its name; unset, the config's value holds.
FLAGS = ("rounds", "lasso_coeff", "prune_threshold")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", nargs="?", default=str(ROOT / "configs" / "blobs.ini"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    add_override_flags(parser, FLAGS)
    args = parser.parse_args()
    overrides = {flag: getattr(args, flag) for flag in FLAGS}

    print(f"{'variant':24s} {'median':>8s}  per-seed")
    for name, algorithm, stages_off in VARIANTS:
        accs = []
        for seed in args.seeds:
            config = parse_config(
                args.config, {**overrides, **stages_off, "algorithm": algorithm, "seed": str(seed)}
            )
            metrics, _ = run_experiment(config)
            accs.append(metrics[-1].test_accuracy)
        per_seed = " ".join(f"{a:.4f}" for a in accs)
        print(f"{name:24s} {float(np.median(accs)):8.4f}  {per_seed}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
