#!/usr/bin/env python3
"""Toggle study: how lasso, MSB pruning, and bit reallocation combine.

Runs the fixed-budget baseline plus fedmpq variants with each subroutine
switched on or off, mirroring the usual ablation layout. The setup is the
INI config given (default configs/blobs.ini); the flags override single
keys of it.
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


def toggles(lasso: bool, msb: bool, realloc: bool) -> dict[str, str]:
    keys = ("use_lasso", "use_msb_pruning", "use_bit_reallocation")
    return {key: str(on).lower() for key, on in zip(keys, (lasso, msb, realloc))}


VARIANTS = [
    ("baseline (fixed budgets)", "aqfl", {}),
    ("lasso", "fedmpq", toggles(True, False, False)),
    ("msb", "fedmpq", toggles(False, True, False)),
    ("msb + lasso", "fedmpq", toggles(True, True, False)),
    ("msb + realloc", "fedmpq", toggles(False, True, True)),
    ("msb + lasso + realloc", "fedmpq", toggles(True, True, True)),
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
    for name, algorithm, switches in VARIANTS:
        accs = []
        for seed in args.seeds:
            config = parse_config(
                args.config, {**overrides, **switches, "algorithm": algorithm, "seed": str(seed)}
            )
            metrics, _ = run_experiment(config)
            accs.append(metrics[-1].test_accuracy)
        per_seed = " ".join(f"{a:.4f}" for a in accs)
        print(f"{name:24s} {float(np.median(accs)):8.4f}  {per_seed}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
