#!/usr/bin/env python3
"""The study table: FedMPQ against the fixed-precision arms, and the
ablation of its Lasso, MSB-pruning and reallocation stages.

Each variant runs one algorithm with the stages it leaves out turned off
(lasso_coeff = 0, prune_threshold = none, use_bit_reallocation = false)
on top of the flags. The setup is the INI config given (default
configs/blobs.ini); the flags override single keys of it.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from fedmpq.cli import add_override_flags, guard
from fedmpq.config import parse_config
from fedmpq.simulation import run_experiment

NO_LASSO = {"lasso_coeff": "0"}
NO_MSB = {"prune_threshold": "none"}
NO_REALLOC = {"use_bit_reallocation": "false"}

# name -> (algorithm, the stages it turns off)
VARIANTS = {
    "fp32": ("fp32", {}),
    "fpq-k": ("fpq-k", {}),
    "aqfl": ("aqfl", {}),
    "lasso": ("fedmpq", {**NO_MSB, **NO_REALLOC}),
    "msb": ("fedmpq", {**NO_LASSO, **NO_REALLOC}),
    "msb+lasso": ("fedmpq", NO_REALLOC),
    "msb+realloc": ("fedmpq", NO_LASSO),
    "fedmpq": ("fedmpq", {}),
}
# Each flag overrides the OVERRIDE_KEYS entry of its name; unset, the config's value holds.
FLAGS = ("rounds", "alpha", "participation", "local_epochs", "learning_rate", "lasso_coeff", "prune_threshold")


def table(args: argparse.Namespace) -> int:
    overrides = {flag: getattr(args, flag) for flag in FLAGS}
    # Every config is parsed before the first run, so a bad one fails at once.
    runs = {}
    for name in args.variants:
        algorithm, stages_off = VARIANTS[name]
        arm = {**overrides, **stages_off, "algorithm": algorithm}
        runs[name] = [parse_config(args.config, {**arm, "seed": str(s)}) for s in args.seeds]
    print(f"{'variant':12s} {'median':>8s}  per-seed")
    for name, configs in runs.items():
        accs = [run_experiment(config)[0][-1].test_accuracy for config in configs]
        per_seed = " ".join(f"{a:.4f}" for a in accs)
        print(f"{name:12s} {float(np.median(accs)):8.4f}  {per_seed}", flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", nargs="?", default=str(ROOT / "configs" / "blobs.ini"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    add_override_flags(parser, FLAGS)
    parser.add_argument("--variants", nargs="+", choices=VARIANTS, default=list(VARIANTS))
    args = parser.parse_args()
    return guard("run", lambda: table(args))


if __name__ == "__main__":
    raise SystemExit(main())
