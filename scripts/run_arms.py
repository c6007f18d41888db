#!/usr/bin/env python3
"""Run the four algorithm arms over several seeds and tabulate accuracy.

The setup is the INI config given (default configs/blobs.ini: 10 clients
with budgets {2,2,4,4,4,6,6,6,8,8} training a bottlenecked MLP on
overlapping Gaussian blobs); the flags override single keys of it.
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

# Each flag overrides the OVERRIDE_KEYS entry of its name; unset, the config's value holds.
FLAGS = (
    "rounds",
    "alpha",
    "participation",
    "local_epochs",
    "learning_rate",
    "lasso_coeff",
    "prune_threshold",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("config", nargs="?", default=str(ROOT / "configs" / "blobs.ini"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    add_override_flags(parser, FLAGS)
    parser.add_argument(
        "--algorithms", nargs="+", default=["fp32", "fpq-k", "fedmpq", "aqfl"]
    )
    args = parser.parse_args()
    overrides = {flag: getattr(args, flag) for flag in FLAGS}

    results: dict[str, list[float]] = {}
    for algorithm in args.algorithms:
        for seed in args.seeds:
            arm = {**overrides, "algorithm": algorithm, "seed": str(seed)}
            metrics, _ = run_experiment(parse_config(args.config, arm))
            acc = metrics[-1].test_accuracy
            results.setdefault(algorithm, []).append(acc)
            print(f"{algorithm:8s} seed {seed}: final accuracy {acc:.4f}", flush=True)

    print("\nmedians over seeds:")
    for algorithm, accs in results.items():
        spread = f"[{min(accs):.4f}, {max(accs):.4f}]"
        print(f"  {algorithm:8s} {float(np.median(accs)):.4f}  range {spread}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
