"""Command-line entry point: run, partition, inspect, compare."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, inspect_checkpoint
from .config import OVERRIDE_KEYS, ConfigError, parse_config, serialize_config
from .data import load_dataset
from .simulation import PartitionError, dirichlet_partition, run_experiment


OUTPUT_ROOT_ENV = "FEDMPQ_OUTPUT_ROOT"


def add_override_flags(parser: argparse.ArgumentParser, flags=OVERRIDE_KEYS) -> None:
    """One ``--flag-name`` option per OVERRIDE_KEYS entry in ``flags``; unset, it is None."""
    for flag in flags:
        parser.add_argument("--" + flag.replace("_", "-"), dest=flag, help=OVERRIDE_KEYS[flag])


def _load_config_with_overrides(args: argparse.Namespace):
    overrides = {f: getattr(args, f) for f in OVERRIDE_KEYS if getattr(args, f) is not None}
    config = parse_config(args.config, overrides)
    return config, serialize_config(config)


def _default_out_dir(config, config_path: str) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    stem = Path(config_path).stem
    return root / f"{stem}-{config.algorithm}-seed{config.seed}"


def _load_partition_file(path: str, n_clients: int) -> list[np.ndarray]:
    """Shards from a file written by ``fedmpq partition``; index ranges are
    checked against the dataset when the run starts."""
    try:
        shards = json.loads(Path(path).read_text())["shards"]
    except (OSError, ValueError) as exc:
        raise PartitionError(f"cannot read partition file {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise PartitionError(f"partition file {path} has no 'shards' list of lists") from exc
    # JSON true and 1.5 would cast to indices 1 and 1 without a word.
    if not isinstance(shards, list) or not all(
        isinstance(s, list) and all(type(i) is int for i in s) for s in shards
    ):
        raise PartitionError(f"partition file {path}: every shard must be a list of integers")
    if len(shards) != n_clients:
        raise PartitionError(
            f"partition file holds {len(shards)} shards but the config has "
            f"{n_clients} clients"
        )
    try:
        return [np.asarray(s, dtype=np.int64) for s in shards]
    except OverflowError as exc:
        raise PartitionError(f"partition file {path}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    try:
        config, canonical = _load_config_with_overrides(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else _default_out_dir(config, args.config)
    try:
        shards = None
        if config.data.partition:
            shards = _load_partition_file(config.data.partition, config.clients)
        # A diverging run is reported by the non-finite checks, as one line.
        with np.errstate(all="ignore"):
            metrics, _ = run_experiment(config, out_dir, shards, canonical)
    except (PartitionError, ValueError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    final = metrics[-1]
    print(
        f"{config.algorithm} seed={config.seed}: {len(metrics)} metric rows, "
        f"final accuracy {final.test_accuracy:.4f} -> {out_dir}"
    )
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    try:
        config, _ = _load_config_with_overrides(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        dataset = load_dataset(config.data, config.seed)
        shards = dirichlet_partition(
            dataset.train_y, config.clients, config.alpha, config.seed
        )
        record = {
            "alpha": config.alpha,
            "seed": config.seed,
            "clients": config.clients,
            "shards": [[int(i) for i in shard] for shard in shards],
        }
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, sort_keys=True) + "\n")
    except (PartitionError, ValueError, OSError) as exc:
        print(f"partition failed: {exc}", file=sys.stderr)
        return 1
    sizes = ", ".join(str(len(s)) for s in shards)
    print(f"wrote {out} with shard sizes [{sizes}]")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        report = inspect_checkpoint(args.checkpoint)
    except (CheckpointError, OSError) as exc:
        print(f"inspect failed: {exc}", file=sys.stderr)
        return 1
    print(f"checkpoint: {args.checkpoint}")
    print(f"layers: {len(report.layers)}  average bit-width: {report.average_bit_width:.3f}")
    for layer in report.layers:
        dens = ",".join(f"{d:.4f}" for d in layer.densities)
        print(
            f"layer {layer.index}: {layer.rows}x{layer.cols}  bits={layer.bit_width}  "
            f"scale={layer.scale:.6g}  zero_point={layer.zero_point}  densities={dens}"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for run_dir in args.runs:
        run = Path(run_dir)
        metrics_path = run / "metrics.csv"
        manifest_path = run / "manifest.json"
        if not metrics_path.exists():
            print(f"skipping {run}: no metrics.csv", file=sys.stderr)
            continue
        try:
            with open(metrics_path) as fh:
                acc = float(list(csv.DictReader(fh))[-1]["test_accuracy"])
        except (OSError, LookupError, TypeError, ValueError):
            print(f"skipping {run}: metrics.csv has no final test_accuracy", file=sys.stderr)
            continue
        algorithm, seed = run.name, ""
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
                algorithm = str(manifest.get("algorithm", algorithm))
                seed = str(manifest.get("seed", ""))
            except (OSError, ValueError, AttributeError) as exc:
                print(f"skipping {run}: unreadable manifest.json: {exc}", file=sys.stderr)
                continue
        rows.append((algorithm, seed, acc, run_dir))
    if not rows:
        print("nothing to compare", file=sys.stderr)
        return 1
    print(f"{'algorithm':<10} {'seed':>6} {'final_acc':>10}  run")
    for algorithm, seed, acc, run_dir in sorted(rows):
        print(f"{algorithm:<10} {seed!s:>6} {acc:>10.4f}  {run_dir}")
    by_algo: dict[str, list[float]] = {}
    for algorithm, _, acc, _ in rows:
        by_algo.setdefault(algorithm, []).append(acc)
    print("medians:")
    for algorithm in sorted(by_algo):
        print(f"  {algorithm:<10} {float(np.median(by_algo[algorithm])):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmpq")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config")
    run.add_argument("--out", help="output directory")
    add_override_flags(run)
    run.set_defaults(func=cmd_run)

    part = sub.add_parser("partition", help="materialize Dirichlet shards")
    part.add_argument("config")
    part.add_argument("--out", required=True, help="shard file to write")
    add_override_flags(part)
    part.set_defaults(func=cmd_partition)

    insp = sub.add_parser("inspect", help="summarize a checkpoint")
    insp.add_argument("checkpoint")
    insp.set_defaults(func=cmd_inspect)

    comp = sub.add_parser("compare", help="tabulate final accuracy across runs")
    comp.add_argument("runs", nargs="+")
    comp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
