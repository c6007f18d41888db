#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/sweep.py --workloads train-fedmpq --seeds 1 2 3 4 5
    python3 bench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --baseline bench/baseline.json

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles over the median. Runs are made one at a
time so they do not compete for the cores.

With ``--baseline`` it also makes one traced run per workload and writes
the end-to-end summary, the per-layer table (with the end-to-end metric
each layer metric should move), each module's share of round self time,
and the machine facts to the given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import ROUND, TRACED, metric_specs, span_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("simulation", "data", "nn", "quant", "ste", "server", "checkpoint")


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def module_shares(per_layer: dict) -> dict[str, float]:
    """Each module's share of the self time spent inside rounds."""
    totals = dict.fromkeys(MODULES, 0.0)
    for fn in TRACED:
        if fn.scope == ROUND:
            for base in span_names(fn):
                totals[fn.module] += per_layer[f"{base}.self_s"]
    whole = sum(totals.values())
    return {m: t / whole for m, t in totals.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--baseline", type=Path, help="also trace each workload and write the baseline here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, seed, seconds, 0) for seed in args.seeds]
        bad = [r for _, r in runs if not r["correct"]]
        names = list(runs[0][1]["metrics"])
        table = {n: summarize([r["metrics"][n]["value"] for _, r in runs]) for n in names}
        print(f"{workload}: {len(runs)} runs, {len(bad)} incorrect")
        for n, s in table.items():
            bound = bounds.get(n)
            flag = "" if bound is None or n == "setup_s" or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {n:24s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                  f" spread {s['spread']:.4f} (bound {bound}){flag}")
            print("    " + " ".join(f"{v:.6g}" for v in s["values"]))
        entry = {
            "end_to_end": {n: {"unit": runs[0][1]["metrics"][n]["unit"], **table[n]} for n in names},
            "quality": {q: [rep["quality"][q]["value"] for rep, _ in runs] for q in runs[0][0]["quality"]},
            "machine": runs[0][0]["machine"],
        }
        if args.baseline:
            report, result = bench(workload, args.seeds[0], seconds, 1)
            per_layer = {k: v["value"] for k, v in result["metrics"].items()}
            moves = {s["name"]: s["moves"] for s in metric_specs()}
            entry["traced"] = {
                "seed": args.seeds[0],
                "correct": result["correct"],
                "golden_match": report.get("golden_match"),
                "missing_calls": report["missing_calls"],
                "module_self_share": module_shares(per_layer),
                "per_layer": {
                    k: {"value": v["value"], "unit": v["unit"], "moves": moves[k]}
                    for k, v in result["metrics"].items()
                },
            }
            shares = entry["traced"]["module_self_share"]
            print("  round self-time share: " + ", ".join(f"{m} {s:.3f}" for m, s in shares.items()))
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
