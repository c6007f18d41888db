#!/usr/bin/env python3
"""fedmpq benchmark: round-loop workloads, end to end and layer by layer.

    python3 bench/run.py --workload train-fedmpq --seed 1 --seconds 30 --trace 0

Run from the repository root. Each workload (see workloads.py) is one
experiment of a fixed number of rounds on ``configs/blobs.ini``, driven
through ``init_state`` and ``run_round`` in this process with one worker
and one BLAS thread. A run repeats that experiment at ``--seed`` until
``--seconds`` have passed, and at least twice.

End-to-end metrics:

* ``round_s.p50``: median over the experiment's rounds of each round's
  wall time, rescaled to a fixed machine speed: every round is followed
  by a fixed reference kernel (reference.py), the round's time is divided
  by the kernel's, and the ratio is multiplied by the kernel's nominal
  time. On a shared machine whose speed swings by more than 1.5x for
  seconds to minutes this cancels the swing; the raw round times are in
  the report line under ``round_s``.
* ``samples_per_s``: client training samples (local epochs times shard
  size, summed over participants and rounds) over the summed rescaled
  round times.
* ``setup_s``: median of several fresh processes' time from start to the
  point where round 1 could start (see setup_probe.py).
* ``peak_rss_mib``: peak resident memory of this process.
* ``upload_mbit_per_round``: mean ``total_uploaded_bits`` per round.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced experiments, prints the per-layer metrics of the
traced ones (see tracing.py) and writes their spans to ``bench/out/``.
Its train-fedmpq run also checks the golden ``metrics.csv`` files.

Correctness gate, counted in failed rounds: a round fails if it raises,
if its test loss is not finite or its accuracy lies outside [0, 1], or
if its experiment's ``metrics.csv`` and ``rounds.jsonl`` differ from the
first experiment of the run (the determinism contract). A traced run
also fails if a function that must run on the workload records no call.

The second-to-last line of output is a report: machine facts, the
checks, sample counts and the quality figures. The last line is
``{"correct", "attempted", "failed", "metrics"}``.

``--write-golden`` regenerates the golden files instead.
"""

from __future__ import annotations

import os

# Held before numpy loads; the workloads' matrices are far too small to
# gain from BLAS threads, and one thread keeps timings steady.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden"
SETUP_PROBES = 9
sys.path.insert(0, str(ROOT / "src"))

from reference import NOMINAL_S, reference_s  # noqa: E402
from tracing import OVERHEAD, Tracer, metric_specs  # noqa: E402
from workloads import GOLDEN_ARMS, WORKLOADS, golden_config, workload_config  # noqa: E402

E2E_UNITS = {
    "round_s.p50": "s",
    "samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "upload_mbit_per_round": "Mbit",
}


@dataclass
class Experiment:
    round_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference kernel, timed after each round
    samples: list[int] = field(default_factory=list)
    bad: list[bool] = field(default_factory=list)  # one flag per attempted round
    errors: list[str] = field(default_factory=list)
    accuracy: float = math.nan
    test_loss: float = math.nan
    upload_bits: list[int] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # SHA-256 of the deterministic outputs
    metrics_csv: bytes = b""


def run_experiment(config, out_dir: Path) -> Experiment:
    """init_state, the rounds (each timed), then write_outputs."""
    from fedmpq import simulation

    exp = Experiment()
    state = simulation.init_state(config)
    rows = []
    for r in range(1, config.rounds + 1):
        started = time.perf_counter()
        try:
            m = simulation.run_round(state, config, r)
        except Exception:  # a failing round is counted, and ends its experiment
            exp.bad.append(True)
            exp.errors.append(f"round {r}: {traceback.format_exc(limit=3)}")
            break
        exp.round_s.append(time.perf_counter() - started)
        exp.ref_s.append(reference_s())
        participants = simulation.sample_clients(config.clients, config.participation, r, config.seed)
        exp.samples.append(config.train.local_epochs * sum(len(state.shards[n]) for n in participants))
        ok = math.isfinite(m.test_loss) and 0.0 <= m.test_accuracy <= 1.0
        if not ok:
            exp.errors.append(f"round {r}: loss {m.test_loss!r}, accuracy {m.test_accuracy!r}")
        exp.bad.append(not ok)
        rows.append(m)
        exp.accuracy, exp.test_loss = m.test_accuracy, m.test_loss
        exp.upload_bits.append(m.total_uploaded_bits)
    try:
        simulation.write_outputs(out_dir, config, rows, state)
    except Exception:  # e.g. a diverged model that cannot be checkpointed
        exp.errors.append(f"write_outputs: {traceback.format_exc(limit=3)}")
        exp.bad = [True] * len(exp.bad)
        return exp
    exp.metrics_csv = (out_dir / "metrics.csv").read_bytes()
    exp.digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("metrics.csv", "rounds.jsonl")
    }
    return exp


def check_determinism(exps: list[Experiment]) -> None:
    """Every experiment of a run must reproduce the first one byte for byte."""
    for exp in exps[1:]:
        if exp.digests != exps[0].digests:
            exp.errors.append("outputs differ from the run's first experiment")
            exp.bad = [True] * len(exp.bad)


def setup_probes(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
    return times


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
    }


def normalized_round_s(exps: list[Experiment]) -> list[float]:
    """Per round of the experiment, its median over the run's repeats of the
    round's time over the reference kernel's, in seconds at nominal speed."""
    ratios = ([t / k for t, k in zip(e.round_s, e.ref_s)] for e in exps)
    return [statistics.median(r) * NOMINAL_S for r in zip(*ratios)]


def repeat_until(deadline: float, make, at_least) -> list[Experiment]:
    exps: list[Experiment] = []
    while not at_least(len(exps)) or time.perf_counter() < deadline:
        exps.append(make(len(exps)))
    return exps


def golden_checks(tmp: Path) -> tuple[dict[str, bool], list[Experiment]]:
    matches, exps = {}, []
    for arm in GOLDEN_ARMS:
        exp = run_experiment(golden_config(arm), tmp / f"golden-{arm}")
        matches[arm] = exp.metrics_csv == (GOLDEN / f"{arm}.metrics.csv").read_bytes()
        if not matches[arm]:
            exp.errors.append(f"{arm}: metrics.csv differs from golden/{arm}.metrics.csv")
            exp.bad = [True] * len(exp.bad)
        exps.append(exp)
    return matches, exps


def untraced_run(workload, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict, list[Experiment]]:
    config = workload_config(workload, seed)
    setup = setup_probes(workload.name, seed)
    deadline = time.perf_counter() + seconds
    exps = repeat_until(deadline, lambda i: run_experiment(config, tmp / f"exp{i}"), lambda n: n >= 2)
    check_determinism(exps)
    round_s = [t for e in exps for t in e.round_s]
    norm = normalized_round_s(exps)
    ref = exps[0]
    metrics = {
        "round_s.p50": statistics.median(norm),
        "samples_per_s": sum(ref.samples[: len(norm)]) / sum(norm),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "upload_mbit_per_round": statistics.fmean(ref.upload_bits) / 1e6,
    }
    extra = {
        "samples": {
            "round_s.p50": len(round_s),
            "samples_per_s": len(round_s),
            "setup_s": len(setup),
            "peak_rss_mib": 1,
            "upload_mbit_per_round": len(ref.upload_bits),
        },
        "round_s": {
            "normalized": norm,
            "raw_p50": statistics.median(round_s),
            "raw_quartiles": statistics.quantiles(round_s, n=4),
            "raw_by_experiment": [e.round_s for e in exps],
            "reference_quartiles": statistics.quantiles([k for e in exps for k in e.ref_s], n=4),
        },
        "setup_s": setup,
    }
    return metrics, extra, exps


def traced_run(workload, seed: int, seconds: float, tmp: Path) -> tuple[dict, dict, list[Experiment]]:
    config = workload_config(workload, seed)
    tracer = Tracer()

    def make(i: int) -> Experiment:
        if i % 2 == 0:
            return run_experiment(config, tmp / f"exp{i}")
        tracer.install()
        try:
            return run_experiment(config, tmp / f"exp{i}")
        finally:
            tracer.uninstall()

    deadline = time.perf_counter() + seconds
    exps = repeat_until(deadline, make, lambda n: n >= 2 and n % 2 == 0)
    check_determinism(exps)
    plain, traced = exps[0::2], exps[1::2]
    traced_rounds = sum(len(e.round_s) for e in traced)
    metrics = tracer.summary(traced_rounds, len(traced))
    metrics[OVERHEAD] = statistics.median(normalized_round_s(traced)) / statistics.median(
        normalized_round_s(plain)
    )
    missing = tracer.missing_calls(metrics, quantized=config.algorithm != "fp32")
    if missing:
        for e in traced:
            e.errors.append(f"traced functions recorded no call: {', '.join(missing)}")
            e.bad = [True] * len(e.bad)
    extra = {"missing_calls": missing, "traced_rounds": traced_rounds, "traced_experiments": len(traced)}
    if workload.name == "train-fedmpq":
        extra["golden_match"], golden = golden_checks(tmp)
        exps = exps + golden
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.npz")
    return metrics, extra, exps


def write_golden() -> int:
    GOLDEN.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for arm in GOLDEN_ARMS:
            exp = run_experiment(golden_config(arm), Path(tmp) / arm)
            if any(exp.bad):
                print(f"{arm}: {exp.errors}", file=sys.stderr)
                return 1
            (GOLDEN / f"{arm}.metrics.csv").write_bytes(exp.metrics_csv)
            print(f"wrote {GOLDEN / f'{arm}.metrics.csv'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="regenerate golden/*.metrics.csv")
    args = parser.parse_args()

    if sys.flags.optimize:
        print("error: run without -O; the round loop's budget assert is part of the gate", file=sys.stderr)
        return 2
    for needed in (ROOT / "src" / "fedmpq", ROOT / "configs" / "blobs.ini"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
            return 2
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        run = traced_run if args.trace else untraced_run
        metrics, extra, exps = run(workload, args.seed, args.seconds, Path(tmp))

    attempted = sum(len(e.bad) for e in exps)
    failed = sum(sum(e.bad) for e in exps)
    units = {s["name"]: s["unit"] for s in metric_specs()} if args.trace else E2E_UNITS
    ref = exps[0]
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "machine": machine_facts(args.seed),
        "experiments": len(exps),
        "rounds_per_experiment": workload.rounds,
        "rounds_attempted": attempted,
        "failed_rounds": failed,
        "errors": [err for e in exps for err in e.errors][:10],
        "digests": ref.digests,
        "quality": {
            "final_accuracy": {"value": ref.accuracy, "unit": "fraction"},
            "final_test_loss": {"value": ref.test_loss, "unit": "nats"},
        },
        **extra,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
