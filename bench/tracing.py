"""Span tracing of fedmpq from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
fedmpq namespace that holds it, because modules import names from each
other (``nn.sgd_step``, ``simulation.aggregate``, ...) and a wrapper
installed only in the defining module would miss those callers. After
installing, no fedmpq module may still refer to an unwrapped original.

Spans (name, parent, start, end) and work counters stay in memory and are
written out once, when the run ends. ``Tracer.summary`` turns them into
the per-layer metrics:

* ``<fn>.calls`` and ``<fn>.self_s``, where self time is span time minus
  the time of traced child spans. Round-scope functions are averaged per
  traced round and only counted inside ``run_round``; outside a round their
  time is charged to the enclosing set-up or output function. Run-scope
  functions (set-up and output) are averaged per traced experiment.
* ``<fn>.p50_us`` and ``<fn>.p99_us`` for per-minibatch functions, over
  the calls made from inside client training.
* ratios of useful work: code entries moved and saturated by the snapped
  update. (MSB pruning drops no plane on any workload at this scale, so its
  drop ratio would read 0 everywhere and is not reported.)
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROUND = "round"
RUN = "run"

ALL = "all"
QUANTIZED = "quantized"
FP32 = "fp32"


@dataclass(frozen=True)
class Traced:
    module: str
    attr: str  # "func" or "Class.method"
    scope: str = ROUND
    per_minibatch: bool = False
    layered: bool = False  # split by the weight matrix it works on (l0, l1, ...)
    runs_on: str = ALL  # workloads on which it must record calls
    moves: str = ""  # end-to-end metric (and workload) this layer metric should move

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


_QUANT_TIME = "round_s.p50 and samples_per_s: strongly on train-fedmpq, partly on cross-device, not on train-fp32"
_DENSE_TIME = "round_s.p50 and samples_per_s, mostly on train-fp32"
_SERVER_TIME = "round_s.p50 on cross-device; almost no effect on train-fedmpq"
_SETUP = "setup_s on all workloads"

TRACED = (
    Traced("simulation", "run_round", moves="round_s.p50 on cross-device (self time: the round loop itself)"),
    Traced("simulation", "init_state", scope=RUN, moves=_SETUP),
    Traced("simulation", "dirichlet_partition", scope=RUN, moves=_SETUP),
    Traced("simulation", "write_outputs", scope=RUN, moves="none today: once per run"),
    Traced("data", "load_dataset", scope=RUN, moves=_SETUP),
    Traced("nn", "local_update", runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("nn", "local_update_dense", runs_on=FP32, moves=_DENSE_TIME),
    Traced("nn", "forward", per_minibatch=True, moves=_DENSE_TIME + "; partly on train-fedmpq"),
    Traced("nn", "backward", per_minibatch=True, moves=_DENSE_TIME),
    Traced("nn", "softmax_cross_entropy", per_minibatch=True, moves=_DENSE_TIME),
    Traced("nn", "evaluate", moves=_SERVER_TIME),
    Traced("quant", "shift_add_matmul", per_minibatch=True, layered=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("quant", "quantize", runs_on=QUANTIZED, moves=_SERVER_TIME + " (delivery re-quantization)"),
    Traced("quant", "quantize_activations", per_minibatch=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("quant", "prune_msbs", runs_on=QUANTIZED, moves="upload_mbit_per_round on train-fedmpq and cross-device"),
    Traced("quant", "plane_density", runs_on=QUANTIZED, moves=_SERVER_TIME),
    Traced("quant", "QuantizedLayer.from_codes", per_minibatch=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("ste", "sgd_step", per_minibatch=True, layered=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("ste", "ste_backward", per_minibatch=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("ste", "group_lasso", per_minibatch=True, runs_on=QUANTIZED,
           moves=_QUANT_TIME + "; via sparsity, upload_mbit_per_round"),
    Traced("ste", "fixed_point_delta", per_minibatch=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("ste", "apply_update", per_minibatch=True, runs_on=QUANTIZED, moves=_QUANT_TIME),
    Traced("server", "binary_representation", runs_on=QUANTIZED, moves=_SERVER_TIME),
    Traced("server", "pruning_growing", runs_on=QUANTIZED, moves=_SERVER_TIME),
    Traced("server", "aggregate", runs_on=QUANTIZED, moves=_SERVER_TIME),
    Traced("server", "ClientUpdate.check_budget", runs_on=QUANTIZED, moves=_SERVER_TIME),
    Traced("checkpoint", "write_checkpoint", scope=RUN,
           moves="none today: once per run; round_s.p50 once snapshots are taken each round"),
)

# Useful-work ratios of the snapped update: name -> (better, what it counts).
RATIOS = {
    "ste.moved_fraction": ("higher", "entries whose code changed over entries updated"),
    "ste.saturated_fraction": ("lower", "entries whose delta hit one full range s over entries updated"),
}
RATIO_MOVES = "upload_mbit_per_round and final accuracy on train-fedmpq and cross-device"
OVERHEAD = "trace.overhead_ratio"

# Weight matrices of the blobs MLP, (out, in) per layer.
LAYER_SHAPES = ((256, 20), (8, 256), (10, 8))


def span_names(fn: Traced) -> list[str]:
    if fn.layered:
        return [f"{fn.name}.l{i}" for i in range(len(LAYER_SHAPES))]
    return [fn.name]


def metric_specs() -> list[dict]:
    """Every per-layer metric: name, unit, which way is better, what it should move."""
    specs = []
    for fn in TRACED:
        for base in span_names(fn):
            specs.append({"name": f"{base}.calls", "unit": "count", "better": "lower", "moves": fn.moves})
            specs.append({"name": f"{base}.self_s", "unit": "s", "better": "lower", "moves": fn.moves})
            if fn.per_minibatch:
                for stat in ("p50_us", "p99_us"):
                    specs.append({"name": f"{base}.{stat}", "unit": "us", "better": "lower", "moves": fn.moves})
    for name, (better, _) in RATIOS.items():
        specs.append({"name": name, "unit": "fraction", "better": better, "moves": RATIO_MOVES})
    specs.append({"name": OVERHEAD, "unit": "ratio", "better": "lower",
                  "moves": "none: traced over untraced round_s.p50"})
    return specs


def _package_modules() -> list:
    names = ["fedmpq"] + [f"fedmpq.{m}" for m in
                          ("quant", "ste", "nn", "server", "simulation", "data", "checkpoint", "config", "cli")]
    return [importlib.import_module(n) for n in names]


class Tracer:
    """Records nested spans of the traced fedmpq functions in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.excl = array("d")  # counter bookkeeping done inside the span
        self.stack = [-1]
        # Counter events: (span index, key, numerator, denominator).
        self.ev_span = array("l")
        self.ev_key: list[str] = []
        self.ev_num = array("d")
        self.ev_den = array("d")
        self._undo: list = []
        self._layer_of = {shape: f"l{i}" for i, shape in enumerate(LAYER_SHAPES)}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _event(self, key: str, num: float, den: float) -> None:
        self.ev_span.append(self.stack[-1])
        self.ev_key.append(key)
        self.ev_num.append(num)
        self.ev_den.append(den)

    # --- counters, computed after the traced call returns ---------------

    def _count_apply_update(self, args, out) -> None:
        layer = args[0]
        flips = np.unpackbits(layer.packed ^ out.packed, axis=1, count=layer.num_params)
        self._event("ste.moved_fraction", float(np.count_nonzero(flips.any(axis=0))), layer.num_params)

    def _count_fixed_point_delta(self, args, out) -> None:
        layer = args[3]
        steps = np.rint(np.abs(out) / layer.step)
        cap = (1 << layer.bit_width) - 1
        self._event("ste.saturated_fraction", float(np.count_nonzero(steps == cap)), steps.size)

    def _wrap(self, fn: Traced, original):
        rec = self
        if fn.layered:
            ids = {shape: self._id(f"{fn.name}.{tag}") for shape, tag in self._layer_of.items()}
            layer_index = 1 if fn.attr == "shift_add_matmul" else 0

            def name_of(args):
                layer = args[layer_index]
                return ids[(layer.rows, layer.cols)]
        else:
            fixed = self._id(fn.name)

            def name_of(args):
                return fixed

        after = {
            "apply_update": self._count_apply_update,
            "fixed_point_delta": self._count_fixed_point_delta,
        }.get(fn.attr)
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            i = len(rec.t0)
            rec.name.append(name_of(args))
            rec.parent.append(rec.stack[-1])
            rec.t0.append(0.0)
            rec.t1.append(0.0)
            rec.excl.append(0.0)
            rec.stack.append(i)
            start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                rec.t0[i] = start
                rec.t1[i] = end
            if after is not None:
                after(args, out)
                parent = rec.stack[-1]
                if parent >= 0:
                    rec.excl[parent] += perf_counter() - end
            return out

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", fn.attr)
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a fedmpq module resolves it."""
        modules = _package_modules()
        originals = []
        for fn in TRACED:
            home = sys.modules[f"fedmpq.{fn.module}"]
            if "." in fn.attr:
                cls_name, meth = fn.attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(fn, raw.__func__))
                else:
                    wrapped = self._wrap(fn, raw)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(home, fn.attr)
            originals.append(original)
            wrapped = self._wrap(fn, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append((module, attr, original))
        for module in modules:
            for attr, value in vars(module).items():
                if any(value is o for o in originals):
                    raise RuntimeError(f"{module.__name__}.{attr} escaped tracing")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = sorted(set(self.ev_key))
        np.savez(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.t0, dtype=np.float64),
            end=np.asarray(self.t1, dtype=np.float64),
            counter_keys=np.array(keys),
            counter_span=np.asarray(self.ev_span, dtype=np.int64),
            counter_key=np.array([keys.index(k) for k in self.ev_key], dtype=np.int64),
            counter_num=np.asarray(self.ev_num, dtype=np.float64),
            counter_den=np.asarray(self.ev_den, dtype=np.float64),
        )

    def summary(self, rounds: int, experiments: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans; see the module docstring."""
        scope = {}
        for fn in TRACED:
            for base in span_names(fn):
                scope[self._id(base)] = fn.scope
        round_id = self._id("simulation.run_round")
        client_ids = {self._id("nn.local_update"), self._id("nn.local_update_dense")}
        n = len(self.t0)
        name, parent = self.name.tolist(), self.parent.tolist()
        t0, t1, excl = self.t0.tolist(), self.t1.tolist(), self.excl.tolist()
        dur = [b - a for a, b in zip(t0, t1)]
        self_t = [d - e for d, e in zip(dur, excl)]
        in_round = [False] * n
        in_client = [False] * n
        counted = [False] * n
        charge_to = [-1] * n
        for i in range(n):
            p = parent[i]
            nm = name[i]
            in_round[i] = nm == round_id or (p >= 0 and in_round[p])
            in_client[i] = nm in client_ids or (p >= 0 and in_client[p])
            counted[i] = in_round[i] or scope[nm] == RUN
            target = p if p < 0 or counted[p] else charge_to[p]
            charge_to[i] = target
            if counted[i] and target >= 0:
                self_t[target] -= dur[i]

        calls = [0] * len(self.names)
        self_sum = [0.0] * len(self.names)
        samples: dict[int, list[float]] = {}
        for i in range(n):
            if not counted[i]:
                continue
            nm = name[i]
            calls[nm] += 1
            self_sum[nm] += self_t[i]
            if in_client[i]:
                samples.setdefault(nm, []).append(dur[i])

        out: dict[str, float] = {}
        for fn in TRACED:
            per = max(rounds, 1) if fn.scope == ROUND else max(experiments, 1)
            for base in span_names(fn):
                k = self._id(base)
                out[f"{base}.calls"] = calls[k] / per
                out[f"{base}.self_s"] = self_sum[k] / per
                if fn.per_minibatch:
                    durs = samples.get(k)
                    p50, p99 = np.percentile(durs, [50, 99]) * 1e6 if durs else (0.0, 0.0)
                    out[f"{base}.p50_us"] = float(p50)
                    out[f"{base}.p99_us"] = float(p99)

        num = dict.fromkeys(RATIOS, 0.0)
        den = dict.fromkeys(RATIOS, 0.0)
        for span, key, a, b in zip(self.ev_span, self.ev_key, self.ev_num, self.ev_den):
            if span >= 0 and in_round[span]:
                num[key] += a
                den[key] += b
        for key in RATIOS:
            out[key] = num[key] / den[key] if den[key] else 0.0
        return out

    def missing_calls(self, summary: dict[str, float], quantized: bool) -> list[str]:
        """Traced functions that recorded no call on a workload where they must run."""
        missing = []
        for fn in TRACED:
            if fn.runs_on == QUANTIZED and not quantized or fn.runs_on == FP32 and quantized:
                continue
            missing += [b for b in span_names(fn) if summary[f"{b}.calls"] == 0]
        return missing
