"""A fixed reference kernel that measures how fast the machine runs right now.

The kernel mixes what a round spends its time on, independent of fedmpq:
small matmuls, elementwise array work, bit unpacking and interpreter
overhead. On a shared machine the speed of the whole box can change by
more than 1.5x for seconds to minutes; timing this kernel next to each
round and dividing the round's time by it cancels that swing.

``NOMINAL_S`` is the kernel's time on the machine the baseline was taken
on (2-core Intel Xeon, Python 3.11, numpy 2.4) when it was not contended;
multiplying a ratio by it expresses the ratio in seconds at that speed.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1.25e-3

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(32, 20))
_B = _rng.normal(size=(256, 20))
_C = _rng.integers(0, 256, size=(8, 640), dtype=np.uint8)


def _kernel() -> None:
    for _ in range(40):
        z = np.maximum(_A @ _B.T, 0.0)
        np.rint(z / (z.max() / 15.0))
        np.unpackbits(_C, axis=1)
        s = 0
        for i in range(200):
            s += i


def reference_s(repeats: int = 3) -> float:
    """Fastest of a few timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best
