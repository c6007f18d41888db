"""Set up one workload in a fresh process and say when round 1 could start.

Covers what a run does before its first round: interpreter start, the
fedmpq import, config parsing, ``load_dataset``, ``dirichlet_partition``
and model init. ``run.py`` times it from process start to the ``ready``
line.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedmpq.simulation import init_state  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

init_state(workload_config(WORKLOADS[sys.argv[1]], int(sys.argv[2])))
sys.stdout.write("ready\n")
sys.stdout.flush()
