"""Set-up cost of one workload in a fresh interpreter.

Usage: ``python setup_probe.py <workload> <seed> <run_dir>`` with the package's
``src`` on ``PYTHONPATH``.  Times ``import parareal.cli`` and then the
workload's construction (model, signals with their switch tables, configs,
exact references), and prints one JSON line.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import parareal.cli  # noqa: E402

t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "package": parareal.cli.__file__}))
