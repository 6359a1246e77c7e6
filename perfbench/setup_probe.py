"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing numpy and smoothbench, generating the inputs of the
run's first repetition from the seed and, for the command-line workload,
writing its CSVs. Prints
{"setup_s": seconds} as its last line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, rep_seed  # noqa: E402  (imports numpy and smoothbench)

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name].setup(rep_seed(seed, 0), workdir)
    print(json.dumps({"setup_s": time.perf_counter() - START}))
