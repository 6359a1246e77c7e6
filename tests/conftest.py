"""One BLAS thread for the test run unless the caller chose otherwise.

Criteria 05-07 of tests/test_acceptance.py start up to four pool workers, and
at the default count each spins one BLAS thread per core, so the gate's time
would follow the runner's core count. pytest imports this file before any
test module, so the variables are set before numpy is imported; pool workers
and subprocesses inherit them. An exported value wins, as in perfbench/run.py.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
