"""Fail when a traced perfbench run found fewer of its targets than expected.

Usage: python3 scripts/check_trace.py RESULT_JSON MAX_ABSENT

perfbench skips a traced target that the program no longer has and counts
it in the per-layer metric trace.absent, so a refactor can silence a
counter without failing the run. CI runs this after each traced run, on
the result file that perfbench/run.py writes under .perfbench_work/.
"""

import json
import sys

path, most = sys.argv[1], int(sys.argv[2])
with open(path, encoding="utf-8") as fh:
    absent = json.load(fh)["result"]["metrics"]["trace.absent"]["value"]
if absent > most:
    sys.exit(f"{path}: trace.absent is {absent:g}, above {most}: a traced target vanished")
print(f"{path}: trace.absent is {absent:g}, at most {most}")
