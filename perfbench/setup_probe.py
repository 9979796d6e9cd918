"""Print one set-up time for a workload, measured in this fresh interpreter.

Set-up is `import hetstab` (numpy included) plus turning the generated
inputs into validated hetstab objects; generating the inputs is not timed.
Prints the wall time and the time calibrated against the reference task
run right after (see workloads.Calibrator).  run.py starts this script
several times per run and reports the medians.

    PYTHONPATH=src python3 perfbench/setup_probe.py classify-large 1
"""

import sys
import time

t0 = time.perf_counter()
import hetstab  # noqa: E402,F401
import hetstab.cli  # noqa: E402,F401
t1 = time.perf_counter()

import workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
raw = workloads.raw_inputs(workload, seed)
t2 = time.perf_counter()
workloads.prepare(workload, raw)
t3 = time.perf_counter()
wall = (t1 - t0) + (t3 - t2)
cal = workloads.Calibrator("calls")
print(repr(wall), repr(wall * cal.scale(t3, time.perf_counter())))
