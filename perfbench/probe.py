"""Set-up probe: import schurq, build a workload's inputs, print the clock.

    python3 perfbench/probe.py <workload> <seed>

run.py launches this in a fresh interpreter and reads the printed
perf_counter value, which marks the moment the first op could start.
"""

import sys
from time import perf_counter

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
print(perf_counter())
