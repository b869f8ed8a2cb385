"""Time the first round of a workload's ops untraced in a fresh process, the
baseline of ``trace.overhead``.  Prints the sum of the ops' scaled seconds.

    python3 perfbench/phase_probe.py base-search 1 15
"""

import sys

import run
import workloads

workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
run.setup_in_process(workloads.groups_for(workload))
ops = [op for op in workloads.build_ops(workload, seed, seconds)
       if op["round"] == 0]
results, _ = run.run_ops(ops)
print(repr(sum(r["seconds"] for r in results)))
