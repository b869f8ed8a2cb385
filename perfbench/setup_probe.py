"""Time the CLI set-up cost in a fresh process: import diagbase, then build
and validate every named catalog group.  Prints the seconds taken, scaled
by the reference loop around it (see hostspeed.py), and the raw seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py A5 A6 "L2(7)"
"""

import sys
import time

import hostspeed

ref_before = hostspeed.reference_seconds()
start = time.perf_counter()
import diagbase  # noqa: E402

for name in sys.argv[1:]:
    diagbase.get_group(name)
elapsed = time.perf_counter() - start
scaled = hostspeed.scale(elapsed, ref_before, hostspeed.reference_seconds())
print(repr(scaled), repr(elapsed))
