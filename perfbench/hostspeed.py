"""A fixed reference loop that tracks the host's own speed.

On a shared host a core's speed depends on what its neighbours run: on a
2-vCPU VM this loop switched between about 7.7 ms and 11 ms a pass, staying
in each state for seconds to minutes, so wall times of identical runs
differed by up to half.  The benchmark therefore times this loop before
and after every timed interval (or run of short ops), and scales it by
``REF_NOMINAL_S`` over the mean of the two.  A scaled time reads as the
interval would on a host where the loop takes ``REF_NOMINAL_S``; the raw
times are kept next to it.  The loop is benchmark code and no change to the
program moves it.
"""

from __future__ import annotations

import time

REF_ITERATIONS = 100_000
# the loop's time on an uncontended core of a 2.1 GHz Xeon VM (Python 3.11)
REF_NOMINAL_S = 0.0077
# a pass follows an op only once this long has passed since the previous
# pass, so short ops share passes: the host keeps a speed for seconds, and a
# pass after every few-millisecond op would double the phase's cost
REF_INTERVAL_S = 0.05


def reference_seconds():
    """Wall seconds of one pass of the fixed reference loop."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - start


def scale(seconds, ref_before, ref_after):
    """``seconds`` as it would read at the nominal reference speed."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)
