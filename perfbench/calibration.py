"""The calibration loop that every reported time is scaled by.

Reported times are in reference seconds: seconds on a machine on which
`probe` takes REFERENCE_PROBE_S, that is latency * REFERENCE_PROBE_S /
probe time.  The machine the benchmark was written on (a 2-CPU x86-64
VM, Python 3.11) ran the loop in 0.55 to 1.2 ms, and ran every query up
to 1.6 times slower for tens of seconds at a time.  Timed before and
during each query, the loop tracked the query's own slowdown: for 1-3 s
queries the spread of scaled latencies was 0.05 against 0.10-0.17 raw.
A change to the program does not change the loop.

run.py times the program's import in fresh interpreters and loads this
module in each after the import, so it adds nothing to the time taken.
"""

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.001
PROBE_SAMPLES = 5


def probe():
    """Seconds for a fixed mix of exact-rational, dict and integer work,
    the kinds of work the program does in pure Python.  The collector is
    held off meanwhile, so that the size of the program's heap, which
    sets the cost of a collection, does not enter the loop's time."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 40):
            acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        table = {}
        for i in range(2500):
            table[i % 997] = table.get(i % 997, 0) + i * i % 23
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def host_probe():
    """Median of a few probes: the machine's speed right now."""
    return statistics.median(probe() for _ in range(PROBE_SAMPLES))
