"""Machine-speed calibration for the benchmark's CPU times.

On a shared host the CPU time of a fixed piece of Python varies by up to
1.7x within a minute, as co-tenants contend for the core.  The timed
phase therefore runs a fixed kernel of its own between solves, and each
solve's CPU seconds are rescaled by the kernel's CPU seconds measured
around it:

    rescaled = solve CPU seconds * REFERENCE_S / nearby kernel CPU seconds

A slowdown of the host stretches solve and kernel alike and cancels; a
slowdown of the library stretches only the solve.  ``REFERENCE_S`` fixes
the scale so the figures read as CPU seconds on an uncontended core of
the machine the benchmark was tuned on (2 x86-64 Xeon vCPUs under KVM,
Python 3.11); its value does not affect any comparison between two runs.

The kernel does the work the library is made of, Fraction arithmetic
and small tuples and dicts, and never calls latticeopt.  The garbage
collector is off while it runs, so that a library that keeps more
objects alive cannot slow the kernel and so hide its own cost.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0015
REPEATS = 3


def _kernel():
    total, seen = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i)
        seen[(i, i % 5)] = total.numerator % 97
    return total, len(seen)


def kernel_seconds() -> float:
    """Median CPU seconds of REPEATS runs of the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        seconds = []
        for _ in range(REPEATS):
            started = time.process_time()
            _kernel()
            seconds.append(time.process_time() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(seconds)
