"""Host-speed calibration for the benchmark's wall times.

On a shared host the CPU speed drifts by up to ~40% over tens of
seconds, which no median inside one run removes.  Every timed step is
therefore bracketed by a fixed pure-Python loop, and its time is
reported as seconds on a host where that loop takes ``REFERENCE_S``
(about its speed on the 2-CPU box the bounds were set on).
"""

import gc
import time

REFERENCE_S = 0.03
ITERATIONS = 50_000


def loop_seconds() -> float:
    """Seconds the calibration loop takes right now (GC off, so the
    program's heap cannot slow it down)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(ITERATIONS):
            table[str(i)] = (i, i * 0.5, [i])
        total = 0
        for key, value in table.items():
            total += value[0] + len(key)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrated(fn, *args):
    """``fn(*args)`` and the factor that turns wall seconds measured
    around it into reference-host seconds."""
    before = loop_seconds()
    value = fn(*args)
    after = loop_seconds()
    return value, 2 * REFERENCE_S / (before + after)
