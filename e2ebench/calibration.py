"""Machine-speed calibration: a fixed kernel timed inside every job.

On a shared host the same job runs up to 1.5x slower when a co-tenant
loads the sibling hardware thread, and that load comes and goes within
seconds and drifts over minutes.  Raw times from runs a few minutes
apart then differ by more than any useful bound.  Each job therefore
times :func:`kernel` at every round boundary (and, after one unmeasured
warm-up call, five times at its first dispatch), and ``run.py`` scales
each time by ``CAL_REF_S / calibration``: the time the job would have
taken at the reference speed.  Raw times are kept beside the scaled ones.

The kernel is event-loop shaped (heap pushes and pops, dict stores,
calls through a lambda) because that is what the interpreter-bound
layers do; a pure arithmetic loop or small numpy ops tracked the
slowdown of the event workloads less closely.
"""

from __future__ import annotations

import heapq
import time

#: Kernel time at the reference speed: its fast-state median on the
#: 2-vCPU Xeon (2.1 GHz) box the bounds in BENCHMARK.json were set on.
CAL_REF_S = 1.0e-3

#: Calibration samples taken at a job's first dispatch, for set-up time.
DISPATCH_SAMPLES = 5


def kernel() -> None:
    heap, table = [], {}
    bump = lambda x: x + 1
    for k in range(1500):
        heapq.heappush(heap, ((k * 7919) % 1000, k, bump))
        table[k] = bump(k)
    while heap:
        when, _, action = heapq.heappop(heap)
        action(when)


def calibrate() -> float:
    """Seconds :func:`kernel` takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
