"""The host-pace probe that scales the benchmark's times to a fixed pace.

The host the benchmark was built on changes speed by a third and more
over seconds to minutes (other tenants share its cores and caches).  A
time divided by the pace probed around it tracks the cost of the timed
work, not that drift.  The probe is the benchmark's own loop, so no
change to the library moves it.
"""

from __future__ import annotations

import time

#: Iterations of the probe loop.
PACE_ITERATIONS = 20_000
#: The probe's duration on a quiet 2-vCPU Xeon (its 5th percentile
#: there).  Scaled times are reported at this pace.
REFERENCE_PACE_S = 1.3e-3


def pace() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current pace."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PACE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - t0
