"""Reference work that scales timings to a fixed machine speed.

The 2-core host is shared: the speed one process gets shifts by 10-30%
between spells that last about a minute, and CPU time shifts with wall
time, so neither longer runs nor CPU clocks remove it.  A fixed kernel of
the same kind of work as regcoulomb's (Gauss-Laguerre node generation,
small NumPy arrays, Python glue) is timed about once a second through a
run, between timed operations, and every time of the run is scaled by
``REF_S`` over the median of those timings.  The kernel does not depend on
regcoulomb, so a change to the package cannot move it.
"""
from __future__ import annotations

import math
import statistics
import time

# the kernel's time, in seconds, at the reference speed; a constant, so that
# scaled figures read as seconds on a host where the kernel takes this long
REF_S = 0.020


def reference_s() -> float:
    """Seconds the reference kernel takes now."""
    # imported here, so that importing this module leaves the import cost of
    # NumPy and SciPy to the set-up that it belongs to
    import numpy as np
    from scipy.special import roots_genlaguerre

    t0 = time.perf_counter()
    s = 0.0
    for _ in range(4):
        for k in range(12):
            t, w = roots_genlaguerre(40 + 8 * k, 0.3 + 0.1 * k)
            for x in (0.7, 1.3, 2.9, 5.1):
                s += float(np.sum(w * np.exp(-0.5 * np.log(x * x + t))))
        for i in range(300):
            s += math.exp(-0.001 * i) * math.log1p(i)
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that takes a run's times to the reference speed."""
    return REF_S / statistics.median(samples)
