"""Machine-speed reference: a fixed kernel timed next to every op.

The benchmark runs on a shared host whose speed changes by up to 2x for
stretches of seconds to a minute, because other tenants use the same cores.
Such a slowdown stretches the program and a fixed pure-Python kernel alike.
So every op is timed between two runs of the kernel, and its wall time is
rescaled by REF_S over the kernel time measured around it.  A reported time
is then the time the op takes while the kernel takes REF_S; a change to the
program moves it, and a change in the host's speed mostly does not.

The kernel is the benchmark's own code and shares none with clusterkit.  It
runs with the garbage collector off, so that objects the program keeps alive
cannot slow it.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_S = 0.5e-3   # nominal kernel time: about its time at full speed on a
                 # 2-vCPU Intel Xeon VM at 2.1 GHz with Python 3.11
WINDOW = 3       # kernel runs on each side of an op that set its scale
_FAN = tuple((0, k) for k in range(2, 12))   # fan triangulation of the 13-gon


def _kernel() -> int:
    """Crossing vectors of every arc of a fixed triangulation, tallied in a
    dict: tuples, sets, generators and small ints, like the program."""
    tally = {}
    for _ in range(3):
        for i in range(13):
            for j in range(i + 2, 13):
                vec = tuple(1 if (i < c < j) != (i < d < j) and not {c, d} & {i, j} else 0
                            for c, d in _FAN)
                tally[vec] = tally.get(vec, 0) + sum(vec)
    return len(tally)


def reference() -> float:
    """Wall time of one kernel run, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(times, refs) -> list[float]:
    """Times rescaled to the nominal kernel speed.  refs[i] was taken just
    before times[i] and refs[i + 1] just after it; each time is scaled by
    the median of the WINDOW kernel runs on either side of it."""
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(refs)} kernel runs for {len(times)} times")
    return [t * REF_S / statistics.median(refs[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(times)]
