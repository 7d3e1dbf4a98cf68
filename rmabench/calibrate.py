"""The host-speed reference timed beside every repeat.

The sandbox this benchmark runs on has slow episodes: for anything from
a fraction of a second to half a minute the whole machine runs 1.3x to
2x slower (no steal time is reported, and CPU time slows down with wall
time, so neither helps).  A regression-driver run of one workload lasts
13 s and can sit entirely inside one; no statistic over its repeats can
tell.  So every worker times this fixed kernel twice before and twice
after its workload, and the harness divides the repeat's host times by
``host_x``: the fastest of the four, as a multiple of
:data:`REFERENCE_S`.  ``wall_s`` and ``setup_s`` are therefore seconds
*on a host that runs the kernel in 50 ms*.

The fastest, because the noise is one-sided here too: a burst that hits
a 45 ms sample but not the 1.5 s workload beside it would over-correct
(the median of the four did, by up to 17 %), and a reading that is too
*low* is the one error the lower quartile over the repeats cannot drop.
A sustained episode slows all four samples, and is corrected.

The kernel is a miniature of what the simulator spends its time on —
heap-ordered events, generator resumes, dict and attribute traffic,
small array copies — and imports nothing from the library, so a faster
library does not move it.  **Changing it re-bases every timing metric:**
it is part of the benchmark's definition, not an implementation detail.
"""

from __future__ import annotations

import heapq
import time
from typing import Sequence

import numpy as np

__all__ = ["REFERENCE_S", "kernel", "host_x"]

#: Kernel time on the (notional) reference host.
REFERENCE_S = 0.05


def kernel() -> float:
    """Run the reference kernel once; host seconds it took."""
    t0 = time.perf_counter()
    heap, seq = [], 0
    buf = np.zeros(4096, dtype=np.uint8)
    src = np.ones(512, dtype=np.uint8)
    table = {}

    def proc(i):
        k = 0
        while True:
            k += 1
            table[(i, k & 63)] = k
            if k & 7 == 0:
                at = (k >> 3 & 7) * 512
                buf[at:at + 512] = src
            yield 0.1 + ((i + k) % 5) * 0.01

    procs = [proc(i) for i in range(64)]
    for i, p in enumerate(procs):
        heapq.heappush(heap, (next(p), seq, i))
        seq += 1
    for _ in range(60_000):
        now, _, i = heapq.heappop(heap)
        heapq.heappush(heap, (now + next(procs[i]), seq, i))
        seq += 1
    return time.perf_counter() - t0


def host_x(samples: Sequence[float]) -> float:
    """How many times slower than the reference host the kernel ran."""
    return min(samples) / REFERENCE_S
