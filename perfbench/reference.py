"""A same-run speed reference for the host.

The sandbox the benchmark runs in shares its cores.  Besides second-long slow
spells (handled by ``metrics.quiet_wall_s``) it has phases of minutes in which
*everything* runs 10-60 % slower, and no estimator over one invocation can
tell such a phase from a slower program.  So each repetition is bracketed by a
fixed pure-Python kernel with the simulator's instruction mix (dict and heap
churn, small allocations, string formatting, SHA-256), and wall times are
reported as they would be on the reference box: multiplied by
``REFERENCE_S / (kernel time here)``.  This is the same-run reference the
ROADMAP asks CI gates to use instead of absolute times; it also makes the
committed baseline comparable on a machine of another speed.
"""

from __future__ import annotations

import hashlib
import heapq
import time
from typing import List

#: Lower-quartile kernel time on the quiet 2-core reference box.
REFERENCE_S = 0.0150


def kernel() -> int:
    heap: list = []
    table: dict = {}
    for i in range(15_000):
        key = f"key-{i % 997:08d}"
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (i * 7919 % 10007, i, key))
        if i % 3 == 0:
            heapq.heappop(heap)
        if i % 8 == 0:
            hashlib.sha256(key.encode()).digest()
    return len(heap) + len(table)


def sample(count: int = 4) -> List[float]:
    """Wall seconds of ``count`` kernel runs."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - started)
    return times
