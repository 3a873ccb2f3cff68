"""Benchmark scaling knobs.

The paper's experiments process hundreds of thousands of transactions on a
35-machine testbed; a laptop-scale simulation reproduces the same protocol
behaviour with far fewer transactions per data point.  The ``REPRO_BENCH_SCALE``
environment variable multiplies per-point transaction counts:

* ``REPRO_BENCH_SCALE=1`` (default) — quick runs suitable for CI;
* ``REPRO_BENCH_SCALE=4`` (or higher) — longer runs with tighter confidence
  intervals, closer to the paper's sample sizes.

Every experiment records the actual counts it used in its result notes; the
committed ``benchmark_results/`` tables are scale 1.
"""

from __future__ import annotations

import math
import os


def scale_factor() -> float:
    """Multiplier applied to per-point transaction counts (env-controlled).

    Fails closed: a value that is not a positive number raises ``ValueError``
    (the CLI exits 2) rather than running at a scale nobody asked for.
    """
    raw = os.environ.get("REPRO_BENCH_SCALE", "1")
    try:
        value = float(raw)
        if not 0.0 < value < math.inf:
            raise ValueError(raw)
    except ValueError:
        raise ValueError(f"REPRO_BENCH_SCALE must be a positive number, got {raw!r}") from None
    return max(0.1, value)


def scaled(count: int, minimum: int = 4) -> int:
    """Scale a per-point transaction count, never below ``minimum``."""
    return max(minimum, int(round(count * scale_factor())))
