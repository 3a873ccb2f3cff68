"""Metrics collection: latency distributions, throughput, abort rates.

The benchmark harness records one sample per finished transaction into a
:class:`MetricsCollector`, then asks for summaries.  Summaries are plain
dataclasses, easy to print as the rows/series of the paper's figures and
tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over a latency sample set (milliseconds)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float

    @classmethod
    def empty(cls) -> "LatencySummary":
        return cls(count=0, mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, p99_ms=0.0, min_ms=0.0, max_ms=0.0)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if fraction <= 0:
        return ordered[0]
    if fraction >= 1:
        return ordered[-1]
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def summarize_latencies(samples) -> LatencySummary:
    if isinstance(samples, LatencyReservoir):
        return samples.summary()
    if not samples:
        return LatencySummary.empty()
    return LatencySummary(
        count=len(samples),
        mean_ms=sum(samples) / len(samples),
        p50_ms=percentile(samples, 0.50),
        p95_ms=percentile(samples, 0.95),
        p99_ms=percentile(samples, 0.99),
        min_ms=min(samples),
        max_ms=max(samples),
    )


class LatencyReservoir:
    """Bounded latency sample store with exact counts and list-like access.

    Unbounded per-transaction sample lists were the collector's one
    open-ended memory cost (a long chaos or bench run appends forever).
    The reservoir keeps raw samples verbatim up to ``cap`` and then
    converts, once, to a log-bucketed histogram: bucket boundaries grow by
    ``GROWTH`` per bucket, so a percentile read off bucket midpoints is
    within ±``(GROWTH-1)/2`` relative error (~2.5% at the default 1.05) of
    the exact value — the documented accuracy bound of
    :class:`LatencySummary` past the cap.  ``count``, ``total_ms``,
    ``min_ms`` and ``max_ms`` stay exact forever.

    The type is deliberately list-like (append/extend/len/iter/bool): every
    existing call site that treated the field as ``List[float]`` keeps
    working, with iteration past conversion yielding bucket midpoints
    repeated by bucket count.
    """

    DEFAULT_CAP = 8192
    GROWTH = 1.05

    __slots__ = ("cap", "count", "total_ms", "min_ms", "max_ms", "_raw", "_buckets", "_zeros")

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        self.cap = max(1, cap)
        self.count = 0
        self.total_ms = 0.0
        self.min_ms: Optional[float] = None
        self.max_ms: Optional[float] = None
        self._raw: Optional[List[float]] = []
        self._buckets: Dict[int, int] = {}
        self._zeros = 0

    @property
    def converted(self) -> bool:
        """True once the raw samples have collapsed into the histogram."""
        return self._raw is None

    def append(self, value: float) -> None:
        self.count += 1
        self.total_ms += value
        if self.min_ms is None or value < self.min_ms:
            self.min_ms = value
        if self.max_ms is None or value > self.max_ms:
            self.max_ms = value
        if self._raw is not None:
            self._raw.append(value)
            if len(self._raw) > self.cap:
                self._convert()
        else:
            self._add_to_bucket(value)

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __iter__(self):
        if self._raw is not None:
            return iter(list(self._raw))
        return iter(self._midpoint_samples())

    def summary(self) -> LatencySummary:
        if self.count == 0:
            return LatencySummary.empty()
        if self._raw is not None:
            exact = summarize_latencies(list(self._raw))
            return exact
        return LatencySummary(
            count=self.count,
            mean_ms=self.total_ms / self.count,
            p50_ms=self._histogram_percentile(0.50),
            p95_ms=self._histogram_percentile(0.95),
            p99_ms=self._histogram_percentile(0.99),
            min_ms=self.min_ms,
            max_ms=self.max_ms,
        )

    # -- internals ---------------------------------------------------------

    def _convert(self) -> None:
        raw, self._raw = self._raw, None
        for value in raw:
            self._add_to_bucket(value)

    def _add_to_bucket(self, value: float) -> None:
        if value <= 0.0:
            self._zeros += 1
            return
        index = math.floor(math.log(value) / math.log(self.GROWTH))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def _midpoint(self, index: int) -> float:
        # Geometric midpoint of [GROWTH^i, GROWTH^(i+1)), clamped into the
        # exact observed range so no synthetic sample exceeds min/max.
        value = self.GROWTH ** (index + 0.5)
        return min(max(value, self.min_ms), self.max_ms)

    def _midpoint_samples(self) -> List[float]:
        samples = [0.0] * self._zeros
        for index in sorted(self._buckets):
            samples.extend([self._midpoint(index)] * self._buckets[index])
        return samples

    def _histogram_percentile(self, fraction: float) -> float:
        rank = max(1, min(self.count, math.ceil(fraction * self.count)))
        seen = self._zeros
        if rank <= seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                return self._midpoint(index)
        return self.max_ms if self.max_ms is not None else 0.0


@dataclass
class OperationMetrics:
    """Samples for one operation class (e.g. "read-only", "distributed-rw").

    Sample stores are bounded :class:`LatencyReservoir`\\ s (exact counts and
    totals always; percentiles within the reservoir's documented error once
    past its cap) so a long run cannot grow collector memory without bound.
    """

    latencies_ms: LatencyReservoir = field(default_factory=LatencyReservoir)
    committed: int = 0
    aborted: int = 0
    round2_latencies_ms: LatencyReservoir = field(default_factory=LatencyReservoir)
    second_rounds: int = 0
    #: Read-only latency split by serving tier (repro.edge): reads whose
    #: round 1 came from an edge proxy vs. directly from the core clusters.
    edge_latencies_ms: LatencyReservoir = field(default_factory=LatencyReservoir)
    core_latencies_ms: LatencyReservoir = field(default_factory=LatencyReservoir)

    @property
    def total(self) -> int:
        return self.committed + self.aborted

    def abort_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return self.aborted / self.total

    def summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_ms)


class MetricsCollector:
    """Accumulates per-operation metrics and computes throughput."""

    def __init__(self) -> None:
        self._operations: Dict[str, OperationMetrics] = {}
        self._start_ms: Optional[float] = None
        self._end_ms: Optional[float] = None

    # -- recording ------------------------------------------------------------

    def operation(self, name: str) -> OperationMetrics:
        return self._operations.setdefault(name, OperationMetrics())

    def record_commit(self, name: str, latency_ms: float) -> None:
        metrics = self.operation(name)
        metrics.committed += 1
        metrics.latencies_ms.append(latency_ms)

    def record_abort(self, name: str, latency_ms: float) -> None:
        metrics = self.operation(name)
        metrics.aborted += 1
        metrics.latencies_ms.append(latency_ms)

    def record_read_only(
        self,
        name: str,
        latency_ms: float,
        rounds: int,
        round2_latency_ms: float = 0.0,
        served_by_edge: bool = False,
    ) -> None:
        metrics = self.operation(name)
        metrics.committed += 1
        metrics.latencies_ms.append(latency_ms)
        if served_by_edge:
            metrics.edge_latencies_ms.append(latency_ms)
        else:
            metrics.core_latencies_ms.append(latency_ms)
        if rounds >= 2:
            metrics.second_rounds += 1
            metrics.round2_latencies_ms.append(round2_latency_ms)

    def mark_start(self, now_ms: float) -> None:
        if self._start_ms is None or now_ms < self._start_ms:
            self._start_ms = now_ms

    def mark_end(self, now_ms: float) -> None:
        if self._end_ms is None or now_ms > self._end_ms:
            self._end_ms = now_ms

    # -- queries ----------------------------------------------------------------

    @property
    def elapsed_ms(self) -> float:
        if self._start_ms is None or self._end_ms is None:
            return 0.0
        return max(0.0, self._end_ms - self._start_ms)

    def throughput_tps(self, name: Optional[str] = None) -> float:
        """Committed operations per simulated second."""
        elapsed = self.elapsed_ms
        if elapsed <= 0:
            return 0.0
        if name is None:
            committed = sum(metrics.committed for metrics in self._operations.values())
        else:
            committed = self.operation(name).committed
        return committed / (elapsed / 1000.0)

    def second_round_fraction(self, name: str) -> float:
        metrics = self.operation(name)
        if metrics.committed == 0:
            return 0.0
        return metrics.second_rounds / metrics.committed

    def effective_round2_ms(self, name: str) -> float:
        """Average round-2 latency weighted by how often round 2 happens.

        This is the "effective latency of round-2 communication" reported in
        Figure 5 of the paper (mean extra latency multiplied by the fraction
        of read-only transactions needing a second round).
        """
        metrics = self.operation(name)
        if not metrics.round2_latencies_ms or metrics.committed == 0:
            return 0.0
        mean_round2 = metrics.round2_latencies_ms.total_ms / len(metrics.round2_latencies_ms)
        return mean_round2 * (metrics.second_rounds / metrics.committed)

    def edge_latency_split(self, name: str) -> "tuple[float, float, int, int]":
        """``(edge_mean_ms, core_mean_ms, edge_count, core_count)`` for ``name``.

        The per-tier means of read-only latency: reads served by an edge
        proxy's verified cache versus reads that went to the core clusters
        (the comparison the ``fig_edge`` experiment reports).
        """
        metrics = self.operation(name)
        edge = metrics.edge_latencies_ms
        core = metrics.core_latencies_ms
        edge_mean = edge.total_ms / len(edge) if edge else 0.0
        core_mean = core.total_ms / len(core) if core else 0.0
        return edge_mean, core_mean, len(edge), len(core)
