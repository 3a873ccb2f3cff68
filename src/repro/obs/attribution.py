"""Phase-level latency attribution over a causal trace.

The naive approach — sum each phase's span durations — double-counts
wherever spans nest or overlap (a handle span contains the sends it makes;
parallel fan-out reads overlap each other), so the per-phase numbers would
not add up to the transaction's end-to-end latency and nobody could trust
the table.

This pass instead *partitions the root interval*: the root span's extent is
cut at every span boundary, and each elementary slice is attributed to
exactly one phase — the phase of the innermost (deepest, then
latest-started) span covering the slice, with overlapping siblings broken
deterministically by the fixed :data:`~repro.obs.phases.PHASES` priority
and finally by span id.  Slices no child covers belong to the root's own
phase (``client``).  The per-phase sums therefore reconcile with the
end-to-end latency *by construction*, up to float rounding — the property
the ``obs`` bench table and its test pin at ±1%.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics.collector import LatencySummary, summarize_latencies
from repro.obs.phases import PHASES
from repro.obs.trace import Span, TraceData

_PHASE_RANK = {phase: rank for rank, phase in enumerate(PHASES)}


def _depths(trace: TraceData) -> Dict[int, int]:
    """Depth of every span (root = 0); orphaned parents count as depth 1."""
    by_id = {span.span_id: span for span in trace.spans}
    depths: Dict[int, int] = {}

    def depth_of(span: Span) -> int:
        cached = depths.get(span.span_id)
        if cached is not None:
            return cached
        if span.parent_id is None:
            depths[span.span_id] = 0
            return 0
        parent = by_id.get(span.parent_id)
        value = 1 if parent is None else depth_of(parent) + 1
        depths[span.span_id] = value
        return value

    for span in trace.spans:
        depth_of(span)
    return depths


def phase_breakdown(trace: TraceData) -> Dict[str, float]:
    """Per-phase milliseconds of ``trace``, summing to the root duration."""
    root = trace.root
    if root is None or not root.closed:
        return {}
    lo, hi = root.start_ms, root.end_ms or root.start_ms
    if hi <= lo:
        return {root.phase: 0.0}
    depths = _depths(trace)
    spans = [
        span
        for span in trace.spans
        if span.closed and span.end_ms > lo and span.start_ms < hi
    ]

    boundaries = sorted(
        {lo, hi}
        | {min(max(span.start_ms, lo), hi) for span in spans}
        | {min(max(span.end_ms, lo), hi) for span in spans}
    )
    totals: Dict[str, float] = {}
    for left, right in zip(boundaries, boundaries[1:]):
        if right <= left:
            continue
        winner: Optional[Tuple[int, float, int, int]] = None
        phase = root.phase
        for span in spans:
            if span.start_ms <= left and span.end_ms >= right:
                key = (
                    depths.get(span.span_id, 0),
                    span.start_ms,
                    -_PHASE_RANK.get(span.phase, len(PHASES)),
                    span.span_id,
                )
                if winner is None or key > winner:
                    winner = key
                    phase = span.phase
        totals[phase] = totals.get(phase, 0.0) + (right - left)
    return totals


def _error(breakdown: Dict[str, float], duration_ms: float) -> float:
    if duration_ms <= 0:
        return 0.0
    return abs(sum(breakdown.values()) - duration_ms) / duration_ms


def reconciliation_error(trace: TraceData) -> float:
    """|sum of phases − end-to-end| as a fraction of end-to-end latency."""
    root = trace.root
    if root is None or not root.closed:
        return 0.0
    return _error(phase_breakdown(trace), root.duration_ms)


class PhaseAggregate:
    """Per-phase latency distributions accumulated over many traces.

    Besides the per-phase samples it keeps each trace's end-to-end latency
    and the worst :func:`reconciliation_error` seen, both taken from the one
    breakdown :meth:`add_trace` computes.
    """

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = {}
        self.traces = 0
        self.end_to_end_ms: List[float] = []
        self.worst_error = 0.0

    def add_trace(self, trace: TraceData) -> None:
        breakdown = phase_breakdown(trace)
        if not breakdown:
            return
        self.traces += 1
        for phase, ms in breakdown.items():
            self._samples.setdefault(phase, []).append(ms)
        duration_ms = trace.root.duration_ms
        self.end_to_end_ms.append(duration_ms)
        self.worst_error = max(self.worst_error, _error(breakdown, duration_ms))

    def phases(self) -> List[str]:
        ordered = [phase for phase in PHASES if phase in self._samples]
        extras = sorted(set(self._samples) - set(ordered))
        return ordered + extras

    def summary(self, phase: str) -> LatencySummary:
        return summarize_latencies(self._samples.get(phase, []))

    def total_ms(self, phase: str) -> float:
        return sum(self._samples.get(phase, []))

    def share(self, phase: str) -> float:
        grand = sum(sum(samples) for samples in self._samples.values())
        if grand <= 0:
            return 0.0
        return self.total_ms(phase) / grand
