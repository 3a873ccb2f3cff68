"""The per-deployment observability hub.

One :class:`Observability` object is created by every
:class:`~repro.simnet.node.SimEnvironment` and shared by all of its nodes:
it owns the tracer and the flight recorder, both sized by
:class:`~repro.common.config.ObsConfig`.  Instrumentation call sites guard
on the cheap ``tracing`` boolean, so a deployment with tracing off (the
default) pays an attribute read per message and nothing else; the flight
recorder's sites are rare and always record.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.config import ObsConfig
from repro.obs.attribution import PhaseAggregate
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer


class Observability:
    """Tracer (behind the ``tracing`` flag) + always-on flight recorder."""

    def __init__(self, config: ObsConfig, clock: Callable[[], float]) -> None:
        self.config = config
        self.tracing = config.tracing_enabled
        self.tracer = Tracer(clock, max_traces=config.max_traces)
        self.recorder = FlightRecorder(clock, capacity=config.ring_capacity)
        #: Live monitor (repro.obs.monitor) when one is attached: receives
        #: every flight-recorder event and every closed span.  ``None`` —
        #: the default — keeps the hub byte-for-byte the passive recorder.
        self.monitor = None

    def attach_monitor(self, monitor) -> None:
        """Wire ``monitor`` into the event and span-close streams.

        The monitor only *reads* (it folds events into health states and
        spans into timeline windows); it draws no randomness and schedules
        nothing, so attaching one never changes digests or fingerprints.
        """
        self.monitor = monitor
        self.tracer.on_close = monitor.on_span_closed

    def event(
        self,
        node: str,
        kind: str,
        severity: str = "info",
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a flight-recorder event."""
        recorded = self.recorder.record(node, kind, severity, detail)
        if self.monitor is not None:
            self.monitor.on_obs_event(recorded)

    def phase_aggregate(self) -> PhaseAggregate:
        """Phase attribution over every completed trace still retained."""
        aggregate = PhaseAggregate()
        for trace in self.tracer.completed_traces():
            aggregate.add_trace(trace)
        return aggregate
