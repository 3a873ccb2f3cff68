"""Discrete-event simulator.

The whole TransEdge deployment — replicas, leaders, clients and the network
between them — runs on a single event loop driven by simulated time.  Time is
a float number of milliseconds.  Events are callbacks scheduled at absolute
times; ties are broken by insertion order so executions are deterministic for
a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError


class _ScheduledEvent:
    """One scheduled callback; the heap orders ``(time, sequence, event)``
    tuples, so the record itself is never compared."""

    __slots__ = ("time", "callback", "cancelled", "fired")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent, simulator: "Simulator") -> None:
        self._event = event
        self._simulator = simulator

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self._event.cancelled or self._event.fired:
            return
        self._event.cancelled = True
        self._simulator._pending -= 1


class Simulator:
    """A minimal, deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, _ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._pending = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live events still scheduled — a counter, not an O(n) heap scan."""
        return self._pending

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise SimulationError(f"cannot schedule an event {delay_ms}ms in the past")
        return self.schedule_at(self._now + delay_ms, callback)

    def schedule_at(self, time_ms: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``time_ms``."""
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ms}ms; simulated time is already {self._now}ms"
            )
        event = _ScheduledEvent(time_ms, callback)
        heapq.heappush(self._queue, (time_ms, next(self._sequence), event))
        self._pending += 1
        return EventHandle(event, self)

    def run(
        self,
        until_ms: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains, ``until_ms`` or ``max_events``.

        Returns the number of events processed by this call.  When
        ``until_ms`` is given, the clock is advanced to ``until_ms`` even if
        the queue drained earlier, so back-to-back ``run`` calls observe a
        monotonically advancing clock.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        processed = 0
        try:
            while self._queue:
                time_ms, _, event = self._queue[0]
                if until_ms is not None and time_ms > until_ms:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heapq.heappop(self._queue)
                if event.cancelled:
                    continue
                event.fired = True
                self._pending -= 1
                self._now = time_ms
                event.callback()
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
        if until_ms is not None and until_ms > self._now:
            self._now = until_ms
        return processed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events`` as a backstop)."""
        processed = self.run(max_events=max_events)
        if self._queue and processed >= max_events:
            raise SimulationError(
                f"simulation did not become idle within {max_events} events"
            )
        return processed
