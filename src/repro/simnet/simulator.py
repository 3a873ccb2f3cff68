"""Discrete-event simulator.

The whole TransEdge deployment — replicas, leaders, clients and the network
between them — runs on a single event loop driven by simulated time.  Time is
a float number of milliseconds.  Events are callbacks scheduled at absolute
times; ties are broken by insertion order so executions are deterministic for
a fixed seed.

An event is one heap tuple ``(time, sequence, fn, args)`` and fires as
``fn(*args)``: callers pass a bound method and its arguments, not a closure.
Most events are never cancelled (message deliveries and dispatches), so
:meth:`Simulator.schedule_call` pushes just that tuple;
:meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` also allocate the
one :class:`EventHandle` a timer needs to be withdrawn.  Cancellation is
lazy: the entry stays in the heap and is skipped, uncounted, when popped.

:meth:`Simulator.run` runs its loop under one cyclic-collector policy, the
gen-0 threshold raised to :data:`RUN_GC_THRESHOLD`.  A run allocates
events, messages and replies by the hundred thousand, and reference
counting frees nearly all of them: a fault-free run leaves no cyclic
garbage at all, so each collection it triggers only walks the live
deployment and frees nothing.  The collector stays on, because a run with
faults can abandon cycles; the wider window only collects them later.  The
caller's thresholds come back when the run returns or raises, so nothing is
set at import, a nested run hands its caller's policy back, and a caller
that disabled the collector finds it still disabled.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

#: Collector thresholds while :meth:`Simulator.run` runs: a young collection
#: every 50 000 net allocations instead of 700, and an older generation
#: after 20 collections of the one below instead of 10.  A cycle a run
#: abandons is still found within a bounded number of allocations.
RUN_GC_THRESHOLD = (50_000, 20, 20)


class EventHandle:
    """A cancellable event, returned by :meth:`Simulator.schedule`.

    ``time`` and ``cancelled`` are for reading; :meth:`cancel` is the only
    way to withdraw the event.  A handle holds its callback and arguments
    only while it can still fire: a cancelled entry stays in the heap until
    its original time (cancellation is lazy), and must not keep a finished
    wait's replies alive until then — nor for ever, through the cycle
    ``wait.timer → handle → args → wait``.
    """

    __slots__ = ("time", "cancelled", "_fired", "_fn", "_args", "_simulator")

    def __init__(self, time: float, fn: Callable[..., None], args: tuple, simulator: "Simulator") -> None:
        self.time = time
        self.cancelled = False
        self._fired = False
        self._fn = fn
        self._args = args
        self._simulator = simulator

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        self._fn = self._args = None
        self._simulator._pending -= 1


class Simulator:
    """A minimal, deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._now = 0.0
        #: ``(time, sequence, fn, args)``; a cancellable event has ``fn``
        #: ``None`` and its :class:`EventHandle` in place of ``args``.
        self._queue: List[Tuple[float, int, Optional[Callable[..., None]], object]] = []
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

    def schedule(self, delay_ms: float, fn: Callable[..., None], *args: object) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay_ms`` from now."""
        if not (delay_ms >= 0):  # also refuses NaN
            raise SimulationError(f"cannot schedule an event {delay_ms}ms in the past")
        return self.schedule_at(self._now + delay_ms, fn, *args)

    def schedule_at(self, time_ms: float, fn: Callable[..., None], *args: object) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute time ``time_ms``."""
        if not (time_ms >= self._now):  # also refuses NaN, which would corrupt heap order
            raise SimulationError(
                f"cannot schedule at {time_ms}ms; simulated time is already {self._now}ms"
            )
        handle = EventHandle(time_ms, fn, args, self)
        heapq.heappush(self._queue, (time_ms, next(self._sequence), None, handle))
        self._pending += 1
        return handle

    def schedule_call(self, time_ms: float, fn: Callable[..., None], *args: object) -> None:
        """:meth:`schedule_at` for an event nobody will cancel: no handle."""
        if not (time_ms >= self._now):
            raise SimulationError(
                f"cannot schedule at {time_ms}ms; simulated time is already {self._now}ms"
            )
        heapq.heappush(self._queue, (time_ms, next(self._sequence), fn, args))
        self._pending += 1

    def run(
        self,
        until_ms: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains, ``until_ms`` or ``max_events``.

        Returns the number of events processed by this call.  When
        ``until_ms`` is given, the clock is advanced to ``until_ms`` even if
        the queue drained earlier, so back-to-back ``run`` calls observe a
        monotonically advancing clock.  The loop runs under
        :data:`RUN_GC_THRESHOLD`; the caller's thresholds are restored on
        the way out.
        """
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        caller_threshold = gc.get_threshold()
        gc.set_threshold(*RUN_GC_THRESHOLD)
        processed = 0
        queue, heappop = self._queue, heapq.heappop
        try:
            while queue:
                time_ms, _, fn, args = queue[0]
                if until_ms is not None and time_ms > until_ms:
                    break
                if max_events is not None and processed >= max_events:
                    break
                heappop(queue)
                if fn is None:
                    handle = args
                    if handle.cancelled:
                        continue
                    handle._fired = True
                    fn, args = handle._fn, handle._args
                    handle._fn = handle._args = None
                self._pending -= 1
                self._now = time_ms
                fn(*args)
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
            gc.set_threshold(*caller_threshold)
        if until_ms is not None and until_ms > self._now:
            self._now = until_ms
        return processed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain (bounded by ``max_events`` as a backstop)."""
        processed = self.run(max_events=max_events)
        if self._pending and processed >= max_events:
            raise SimulationError(
                f"simulation did not become idle within {max_events} events"
            )
        return processed
