"""Live monitoring: sim-time metrics timelines and per-node health states.

PR 6's observability is *post-hoc*: traces and flight-recorder rings are
read once the run is over.  This module watches the system *while it runs*:

* :class:`MetricsTimeline` — windowed deltas of the deployment's cumulative
  counters (system counters, transport stats, per-node handled counts)
  sampled every ``MonitorConfig.window_ms`` of *simulated* time, plus
  per-window phase attribution and end-to-end latency samples folded in
  from the causal tracer's span-close stream.
* :class:`HealthTracker` — per-node timestamped health states (healthy /
  degraded / suspected / recovering / crashed) derived from the flight
  recorder's typed events, with quiet-window decay back to healthy.
* :class:`Monitor` — the glue object a deployment installs on its
  :class:`~repro.simnet.node.SimEnvironment`.

Determinism and neutrality are the design constraints, exactly as for the
tracer: the monitor schedules **zero** simulator events (window boundaries
are noticed lazily on existing dispatches, the way ``_dispatch_in_span``
piggybacks on dispatch), draws no randomness, and only ever *reads*
counters.  Enabling monitoring therefore cannot change what a run does —
chaos fingerprints and trace digests are byte-identical with monitoring on
or off, which ``tests/obs/test_monitor.py`` and
``tests/chaos/test_perf_oracle.py`` pin.

The timeline's accounting discipline mirrors PR 6's phase attribution:
windowed deltas *telescope*.  Each closed window's delta is the cumulative
snapshot at close time minus the previous close's snapshot, so the sum of
all window deltas (retained windows plus the evicted-totals accumulator
plus the flushed tail) equals final-minus-initial exactly — the timeline
can never invent or lose a counted event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.common.config import MonitorConfig
from repro.obs.attribution import phase_breakdown
from repro.obs.recorder import ObsEvent
from repro.obs.trace import Span, Tracer

#: Health states, ordered from best to worst; transitions always move a
#: node between two of these.
HEALTH_STATES = ("healthy", "degraded", "suspected", "recovering", "crashed")

#: Severity rank of each health state: a weaker signal never downgrades a
#: stronger one (a retransmit to a crashed node does not "degrade" it).
_HEALTH_RANK = {state: rank for rank, state in enumerate(HEALTH_STATES)}

#: Flight-recorder kinds that mark the *destination* node of a lossy link
#: as degraded (the peer is not acking / not receiving).
_DEGRADING_KINDS = ("message-retransmit", "retransmit-abandoned", "link-abandoned")

#: Bounds: the retained window ring (older windows fold into the evicted
#: totals, so aggregate deltas stay exact), the raw latency samples kept per
#: window (counts stay exact past the cap), the windows without a degrading
#: signal after which a degraded/suspected node is healthy again, and the
#: health transition log.
MAX_WINDOWS = 256
LATENCY_SAMPLES_PER_WINDOW = 512
HEALTHY_AFTER_QUIET_WINDOWS = 3
MAX_HEALTH_TRANSITIONS = 1024


@dataclass
class WindowSample:
    """One closed timeline window: deltas plus per-window latency detail.

    ``start_ms``/``end_ms`` are *nominal* window boundaries (multiples of
    ``window_ms``); a sample may span several idle windows when nothing
    dispatched in between (the timeline is sparse — empty windows are never
    materialised).  ``closed_at_ms`` is the simulated time the boundary was
    actually noticed.  Delta dicts store only non-zero entries.
    """

    index: int
    start_ms: float
    end_ms: float
    closed_at_ms: float
    #: SystemCounters deltas over the window (non-zero entries only).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Reliable-transport counter deltas (empty when the channel is off).
    transport: Dict[str, int] = field(default_factory=dict)
    #: Per-node ``messages_handled`` deltas.
    node_handled: Dict[str, int] = field(default_factory=dict)
    #: Exclusive per-phase attribution (ms) of transactions finishing here.
    phase_ms: Dict[str, float] = field(default_factory=dict)
    #: Transactions whose root span closed in this window, by outcome.
    commits: int = 0
    aborts: int = 0
    #: Raw end-to-end latencies of the window's commits, capped at
    #: ``LATENCY_SAMPLES_PER_WINDOW`` (``commits`` stays exact past the cap).
    latencies: List[float] = field(default_factory=list)
    samples_dropped: int = 0
    #: Earliest root-span *start* among the transactions that finished in
    #: this window (``None`` when none did).  A long-stuck transaction ends
    #: far from where it began; comparisons that exclude time intervals
    #: (the phase-latency oracle's fault windows) need to know how far back
    #: a window's latencies reach.
    earliest_root_start_ms: Optional[float] = None


#: The sections of a cumulative snapshot, each ``{name: int}``; a
#: :class:`WindowSample` holds each one's deltas under the same name.
SECTIONS = ("counters", "transport", "node_handled")

#: What the evicted accumulator and :meth:`MetricsTimeline.totals` sum
#: key by key: the snapshot sections plus the phase attribution.
_SUMMED = SECTIONS + ("phase_ms",)


class _PendingWindow:
    """Span-derived data accumulated for a window that has not closed yet."""

    __slots__ = ("phase_ms", "commits", "aborts", "latencies", "dropped", "earliest_start")

    def __init__(self) -> None:
        self.phase_ms: Dict[str, float] = {}
        self.commits = 0
        self.aborts = 0
        self.latencies: List[float] = []
        self.dropped = 0
        self.earliest_start: Optional[float] = None


def _delta(new: Dict[str, int], old: Dict[str, int]) -> Dict[str, int]:
    """Non-zero differences ``new - old`` (keys drawn from ``new``)."""
    out: Dict[str, int] = {}
    for key in sorted(new):
        diff = new[key] - old.get(key, 0)
        if diff:
            out[key] = diff
    return out


def _merge(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key in sorted(part):
        total[key] = total.get(key, 0) + part[key]


class MetricsTimeline:
    """Ring-bounded windowed counter deltas on simulated time.

    ``snapshot_fn`` returns the deployment's *cumulative* counters as
    ``{section: {name: int}}`` over :data:`SECTIONS`.

    The timeline never calls it outside :meth:`note_time`/:meth:`flush`, and
    those only read — sampling is free of simulation side effects.
    """

    def __init__(
        self, config: MonitorConfig, snapshot_fn: Callable[[], Dict[str, Dict[str, int]]]
    ) -> None:
        self._snapshot_fn = snapshot_fn
        self._window_ms = config.window_ms
        #: Cumulative counters at construction: the exactness invariant's
        #: left edge (window deltas sum to final minus *this*).
        self.initial = snapshot_fn()
        self._baseline = self.initial
        self._current_index = 0
        self._samples: "deque[WindowSample]" = deque()
        self._pending: Dict[int, _PendingWindow] = {}
        self.windows_closed = 0
        #: Deltas of windows evicted from the bounded ring, folded so that
        #: aggregate accounting stays exact forever.
        self.evicted: Dict[str, object] = {
            "windows": 0,
            **{name: {} for name in _SUMMED},
            "commits": 0,
            "aborts": 0,
            "samples_dropped": 0,
        }

    # -- sampling ----------------------------------------------------------

    def note_time(self, now_ms: float) -> Optional[float]:
        """Close windows the clock has moved past; called on every dispatch.

        Returns the nominal start of the newly opened window when a
        boundary was crossed (the health tracker decays on that signal),
        ``None`` otherwise.
        """
        index = int(now_ms // self._window_ms)
        if index <= self._current_index:
            return None
        self._close_through(index, now_ms)
        return index * self._window_ms

    def record_root(
        self, end_ms: float, duration_ms: float, ok: bool, breakdown: Dict[str, float]
    ) -> None:
        """Fold one finished transaction into its window (by root-close time)."""
        index = max(self._current_index, int(end_ms // self._window_ms))
        pending = self._pending.get(index)
        if pending is None:
            pending = self._pending[index] = _PendingWindow()
        start_ms = end_ms - duration_ms
        if pending.earliest_start is None or start_ms < pending.earliest_start:
            pending.earliest_start = start_ms
        if ok:
            pending.commits += 1
            if len(pending.latencies) < LATENCY_SAMPLES_PER_WINDOW:
                pending.latencies.append(duration_ms)
            else:
                pending.dropped += 1
            for phase in sorted(breakdown):
                pending.phase_ms[phase] = pending.phase_ms.get(phase, 0.0) + breakdown[phase]
        else:
            pending.aborts += 1

    def flush(self, now_ms: float) -> None:
        """Close the open tail window so aggregate accounting reconciles."""
        upto = int(now_ms // self._window_ms) + 1
        if self._pending:
            upto = max(upto, max(self._pending) + 1)
        self._close_through(upto, now_ms)

    # -- queries -----------------------------------------------------------

    def samples(self) -> List[WindowSample]:
        """Retained windows, oldest first."""
        return list(self._samples)

    def totals(self) -> Dict[str, object]:
        """Aggregate deltas over evicted plus retained windows.

        After :meth:`flush`, every section equals the cumulative snapshot
        minus :attr:`initial` — the exactness invariant the tests pin.
        """
        totals: Dict[str, object] = {name: dict(self.evicted[name]) for name in _SUMMED}
        totals["commits"] = self.evicted["commits"]
        totals["aborts"] = self.evicted["aborts"]
        for sample in self._samples:
            for name in _SUMMED:
                _merge(totals[name], getattr(sample, name))
            totals["commits"] += sample.commits
            totals["aborts"] += sample.aborts
        return totals

    # -- internals ---------------------------------------------------------

    def _close_through(self, index: int, now_ms: float) -> None:
        """Close the open window ``[current, index)`` as one sparse sample.

        One snapshot covers the whole jump: work done in windows nothing
        dispatched in lands in the closing sample (boundaries are noticed
        lazily, so attribution granularity is bounded by dispatch density —
        the deltas themselves stay exact regardless).
        """
        snapshot = self._snapshot_fn()
        sample = WindowSample(
            index=self._current_index,
            start_ms=self._current_index * self._window_ms,
            end_ms=index * self._window_ms,
            closed_at_ms=now_ms,
            **{name: _delta(snapshot[name], self._baseline[name]) for name in SECTIONS},
        )
        for key in sorted(k for k in self._pending if k < index):
            pending = self._pending.pop(key)
            _merge(sample.phase_ms, pending.phase_ms)
            sample.commits += pending.commits
            sample.aborts += pending.aborts
            if pending.earliest_start is not None and (
                sample.earliest_root_start_ms is None
                or pending.earliest_start < sample.earliest_root_start_ms
            ):
                sample.earliest_root_start_ms = pending.earliest_start
            room = LATENCY_SAMPLES_PER_WINDOW - len(sample.latencies)
            sample.latencies.extend(pending.latencies[: max(0, room)])
            sample.samples_dropped += pending.dropped + max(
                0, len(pending.latencies) - max(0, room)
            )
        self._baseline = snapshot
        self._current_index = index
        if self._has_content(sample):
            self._samples.append(sample)
            self.windows_closed += 1
            while len(self._samples) > MAX_WINDOWS:
                self._evict(self._samples.popleft())

    @staticmethod
    def _has_content(sample: WindowSample) -> bool:
        return bool(
            sample.commits or sample.aborts or any(getattr(sample, name) for name in SECTIONS)
        )

    def _evict(self, sample: WindowSample) -> None:
        self.evicted["windows"] += 1
        for name in _SUMMED:
            _merge(self.evicted[name], getattr(sample, name))
        self.evicted["commits"] += sample.commits
        self.evicted["aborts"] += sample.aborts
        self.evicted["samples_dropped"] += sample.samples_dropped + len(sample.latencies)


class HealthTracker:
    """Per-node health states derived from the flight-recorder event stream.

    State machine (rank-ordered; weaker signals never downgrade stronger
    states):

    * ``replica-crash`` → **crashed**
    * ``replica-restart`` / ``recovery-begin`` → **recovering**
    * ``recovery-complete`` → **healthy**
    * ``leader-suspected`` → the partition's current leader (resolved via
      ``leader_of`` at event time, i.e. before the view rotates) becomes
      **suspected**
    * retransmit-family events → the destination node becomes **degraded**
    * ``HEALTHY_AFTER_QUIET_WINDOWS`` windows without a new degrading
      signal decay degraded/suspected nodes back to **healthy**
      (crashed/recovering only leave through restart/recovery events).

    Transitions are timestamped with simulated time and kept in a bounded
    log, so "node X was degraded between t=400ms and t=900ms" is a direct
    read of the record.
    """

    def __init__(
        self,
        config: MonitorConfig,
        leader_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        self._leader_of = leader_of
        self._quiet_ms = HEALTHY_AFTER_QUIET_WINDOWS * config.window_ms
        self._states: Dict[str, str] = {}
        self._last_signal_ms: Dict[str, float] = {}
        self.transitions: "deque[Dict[str, object]]" = deque(maxlen=MAX_HEALTH_TRANSITIONS)

    # -- event feed --------------------------------------------------------

    def on_event(self, event: ObsEvent) -> None:
        kind = event.kind
        detail = event.detail or {}
        when = event.time_ms
        if kind == "replica-crash":
            self._set(event.node, "crashed", when, kind)
        elif kind == "replica-restart":
            self._set(event.node, "recovering", when, kind)
        elif kind == "recovery-begin":
            if self.state(event.node) != "crashed":
                self._set(event.node, "recovering", when, kind)
        elif kind == "recovery-complete":
            self._set(event.node, "healthy", when, kind)
        elif kind == "leader-suspected":
            partition = detail.get("partition")
            if self._leader_of is not None and partition is not None:
                self._raise_to(self._leader_of(partition), "suspected", when, kind)
        elif kind in _DEGRADING_KINDS:
            dst = detail.get("dst")
            if dst is not None:
                self._raise_to(str(dst), "degraded", when, kind)

    def decay(self, now_ms: float) -> None:
        """Degraded/suspected nodes quiet long enough return to healthy."""
        for node in sorted(self._states):
            if self._states[node] not in ("degraded", "suspected"):
                continue
            if now_ms - self._last_signal_ms.get(node, 0.0) >= self._quiet_ms:
                self._set(node, "healthy", now_ms, "quiet")

    # -- queries -----------------------------------------------------------

    def state(self, node: str) -> str:
        return self._states.get(node, "healthy")

    def snapshot(self) -> Dict[str, str]:
        """Current state of every node that ever left ``healthy``."""
        return {node: self._states[node] for node in sorted(self._states)}

    def summary(self) -> Dict[str, object]:
        states = self.snapshot()
        counts: Dict[str, int] = {}
        for state in states.values():
            counts[state] = counts.get(state, 0) + 1
        return {
            "states": states,
            "counts": counts,
            "transitions": [dict(entry) for entry in self.transitions],
        }

    # -- internals ---------------------------------------------------------

    def _raise_to(self, node: str, state: str, when: float, reason: str) -> None:
        """Apply ``state`` only if it is at least as severe as the current one."""
        current = self.state(node)
        if _HEALTH_RANK[state] < _HEALTH_RANK[current]:
            # Weaker signal: refresh the quiet clock, keep the state.
            self._last_signal_ms[node] = when
            return
        self._set(node, state, when, reason)

    def _set(self, node: str, state: str, when: float, reason: str) -> None:
        previous = self.state(node)
        self._last_signal_ms[node] = when
        if previous == state:
            return
        self._states[node] = state
        self.transitions.append(
            {
                "time_ms": when,
                "node": node,
                "from": previous,
                "to": state,
                "reason": reason,
            }
        )


class Monitor:
    """The deployment's live cockpit: timeline plus health tracking.

    Constructed by :class:`~repro.core.system.TransEdgeSystem` when
    ``MonitorConfig.enabled`` and installed on the shared environment
    (``env.monitor``) and observability hub
    (:meth:`~repro.obs.hub.Observability.attach_monitor`).  All three entry
    points — :meth:`on_activity` (dispatch), :meth:`on_span_closed`
    (tracer) and :meth:`on_obs_event` (flight recorder) — piggyback on
    streams that already exist; the monitor adds no events of its own.
    """

    def __init__(
        self,
        config: MonitorConfig,
        snapshot_fn: Callable[[], Dict[str, Dict[str, int]]],
        leader_of: Optional[Callable[[int], str]] = None,
    ) -> None:
        self.config = config
        self.timeline = MetricsTimeline(config, snapshot_fn)
        self.health = HealthTracker(config, leader_of=leader_of)
        self._tracer: Optional[Tracer] = None

    def bind_tracer(self, tracer: Tracer) -> None:
        """Give the monitor read access to the trace store (attribution)."""
        self._tracer = tracer

    # -- piggybacked entry points ------------------------------------------

    def on_activity(self, now_ms: float) -> None:
        """Dispatch-path hook: close any windows the clock moved past."""
        boundary = self.timeline.note_time(now_ms)
        if boundary is not None:
            self.health.decay(boundary)

    def on_span_closed(self, span: Span) -> None:
        """Tracer hook: fold finished transactions into their window.

        Only root spans carry a transaction outcome; their exclusive phase
        breakdown (:func:`repro.obs.attribution.phase_breakdown`) is what
        makes per-window phase sums comparable to end-to-end latency.
        """
        if span.parent_id is not None or span.end_ms is None:
            return
        breakdown: Dict[str, float] = {}
        if span.status == "ok" and self._tracer is not None:
            trace = self._tracer.trace(span.trace_id)
            if trace is not None:
                breakdown = phase_breakdown(trace)
        if not breakdown and span.status == "ok":
            breakdown = {span.phase: span.duration_ms}
        self.timeline.record_root(
            span.end_ms, span.duration_ms, span.status == "ok", breakdown
        )

    def on_obs_event(self, event: ObsEvent) -> None:
        """Flight-recorder hook: fold typed events into health states."""
        self.health.on_event(event)

    # -- collection --------------------------------------------------------

    def flush(self, now_ms: float) -> None:
        """Close the tail window (call once at collection time)."""
        self.timeline.flush(now_ms)
