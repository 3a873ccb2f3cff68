"""The view-progress monitor: a replica detects a dead or stalled leader.

A replica arms one lazy timer while there is evidence of pending work (a
started consensus instance, an undecided 2PC group, a client's complaint).
A timer that fires with no delivery progress since arming casts a
view-change vote and re-arms, so ``2f + 1`` suspicions rotate the view with
no operator nudge.  The policy is the pure :func:`monitor_step`; inputs carry
the engine facts it reads, and :class:`ViewProgressMonitor` is the shell that
gathers them and runs the effects.  A :class:`Fire` has four outcomes:
healthy re-arm, stand down (the 9th silent round, which keeps a run that lost
quorum finite), catch up (this replica is the one behind) and suspect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, FrozenSet, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.replica import PartitionReplica

#: Consecutive silent rounds after which the monitor stands down.
MAX_SUSPECT_ROUNDS = 8

#: Delivery progress: ``(last delivered sequence number, decided instances)``.
Progress = Tuple[int, int]


@dataclass(frozen=True)
class MonitorState:
    """Everything the monitor remembers between two inputs."""

    #: Progress when the timer was last armed (never "at the last event",
    #: which would misread a briefly quiet but healthy cluster as stalled).
    baseline: Progress
    #: Consecutive silent rounds; above ``MAX_SUSPECT_ROUNDS`` = stood down.
    rounds: int = 0
    #: One catch-up per stall: if it was futile (a byzantine leader's bogus
    #: future pre-prepare), the next silent round votes instead.
    catchup_attempted: bool = False
    #: Complaints forwarded to the leader as ``ComplaintProbe``s; only an ack
    #: for one of these counts.
    probes: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Poke:
    """Any event that could create or resolve evidence, with the timer idle."""

    progress: Progress
    pending: bool  # a started, undecided consensus instance
    undecided: bool  # a prepared, undecided 2PC group


@dataclass(frozen=True)
class Fire(Poke):
    """The progress timer expired (a poke's facts, and three more)."""

    behind: bool  # the quorum demonstrably decided past this replica
    is_leader: bool
    recovering: bool  # mid state transfer: the one behind cannot judge


@dataclass(frozen=True)
class Complaint:
    """A client said the leader is unresponsive; ``txn_id`` is now probed.

    The replica forwarded the unanswered transaction to the leader, and the
    complaint stands only while that probe goes unacknowledged, so a lying
    client cannot vote out a live leader.
    """

    txn_id: str


@dataclass(frozen=True)
class ProbeAck:
    """The leader answered the probe for ``txn_id``: it is alive."""

    txn_id: str


@dataclass(frozen=True)
class ViewChange:
    """The cluster rotated."""


@dataclass(frozen=True)
class Arm:
    """Start the progress timer."""


@dataclass(frozen=True)
class CatchUp:
    """Fetch the partition state from peers instead of voting anyone out."""


@dataclass(frozen=True)
class Suspect:
    """Vote the leader out, in the ``rounds``-th silent round."""

    rounds: int


Input = Union[Poke, Complaint, ProbeAck, ViewChange]
Effect = Union[Arm, CatchUp, Suspect]


def monitor_step(state: MonitorState, event: Input) -> Tuple[MonitorState, Tuple[Effect, ...]]:
    """The monitor's next state and the effects to run, in order."""
    stood_down = state.rounds > MAX_SUSPECT_ROUNDS
    if isinstance(event, Fire):
        if event.progress != state.baseline:
            state = replace(state, rounds=0, probes=frozenset(), catchup_attempted=False)
            return _arm_on_evidence(state, event)
        if stood_down or not _has_evidence(state, event):
            return state, ()
        state = replace(state, rounds=state.rounds + 1)
        if state.rounds > MAX_SUSPECT_ROUNDS:
            return state, ()  # stand down until progress or a complaint
        if event.recovering:
            return state, (Arm(),)
        # Catch up when the quorum moved past this replica or, as a leader's
        # last resort, after two windows without progress: a view change can
        # elect a replica that missed decisions, and it cannot vote itself out.
        if not state.catchup_attempted and (
            event.behind or (event.is_leader and state.rounds >= 2 and event.pending)
        ):
            return replace(state, catchup_attempted=True), (CatchUp(), Arm())
        return state, ((Arm(),) if event.is_leader else (Suspect(state.rounds), Arm()))
    if isinstance(event, Poke):
        if stood_down:
            if event.progress == state.baseline:
                return state, ()  # still stalled
            state = replace(state, rounds=0, probes=frozenset())
        return _arm_on_evidence(state, event)
    if isinstance(event, Complaint):
        # Revives a stood-down monitor: an idle leader's crash is still caught.
        rounds = 0 if stood_down else state.rounds
        return replace(state, probes=state.probes | {event.txn_id}, rounds=rounds), ()
    if isinstance(event, ProbeAck) and event.txn_id not in state.probes:
        return state, ()
    # An honoured ack or a view change answers every standing complaint.
    return replace(state, probes=frozenset()), ()


def _has_evidence(state: MonitorState, event: Poke) -> bool:
    return bool(state.probes) or event.pending or event.undecided


def _arm_on_evidence(state: MonitorState, event: Poke) -> Tuple[MonitorState, Tuple[Effect, ...]]:
    if not _has_evidence(state, event):
        return state, ()
    return replace(state, baseline=event.progress), (Arm(),)


class ViewProgressMonitor:
    """One replica's shell around :func:`monitor_step`: gathers facts, runs effects."""

    def __init__(self, replica: "PartitionReplica") -> None:
        self._replica = replica
        self._timeout_ms = replica.config.failover.progress_timeout_ms
        self._timer = None
        self.state = MonitorState(baseline=self._facts()[0])

    def poke(self) -> None:
        """Re-evaluate after any event that could create or resolve evidence."""
        if self._timer is None and self._live():
            self.step(Poke(*self._facts()))

    def _fire(self) -> None:
        self._timer = None
        if self._live():
            replica = self._replica
            engine = replica.engine
            self.step(Fire(
                *self._facts(), engine.is_behind(), engine.is_leader, replica.recovery.in_progress
            ))

    def _live(self) -> bool:
        """Not crashed, and not replaced by a crash-reset: stale timers must not act."""
        return not self._replica.crashed and self._replica.progress_monitor is self

    def _facts(self) -> Tuple[Progress, bool, bool]:
        replica = self._replica
        engine = replica.engine
        progress = (engine.last_delivered_seq, engine.decided_count)
        return progress, engine.has_pending_work(), replica.prepared_batches.has_undecided()

    def step(self, event: Input) -> None:
        """Step the policy, then run its effects (``suspect_leader`` can
        re-enter through a view change: no state is held across an effect)."""
        self.state, effects = monitor_step(self.state, event)
        replica = self._replica
        for effect in effects:
            if isinstance(effect, Arm):
                self._timer = replica.schedule(self._timeout_ms, self._fire)
            elif isinstance(effect, CatchUp):
                replica.counters.catchup_recoveries += 1
                replica.begin_recovery()
            else:
                replica.counters.leader_suspicions += 1
                replica.obs_event("leader-suspected", "warn", suspect_rounds=effect.rounds)
                replica.engine.suspect_leader()
