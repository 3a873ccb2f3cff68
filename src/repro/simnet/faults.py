"""Transport-level fault injection.

Byzantine behaviour shows up in two places in the reproduction: protocol-level
misbehaviour (a lying leader or replica, implemented in
:mod:`repro.bft.byzantine` and exercised by tests) and transport-level faults
injected here — dropped, delayed or tampered messages.  Filters are installed
on the :class:`~repro.simnet.network.Network` and apply to matching traffic.

Faults can be installed directly (tests poking one scenario) or as a
*scheduled fault plan* (:class:`FaultSchedule`): timed windows during which a
fault applies, driven by the simulator clock.  The chaos engine
(:mod:`repro.chaos`) composes whole runs out of scheduled plans, which is why
every random draw in this module goes through one explicit
:class:`random.Random` — replaying a seed must reproduce the exact same
drop/delay decisions.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Type

from repro.common.ids import NodeId
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.reliable import ReliableEnvelope


@dataclass
class FaultRule:
    """Selects the traffic a fault applies to.

    ``None`` fields match everything; ``probability`` applies the fault to a
    random subset of matching messages.
    """

    src: Optional[NodeId] = None
    dst: Optional[NodeId] = None
    message_type: Optional[Type[Message]] = None
    probability: float = 1.0

    def matches(self, src: NodeId, dst: NodeId, message: Message, rng: random.Random) -> bool:
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        if self.message_type is not None and not self._type_matches(message):
            return False
        if self.probability < 1.0 and rng.random() > self.probability:
            return False
        return True

    def _type_matches(self, message: Message) -> bool:
        """Type check with reliable-envelope look-through.

        A rule targeting a protocol type (say ``Commit``) keeps matching when
        the reliable channel wraps that traffic in a
        :class:`~repro.simnet.reliable.ReliableEnvelope` — faults select the
        protocol message they mean, whatever the transport framing.
        """
        if isinstance(message, self.message_type):
            return True
        return isinstance(message, ReliableEnvelope) and isinstance(
            message.payload, self.message_type
        )


@dataclass
class _InstalledFault:
    rule: FaultRule
    action: Callable[[Message], Optional[Message]]
    applied: int = 0
    #: Optional side-effect hook (see :meth:`FaultInjector.observe`).
    observer: Optional[Callable[[NodeId, NodeId, Message], None]] = None
    #: Optional route-aware action (sees src/dst; see :meth:`FaultInjector.delay`).
    route_action: Optional[
        Callable[[NodeId, NodeId, Message], Optional[Message]]
    ] = None


class FaultInjector:
    """Installs and tracks transport faults on a network.

    All probabilistic decisions draw from one :class:`random.Random`: pass
    ``rng`` to share a generator with the caller (the chaos engine threads a
    single seeded generator through the whole run so replays are
    bit-identical), or ``seed`` to let the injector own one.
    """

    def __init__(
        self,
        network: Network,
        seed: int = 13,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._network = network
        self._rng = rng if rng is not None else random.Random(seed)
        self._faults: List[_InstalledFault] = []
        self._crashed: Dict[NodeId, List[_InstalledFault]] = {}
        network.add_filter(self._filter)

    # -- installation -------------------------------------------------------

    def drop(self, rule: FaultRule) -> _InstalledFault:
        """Drop matching messages."""
        return self._install(rule, lambda message: None)

    def tamper(
        self, rule: FaultRule, mutate: Callable[[Message], Message]
    ) -> _InstalledFault:
        """Replace matching messages with ``mutate(copy)`` of the original.

        ``mutate`` always receives the *protocol* message: when the traffic
        travels inside a reliable-channel envelope, the copied payload is
        mutated and re-wrapped, so byzantine behaviours written against
        protocol types keep working whatever the transport framing.
        """

        def action(message: Message) -> Optional[Message]:
            clone = copy.deepcopy(message)
            if isinstance(clone, ReliableEnvelope):
                clone.payload = mutate(clone.payload)
                return clone
            return mutate(clone)

        return self._install(rule, action)

    def observe(
        self, rule: FaultRule, callback: Callable[[NodeId, NodeId, Message], None]
    ) -> _InstalledFault:
        """Watch matching traffic without altering it.

        ``callback(src, dst, message)`` runs at send time for every matching
        message, which lets tests trigger a fault at an exact protocol point
        — e.g. crash a coordinator's leader the moment the final
        ``ParticipantPrepared`` vote is on the wire.  Note that a callback
        which installs a crash affects the *observed message too* (it has not
        been delivered yet): crashing the destination here models "the
        message never arrived".
        """

        def action(message: Message) -> Optional[Message]:
            # The observer's note of src/dst is bound per message in _filter.
            return message

        fault = _InstalledFault(rule=rule, action=action)
        fault.observer = callback
        self._faults.append(fault)
        return fault

    def delay(self, rule: FaultRule, extra_ms: float) -> _InstalledFault:
        """Hold matching messages back for ``extra_ms`` before delivery.

        Implemented by swallowing the message and re-injecting it after the
        extra delay through :meth:`Network.send_unfiltered`, so the held
        message is delivered with its normal link latency on top of
        ``extra_ms`` and is not re-examined by any fault (no double delays,
        no second drop chance).  Delivery order between delayed and
        undelayed traffic can therefore invert — exactly the reordering a
        slow link produces.  Statistics: a delayed-then-delivered message
        counts once in ``sent``, once in ``delayed``, never in ``dropped``
        (the swallow's drop increment is reclassified here).
        """
        if extra_ms < 0:
            raise ValueError("delay extra_ms must be non-negative")
        fault = _InstalledFault(rule=rule, action=lambda message: message)

        def route_action(src: NodeId, dst: NodeId, message: Message) -> Optional[Message]:
            def reinject() -> None:
                # Returning None below makes send() count a drop; this
                # message is delivered after all, so reclassify it.
                self._network.stats.messages_dropped -= 1
                self._network.stats.messages_delayed += 1
                self._network.send_unfiltered(src, dst, message)

            self._obs_event("message-delayed", src, dst, message, extra_ms=extra_ms)
            self._network.simulator.schedule(extra_ms, reinject)
            return None

        fault.route_action = route_action
        self._faults.append(fault)
        return fault

    def isolate(self, node: NodeId) -> List[_InstalledFault]:
        """Drop all traffic to and from ``node`` (crash/partition emulation)."""
        return [self.drop(FaultRule(src=node)), self.drop(FaultRule(dst=node))]

    def crash(self, node: NodeId) -> List[_InstalledFault]:
        """Crash ``node``: drop all its traffic until :meth:`restart`.

        Unlike a bare :meth:`isolate`, the installed faults are remembered so
        the crash can be lifted later — the crash-then-restart fault used by
        the recovery benchmarks and tests (``repro.recovery``).
        """
        if node in self._crashed:
            return self._crashed[node]
        faults = self.isolate(node)
        self._crashed[node] = faults
        return faults

    def restart(self, node: NodeId) -> None:
        """Lift a previous :meth:`crash`; the node's traffic flows again."""
        for fault in self._crashed.pop(node, []):
            self.remove(fault)

    def is_crashed(self, node: NodeId) -> bool:
        return node in self._crashed

    def remove(self, fault: _InstalledFault) -> None:
        """Uninstall one previously installed fault (no-op when already gone)."""
        if fault in self._faults:
            self._faults.remove(fault)

    def clear(self) -> None:
        self._faults.clear()
        self._crashed.clear()

    def _install(
        self, rule: FaultRule, action: Callable[[Message], Optional[Message]]
    ) -> _InstalledFault:
        fault = _InstalledFault(rule=rule, action=action)
        self._faults.append(fault)
        return fault

    def _obs_event(
        self,
        kind: str,
        src: NodeId,
        dst: NodeId,
        message: Message,
        extra_ms: Optional[float] = None,
    ) -> None:
        """Record an injected fault on the flight recorder (if one is wired).

        The carried ``trace_id`` is what lets the trace-completeness oracle
        distinguish "reply trace cut short by an injected fault" from a
        genuine dropped-reply bug.
        """
        obs = getattr(self._network, "obs", None)
        if obs is None:
            return
        detail: Dict[str, object] = {
            "src": str(src),
            "dst": str(dst),
            "type": message.type_name,
            "trace_id": getattr(message.trace_context(), "trace_id", None),
        }
        if extra_ms is not None:
            detail["extra_ms"] = extra_ms
        obs.event("network", kind, "warn", detail)

    # -- filter -------------------------------------------------------------

    def _filter(self, src: NodeId, dst: NodeId, message: Message) -> Optional[Message]:
        current: Optional[Message] = message
        # Plain index iteration on purpose: an observer callback may install
        # new faults (e.g. a crash) that must already apply to this message.
        for fault in self._faults:
            if current is None:
                return None
            if fault.rule.matches(src, dst, current, self._rng):
                fault.applied += 1
                if fault.observer is not None:
                    observed = (
                        current.payload
                        if isinstance(current, ReliableEnvelope)
                        else current
                    )
                    fault.observer(src, dst, observed)
                if fault.route_action is not None:
                    current = fault.route_action(src, dst, current)
                else:
                    current = fault.action(current)
                    if current is None:
                        self._obs_event("message-dropped", src, dst, message)
        return current


@dataclass
class _ScheduledWindow:
    """One entry of a :class:`FaultSchedule` (for introspection in tests)."""

    at_ms: float
    until_ms: Optional[float]
    description: str


class FaultSchedule:
    """A timed fault plan: faults that install and uninstall themselves.

    Each entry opens at an absolute simulated time and (optionally) closes
    again after a window, driven by the simulator clock — the building block
    for scripted fault scenarios and for the chaos engine's replayable fault
    plans.  Faults installed by a window that never closes stay active until
    :meth:`FaultInjector.clear`.
    """

    def __init__(self, injector: FaultInjector, simulator) -> None:
        self._injector = injector
        self._simulator = simulator
        self.windows: List[_ScheduledWindow] = []

    # -- generic -------------------------------------------------------------

    def window(
        self,
        at_ms: float,
        install: Callable[[FaultInjector], object],
        until_ms: Optional[float] = None,
        description: str = "fault",
    ) -> _ScheduledWindow:
        """Schedule ``install(injector)`` at ``at_ms``; undo at ``until_ms``.

        ``install`` returns the installed fault (or a list of faults), which
        are removed when the window closes.
        """
        if until_ms is not None and until_ms < at_ms:
            raise ValueError("fault window must close after it opens")
        entry = _ScheduledWindow(at_ms=at_ms, until_ms=until_ms, description=description)
        self.windows.append(entry)

        def opened() -> None:
            installed = install(self._injector)
            if until_ms is None:
                return
            faults = installed if isinstance(installed, list) else [installed]

            def closed() -> None:
                for fault in faults:
                    self._injector.remove(fault)

            self._simulator.schedule_at(until_ms, closed)

        self._simulator.schedule_at(at_ms, opened)
        return entry

    # -- convenience wrappers ------------------------------------------------

    def drop_window(
        self, at_ms: float, rule: FaultRule, until_ms: Optional[float] = None
    ) -> _ScheduledWindow:
        """Drop matching messages between ``at_ms`` and ``until_ms``."""
        return self.window(
            at_ms,
            lambda injector: injector.drop(rule),
            until_ms=until_ms,
            description="drop",
        )

    def delay_window(
        self,
        at_ms: float,
        rule: FaultRule,
        extra_ms: float,
        until_ms: Optional[float] = None,
    ) -> _ScheduledWindow:
        """Delay matching messages by ``extra_ms`` between ``at_ms`` and ``until_ms``."""
        return self.window(
            at_ms,
            lambda injector: injector.delay(rule, extra_ms),
            until_ms=until_ms,
            description="delay",
        )
