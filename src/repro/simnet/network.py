"""Simulated message bus connecting all nodes of the deployment.

Every node registers itself with the network; ``send`` computes a link delay
from the latency model and schedules delivery on the destination node.  The
network also hosts the fault-injection hooks used to emulate byzantine and
crash behaviour at the transport level (dropping, delaying or tampering with
messages), and records per-message-type statistics used by tests and by the
benchmark harness to report message complexity.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, List, Optional, Protocol

from repro.common.errors import NetworkError
from repro.common.ids import NodeId
from repro.simnet.latency import LatencyModel
from repro.simnet.messages import Message
from repro.simnet.simulator import Simulator


class MessageSink(Protocol):
    """Anything that can receive messages from the network."""

    node_id: NodeId

    def receive(self, message: Message, src: NodeId) -> None:
        ...  # pragma: no cover - protocol definition


#: A message filter sees (src, dst, message) and returns the message to
#: deliver (possibly modified) or ``None`` to drop it.
MessageFilter = Callable[[NodeId, NodeId, Message], Optional[Message]]


class NetworkStats:
    """Counters describing the traffic that crossed the network."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.by_type: Counter = Counter()

    def snapshot(self) -> Dict[str, int]:
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "delayed": self.messages_delayed,
        }


class Network:
    """Point-to-point message delivery with configurable latency and faults."""

    def __init__(
        self,
        simulator: Simulator,
        latency_model: LatencyModel,
        rng: Optional[random.Random] = None,
    ) -> None:
        self._simulator = simulator
        self._latency_model = latency_model
        self._rng = rng or random.Random(0)
        self._nodes: Dict[NodeId, MessageSink] = {}
        self._filters: List[MessageFilter] = []
        self.stats = NetworkStats()
        #: Observability hub (repro.obs), attached by SimEnvironment; when
        #: tracing is on, each delivery of a traced message records a ``net``
        #: span and hands it to the receiver so its spans chain under it.
        self.obs = None

    @property
    def simulator(self) -> Simulator:
        return self._simulator

    def register(self, node: MessageSink) -> None:
        """Attach ``node`` to the network; its ``node_id`` becomes routable."""
        if node.node_id in self._nodes:
            raise NetworkError(f"node {node.node_id} is already registered")
        self._nodes[node.node_id] = node

    def knows(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def add_filter(self, message_filter: MessageFilter) -> None:
        """Install a fault-injection filter applied to every sent message."""
        self._filters.append(message_filter)

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` with modelled latency."""
        destination = self._nodes.get(dst)
        if destination is None:
            raise NetworkError(f"message to unknown node {dst}")
        self.stats.messages_sent += 1
        self.stats.by_type[message.type_name] += 1

        delivered = message
        for message_filter in self._filters:
            filtered = message_filter(src, dst, delivered)
            if filtered is None:
                self.stats.messages_dropped += 1
                return
            delivered = filtered

        self._schedule_delivery(src, dst, destination, delivered)

    def send_unfiltered(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Deliver ``message`` with modelled latency, bypassing fault filters.

        Used by delay faults to re-inject a held message: the message already
        passed (and was held by) the filter chain once, so running it through
        again would delay or drop it twice.  Statistics-neutral — the
        original :meth:`send` already counted the message as sent; any
        reclassification (e.g. drop → delayed) is the caller's job, so this
        path carries no hidden counter coupling (see
        :meth:`~repro.simnet.faults.FaultInjector.delay`).
        """
        destination = self._nodes.get(dst)
        if destination is None:
            raise NetworkError(f"message to unknown node {dst}")
        self._schedule_delivery(src, dst, destination, message)

    def _schedule_delivery(
        self, src: NodeId, dst: NodeId, destination: MessageSink, message: Message
    ) -> None:
        delay = self._latency_model.delay_ms(src, dst, self._rng)

        net_span = None
        obs = self.obs
        trace = message.trace_context() if obs is not None and obs.tracing else None
        if trace is not None:
            # The link delay is drawn here, so the span's extent is already
            # known.  One span per *delivery*: a broadcast shares the message
            # object but each destination gets its own net span.
            now = self._simulator.now
            net_span = obs.tracer.add_span(
                trace.trace_id,
                trace.span_id,
                f"net:{message.type_name}",
                f"{src}->{dst}",
                "net",
                now,
                now + delay,
            )

        simulator = self._simulator
        simulator.schedule_call(
            simulator.now + delay, self._deliver, destination, message, src, net_span
        )

    def _deliver(self, destination: MessageSink, message: Message, src: NodeId, net_span) -> None:
        self.stats.messages_delivered += 1
        if net_span is not None:
            # Hand the net span to the receiver (consumed synchronously
            # in receive()) so its queue/handle spans chain under it.
            destination._obs_net_hint = net_span
        destination.receive(message, src)
