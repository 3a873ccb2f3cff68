"""Simulated nodes: shared environment, processing-cost model and dispatch.

A :class:`SimNode` is an actor attached to the network.  Incoming messages
are not handled instantaneously: each node is a single-server FIFO queue with
a per-message processing cost, which is what makes simulated throughput
finite and sensitive to protocol design (a leader that must verify more
signatures or run more conflict checks per transaction serves fewer
transactions per simulated second).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Type

from repro.common.config import SystemConfig
from repro.common.ids import NodeId
from repro.crypto.merkle import DeltaMemo
from repro.crypto.signatures import KeyRegistry, Signer, make_signer
from repro.obs.hub import Observability
from repro.obs.phases import phase_for
from repro.obs.trace import Span
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.reliable import ReliableAck, ReliableEnvelope, ReliableTransport
from repro.simnet.simulator import Simulator

#: Entries in each signature verify cache (the deployment registry's, and
#: through ``KeyRegistry.for_node`` every node's), so a quorum of identical
#: votes is canonicalised and verified once per node, not ``3f + 1`` times.
VERIFY_CACHE_SIZE = 4096


class SimEnvironment:
    """Everything a node needs to participate in the simulation.

    One environment is shared by all nodes of a deployment: the event loop,
    the network, the system configuration, the PKI registry (each node
    verifies through its own ``registry.for_node()``), the Merkle delta memo
    and a seeded random generator (so whole-system runs are reproducible).
    """

    def __init__(self, config: SystemConfig) -> None:
        from repro.simnet.latency import build_latency_model

        self.config = config.validate()
        self.simulator = Simulator()
        self.rng = random.Random(config.seed)
        latency_model = build_latency_model(config.latency, config.num_partitions)
        self.network = Network(self.simulator, latency_model, random.Random(config.seed + 1))
        self.registry = KeyRegistry(VERIFY_CACHE_SIZE)
        #: Merkle deltas by ``(root, write-set)``, shared by every replica's
        #: store (repro.crypto.merkle): a cluster hashes each batch once.
        self.merkle_deltas = DeltaMemo()
        #: Shared observability hub (repro.obs): tracer + flight recorder.
        #: The network gets a handle so deliveries can record ``net`` spans.
        self.obs = Observability(self.config.obs, lambda: self.simulator.now)
        self.network.obs = self.obs
        #: Live monitor (repro.obs.monitor), installed by the system when
        #: ``MonitorConfig.enabled``; ``None`` otherwise.  Nodes poke it on
        #: every dispatch so timeline windows close on sim-time without any
        #: extra simulator events.
        self.monitor = None
        #: Reliable delivery for core links (repro.simnet.reliable).  Its
        #: jitter generator is dedicated (``seed + 3``) so retransmission
        #: never perturbs the env/network/fault draw sequences.
        self.reliability = ReliableTransport(
            self.config.reliability,
            self.network,
            self.simulator,
            random.Random(config.seed + 3),
            obs=self.obs,
        )

    @property
    def now(self) -> float:
        return self.simulator.now

    def new_signer(self, identity: str) -> Signer:
        """Create and register a signer for ``identity`` (setup-time PKI)."""
        signer = make_signer(self.config.crypto_backend, identity, rng=self.rng)
        self.registry.register(signer)
        return signer


#: Handler signature: receives the message and the sender's node id.
MessageHandler = Callable[[Message, NodeId], None]


class SimNode:
    """Base class for every simulated actor (replicas, leaders, clients)."""

    def __init__(self, node_id: NodeId, env: SimEnvironment) -> None:
        self.node_id = node_id
        self.env = env
        self.signer = env.new_signer(str(node_id))
        #: Per-node signature verification: a registry sharing the
        #: deployment's identities with a cache private to this node, so
        #: verify-memo memory and hit rates are modeled per replica.
        self.verifier = env.registry.for_node()
        if env.config.costs.verify_cache_miss_penalty_ms > 0.0:
            self.verifier.on_miss = self._on_verify_cache_miss
        self._handlers: Dict[Type[Message], MessageHandler] = {}
        self._busy_until = 0.0
        self.messages_handled = 0
        #: Causal-tracing state (repro.obs): the span whose handler/process
        #: is currently executing on this node (outgoing messages inherit it
        #: as their context), and the just-delivered message's ``net`` span
        #: handed over by the network so queue/handle spans chain under it.
        self._current_span: Optional[Span] = None
        self._obs_net_hint: Optional[Span] = None
        #: Crash-fault flag: a crashed node silently drops everything it
        #: receives (including deliveries already in flight when it crashed)
        #: until the fault injector restarts it.
        self.crashed = False
        env.network.register(self)

    # -- wiring -----------------------------------------------------------

    def register_handler(self, message_type: Type[Message], handler: MessageHandler) -> None:
        """Route messages of ``message_type`` to ``handler``."""
        self._handlers[message_type] = handler

    def send(self, dst: NodeId, message: Message) -> None:
        """Send ``message`` to ``dst`` over the simulated network.

        Replica-to-replica traffic goes through the reliable channel
        (ack/retransmit/dedup; :mod:`repro.simnet.reliable`); every other
        link is fire-and-forget.
        """
        self._stamp_trace(message)
        transport = self.env.reliability
        if transport.covers(self.node_id, dst):
            transport.send(self.node_id, dst, message)
        else:
            self.env.network.send(self.node_id, dst, message)

    def broadcast(self, dsts, message: Message) -> None:
        self._stamp_trace(message)
        transport = self.env.reliability
        # Per-destination envelopes (each link has its own sequence space)
        # around the one shared payload object.
        for dst in dsts:
            if dst == self.node_id:
                continue
            if transport.covers(self.node_id, dst):
                transport.send(self.node_id, dst, message)
            else:
                self.env.network.send(self.node_id, dst, message)

    def _stamp_trace(self, message: Message) -> None:
        """Attach the currently executing span's context to ``message``.

        Only untraced messages are stamped (a failover re-send keeps its
        original transaction's context), and only while a traced handler or
        process is running — so protocol-internal traffic (consensus votes,
        checkpoint rounds) stays untraced and cheap.
        """
        if (
            message.trace is None
            and self._current_span is not None
            and self.env.obs.tracing
        ):
            message.trace = self._current_span.context()

    def schedule(self, delay_ms: float, fn: Callable[..., None], *args: object):
        """Schedule a local timer on the shared event loop."""
        return self.env.simulator.schedule(delay_ms, fn, *args)

    @property
    def now(self) -> float:
        return self.env.simulator.now

    # -- processing model --------------------------------------------------

    def processing_cost_ms(self, message: Message) -> float:
        """Simulated time this node spends handling ``message``.

        Subclasses refine this per message type (e.g. a batch proposal costs
        time proportional to the number of transactions it carries).
        """
        return self.env.config.costs.message_handling_ms

    def phase_of(self, message: Message) -> str:
        """Attribution phase of handling ``message`` (see repro.obs.phases)."""
        return phase_for(message.type_name)

    def receive(self, message: Message, src: NodeId) -> None:
        """Network entry point: queue the message behind ongoing work."""
        net_span = self._obs_net_hint
        self._obs_net_hint = None
        if self.crashed:
            return
        kind = type(message)
        if kind is ReliableEnvelope or kind is ReliableAck:
            # Transport layer: acks and dedup are handled at arrival time
            # (before the busy queue — ack processing models NIC work, not
            # protocol work), and the protocol layer sees only fresh
            # payloads, never envelopes or duplicates.
            payload = self.env.reliability.on_receive(self.node_id, src, message)
            if payload is None:
                return
            message = payload
        arrival = self.env.simulator.now
        start = max(arrival, self._busy_until)
        # The one shape check of an arriving message: a malformed one is
        # priced flat, so no cost model ever reads its fields.
        well_formed = message.well_formed()
        if well_formed:
            cost = self.processing_cost_ms(message)
        else:
            cost = self.env.config.costs.message_handling_ms
        completion = start + cost
        self._busy_until = completion
        handle_span = None
        if self.env.obs.tracing and message.trace is not None:
            # Queue and handle extents are fully determined here (single-
            # server FIFO), so both spans are recorded already closed; the
            # handle span becomes current again when the handler runs, so
            # replies sent from inside it chain correctly.
            tracer = self.env.obs.tracer
            trace_id = message.trace.trace_id
            parent = net_span.span_id if net_span is not None else message.trace.span_id
            node = str(self.node_id)
            if start - arrival > 1e-9:
                queue_span = tracer.add_span(
                    trace_id, parent, f"queue:{message.type_name}", node,
                    "queue", arrival, start,
                )
                parent = queue_span.span_id
            handle_span = tracer.add_span(
                trace_id, parent, f"handle:{message.type_name}", node,
                self.phase_of(message), start, completion,
            )
        if handle_span is None:
            self.env.simulator.schedule_call(completion, self._dispatch, message, src, well_formed)
        else:
            self.env.simulator.schedule_call(
                completion, self._dispatch_in_span, message, src, handle_span, well_formed
            )

    def _dispatch_in_span(
        self, message: Message, src: NodeId, span: Span, well_formed: bool
    ) -> None:
        """Run the handler with ``span`` current, so its sends are traced."""
        previous = self._current_span
        self._current_span = span
        try:
            self._dispatch(message, src, well_formed)
        finally:
            self._current_span = previous

    def refuse(self, message: Message, src: NodeId) -> None:
        """The one ``malformed-message`` event of a refused message."""
        self.env.obs.event(
            str(self.node_id), "malformed-message", "warn",
            {"type": message.type_name, "from": str(src)},
        )

    def occupy(self, cost_ms: float) -> None:
        """Account for locally initiated work (e.g. sealing a batch)."""
        now = self.env.simulator.now
        self._busy_until = max(now, self._busy_until) + cost_ms

    def _on_verify_cache_miss(self, misses: int) -> None:
        """Charge the configured per-miss verify penalty as occupancy.

        Wired only when ``CostConfig.verify_cache_miss_penalty_ms`` is
        positive, so the default cost model (hits and misses both cost the
        flat ``signature_verify_ms``) is untouched.  The charge lands after
        the current handle span, so a cold or wedged cache shows up as queue
        time on subsequent messages — exactly how a busier CPU would.
        """
        self.occupy(misses * self.env.config.costs.verify_cache_miss_penalty_ms)

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, message: Message, src: NodeId, well_formed: bool) -> None:
        """Hand ``message`` to its handler, unless ``receive`` found it malformed."""
        monitor = self.env.monitor
        if monitor is not None:
            # Lazy window sampling (repro.obs.monitor): dispatches are the
            # densest existing event stream, so boundary crossings are
            # noticed here without scheduling anything of our own.
            monitor.on_activity(self.env.simulator.now)
        if self.crashed:
            return
        self.messages_handled += 1
        if not well_formed:
            self.refuse(message, src)
            return
        handler = self._handlers.get(type(message))
        if handler is None:
            handler = self._find_handler_by_mro(type(message))
        if handler is None:
            self.on_unhandled(message, src)
            return
        handler(message, src)

    def _find_handler_by_mro(self, message_type: Type[Message]) -> Optional[MessageHandler]:
        for base in message_type.__mro__[1:]:
            if base in self._handlers:
                return self._handlers[base]
        return None

    def on_unhandled(self, message: Message, src: NodeId) -> None:
        """A message this node has no handler for: refused like a malformed one.

        Every type has a handler on some node (lint rule P301), so this is
        a message sent to a node of the wrong role.
        """
        self.refuse(message, src)
