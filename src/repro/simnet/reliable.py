"""Reliable delivery over lossy core links.

The chaos planner was historically forbidden from dropping core-to-core
traffic: every protocol message between replicas was fire-and-forget, so a
single lost ``Commit`` vote could wedge a consensus instance forever.  This
module supplies the missing transport guarantee.  A :class:`ReliableTransport`
sits under :meth:`SimNode.send <repro.simnet.node.SimNode.send>` for every
replica-to-replica link and implements the classic ack/retransmit recipe:

* **Per-link sequence numbers.**  Each directed link stamps outgoing payloads
  with a monotonically increasing sequence number inside a
  :class:`ReliableEnvelope`.
* **Cumulative acks.**  The receiver tracks the highest contiguously received
  sequence per link and piggybacks it on every reverse envelope; after
  ``ACK_DELAY_MS`` of reverse silence a standalone :class:`ReliableAck` is
  sent instead (acks themselves are fire-and-forget — a lost ack provokes a
  retransmission, whose arrival re-arms the ack timer, so finite loss windows
  always converge).
* **Retransmission with jittered exponential backoff.**  Each link keeps one
  timer on its oldest unacked message.  The timeout floor adapts to the
  modelled link RTT (otherwise the paper's 70 ms ``inter_cluster_extra_ms``
  sweeps would spuriously retransmit everything), then doubles per fruitless
  round up to ``RETRANSMIT_CAP_MS`` with a jitter drawn from a generator
  dedicated to this module (``seed + 3``) so retransmission never perturbs
  the latency or fault draw sequences.  After ``max_retransmits``
  consecutive rounds with no ack progress the *link* is declared stalled and
  its whole outstanding window is abandoned (``base`` advances past it) —
  the cap bounds simulation work against permanently dead peers at one
  backoff sequence per link, while the chaos planner's finite loss windows
  are comfortably outlived.
* **Receiver-side dedup.**  A retransmission that races its original is
  dropped at the transport layer (watermark + above-watermark set), so
  protocol code never observes a duplicate.  Out-of-order arrivals are
  delivered immediately — the underlying network already reorders freely via
  jittered latency, so the protocol layers tolerate reordering by design.

* **Fields fail closed.**  An ack for a sequence never sent, or a
  ``seq``/``ack``/``base``/``payload`` of the wrong type or range, voids the
  whole message with one ``malformed-transport-field`` flight-recorder event:
  a forged ack must not retire (or wedge) what it never saw.

Retransmissions and standalone acks re-enter the *filtered*
:meth:`Network.send <repro.simnet.network.Network.send>` path on purpose: an
open drop window applies to them exactly as it does to first transmissions.

State is one :class:`_Link` record per ``(local, peer)`` pair — send half,
receive half and RTT floor together, because every envelope reads both
halves — found with one dict probe per send and per arrival.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.common.config import ReliabilityConfig
from repro.common.ids import NodeId, ReplicaId
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.simulator import EventHandle, Simulator

#: Reverse silence (simulated ms) after which a standalone ack is sent.
ACK_DELAY_MS = 4.0
#: First retransmit timeout (raised to the link's RTT floor when that is
#: longer); it doubles per fruitless round up to the cap, and every timeout
#: is stretched by a uniform draw from ``[0, RETRANSMIT_JITTER_FRACTION]``.
RETRANSMIT_BASE_MS = 12.0
RETRANSMIT_CAP_MS = 120.0
RETRANSMIT_JITTER_FRACTION = 0.2


@dataclass
class ReliableEnvelope(Message):
    """A protocol payload travelling over a reliable link.

    ``seq`` is this payload's per-link sequence number, ``ack`` the sender's
    cumulative ack for the reverse direction (piggybacked), and ``base`` the
    lowest sequence the sender still retains — everything below ``base`` has
    been acked or abandoned and will never be retransmitted, which lets the
    receiver advance its watermark past holes the sender gave up on.
    """

    payload: Message = None  # type: ignore[assignment]
    seq: int = 0
    ack: int = 0
    base: int = 1

    @property
    def type_name(self) -> str:
        # Report the payload's type: network statistics, net-span names and
        # per-type processing costs then see exactly the traffic the
        # protocol sent, with the envelope invisible (retransmissions count
        # as another message of the payload's type, which is what they are
        # on the wire).
        return self.payload.type_name


@dataclass
class ReliableAck(Message):
    """Standalone cumulative ack, sent after ``ACK_DELAY_MS`` of silence."""

    ack: int = 0


@dataclass
class _Link:
    """Both directions of one ``(local, peer)`` pair, as ``local`` sees them.

    The send half tracks what ``local`` sent to ``peer``, the receive half
    what it got back; one record serves both because every envelope touches
    both (it piggybacks the receive half's watermark as its ack).
    """

    #: Deterministic RTT-derived floor for the first retransmit timeout.
    rtt_floor_ms: float
    next_seq: int = 1
    #: seq -> payload; insertion order == sequence order.
    unacked: Dict[int, Message] = field(default_factory=dict)
    #: Lowest seq not yet acked/abandoned (== envelope ``base``).
    base: int = 1
    timer: Optional[EventHandle] = None
    #: Consecutive retransmit-timer fires without any ack progress.  The
    #: abandon cap applies to this *link stall*, not per message: a dead
    #: peer costs one backoff sequence for the whole outstanding window
    #: instead of one per queued message.
    stall_count: int = 0
    #: Highest contiguously received sequence (cumulative ack value).
    watermark: int = 0
    #: Received sequences above the watermark (holes pending).
    above: Set[int] = field(default_factory=set)
    ack_timer: Optional[EventHandle] = None


class _ZeroJitterRng:
    """Stands in for ``random.Random`` to probe a latency model's base delay.

    ``uniform`` returns the midpoint, so jittered models report their
    central value and no real generator state is consumed — the probe is deterministic and side-effect free.
    """

    @staticmethod
    def uniform(a: float, b: float) -> float:
        return (a + b) / 2.0

class ReliableTransport:
    """Ack/retransmit/backoff shim shared by every replica of a deployment.

    One instance per :class:`~repro.simnet.node.SimEnvironment` owns the
    state of all directed replica-to-replica links.  ``counters`` is a plain
    dict surfaced through ``TransEdgeSystem.cache_snapshot`` and the chaos
    report so retransmission regressions are visible in bench notes.
    """

    def __init__(
        self,
        config: ReliabilityConfig,
        network: Network,
        simulator: Simulator,
        rng: random.Random,
        obs=None,
    ) -> None:
        self.config = config
        self._network = network
        self._simulator = simulator
        self._rng = rng
        self._obs = obs
        #: ``(local, peer)`` -> record, created by the first send or arrival.
        self._links: Dict[Tuple[NodeId, NodeId], _Link] = {}
        self.counters: Dict[str, int] = {
            "messages_retransmitted": 0,
            "duplicates_dropped": 0,
            "acks_sent": 0,
            "retransmits_abandoned": 0,
            "links_abandoned": 0,
        }

    # -- coverage -----------------------------------------------------------

    @staticmethod
    def covers(src: NodeId, dst: NodeId) -> bool:
        """Reliable links are the replica-to-replica (core) links only.

        Client and edge-proxy traffic keeps its own end-to-end recovery
        (request retry against a duplicate-answering leader), which is the
        right layer for nodes that may legitimately give up.
        """
        return type(src) is ReplicaId and type(dst) is ReplicaId and src != dst

    # -- sender path --------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Wrap ``message`` in an envelope and transmit it with tracking."""
        link = self._links.get((src, dst))
        if link is None:
            link = self._open_link(src, dst)
        seq = link.next_seq
        link.next_seq += 1
        link.unacked[seq] = message
        self._transmit(src, dst, link, seq, message)
        if link.timer is None:
            self._arm_retransmit(src, dst, link)

    def _open_link(self, local: NodeId, peer: NodeId) -> _Link:
        link = self._links[(local, peer)] = _Link(self._probe_rtt_ms(local, peer))
        return link

    def _transmit(
        self, src: NodeId, dst: NodeId, link: _Link, seq: int, payload: Message
    ) -> None:
        envelope = ReliableEnvelope(
            payload=payload, seq=seq, ack=link.watermark, base=link.base, trace=payload.trace
        )
        if link.ack_timer is not None:
            # The envelope piggybacks the ack the timer would have sent.
            link.ack_timer.cancel()
            link.ack_timer = None
        self._network.send(src, dst, envelope)

    def _probe_rtt_ms(self, src: NodeId, dst: NodeId) -> float:
        """Deterministic round-trip estimate for the retransmit floor."""
        model = getattr(self._network, "_latency_model", None)
        if model is None:
            return 0.0
        probe = _ZeroJitterRng()
        return model.delay_ms(src, dst, probe) + model.delay_ms(dst, src, probe)

    def _timeout_ms(self, link: _Link) -> float:
        base = max(RETRANSMIT_BASE_MS, link.rtt_floor_ms * 1.25 + ACK_DELAY_MS)
        cap = max(RETRANSMIT_CAP_MS, base)
        timeout = min(cap, base * (2.0 ** link.stall_count))
        return timeout * (1.0 + self._rng.uniform(0.0, RETRANSMIT_JITTER_FRACTION))

    def _arm_retransmit(self, src: NodeId, dst: NodeId, link: _Link) -> None:
        if not link.unacked:
            link.timer = None
            return
        link.timer = self._simulator.schedule(
            self._timeout_ms(link), self._on_retransmit_timer, src, dst, link
        )

    def _on_retransmit_timer(self, src: NodeId, dst: NodeId, link: _Link) -> None:
        link.timer = None
        if not link.unacked:
            return
        if link.stall_count >= self.config.max_retransmits:
            # The peer has not acked anything through a whole backoff
            # sequence: declare it unreachable and abandon the outstanding
            # window, advancing ``base`` past it so the receiver's watermark
            # (and with it the cumulative ack) can move again if the peer
            # ever returns.
            for payload in link.unacked.values():
                self.counters["retransmits_abandoned"] += 1
                self._obs_event("retransmit-abandoned", src, dst, payload)
            # One typed per-link summary on top of the per-message events:
            # the health tracker keys off it (link-abandoned marks ``dst``
            # degraded), and it gives operators the "gave up on this peer"
            # headline without counting payload events.
            abandoned = len(link.unacked)
            self.counters["links_abandoned"] += 1
            if self._obs is not None:
                self._obs.event(
                    "network",
                    "link-abandoned",
                    "warn",
                    {
                        "src": str(src),
                        "dst": str(dst),
                        "messages_abandoned": abandoned,
                        "stall_count": link.stall_count,
                    },
                )
            link.base = link.next_seq
            link.unacked.clear()
            link.stall_count = 0
            return
        link.stall_count += 1
        # Retransmit the whole outstanding window (dedup makes already-
        # delivered copies harmless), so one timer fire can recover several
        # holes of a loss burst instead of one per round trip.
        for seq, payload in list(link.unacked.items()):
            self.counters["messages_retransmitted"] += 1
            self._obs_event("message-retransmit", src, dst, payload)
            self._transmit(src, dst, link, seq, payload)
        self._arm_retransmit(src, dst, link)

    def _on_ack(self, src: NodeId, dst: NodeId, link: _Link, ack: int) -> None:
        """Process a cumulative ack for the ``src -> dst`` direction."""
        unacked = link.unacked
        advanced = False
        while unacked:
            seq = next(iter(unacked))
            if seq > ack:
                break
            del unacked[seq]
            advanced = True
        if ack + 1 > link.base:
            link.base = ack + 1
        if not advanced:
            return
        link.stall_count = 0
        if link.timer is not None:
            link.timer.cancel()
            link.timer = None
        self._arm_retransmit(src, dst, link)

    # -- receiver path ------------------------------------------------------

    def on_receive(self, node: NodeId, src: NodeId, message: Message) -> Optional[Message]:
        """Transport entry at the receiving node.

        Returns the payload to hand to the protocol layer, or ``None`` when
        the message was transport-internal (an ack), a duplicate, or carried
        a field no honest peer sends (dropped whole: a forged ack must not
        retire messages that were never delivered, or never sent).
        """
        link = self._links.get((node, src))
        ack = message.ack
        # The (piggybacked) ack covers our sends on the reverse link.
        if type(ack) is not int or not 0 <= ack < (link.next_seq if link is not None else 1):
            return self._malformed(node, src, message)
        if type(message) is ReliableAck:
            if link is not None:
                self._on_ack(node, src, link, ack)
            return None
        seq, base = message.seq, message.base
        if (
            type(seq) is not int
            or type(base) is not int
            or not 1 <= base <= seq
            or not isinstance(message.payload, Message)
        ):
            return self._malformed(node, src, message)
        if link is None:
            link = self._open_link(node, src)
        self._on_ack(node, src, link, ack)
        if base - 1 > link.watermark:
            # The sender abandoned everything below ``base``; stop waiting
            # for those holes so the cumulative ack can advance.
            link.watermark = base - 1
            self._drain_above(link)
        duplicate = seq <= link.watermark or seq in link.above
        if not duplicate:
            if seq == link.watermark + 1:
                link.watermark = seq
                self._drain_above(link)
            else:
                link.above.add(seq)
        else:
            self.counters["duplicates_dropped"] += 1
            self._obs_event("duplicate-dropped", src, node, message.payload)
        # Every envelope arrival (duplicates included — the ack that would
        # have silenced this retransmission was evidently lost) owes the
        # sender an ack unless reverse traffic piggybacks one first.
        if link.ack_timer is None:
            link.ack_timer = self._simulator.schedule(ACK_DELAY_MS, self._send_ack, node, src, link)
        return None if duplicate else message.payload

    def _malformed(self, node: NodeId, src: NodeId, message: Message) -> None:
        if self._obs is not None:
            self._obs.event(
                "network",
                "malformed-transport-field",
                "warn",
                {"src": str(src), "dst": str(node), "type": type(message).__name__},
            )

    @staticmethod
    def _drain_above(link: _Link) -> None:
        above = link.above
        if not above:
            return
        while link.watermark + 1 in above:
            link.watermark += 1
        link.above = {seq for seq in above if seq > link.watermark}

    def _send_ack(self, node: NodeId, src: NodeId, link: _Link) -> None:
        link.ack_timer = None
        self.counters["acks_sent"] += 1
        self._network.send(node, src, ReliableAck(ack=link.watermark))

    # -- introspection ------------------------------------------------------

    def in_flight(self) -> int:
        """Unacked messages across all links (tests and debugging)."""
        return sum(len(link.unacked) for link in self._links.values())

    def _obs_event(self, kind: str, src: NodeId, dst: NodeId, payload: Message) -> None:
        if self._obs is None:
            return
        self._obs.event(
            "network",
            kind,
            "info",
            {
                "src": str(src),
                "dst": str(dst),
                "type": payload.type_name,
                "trace_id": getattr(payload.trace_context(), "trace_id", None),
            },
        )
