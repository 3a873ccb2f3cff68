"""Unit tests for the reliable core-link transport (:mod:`repro.simnet.reliable`).

These drive a :class:`ReliableTransport` directly over a raw simulator +
network + fault injector — no replicas, no consensus — so each transport
property (retransmission under loss, receiver-side dedup, cumulative acks,
window abandonment against a dead peer) is checked in isolation.  The
end-to-end behaviour (consensus surviving core-link drop windows) lives in
the chaos suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.common.config import ReliabilityConfig
from repro.common.ids import ReplicaId
from repro.simnet.faults import FaultInjector, FaultRule
from repro.simnet.latency import FixedLatencyModel
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.reliable import ReliableAck, ReliableTransport
from repro.simnet.simulator import Simulator


@dataclass
class Ping(Message):
    """A payload with an identity, so ordering/dedup is observable."""

    n: int = 0


class ReliableSink:
    """A registered endpoint that funnels arrivals through the transport."""

    def __init__(self, node_id, transport):
        self.node_id = node_id
        self.transport = transport
        self.received = []

    def receive(self, message, src):
        payload = self.transport.on_receive(self.node_id, src, message)
        if payload is not None:
            self.received.append(payload)

    def numbers(self):
        return [message.n for message in self.received]


def make_link(**config_overrides):
    defaults = dict(
        ack_delay_ms=1.0,
        retransmit_base_ms=8.0,
        retransmit_cap_ms=64.0,
        retransmit_jitter_fraction=0.0,
        max_retransmits=4,
    )
    defaults.update(config_overrides)
    config = ReliabilityConfig(**defaults)
    config.validate()
    simulator = Simulator()
    network = Network(simulator, FixedLatencyModel(1.0), random.Random(1))
    transport = ReliableTransport(config, network, simulator, random.Random(7))
    a = ReliableSink(ReplicaId(0, 0), transport)
    b = ReliableSink(ReplicaId(0, 1), transport)
    network.register(a)
    network.register(b)
    injector = FaultInjector(network)
    return simulator, network, transport, injector, a, b


class TestLossRecovery:
    def test_lossless_link_delivers_in_order_without_retransmits(self):
        simulator, _, transport, _, a, b = make_link()
        for n in range(5):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        simulator.run_until_idle()
        assert b.numbers() == [0, 1, 2, 3, 4]
        assert transport.counters["messages_retransmitted"] == 0
        assert transport.counters["duplicates_dropped"] == 0
        assert transport.in_flight() == 0

    def test_dropped_messages_are_retransmitted_until_delivered(self):
        simulator, _, transport, injector, a, b = make_link()
        # Open a total drop window, send into it, then close the window
        # before the (backed-off) retransmissions fire.
        window = injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        for n in range(3):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        simulator.run(until_ms=5.0)
        assert b.numbers() == []
        injector.remove(window)
        simulator.run_until_idle()
        assert b.numbers() == [0, 1, 2]
        assert transport.counters["messages_retransmitted"] >= 3
        assert transport.in_flight() == 0

    def test_lost_ack_only_costs_a_duplicate_not_a_loss(self):
        simulator, _, transport, injector, a, b = make_link()
        # Acks die, data survives: the sender must retransmit (no ack ever
        # arrives inside the window), and the receiver must dedup.
        ack_drop = injector.drop(
            FaultRule(src=b.node_id, dst=a.node_id, message_type=ReliableAck)
        )
        transport.send(a.node_id, b.node_id, Ping(n=1))
        simulator.run(until_ms=20.0)
        assert b.numbers() == [1]
        assert transport.counters["messages_retransmitted"] >= 1
        assert transport.counters["duplicates_dropped"] >= 1
        injector.remove(ack_drop)
        simulator.run_until_idle()
        # Once an ack gets through, the window empties and the link quiesces.
        assert b.numbers() == [1]
        assert transport.in_flight() == 0


class TestDedupAndOrdering:
    def test_burst_loss_recovers_every_hole(self):
        simulator, _, transport, injector, a, b = make_link()
        # Drop ~half the data messages (deterministic injector rng), keep
        # acks flowing: every payload must still arrive exactly once.
        window = injector.drop(
            FaultRule(src=a.node_id, dst=b.node_id, probability=0.5)
        )
        for n in range(10):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        simulator.run(until_ms=30.0)
        injector.remove(window)
        simulator.run_until_idle()
        assert sorted(b.numbers()) == list(range(10))
        assert len(b.numbers()) == 10  # exactly once: dedup caught replays
        assert transport.in_flight() == 0

    def test_duplicate_arrivals_are_dropped_at_the_transport(self):
        simulator, _, transport, injector, a, b = make_link()
        # Slow the first copy down so the retransmission races it: both
        # copies arrive, the protocol layer sees the payload once.
        delay = injector.delay(FaultRule(message_type=Ping), extra_ms=15.0)
        transport.send(a.node_id, b.node_id, Ping(n=7))
        simulator.run(until_ms=12.0)
        injector.remove(delay)
        simulator.run_until_idle()
        assert b.numbers() == [7]
        assert transport.counters["duplicates_dropped"] >= 1


class TestAckStarvation:
    def test_dead_peer_window_is_abandoned_after_backoff_sequence(self):
        simulator, _, transport, injector, a, b = make_link(max_retransmits=3)
        injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        for n in range(4):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        simulator.run_until_idle()
        # The link gave up: nothing delivered, nothing still queued, and the
        # abandonment is visible in the counters.
        assert b.numbers() == []
        assert transport.counters["retransmits_abandoned"] == 4
        assert transport.in_flight() == 0

    def test_link_recovers_for_new_traffic_after_abandonment(self):
        simulator, _, transport, injector, a, b = make_link(max_retransmits=2)
        window = injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        transport.send(a.node_id, b.node_id, Ping(n=0))
        simulator.run_until_idle()
        assert transport.counters["retransmits_abandoned"] == 1
        injector.remove(window)
        # The envelope's ``base`` advances past the abandoned hole, so the
        # receiver's watermark (and cumulative acks) move again.
        transport.send(a.node_id, b.node_id, Ping(n=1))
        simulator.run_until_idle()
        assert b.numbers() == [1]
        assert transport.in_flight() == 0

    def test_backoff_doubles_between_fruitless_rounds(self):
        simulator, _, transport, injector, a, b = make_link(
            retransmit_base_ms=8.0, retransmit_cap_ms=64.0, max_retransmits=4
        )
        injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        transport.send(a.node_id, b.node_id, Ping(n=0))
        fire_times = []
        original = transport._on_retransmit_timer

        def spy(src, dst, link):
            fire_times.append(simulator.now)
            original(src, dst, link)

        transport._on_retransmit_timer = spy
        simulator.run_until_idle()
        gaps = [b - a for a, b in zip(fire_times, fire_times[1:])]
        assert gaps == sorted(gaps)  # monotone non-decreasing
        assert gaps and gaps[-1] >= 2 * gaps[0]  # genuinely exponential
