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

from repro.common.config import ObsConfig, ReliabilityConfig
from repro.common.ids import ReplicaId
from repro.obs.hub import Observability
from repro.simnet.faults import FaultInjector, FaultRule
from repro.simnet.latency import FixedLatencyModel
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.reliable import ReliableAck, ReliableEnvelope, ReliableTransport
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


class NoJitter:
    """Stands in for the transport's ``random.Random``: every draw is the low end.

    The retransmit timeouts are then exactly the shipped backoff sequence
    (12, 24, 48, 96, 120, 120, ... ms on these 1 ms links), so the tests
    below name simulated times instead of ranges.
    """

    @staticmethod
    def uniform(low, high):
        return low


def make_link(rng=NoJitter, **config_overrides):
    config = ReliabilityConfig(**config_overrides)
    config.validate()
    simulator = Simulator()
    network = Network(simulator, FixedLatencyModel(1.0), random.Random(1))
    obs = Observability(ObsConfig(), lambda: simulator.now)
    transport = ReliableTransport(config, network, simulator, rng, obs=obs)
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
        # between the second retransmission round (t = 36) and the third.
        window = injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        for n in range(3):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        simulator.run(until_ms=40.0)
        assert b.numbers() == []
        assert transport.counters["messages_retransmitted"] == 6
        injector.remove(window)
        simulator.run_until_idle()
        assert b.numbers() == [0, 1, 2]
        assert transport.counters["messages_retransmitted"] == 9
        assert transport.in_flight() == 0

    def test_lost_ack_only_costs_a_duplicate_not_a_loss(self):
        simulator, _, transport, injector, a, b = make_link()
        # Acks die, data survives: the sender must retransmit (no ack ever
        # arrives inside the window), and the receiver must dedup.
        ack_drop = injector.drop(
            FaultRule(src=b.node_id, dst=a.node_id, message_type=ReliableAck)
        )
        transport.send(a.node_id, b.node_id, Ping(n=1))
        # Original at t = 1, its ack (t = 5) lost; retransmission at t = 12
        # arrives as a duplicate at t = 13, whose ack (t = 17) is lost too.
        simulator.run(until_ms=20.0)
        assert b.numbers() == [1]
        assert transport.counters["messages_retransmitted"] == 1
        assert transport.counters["duplicates_dropped"] == 1
        assert transport.counters["acks_sent"] == 2
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
        # copies arrive, the protocol layer sees the payload once.  (The
        # retransmission fires at t = 12, the slowed original lands at 16.)
        delay = injector.delay(FaultRule(message_type=Ping), extra_ms=15.0)
        transport.send(a.node_id, b.node_id, Ping(n=7))
        simulator.run(until_ms=14.0)
        injector.remove(delay)
        simulator.run_until_idle()
        assert b.numbers() == [7]
        assert transport.counters["duplicates_dropped"] >= 1


class TestAckStarvation:
    def test_dead_peer_window_is_abandoned_after_backoff_sequence(self):
        simulator, _, transport, injector, a, b = make_link()
        injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        for n in range(4):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        simulator.run_until_idle()
        # Twelve fruitless rounds (the default cap), then the thirteenth fire
        # gives up: 12 + 24 + 48 + 96 + nine times the 120 ms cap.
        assert simulator.now == 1260.0
        assert transport.counters["messages_retransmitted"] == 12 * 4
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
        simulator, _, transport, injector, a, b = make_link(max_retransmits=4)
        injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        fire_times = []
        original = transport._on_retransmit_timer

        def spy(src, dst, link):
            fire_times.append(simulator.now)
            original(src, dst, link)

        transport._on_retransmit_timer = spy
        transport.send(a.node_id, b.node_id, Ping(n=0))
        simulator.run_until_idle()
        gaps = [b - a for a, b in zip(fire_times, fire_times[1:])]
        assert gaps == sorted(gaps)  # monotone non-decreasing
        assert gaps and gaps[-1] >= 2 * gaps[0]  # genuinely exponential
        # Base 12 ms doubling up to the 120 ms cap; the fifth fire abandons.
        assert fire_times == [12.0, 36.0, 84.0, 180.0, 300.0]
        assert transport.counters["links_abandoned"] == 1

    def test_jitter_stretches_each_timeout_by_at_most_a_fifth(self):
        simulator, _, transport, injector, a, b = make_link(
            rng=random.Random(7), max_retransmits=1
        )
        injector.drop(FaultRule(src=a.node_id, dst=b.node_id))
        transport.send(a.node_id, b.node_id, Ping(n=0))
        simulator.run_until_idle()
        (retransmit,) = transport._obs.recorder.events_of_kind("message-retransmit")
        assert 12.0 < retransmit.time_ms <= 12.0 * 1.2
        assert 24.0 < simulator.now - retransmit.time_ms <= 24.0 * 1.2


def malformed_events(transport):
    return transport._obs.recorder.events_of_kind("malformed-transport-field")


class TestLinkRecords:
    def test_a_link_record_exists_only_once_traffic_touched_the_pair(self):
        simulator, _, transport, _, a, b = make_link()
        assert transport._links == {}
        # An ack for a pair that never sent is a no-op: nothing to retire,
        # and not worth a record.
        assert transport.on_receive(a.node_id, b.node_id, ReliableAck(ack=0)) is None
        assert transport._links == {}
        transport.send(a.node_id, b.node_id, Ping(n=0))
        assert list(transport._links) == [(a.node_id, b.node_id)]
        assert transport.in_flight() == 1
        simulator.run_until_idle()
        # The arrival opened b's side of the pair; one record per side holds
        # both its send half and its receive half.
        assert set(transport._links) == {(a.node_id, b.node_id), (b.node_id, a.node_id)}
        assert transport.in_flight() == 0
        assert malformed_events(transport) == []

    def test_in_flight_counts_unacked_messages_of_every_link(self):
        simulator, _, transport, _, a, b = make_link()
        for n in range(3):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        transport.send(b.node_id, a.node_id, Ping(n=9))
        assert transport.in_flight() == 4
        simulator.run_until_idle()
        assert transport.in_flight() == 0
        assert (b.numbers(), a.numbers()) == ([0, 1, 2], [9])


class TestMalformedTransportFields:
    """A forged or byzantine transport field is dropped whole, with one event."""

    def test_an_ack_for_sequences_never_sent_retires_nothing(self):
        simulator, _, transport, _, a, b = make_link()
        for n in range(3):
            transport.send(a.node_id, b.node_id, Ping(n=n))
        counters = dict(transport.counters)
        assert transport.on_receive(a.node_id, b.node_id, ReliableAck(ack=10**9)) is None
        assert transport.on_receive(a.node_id, b.node_id, ReliableAck(ack=4)) is None
        link = transport._links[(a.node_id, b.node_id)]
        assert (transport.in_flight(), link.base, link.next_seq) == (3, 1, 4)
        assert link.timer is not None and not link.timer.cancelled
        assert len(malformed_events(transport)) == 2
        assert transport.counters == counters  # no new key, nothing counted
        simulator.run_until_idle()
        # The window was not cleared and ``base`` did not jump past
        # ``next_seq``: these and later payloads still get through.
        transport.send(a.node_id, b.node_id, Ping(n=3))
        simulator.run_until_idle()
        assert b.numbers() == [0, 1, 2, 3]
        assert transport.in_flight() == 0
        assert transport.counters["messages_retransmitted"] == 0

    def test_a_forged_piggybacked_ack_voids_the_whole_envelope(self):
        simulator, _, transport, _, a, b = make_link()
        transport.send(a.node_id, b.node_id, Ping(n=0))
        forged = ReliableEnvelope(payload=Ping(n=66), seq=1, ack=7, base=1)
        assert transport.on_receive(a.node_id, b.node_id, forged) is None
        link = transport._links[(a.node_id, b.node_id)]
        assert (transport.in_flight(), link.watermark, link.ack_timer) == (1, 0, None)
        assert len(malformed_events(transport)) == 1

    @pytest.mark.parametrize("forged", [
        ReliableAck(ack="x"),
        ReliableAck(ack=None),
        ReliableAck(ack=-1),
        ReliableAck(ack=True),
        ReliableAck(ack=0.0),
        ReliableEnvelope(payload=Ping(), seq="1"),
        ReliableEnvelope(payload=Ping(), seq=0),
        ReliableEnvelope(payload=Ping(), seq=1.0),
        ReliableEnvelope(payload=Ping(), seq=2, base=3),
        ReliableEnvelope(payload=Ping(), seq=1, base=0),
        ReliableEnvelope(payload=Ping(), seq=1, base=None),
        ReliableEnvelope(payload=Ping(), seq=1, ack="0"),
        ReliableEnvelope(payload=None, seq=1),
        ReliableEnvelope(payload="ping", seq=1),
    ], ids=repr)
    def test_ill_typed_or_out_of_range_fields_fail_closed(self, forged):
        simulator, _, transport, _, a, b = make_link()
        transport.send(b.node_id, a.node_id, Ping(n=0))  # b has sent: acks 0 and 1 are legal
        counters = dict(transport.counters)
        assert transport.on_receive(b.node_id, a.node_id, forged) is None
        assert transport.counters == counters
        assert transport.in_flight() == 1
        assert [event.detail["type"] for event in malformed_events(transport)] == [type(forged).__name__]
        simulator.run_until_idle()
        assert a.numbers() == [0]
        assert transport.in_flight() == 0

    def test_the_counter_keys_are_the_fingerprinted_five(self):
        _, _, transport, _, _, _ = make_link()
        assert sorted(transport.counters) == [
            "acks_sent", "duplicates_dropped", "links_abandoned",
            "messages_retransmitted", "retransmits_abandoned",
        ]
