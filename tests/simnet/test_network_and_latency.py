"""Tests for the network, latency models and fault injection."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.common.config import LatencyConfig
from repro.common.errors import NetworkError
from repro.common.ids import ClientId, EdgeProxyId, ReplicaId
from repro.simnet.faults import FaultInjector, FaultRule
from repro.simnet.latency import (
    EdgeLatencyModel,
    FixedLatencyModel,
    ZeroLatencyModel,
    client_home_partition,
    proxy_region,
)
from repro.simnet.messages import Message
from repro.simnet.network import Network
from repro.simnet.simulator import Simulator


@dataclass
class Ping(Message):
    payload: str = "ping"


@dataclass
class Pong(Message):
    payload: str = "pong"


class RecordingNode:
    """Minimal MessageSink used to test the transport alone."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def receive(self, message, src):
        self.received.append((message, src))


def make_network(delay=1.0):
    sim = Simulator()
    network = Network(sim, FixedLatencyModel(delay), random.Random(0))
    return sim, network


class TestNetwork:
    def test_delivery_with_latency(self):
        sim, network = make_network(delay=3.0)
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        network.send(a.node_id, b.node_id, Ping())
        assert b.received == []
        sim.run_until_idle()
        assert len(b.received) == 1
        assert sim.now == 3.0

    def test_send_to_unknown_node_raises(self):
        _, network = make_network()
        a = RecordingNode(ReplicaId(0, 0))
        network.register(a)
        with pytest.raises(NetworkError):
            network.send(a.node_id, ReplicaId(9, 9), Ping())

    def test_duplicate_registration_rejected(self):
        _, network = make_network()
        a = RecordingNode(ReplicaId(0, 0))
        network.register(a)
        with pytest.raises(NetworkError):
            network.register(RecordingNode(ReplicaId(0, 0)))

    def test_stats_count_sent_and_delivered(self):
        sim, network = make_network()
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        network.send(a.node_id, b.node_id, Ping())
        network.send(b.node_id, a.node_id, Pong())
        sim.run_until_idle()
        assert network.stats.messages_sent == 2
        assert network.stats.messages_delivered == 2
        assert network.stats.by_type["Ping"] == 1
        assert network.stats.by_type["Pong"] == 1


class TestFaultInjection:
    def test_drop_by_destination(self):
        sim, network = make_network()
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        injector = FaultInjector(network)
        injector.drop(FaultRule(dst=b.node_id))
        network.send(a.node_id, b.node_id, Ping())
        sim.run_until_idle()
        assert b.received == []
        assert network.stats.messages_dropped == 1

    def test_drop_by_message_type_only(self):
        sim, network = make_network()
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        injector = FaultInjector(network)
        injector.drop(FaultRule(message_type=Ping))
        network.send(a.node_id, b.node_id, Ping())
        network.send(a.node_id, b.node_id, Pong())
        sim.run_until_idle()
        assert [type(m) for m, _ in b.received] == [Pong]

    def test_tamper_mutates_copy_not_original(self):
        sim, network = make_network()
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        injector = FaultInjector(network)

        def corrupt(message):
            message.payload = "corrupted"
            return message

        injector.tamper(FaultRule(message_type=Ping), corrupt)
        original = Ping()
        network.send(a.node_id, b.node_id, original)
        sim.run_until_idle()
        assert original.payload == "ping"
        assert b.received[0][0].payload == "corrupted"

    def test_isolate_drops_both_directions(self):
        sim, network = make_network()
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        injector = FaultInjector(network)
        injector.isolate(b.node_id)
        network.send(a.node_id, b.node_id, Ping())
        network.send(b.node_id, a.node_id, Ping())
        sim.run_until_idle()
        assert a.received == [] and b.received == []

    def test_probabilistic_drop_is_partial(self):
        sim, network = make_network()
        a, b = RecordingNode(ReplicaId(0, 0)), RecordingNode(ReplicaId(0, 1))
        network.register(a)
        network.register(b)
        injector = FaultInjector(network, seed=5)
        injector.drop(FaultRule(dst=b.node_id, probability=0.5))
        for _ in range(100):
            network.send(a.node_id, b.node_id, Ping())
        sim.run_until_idle()
        assert 10 < len(b.received) < 90


class TestLatencyModels:
    def test_intra_cluster_is_cheapest(self, rng):
        model = EdgeLatencyModel(LatencyConfig(jitter_fraction=0.0), num_partitions=3)
        intra = model.delay_ms(ReplicaId(0, 0), ReplicaId(0, 1), rng)
        inter = model.delay_ms(ReplicaId(0, 0), ReplicaId(1, 1), rng)
        assert intra < inter

    def test_extra_inter_cluster_latency_is_added(self, rng):
        base = EdgeLatencyModel(LatencyConfig(jitter_fraction=0.0), 3)
        slow = EdgeLatencyModel(
            LatencyConfig(jitter_fraction=0.0, inter_cluster_extra_ms=70.0), 3
        )
        assert slow.delay_ms(ReplicaId(0, 0), ReplicaId(1, 0), rng) == pytest.approx(
            base.delay_ms(ReplicaId(0, 0), ReplicaId(1, 0), rng) + 70.0
        )

    def test_extra_latency_does_not_affect_intra_cluster(self, rng):
        slow = EdgeLatencyModel(
            LatencyConfig(jitter_fraction=0.0, inter_cluster_extra_ms=500.0), 3
        )
        assert slow.delay_ms(ReplicaId(2, 0), ReplicaId(2, 3), rng) < 1.0

    def test_client_pays_wan_cost_only_to_remote_partitions(self, rng):
        config = LatencyConfig(jitter_fraction=0.0)
        model = EdgeLatencyModel(config, 4)
        client = ClientId("reader-1")
        home = client_home_partition(client, 4)
        remote = (home + 1) % 4
        to_home = model.delay_ms(client, ReplicaId(home, 0), rng)
        to_remote = model.delay_ms(client, ReplicaId(remote, 0), rng)
        assert to_home == pytest.approx(config.client_to_cluster_ms)
        assert to_remote > to_home

    def test_jitter_stays_within_fraction(self, rng):
        config = LatencyConfig(inter_cluster_ms=10.0, jitter_fraction=0.1)
        model = EdgeLatencyModel(config, 2)
        samples = [
            model.delay_ms(ReplicaId(0, 0), ReplicaId(1, 0), rng) for _ in range(200)
        ]
        assert all(9.0 <= s <= 11.0 for s in samples)
        assert max(samples) != min(samples)

    def test_fixed_and_zero_models(self, rng):
        assert FixedLatencyModel(4.2).delay_ms(ReplicaId(0, 0), ReplicaId(1, 0), rng) == 4.2
        assert ZeroLatencyModel().delay_ms(ReplicaId(0, 0), ReplicaId(1, 0), rng) == 0.0

    def test_client_home_partition_is_stable(self):
        assert client_home_partition(ClientId("abc"), 5) == client_home_partition(
            ClientId("abc"), 5
        )


def _closed_form_delay(config, num_partitions, src, dst, rng):
    """The per-message classification ``EdgeLatencyModel`` memoises, in full."""

    def region(node):
        if isinstance(node, ReplicaId):
            return node.partition
        if isinstance(node, EdgeProxyId):
            return proxy_region(node, num_partitions)
        return client_home_partition(node, num_partitions)

    wan = config.inter_cluster_ms + config.inter_cluster_extra_ms
    crosses_wan = region(src) != region(dst)
    kinds = {type(src), type(dst)}
    if kinds == {ClientId, EdgeProxyId}:
        base = config.client_to_edge_ms + (wan if crosses_wan else 0.0)
    elif kinds != {ReplicaId}:
        base = config.client_to_cluster_ms + (wan if crosses_wan else 0.0)
    else:
        base = wan if crosses_wan else config.intra_cluster_ms
    if config.jitter_fraction <= 0 or base <= 0:
        return base
    return base * (1.0 + rng.uniform(-config.jitter_fraction, config.jitter_fraction))


#: Two nodes of every kind in region 0 and one in region 1 (of three).
_NODES = [
    ReplicaId(0, 0), ReplicaId(0, 1), ReplicaId(1, 0),
    EdgeProxyId(0), EdgeProxyId(3), EdgeProxyId(1),
    ClientId("\x00"), ClientId("\x03"), ClientId("\x01"),
]


_LINKS = [(src, dst) for src in _NODES for dst in _NODES if src != dst]


class TestLinkClassMemo:
    PARTITIONS = 3

    def test_the_nodes_sit_where_the_table_says(self):
        regions = [0, 0, 1]
        for node, region in zip(_NODES[3:6], regions):
            assert proxy_region(node, self.PARTITIONS) == region
        for node, region in zip(_NODES[6:], regions):
            assert client_home_partition(node, self.PARTITIONS) == region

    @pytest.mark.parametrize("config", [
        LatencyConfig(jitter_fraction=0.0),
        LatencyConfig(),
        LatencyConfig(intra_cluster_ms=0.0, client_to_edge_ms=0.0, inter_cluster_extra_ms=70.0, jitter_fraction=0.2),
    ])
    def test_every_link_class_matches_the_closed_form_draw_for_draw(self, config):
        model = EdgeLatencyModel(config, self.PARTITIONS)
        rng, reference_rng = random.Random(11), random.Random(11)
        untouched = reference_rng.getstate()
        # Three passes: the first fills the memo, the others are served by it.
        for src, dst in _LINKS * 3:
            assert model.delay_ms(src, dst, rng) == _closed_form_delay(
                config, self.PARTITIONS, src, dst, reference_rng
            ), (src, dst)
            assert rng.getstate() == reference_rng.getstate(), (src, dst)
        assert (rng.getstate() == untouched) == (config.jitter_fraction == 0.0)

    def test_base_delays_by_link_class(self):
        config = LatencyConfig(jitter_fraction=0.0, inter_cluster_extra_ms=70.0)
        model = EdgeLatencyModel(config, self.PARTITIONS)
        r0, r0b, r1, e0, _, e1, c0, _, c1 = _NODES
        wan = config.inter_cluster_ms + config.inter_cluster_extra_ms
        expected = {
            (r0, r0b): config.intra_cluster_ms,
            (r0, r1): wan,
            (c0, r0): config.client_to_cluster_ms,
            (r1, c0): config.client_to_cluster_ms + wan,
            (e0, r0): config.client_to_cluster_ms,
            (r0, e1): config.client_to_cluster_ms + wan,
            (c0, e0): config.client_to_edge_ms,
            (e1, c0): config.client_to_edge_ms + wan,
            (c0, c1): config.client_to_cluster_ms + wan,
            (e0, e1): config.client_to_cluster_ms + wan,
        }
        for (src, dst), base in expected.items():
            assert model.delay_ms(src, dst, None) == base, (src, dst)
            assert model.delay_ms(dst, src, None) == base, (dst, src)
