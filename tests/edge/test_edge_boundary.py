"""Boundary robustness: malformed read replies and edge messages fail closed.

The paper's premise is that reads can be served by untrusted nodes, so no
single replica or edge proxy may be able to crash a client by *shape* alone.
Each case below used to raise out of ``run_until_idle()``:

* a replica answering round 1 with ``values=5`` or ``proofs=None``
  (``TypeError``) or ``header=3`` (``AttributeError``), on the client and on
  a proxy filling a cache miss;
* the same with a header whose insides are not the declared shape: its
  ``certificate`` or ``read_only`` an int, its ``number`` a string, or a
  read-only segment with ``cd_vector=5``, ``lce="x"`` or ``timestamp_ms="x"``
  (``CertifiedHeader.verify`` raised; now a malformed header verifies False);
* a proxy whose reply carries a section that is not a ``PartitionSection``,
  or one with ``values=5``;
* a proxy receiving ``EdgeReadRequest(keys=5)``, ``keys=(None,)`` or
  ``HeaderAnnouncement(header=3)``.

Now a malformed reply counts as one failed verification (the client asks the
next member, or blacklists the proxy and reads from the core; a proxy relays
nothing of a core reply it refused, so the client falls back) and a malformed
proxy input is charged the flat cost and leaves one ``malformed-message``
event.  Every read still ends verified, with the committed values.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import BatchConfig, EdgeConfig, LatencyConfig, SystemConfig
from repro.core.messages import ReadOnlyReply, ReadOnlyRequest, SnapshotReply
from repro.core.system import TransEdgeSystem
from repro.edge.messages import (
    EdgeReadReply,
    EdgeReadRequest,
    HeaderAnnouncement,
    PartitionSection,
)
from repro.edge.proxy import ProxyBehaviour
from repro.simnet.messages import RequestMessage
from repro.simnet.proc import Call


def make_system(edge: bool) -> TransEdgeSystem:
    return TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            edge=EdgeConfig(enabled=edge, num_proxies=1),
        )
    )


def read(system: TransEdgeSystem, client, keys):
    results = []

    def body():
        results.append((yield from client.read_only_txn(keys)))

    client.spawn(body())
    system.run_until_idle()  # nothing raises out of the run
    (result,) = results
    return result


def assert_read_the_committed_values(system: TransEdgeSystem, result, keys) -> None:
    assert result.verified
    assert dict(result.values) == {key: system.initial_data[key] for key in keys}


def events(system: TransEdgeSystem, kind: str):
    return [e for e in system.env.obs.recorder.timeline() if e.kind == kind]


def header_with(segment=False, **fields):
    """The honest header with ``fields`` replaced (in its read-only segment
    when ``segment``)."""

    def change(header):
        if segment:
            return dataclasses.replace(
                header, read_only=dataclasses.replace(header.read_only, **fields)
            )
        return dataclasses.replace(header, **fields)

    return change


#: (id, fields a byzantine replica puts in its round-1 reply; a callable
#: field is a function of the honest value)
MALFORMED_REPLIES = [
    ("values-an-int", {"values": 5}),
    ("proofs-none", {"proofs": None}),
    ("header-an-int", {"header": 3}),
    ("header-certificate-an-int", {"header": header_with(certificate=5)}),
    ("header-read-only-an-int", {"header": header_with(read_only=5)}),
    ("header-number-a-str", {"header": header_with(number="x")}),
    ("segment-cd-vector-an-int", {"header": header_with(segment=True, cd_vector=5)}),
    ("segment-lce-a-str", {"header": header_with(segment=True, lce="x")}),
    ("segment-timestamp-a-str", {"header": header_with(segment=True, timestamp_ms="x")}),
]


def malformed(honest, fields):
    """``honest`` reply fields with ``fields`` applied."""
    return {
        **honest,
        **{
            name: value(honest[name]) if callable(value) else value
            for name, value in fields.items()
        },
    }


def make_leader_byzantine(system: TransEdgeSystem, fields) -> None:
    """Re-register partition 0's leader to answer round 1 with ``fields``."""
    leader = system.leader_replica(0)

    def answer(message, src):
        honest = {
            "request_id": message.request_id,
            "partition": leader.partition,
            "header": leader.last_header,
        }
        leader.send(src, ReadOnlyReply(**malformed(honest, fields)))

    leader.register_handler(ReadOnlyRequest, answer)


class TestMalformedReplicaReplies:
    @pytest.mark.parametrize(
        "fields", [case[1] for case in MALFORMED_REPLIES], ids=[case[0] for case in MALFORMED_REPLIES]
    )
    def test_the_client_asks_the_next_member(self, fields):
        system = make_system(edge=False)
        make_leader_byzantine(system, fields)
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:3]

        result = read(system, client, keys)

        assert_read_the_committed_values(system, result, keys)
        assert client.stats.read_only_verification_failures == 1

    @pytest.mark.parametrize(
        "fields", [case[1] for case in MALFORMED_REPLIES], ids=[case[0] for case in MALFORMED_REPLIES]
    )
    def test_a_proxy_refuses_it_like_an_unverifiable_one(self, fields):
        system = make_system(edge=True)
        make_leader_byzantine(system, fields)
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:3]

        result = read(system, client, keys)

        assert_read_the_committed_values(system, result, keys)
        (rejected,) = events(system, "edge-reply-rejected")
        assert rejected.node == str(system.proxies[0].node_id)
        assert system.proxies[0].cache.entry_count() == 0  # nothing admitted
        # The proxy could cut no section: the client fell back to the core
        # without blaming the proxy, and the leader failed it there too.
        assert client.stats.edge_fallbacks == 1
        assert client.edge_router.blacklisted() == frozenset()
        assert client.stats.read_only_verification_failures == 1

    @pytest.mark.parametrize("reply_type", [ReadOnlyReply, SnapshotReply])
    def test_well_formed_is_the_declared_shape(self, reply_type):
        system = make_system(edge=False)
        leader = system.leader_replica(0)
        honest = {"partition": 0, "header": leader.last_header}
        assert reply_type(request_id="r", **honest).well_formed()
        quorum = system.config.certificate_size
        assert leader.last_header.verify(leader.verifier, leader.cluster_members, quorum)
        for _, fields in MALFORMED_REPLIES:
            # Refused by shape, or (a header's insides) by verification.
            reply = reply_type(request_id="r", **malformed(honest, fields))
            assert not reply.well_formed() or not reply.header.verify(
                leader.verifier, leader.cluster_members, quorum
            )
        assert not reply_type(request_id="r", values={"k": "text"}).well_formed()
        assert not reply_type(request_id="r", versions={"k": None}).well_formed()
        assert not reply_type(request_id="r", proofs={"k": 5}).well_formed()


class SectionShape(ProxyBehaviour):
    """A proxy that replaces every section it serves with ``shape(section)``."""

    name = "malformed-section"

    def __init__(self, shape) -> None:
        self.shape = shape

    def mutate(self, proxy, request, sections):
        return {partition: self.shape(section) for partition, section in sections.items()}


#: (id, what a byzantine proxy serves in place of an honest section)
MALFORMED_SECTIONS = [
    ("not-a-section", lambda section: "section"),
    ("values-an-int", lambda section: dataclasses.replace(section, values=5)),
]


class TestMalformedProxyReplies:
    @pytest.mark.parametrize(
        "shape", [case[1] for case in MALFORMED_SECTIONS], ids=[case[0] for case in MALFORMED_SECTIONS]
    )
    def test_the_client_blacklists_the_proxy_and_reads_from_the_core(self, shape):
        system = make_system(edge=True)
        proxy = system.proxies[0]
        proxy.behaviour = SectionShape(shape)
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]

        result = read(system, client, keys)

        assert_read_the_committed_values(system, result, keys)
        assert not result.served_by_edge
        assert client.stats.edge_verification_failures == 1
        assert client.edge_router.blacklisted() == frozenset({proxy.node_id})

    def test_well_formed_control(self):
        system = make_system(edge=True)
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]

        result = read(system, client, keys)

        assert_read_the_committed_values(system, result, keys)
        assert client.stats.edge_relays == 1  # a cold cache relays the core's answer
        assert client.stats.edge_verification_failures == 0
        assert client.edge_router.blacklisted() == frozenset()
        assert events(system, "malformed-message") == []
        assert events(system, "edge-reply-rejected") == []

    def test_reply_well_formed_is_the_declared_shape(self):
        section = PartitionSection(partition=0)
        assert EdgeReadReply(request_id="r", sections={0: section}, from_cache=(0,)).well_formed()
        for sections, from_cache in [
            (5, ()),
            ({0: "section"}, ()),
            ({0: dataclasses.replace(section, values=5)}, ()),
            ({0: section}, 0),
            ({0: section}, ([0],)),
        ]:
            reply = EdgeReadReply(request_id="r", sections=sections, from_cache=from_cache)
            assert not reply.well_formed()


class TestUnhashableReplyId:
    """A reply whose ``request_id`` is a list used to raise ``TypeError:
    unhashable type`` out of the reply correlation while any wait was
    outstanding.  Now it is refused with one ``malformed-message`` event, and
    the wait it cannot answer times out as if nothing had arrived."""

    def test_the_client_refuses_it(self):
        system = make_system(edge=False)
        make_leader_byzantine(system, {"request_id": ["req-0"]})
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:3]

        result = read(system, client, keys)

        assert_read_the_committed_values(system, result, keys)
        (event,) = events(system, "malformed-message")
        assert event.node == str(client.node_id)
        assert event.detail == {
            "type": "ReadOnlyReply", "from": str(system.topology.leader(0)),
        }

    def test_a_proxy_refuses_it(self):
        system = make_system(edge=True)
        make_leader_byzantine(system, {"request_id": ["req-0"]})
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:3]

        result = read(system, client, keys)

        assert_read_the_committed_values(system, result, keys)
        # The proxy's fetch times out, the client falls back to the core and
        # meets the same leader there: one event on each node.
        leader = str(system.topology.leader(0))
        assert [(e.node, e.detail) for e in events(system, "malformed-message")] == [
            (str(system.proxies[0].node_id), {"type": "ReadOnlyReply", "from": leader}),
            (str(client.node_id), {"type": "ReadOnlyReply", "from": leader}),
        ]
        assert client.stats.edge_fallbacks == 1


#: (id, a message nobody honest sends a proxy)
MALFORMED_INPUTS = [
    ("read-keys-an-int", EdgeReadRequest(keys=5)),
    ("read-keys-hold-none", EdgeReadRequest(keys=(None,))),
    ("announcement-header-an-int", HeaderAnnouncement(partition=0, header=3)),
]


class TestMalformedProxyInputs:
    @pytest.mark.parametrize(
        "message", [case[1] for case in MALFORMED_INPUTS], ids=[case[0] for case in MALFORMED_INPUTS]
    )
    def test_refused_and_the_proxy_keeps_serving(self, message):
        system = make_system(edge=True)
        proxy = system.proxies[0]
        sender = system.create_client("byzantine", edge_proxies=())
        replies = []

        def body():
            if isinstance(message, RequestMessage):
                replies.append((yield Call(proxy.node_id, message, timeout_ms=500.0)))
            else:
                sender.send(proxy.node_id, message)

        sender.spawn(body())
        system.run_until_idle()  # nothing raises out of the run

        assert all(reply is None for reply in replies)  # a request gets no reply
        (event,) = events(system, "malformed-message")
        assert event.node == str(proxy.node_id)
        assert event.detail == {"type": type(message).__name__, "from": str(sender.node_id)}
        assert proxy.counters.reads_served == 0
        # The flat cost only: ``receive`` never prices a malformed input.
        start = max(proxy.now, proxy._busy_until)
        proxy.receive(message, sender.node_id)
        assert proxy._busy_until - start == pytest.approx(system.config.costs.message_handling_ms)

        # The same proxy serves the next honest read.
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:2]
        result = read(system, client, keys)
        assert_read_the_committed_values(system, result, keys)
        assert proxy.counters.reads_served == 1
        assert client.stats.edge_relays == 1
