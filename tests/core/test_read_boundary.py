"""Boundary robustness: malformed read-side requests fail closed.

The read path's twin of ``test_two_pc_boundary.py``.  Any client can send a
replica a read whose ``keys`` is not a tuple of keys, or a round-2 snapshot
request whose dependency is not a batch number; each used to raise
``TypeError`` out of ``run_until_idle()`` — from the cost model's
``len(message.keys)``, which runs before any handler, or from the header
bisection.  Now each is charged the flat message-handling cost and leaves one
``malformed-message`` event: no reply, no parked snapshot request.
"""

from __future__ import annotations

import pytest

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.messages import (
    LockReadReply,
    LockReadRequest,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadReply,
    ReadRequest,
    SnapshotReply,
    SnapshotRequest,
)
from repro.core.system import TransEdgeSystem
from repro.simnet.proc import Call


def make_system() -> TransEdgeSystem:
    return TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )


def ask(system: TransEdgeSystem, client, replica, request):
    """One request/reply exchange, run to completion; ``None`` on timeout."""
    replies = []

    def body():
        replies.append((yield Call(replica.node_id, request, timeout_ms=500.0)))

    client.spawn(body())
    system.run_until_idle()  # nothing raises out of the run
    return replies[0]


def malformed_events(system: TransEdgeSystem):
    return [e for e in system.env.obs.recorder.timeline() if e.kind == "malformed-message"]


#: (id, malformed request, reply type of its well-formed twin)
MALFORMED = [
    ("read-keys-not-a-tuple", ReadRequest(keys=5), ReadReply),
    ("read-only-keys-not-a-tuple", ReadOnlyRequest(keys=5), ReadOnlyReply),
    ("lock-read-keys-not-a-tuple", LockReadRequest(txn_id="t", keys=5), LockReadReply),
    ("snapshot-keys-not-a-tuple", SnapshotRequest(keys=5), SnapshotReply),
    (
        "snapshot-dependency-a-string",
        SnapshotRequest(keys=("k",), required_prepare_batch="x"),
        SnapshotReply,
    ),
    (
        "snapshot-dependency-none",
        SnapshotRequest(keys=("k",), required_prepare_batch=None),
        SnapshotReply,
    ),
]


class TestMalformedReadRequests:
    @pytest.mark.parametrize(
        "message, reply_type",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_request_is_refused_and_the_replica_keeps_serving(self, message, reply_type):
        system = make_system()
        client = system.create_client("byzantine")
        replica = system.leader_replica(0)
        counters = system.counters()

        assert ask(system, client, replica, message) is None  # no reply

        (event,) = malformed_events(system)
        assert event.node == str(replica.node_id)
        assert event.detail == {"type": type(message).__name__, "from": str(client.node_id)}
        assert system.counters() == counters  # nothing served, nothing counted
        assert replica._deferred_snapshots == []

        # A well-formed request of the same type, on the same replica, is answered.
        key = system.keys_of_partition(0)[0]
        fields = {"txn_id": "t2"} if isinstance(message, LockReadRequest) else {}
        reply = ask(system, client, replica, type(message)(keys=(key,), **fields))
        assert isinstance(reply, reply_type)
        assert reply.values == {key: system.initial_data[key]}
        assert len(malformed_events(system)) == 1
        # The flat cost only: ``receive`` never prices a malformed request.
        start = max(replica.now, replica._busy_until)
        replica.receive(message, client.node_id)
        assert replica._busy_until - start == pytest.approx(system.config.costs.message_handling_ms)

    def test_well_formed_reads_are_charged_what_they_were(self):
        system = make_system()
        replica, costs = system.leader_replica(0), system.config.costs
        keys = tuple(system.keys_of_partition(0)[:3])
        proof_ms = costs.merkle_proof_cost_ms(len(replica.merkle))
        flat = costs.message_handling_ms
        assert replica.processing_cost_ms(ReadRequest(keys=keys)) == flat + 3 * costs.read_op_ms
        assert replica.processing_cost_ms(ReadOnlyRequest(keys=keys)) == (
            flat + 3 * (costs.read_op_ms + proof_ms) + costs.signature_sign_ms
        )
        assert replica.processing_cost_ms(SnapshotRequest(keys=keys)) == (
            flat + 3 * (costs.read_op_ms + 2 * proof_ms)
        )
        assert replica.processing_cost_ms(LockReadRequest(txn_id="t", keys=keys)) == (
            flat + 3 * (costs.read_op_ms + costs.conflict_check_ms)
        )
