"""One message boundary: every arriving message is shape-checked once.

Any node can send any node anything.  ``SimNode.receive`` asks every
protocol message ``well_formed()`` once: a malformed one is charged the flat
``message_handling_ms`` and, at dispatch, leaves one ``malformed-message``
event and reaches no handler.  A malformed *reply* still settles the wait of
the process waiting on it, which receives ``REFUSED`` in its place and treats
that bad answer as no answer.  A message the receiver has no handler for is
refused the same way.

* (a) every message type under ``repro`` with fields of its own answers
  ``well_formed()`` for them;
* (b) 18 shapes, and 3 misdirected messages, that each raised out of
  ``run_until_idle()`` before the boundary existed now fail closed, and the
  cluster commits afterwards;
* (c) one junk field in a message, or in a transaction, batch, signature,
  certified header, snapshot image or checkpoint or view-change certificate
  it carries, never raises out of the run.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pkgutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.bft.messages import CertificateRebroadcast, CheckpointVote, PrePrepare, Prepare, ViewChange
from repro.bft.quorum import ViewChangeCertificate, checkpoint_payload, view_change_payload
from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.batch import Batch, CertifiedHeader
from repro.core.messages import (
    CommitReply,
    CommitRequest,
    ComplaintProbe,
    ComplaintProbeAck,
    CoordinatorPrepare,
    DecisionQuery,
    LeaderComplaint,
    LockReadReply,
    LockReadRequest,
    LockReleaseMessage,
    ReadOnlyRequest,
    ReadReply,
    ReadRequest,
    ReplicaCommitReply,
    SnapshotRequest,
)
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload
from repro.crypto.signatures import Signature
from repro.edge.messages import HeaderAnnouncement
from repro.recovery.checkpoint import CheckpointCertificate
from repro.recovery.messages import StateTransferReply, StateTransferRequest
from repro.recovery.snapshot import SnapshotImage
from repro.simnet.messages import Message
from repro.simnet.reliable import ReliableAck, ReliableEnvelope


def make_system() -> TransEdgeSystem:
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    assert commit(system, "before").committed
    return system


def commit(system: TransEdgeSystem, tag: str, reads=()):
    """One write to partition 0 (reading ``reads`` first), run to completion."""
    client = system.create_client(f"writer-{tag}")
    key = system.keys_of_partition(0)[0]
    results = []

    def body():
        results.append((yield from client.read_write_txn(list(reads), {key: tag.encode()})))

    client.spawn(body())
    system.run_until_idle()
    return results[0]


def malformed_events(system: TransEdgeSystem):
    return system.env.obs.recorder.events_of_kind("malformed-message")


# -- (a) ----------------------------------------------------------------------

#: Transport framing: ``ReliableTransport.on_receive`` checks their fields
#: before ``receive`` ever sees the payload.
CHECKED_BY_THE_TRANSPORT = {ReliableEnvelope, ReliableAck}


def repro_message_types():
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)
    found, stack = [], [Message]
    while stack:
        for subclass in stack.pop().__subclasses__():
            if subclass.__module__.startswith("repro.") and subclass not in found:
                found.append(subclass)
                stack.append(subclass)
    return found


def own_fields(kind) -> set:
    inherited = {
        f.name
        for base in kind.__mro__[1:]
        if dataclasses.is_dataclass(base)
        for f in dataclasses.fields(base)
    }
    return {f.name for f in dataclasses.fields(kind)} - inherited


def test_every_message_type_with_fields_answers_for_them():
    kinds = repro_message_types()
    assert len(kinds) >= 30
    # A base another type derives from is abstract and exempt, as in P301.
    abstract = {base for kind in kinds for base in kind.__mro__[1:]}
    missing = sorted(
        kind.__name__
        for kind in kinds
        if kind not in abstract
        and kind not in CHECKED_BY_THE_TRANSPORT
        and own_fields(kind)
        and "well_formed" not in vars(kind)
    )
    assert missing == []


# -- (b) ----------------------------------------------------------------------


def leader(partition):
    return lambda system: system.leader_replica(partition)


def follower(partition, index=0):
    return lambda system: system.replicas[system.topology.followers(partition)[index]]


def client(system):
    return system.create_client(f"byzantine-{len(system.clients)}")


def plain(message):
    return lambda sender, system: message


def signed_with_an_int(message):
    """``message`` claiming its sender's signature, whose value is not bytes."""

    def make(sender, system):
        message.signature = Signature(signer=str(sender.node_id), value=5, scheme="hmac")
        return message

    return make


def write_an_int(sender, system):
    key = system.keys_of_partition(0)[0]
    return CommitRequest(txn=TxnPayload(txn_id="t", writes={key: 5}, client="c"))


#: (id, sender, receiver, message factory)
MESSAGE_SHAPES = [
    ("decision-query-txn-id-a-list", leader(1), follower(0),
     plain(DecisionQuery(txn_id=[1], partition=0))),
    ("leader-complaint-txn-an-int", client, follower(0),
     plain(LeaderComplaint(partition=0, txn=5))),
    ("complaint-probe-txn-an-int", follower(0), leader(0),
     plain(ComplaintProbe(partition=0, txn=5))),
    ("complaint-probe-ack-txn-id-a-list", leader(0), follower(0),
     plain(ComplaintProbeAck(partition=0, txn_id=[1]))),
    ("state-transfer-request-have-seq-a-str", follower(0), leader(0),
     plain(StateTransferRequest(partition=0, have_seq="x"))),
    ("replica-commit-reply-txn-id-a-list", follower(0), client,
     plain(ReplicaCommitReply(txn_id=[1]))),
    ("commit-request-reads-an-int", client, leader(0),
     plain(CommitRequest(txn=TxnPayload(txn_id="t", reads=5)))),
    ("commit-request-write-an-int", client, leader(0), write_an_int),
    ("coordinator-prepare-reads-an-int", leader(1), leader(0),
     plain(CoordinatorPrepare(txn=TxnPayload(txn_id="t", reads=5), coordinator=1))),
    ("pre-prepare-batch-txns-an-int", client, follower(0),
     plain(PrePrepare(seq=9, proposal=Batch(partition=0, number=9, local_txns=5)))),
    ("rebroadcast-batch-prepared-an-int", follower(0), follower(0, 1),
     plain(CertificateRebroadcast(seq=9, proposal=Batch(partition=0, number=9, prepared=5)))),
    ("prepare-signature-value-an-int", follower(0), follower(0, 1),
     signed_with_an_int(Prepare(view=0, seq=1, digest=b"d"))),
    ("checkpoint-vote-signature-value-an-int", follower(0), follower(0, 1),
     signed_with_an_int(CheckpointVote(seq=1000, digest=b"d"))),
    ("view-change-signature-value-an-int", follower(0), follower(0, 1),
     signed_with_an_int(ViewChange(view=1, last_delivered=0))),
]


@pytest.mark.parametrize(
    "sender_of, receiver_of, make",
    [case[1:] for case in MESSAGE_SHAPES],
    ids=[case[0] for case in MESSAGE_SHAPES],
)
def test_a_malformed_message_leaves_one_event_and_reaches_no_handler(sender_of, receiver_of, make):
    system = make_system()
    sender, receiver = sender_of(system), receiver_of(system)
    message = make(sender, system)

    sender.send(receiver.node_id, message)
    system.run_until_idle()  # nothing raises out of the run

    (event,) = malformed_events(system)
    assert event.node == str(receiver.node_id)
    assert event.detail == {"type": type(message).__name__, "from": str(sender.node_id)}
    # Priced flat, whatever the cost model would read of it.
    start = max(receiver.now, receiver._busy_until)
    receiver.receive(message, sender.node_id)
    assert receiver._busy_until - start == pytest.approx(system.config.costs.message_handling_ms)
    system.run_until_idle()
    assert commit(system, "after").committed


#: (id, the request partition 0's leader answers badly, its answer, how the
#: client's transaction ends: exactly as if no answer had come)
REPLY_SHAPES = [
    ("read-reply-versions-an-int", ReadRequest,
     lambda request: ReadReply(request_id=request.request_id, versions=5),
     "read phase timed out"),
    ("lock-read-reply-answering-a-read", ReadRequest,
     lambda request: LockReadReply(request_id=request.request_id),
     "read phase timed out"),
    ("commit-reply-abort-reason-a-list", CommitRequest,
     lambda request: CommitReply(request_id=request.request_id, abort_reason=[1]),
     "commit reply timed out"),
    ("read-reply-answering-a-commit", CommitRequest,
     lambda request: ReadReply(request_id=request.request_id),
     "commit reply timed out"),
]


@pytest.mark.parametrize(
    "request_type, answer, outcome",
    [case[1:] for case in REPLY_SHAPES],
    ids=[case[0] for case in REPLY_SHAPES],
)
def test_a_bad_answer_is_treated_as_no_answer(request_type, answer, outcome):
    system = make_system()
    byzantine = system.leader_replica(0)
    honest = byzantine._handlers[request_type]
    byzantine.register_handler(
        request_type, lambda message, src: byzantine.send(src, answer(message))
    )

    result = commit(system, "refused", reads=[system.keys_of_partition(0)[1]])

    assert (result.committed, result.abort_reason) == (False, outcome)
    byzantine.register_handler(request_type, honest)
    assert commit(system, "after").committed


def test_the_shapes_are_eighteen():
    assert len(MESSAGE_SHAPES) + len(REPLY_SHAPES) == 18


#: (id, sender, receiver, a well-formed message of a type the receiver has
#: no handler for); each raised ``SimulationError`` from ``on_unhandled``
MISDIRECTED = [
    ("read-reply-to-a-replica", client, leader(0), plain(ReadReply(request_id="x"))),
    ("header-announcement-to-a-replica", client, follower(0),
     plain(HeaderAnnouncement(partition=0))),
    ("decision-query-to-a-client", leader(0), client,
     plain(DecisionQuery(txn_id="t", partition=0))),
]


@pytest.mark.parametrize(
    "sender_of, receiver_of, make",
    [case[1:] for case in MISDIRECTED],
    ids=[case[0] for case in MISDIRECTED],
)
def test_a_misdirected_message_is_refused_like_a_malformed_one(sender_of, receiver_of, make):
    system = make_system()
    sender, receiver = sender_of(system), receiver_of(system)
    message = make(sender, system)

    sender.send(receiver.node_id, message)
    system.run_until_idle()  # nothing raises out of the run

    (event,) = malformed_events(system)
    assert event.node == str(receiver.node_id)
    assert event.detail == {"type": type(message).__name__, "from": str(sender.node_id)}
    assert commit(system, "after").committed


# -- (c) ----------------------------------------------------------------------

JUNK = (5, "x", None, [1], {}, object())


class Fuzzed:
    """One deployment shared by every example: junk must not wedge it."""

    system = None

    @classmethod
    def get(cls) -> TransEdgeSystem:
        if cls.system is None:
            cls.system = make_system()
        return cls.system


def templates(system: TransEdgeSystem):
    """(sender, receiver, honest-looking message factory) per message type."""
    leader0, leader1 = system.leader_replica(0), system.leader_replica(1)
    follower0 = follower(0)(system)
    reader = system.clients[0]
    key = system.keys_of_partition(0)[0]
    batch = leader0.log.entries_from(1)[0].value
    txn = TxnPayload(txn_id="fuzz", writes={key: b"v"}, client="fuzz")

    def signed(message):
        message.signature = leader0.signer.sign(message.signing_payload())
        return message

    def state_transfer_reply():
        """What a member holding a checkpoint at its tip would send."""
        image = SnapshotImage.capture(leader0, leader0.log.last_seq)
        signers = [system.replicas[member].signer for member in system.topology.members(0)]
        view = leader0.engine.view
        return StateTransferReply(
            partition=0,
            image=image,
            certificate=CheckpointCertificate(
                partition=0, seq=image.seq, digest=image.digest(),
                signatures=tuple(s.sign(checkpoint_payload(image.seq, image.digest()))
                                 for s in signers)),
            view=view,
            view_certificate=ViewChangeCertificate(view, tuple(
                (image.seq, s.sign(view_change_payload(view, image.seq))) for s in signers)),
            responder_tip=image.seq,
        )

    return [
        (leader0, follower0, lambda: signed(PrePrepare(
            view=0, seq=batch.number, digest=batch.digest(), proposal=batch))),
        (leader0, follower0, lambda: signed(Prepare(view=0, seq=1, digest=b"d"))),
        (leader0, follower0, lambda: signed(CheckpointVote(seq=1000, digest=b"d"))),
        (leader0, follower0, lambda: signed(ViewChange(view=1, last_delivered=0))),
        (reader, leader0, lambda: ReadRequest(keys=(key,))),
        (reader, leader0, lambda: ReadOnlyRequest(keys=(key,))),
        (reader, leader0, lambda: SnapshotRequest(keys=(key,), required_prepare_batch=0)),
        (reader, leader0, lambda: LockReadRequest(txn_id="fuzz", keys=(key,))),
        (reader, leader0, lambda: LockReleaseMessage(txn_id="fuzz")),
        (reader, leader0, lambda: CommitRequest(txn=txn)),
        (reader, follower0, lambda: LeaderComplaint(partition=0, txn=txn)),
        (follower0, leader0, lambda: ComplaintProbe(partition=0, txn=txn)),
        (leader0, follower0, lambda: ComplaintProbeAck(partition=0, txn_id="fuzz")),
        (leader1, leader0, lambda: CoordinatorPrepare(
            txn=txn, coordinator=1, prepare_batch=1, header=leader1.last_header)),
        (leader1, follower0, lambda: DecisionQuery(txn_id="fuzz", partition=0)),
        (follower0, leader0, lambda: StateTransferRequest(partition=0, have_seq=0)),
        (leader0, follower0, state_transfer_reply),
        (follower0, reader, lambda: ReplicaCommitReply(txn_id="fuzz", partition=0)),
        (leader0, reader, lambda: ReadReply(request_id="r", values={key: b"v"})),
        (leader0, reader, lambda: CommitReply(request_id="r")),
    ]


#: Values a message carries whose own fields the property also fuzzes.
CARRIED = (
    TxnPayload, Batch, Signature, CertifiedHeader,
    SnapshotImage, CheckpointCertificate, ViewChangeCertificate,
)


def fuzzable(value) -> list:
    # ``trace`` is tracing metadata, read only when tracing is on (off here).
    return [f.name for f in dataclasses.fields(value) if f.name != "trace"]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_junk_field_never_raises_out_of_the_run(data):
    system = Fuzzed.get()
    sender, receiver, make = data.draw(st.sampled_from(templates(system)))
    message = make()
    junk = data.draw(st.sampled_from(JUNK))
    carried = [
        name for name in fuzzable(message)
        if isinstance(getattr(message, name), CARRIED)
    ]
    if carried and data.draw(st.booleans()):
        name = data.draw(st.sampled_from(carried))
        value = copy.copy(getattr(message, name))  # a copy drops every memo
        object.__setattr__(value, data.draw(st.sampled_from(fuzzable(value))), junk)
        setattr(message, name, value)
    else:
        setattr(message, data.draw(st.sampled_from(fuzzable(message))), junk)

    sender.send(receiver.node_id, message)
    system.run_until_idle()  # the property: nothing raises out of the run
