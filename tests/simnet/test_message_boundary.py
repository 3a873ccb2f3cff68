"""One message boundary: every arriving message is shape-checked once.

Any node can send any node anything.  ``SimNode.receive`` asks every
protocol message ``well_formed()`` once: a malformed one is charged the flat
``message_handling_ms`` and, at dispatch, leaves one ``malformed-message``
event and reaches no handler.  A malformed *reply* still settles the wait of
the process waiting on it, which receives ``REFUSED`` in its place and treats
that bad answer as no answer.  A message the receiver has no handler for is
refused the same way.

* (a) no type under ``repro`` writes a shape check by hand: the check is
  derived from the annotations (:mod:`repro.common.shapes`), and every
  concrete message type's annotations compile;
* (b) 20 shapes, and 3 misdirected messages, that each raised out of
  ``run_until_idle()`` before the boundary existed now fail closed, and the
  cluster commits afterwards;
* (c) every concrete message type has a template, captured from a live
  cross-partition write and edge snapshot read or built by hand; one junk
  field in any of them, or in a transaction, batch, signature, certified
  header, commit certificate or record, vote, snapshot image, checkpoint or
  view-change certificate or trace context it carries, never raises out of
  a traced run, and the boundary refuses exactly the pinned number of cases.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import pkgutil
import sys

import pytest

import repro
from repro.bft.messages import (
    CertificateRebroadcast,
    CheckpointVote,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.bft.quorum import (
    CommitCertificate,
    ViewChangeCertificate,
    checkpoint_payload,
    view_change_payload,
)
from repro.common.config import BatchConfig, EdgeConfig, LatencyConfig, SystemConfig
from repro.common.shapes import compile_fields, conforms
from repro.core.batch import Batch, CertifiedHeader, CommitRecord, PreparedVote
from repro.core.messages import (
    CommitReply,
    CommitRequest,
    ComplaintProbe,
    ComplaintProbeAck,
    CoordinatorPrepare,
    DecisionMessage,
    DecisionQuery,
    DecisionReply,
    LeaderComplaint,
    LockReadReply,
    LockReadRequest,
    LockReleaseMessage,
    ReadOnlyReply,
    ReadReply,
    ReadRequest,
    ReplicaCommitReply,
    SnapshotReply,
    SnapshotRequest,
)
from repro.core.system import TransEdgeSystem
from repro.core.transaction import Footprint, TxnPayload
from repro.crypto.signatures import Signature
from repro.edge.messages import HeaderAnnouncement
from repro.obs.trace import TraceContext
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


def repro_modules():
    modules = [importlib.import_module("repro")]
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            modules.append(importlib.import_module(module.name))
    return modules


def repro_message_types():
    repro_modules()
    found, stack = [], [Message]
    while stack:
        for subclass in stack.pop().__subclasses__():
            if subclass.__module__.startswith("repro.") and subclass not in found:
                found.append(subclass)
                stack.append(subclass)
    return found


def concrete_message_types():
    """Every type a node may be sent; a base another type derives from is
    abstract, as in lint rule P301."""
    kinds = repro_message_types()
    abstract = {base for kind in kinds for base in kind.__mro__[1:]}
    return [
        kind for kind in kinds if kind not in abstract and kind not in CHECKED_BY_THE_TRANSPORT
    ]


def test_every_shape_is_derived_from_the_annotations():
    hand_written = sorted(
        f"{kind.__module__}.{kind.__qualname__}"
        for module in repro_modules()
        for kind in vars(module).values()
        if isinstance(kind, type)
        and kind.__module__ == module.__name__
        and kind is not Message
        and {"well_formed", "_well_formed"} & set(vars(kind))
    )
    assert hand_written == []
    kinds = concrete_message_types()
    assert len(kinds) == 32
    for kind in kinds + list(CARRIED):
        compile_fields(kind)  # every annotation compiles


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


def proposing_itself(sender, system):
    message = PrePrepare(view=0, seq=9, digest=b"d")
    message.proposal = message  # used to recurse until RecursionError
    return message


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
    ("pre-prepare-proposing-itself", leader(0), follower(0), proposing_itself),
    ("pre-prepare-proposing-a-footprint", client, follower(0),  # FrozenSet has no shape
     plain(PrePrepare(view=0, seq=9, digest=b"d", proposal=Footprint(frozenset(), frozenset())))),
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


def test_the_shapes_are_twenty():
    assert len(MESSAGE_SHAPES) + len(REPLY_SHAPES) == 20


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

#: Cases of :func:`junk_cases` (a new template or field adds ``len(JUNK)``
#: each) and how many of them fail ``well_formed()``: a rule that weakens
#: lowers the second.
EXPECTED_JUNK_CASES = 1674
EXPECTED_REFUSED_CASES = 1448


class Fuzzed:
    """One traced deployment shared by every case: junk must not wedge it.

    ``captured`` holds the first message of each type delivered while a
    client wrote to both partitions and then read both keys back through
    the edge proxy, with the sender and receiver it went between."""

    system = None
    captured = None

    @classmethod
    def get(cls):
        if cls.system is None:
            cls.system, cls.captured = capture()
        return cls.system, cls.captured


def capture():
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            edge=EdgeConfig(enabled=True, num_proxies=1),
        ).with_tracing(True)
    )
    client = system.create_client("fuzz")
    nodes = {
        node.node_id: node
        for node in [*system.replicas.values(), *system.clients, *system.proxies]
    }
    captured = {}

    def capturing(node):
        receive = node.receive

        def record(message, src):
            payload = message.payload if type(message) is ReliableEnvelope else message
            if type(payload) not in CHECKED_BY_THE_TRANSPORT:
                captured.setdefault(type(payload), (nodes[src], node, payload))
            receive(message, src)

        return record

    for node in nodes.values():
        node.receive = capturing(node)
    keys = [system.keys_of_partition(0)[0], system.keys_of_partition(1)[0]]
    results = []

    def body():
        results.append((yield from client.read_write_txn(keys, {key: b"v" for key in keys})))
        results.append((yield from client.read_only_txn(keys)))

    client.spawn(body())
    system.run_until_idle()
    for node in nodes.values():
        del node.receive
    assert results[0].committed and results[1].verified
    return system, captured


def templates(system: TransEdgeSystem, captured):
    """(sender, receiver, honest-looking message factory) per message type:
    a copy of the captured message, else one built by hand."""
    leader0, leader1 = system.leader_replica(0), system.leader_replica(1)
    follower0 = follower(0)(system)
    reader = system.clients[0]
    key = system.keys_of_partition(0)[0]
    entry = leader0.log.entries_from(1)[0]
    batch = entry.value
    txn = TxnPayload(txn_id="fuzz", writes={key: b"v"}, client="fuzz")
    record = captured[DecisionMessage][2].record
    answer = captured[ReadOnlyReply][2]
    signers = [system.replicas[member].signer for member in system.topology.members(0)]
    view = leader0.engine.view

    def signed(message):
        message.signature = leader0.signer.sign(message.signing_payload())
        return message

    def view_votes(seq):
        return tuple((seq, s.sign(view_change_payload(view, seq))) for s in signers)

    def state_transfer_reply():
        """What a member holding a checkpoint at its tip would send."""
        image = SnapshotImage.capture(leader0, leader0.log.last_seq)
        return StateTransferReply(
            partition=0,
            image=image,
            certificate=CheckpointCertificate(
                partition=0, seq=image.seq, digest=image.digest(),
                signatures=tuple(s.sign(checkpoint_payload(image.seq, image.digest()))
                                 for s in signers)),
            entries=leader0.log.entries_from(image.seq),
            view=view,
            view_certificate=ViewChangeCertificate(view, view_votes(image.seq)),
            responder_tip=image.seq,
        )

    by_hand = [
        (leader0, follower0, lambda: signed(CheckpointVote(seq=1000, digest=b"d"))),
        (leader0, follower0, lambda: signed(ViewChange(view=1, last_delivered=0))),
        (leader0, follower0, lambda: signed(NewView(view=view, votes=view_votes(0)))),
        (leader0, follower0, lambda: signed(CertificateRebroadcast(
            view=view, seq=entry.seq, digest=batch.digest(), proposal=batch,
            certificate=entry.certificate, last_delivered=entry.seq))),
        (reader, leader0, lambda: SnapshotRequest(keys=(key,), required_prepare_batch=0)),
        (leader0, reader, lambda: SnapshotReply(
            request_id="r", partition=0, values=answer.values, versions=answer.versions,
            proofs=answer.proofs, header=answer.header)),
        (reader, leader0, lambda: LockReadRequest(txn_id="fuzz", keys=(key,))),
        (leader0, reader, lambda: LockReadReply(
            request_id="r", partition=0, granted=True, values={key: b"v"}, versions={key: 1})),
        (reader, leader0, lambda: LockReleaseMessage(txn_id="fuzz")),
        (reader, follower0, lambda: LeaderComplaint(partition=0, txn=txn)),
        (follower0, leader0, lambda: ComplaintProbe(partition=0, txn=txn)),
        (leader0, follower0, lambda: ComplaintProbeAck(partition=0, txn_id="fuzz")),
        (leader1, follower0, lambda: DecisionQuery(txn_id="fuzz", partition=0)),
        (follower0, leader1, lambda: DecisionReply(record=record, commit_batch=1)),
        (follower0, leader0, lambda: StateTransferRequest(partition=0, have_seq=0)),
        (leader0, follower0, state_transfer_reply),
    ]
    live = [
        (sender, receiver, lambda message=message: copy.copy(message))
        for _, (sender, receiver, message) in sorted(
            captured.items(), key=lambda item: item[0].__name__
        )
    ]
    return live + by_hand


#: Values a message carries whose own fields the enumeration also junks.
CARRIED = (
    TxnPayload, Batch, Signature, CertifiedHeader, CommitCertificate, CommitRecord,
    PreparedVote, SnapshotImage, CheckpointCertificate, ViewChangeCertificate, TraceContext,
)


def fields_of(value) -> list:
    return [f.name for f in dataclasses.fields(value)]


def junk_cases(system: TransEdgeSystem, captured):
    """Every template × every field, and every field of every value it
    carries, × every ``JUNK`` value: ``(name, sender, receiver, message)``."""
    for index, (sender, receiver, make) in enumerate(templates(system, captured)):
        kind = type(make()).__name__
        for name in fields_of(make()):
            for junk_index, junk in enumerate(JUNK):
                message = make()
                setattr(message, name, junk)
                yield f"{index}:{kind}.{name}={junk_index}", sender, receiver, message
            carried = getattr(make(), name)
            if not isinstance(carried, CARRIED):
                continue
            for inner in fields_of(carried):
                for junk_index, junk in enumerate(JUNK):
                    message = make()
                    value = copy.copy(getattr(message, name))  # a copy drops every memo
                    object.__setattr__(value, inner, junk)
                    setattr(message, name, value)
                    yield f"{index}:{kind}.{name}.{inner}={junk_index}", sender, receiver, message


def test_every_message_type_has_a_template():
    system, captured = Fuzzed.get()
    covered = {type(make()) for _, _, make in templates(system, captured)}
    assert sorted(kind.__name__ for kind in set(concrete_message_types()) - covered) == []


def test_one_junk_field_never_raises_out_of_the_run():
    system, captured = Fuzzed.get()
    cases = refused = 0
    for case, sender, receiver, message in junk_cases(system, captured):
        refused += not message.well_formed()
        sender.send(receiver.node_id, message)
        try:
            system.run_until_idle()  # the property: nothing raises out of the run
        except Exception as error:
            raise AssertionError(f"junk case {case} raised {error!r}") from error
        cases += 1
    assert (cases, refused) == (EXPECTED_JUNK_CASES, EXPECTED_REFUSED_CASES)


def test_a_stack_too_deep_is_never_kept_as_a_verdict():
    """A batch is shared by reference among its receivers, and its verdict is
    kept on it.  An unchecked honest batch, checked first inside a forged
    chain at a stack depth where the recursion limit falls inside its own
    check, is still accepted afterwards: every depth is tried."""
    system, captured = Fuzzed.get()
    honest = captured[PrePrepare][2]

    def at_depth(frames, message):
        return message.well_formed() if frames == 0 else at_depth(frames - 1, message)

    verdicts = []
    for frames in range(sys.getrecursionlimit()):
        batch = copy.copy(honest.proposal)  # unchecked: a copy drops every memo
        forged = PrePrepare(view=0, seq=9, digest=b"d", proposal=PrePrepare(
            view=0, seq=9, digest=b"d", proposal=batch))
        try:
            at_depth(frames, forged)
        except RecursionError:  # ``at_depth`` itself ran out of stack
            break
        verdicts.append(conforms(batch, Batch)
                        and dataclasses.replace(honest, proposal=batch).well_formed())
    assert len(verdicts) > 100 and all(verdicts)
