"""The 2PC policy as a pure function: one row per outcome, plus a sequence property.

:func:`~repro.core.twopc.twopc_step` takes no replica, so every transition a
leader makes for one transaction is checked here from a record and one input,
and a Hypothesis property drives it through arbitrary input sequences over a
small model of the replicated prepare group.  End-to-end behaviour (votes
verified, aborts signed, coordinations resumed) stays in
``test_two_pc_boundary.py``, ``test_signed_aborts.py`` and
``tests/recovery/test_retention_gap.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bft.quorum import CommitCertificate
from repro.core.batch import CertifiedHeader, CommitRecord, PreparedVote, ReadOnlySegment
from repro.core.cdvector import CDVector
from repro.core.messages import CoordinatorPrepare, DecisionMessage, ParticipantPrepared
from repro.core.transaction import TxnPayload
from repro.core.twopc import (
    _TWO_PC_MAX_RETRIES,
    IDLE,
    Admitted,
    ArmRetry,
    DecisionReceived,
    Delivered,
    Prepare,
    PrepareAdmitted,
    PrepareAgain,
    Query,
    RecordDecision,
    Refused,
    Reply,
    Retry,
    Send,
    TxnRecord,
    Unresumable,
    ViewChange,
    VoteNo,
    VoteReceived,
    Waiting,
    own_vote,
    twopc_step,
)
from repro.obs.trace import Span, TraceContext

TXN = TxnPayload("t", writes={"k": b"v"})
PREPARE_BATCH = 5


def header(partition: int, number: int = PREPARE_BATCH) -> CertifiedHeader:
    """A certified header stand-in: the step reads only its CD vector."""
    segment = ReadOnlySegment(CDVector.initial(4).with_entry(partition, number), -1, b"r", 0.0)
    certificate = CommitCertificate(partition, 0, number, b"d", ())
    return CertifiedHeader(partition, number, segment, b"d", certificate)


def coordinating(header=header(0), decided=False) -> Prepare:
    """Cluster 0 wrote the prepare of a transaction it coordinates with 1 and 2."""
    return Prepare(TXN, 0, PREPARE_BATCH, 0, (1, 2), header, decided)


def participating(header=header(1), decided=False) -> Prepare:
    """Cluster 1 wrote the prepare of a transaction cluster 0 coordinates."""
    return Prepare(TXN, 0, PREPARE_BATCH, 1, (0, 2), header, decided)


def yes(partition: int) -> PreparedVote:
    return own_vote(Prepare(TXN, 0, PREPARE_BATCH, partition, (), header(partition)))


def no(partition: int) -> PreparedVote:
    return PreparedVote("t", partition, vote=False)


def never() -> bool:
    raise AssertionError("verified a message the record drops")


def proven() -> bool:
    return True


def unproven() -> bool:
    return False


WAIT, AGAIN = Waiting("client", "r1"), Waiting("client", "r2")
CTX = TraceContext("t", 9)  # a traced prepare's context
SPAN = Span(3, "t", 1, "leader:consensus", "P0/R0", "consensus", 0.0)
OWN = yes(0)
COMMIT = CommitRecord(TXN, 0, True, PREPARE_BATCH, {1: yes(1), 2: yes(2), 0: OWN})
ABORT = CommitRecord(TXN, 0, False, PREPARE_BATCH, {1: yes(1), 2: no(2), 0: OWN})
DECISION_HEADER = header(0, 9)


def solicit(to: int, trace=None) -> Send:
    prepare = CoordinatorPrepare(
        txn=TXN, coordinator=0, prepare_batch=PREPARE_BATCH, header=header(0)
    )
    return Send(to, prepare, trace)


def vote_to_coordinator(trace=None) -> Send:
    return Send(0, ParticipantPrepared(vote=yes(1), header=header(1)), trace)


def inform(to: int, trace=None) -> Send:
    return Send(to, DecisionMessage(record=COMMIT, commit_batch=9, header=DECISION_HEADER), trace)


def record(**fields) -> TxnRecord:
    return TxnRecord(**fields)


#: (id, record before, input, record after, effects)
ROWS = [
    # admission
    ("local-admission-waits", IDLE, Admitted(WAIT), record(waiting=WAIT), ()),
    ("distributed-admission-opens-the-collection",
     IDLE, Admitted(WAIT, collect=True, span=SPAN),
     record(waiting=WAIT, votes={}, span=SPAN), ()),
    ("a-resent-request-re-points-the-reply",
     record(waiting=WAIT, votes={1: yes(1)}, span=SPAN), Admitted(AGAIN),
     record(waiting=AGAIN, votes={1: yes(1)}, span=SPAN), ()),
    ("prepare-admitted-keeps-its-trace",
     IDLE, PrepareAdmitted(CTX), record(participating=True, trace=CTX), ()),
    ("prepare-again-before-it-is-written-is-silent",
     record(participating=True, trace=CTX), PrepareAgain(None),
     record(participating=True, trace=CTX), ()),
    ("prepare-again-re-sends-the-written-vote",
     record(participating=True), PrepareAgain(participating()),
     record(participating=True), (vote_to_coordinator(),)),
    ("prepare-again-without-the-header-is-silent",
     IDLE, PrepareAgain(participating(header=None)), IDLE, ()),
    # votes at the coordinator
    ("vote-without-a-collection-is-dropped-unverified",
     IDLE, VoteReceived(yes(1), coordinating(), never), IDLE, ()),
    ("vote-for-an-unwritten-prepare-is-dropped-unverified",
     record(votes={}), VoteReceived(yes(1), None, never), record(votes={}), ()),
    ("vote-after-the-decision-is-dropped-unverified",
     record(votes={}), VoteReceived(yes(1), coordinating(decided=True), never),
     record(votes={}), ()),
    ("vote-from-a-non-participant-is-dropped-unverified",
     record(votes={}), VoteReceived(yes(3), coordinating(), never), record(votes={}), ()),
    ("an-unproven-vote-is-no-vote",
     record(votes={}), VoteReceived(no(1), coordinating(), unproven), record(votes={}), ()),
    ("a-vote-is-counted-while-others-are-missing",
     record(votes={}), VoteReceived(yes(1), coordinating(), proven),
     record(votes={1: yes(1)}), ()),
    ("the-last-yes-decides-commit",
     record(votes={1: yes(1)}), VoteReceived(yes(2), coordinating(), proven),
     record(votes={1: yes(1), 2: yes(2)}), (RecordDecision(COMMIT),)),
    ("one-no-decides-abort",
     record(votes={1: yes(1)}), VoteReceived(no(2), coordinating(), proven),
     record(votes={1: yes(1), 2: no(2)}), (RecordDecision(ABORT),)),
    ("the-last-vote-without-our-header-decides-nothing",
     record(votes={1: yes(1)}), VoteReceived(yes(2), coordinating(header=None), proven),
     record(votes={1: yes(1), 2: yes(2)}), ()),
    # decisions at a participant
    ("a-decision-is-recorded-and-ends-participation",
     record(participating=True), DecisionReceived(COMMIT, participating()), IDLE,
     (RecordDecision(COMMIT),)),
    ("a-decision-for-an-unprepared-txn-is-dropped-unverified",
     record(participating=True), DecisionReceived(COMMIT, None, never),
     record(participating=True), ()),
    ("a-duplicate-decision-is-dropped-unverified",
     IDLE, DecisionReceived(COMMIT, participating(decided=True), never), IDLE, ()),
    ("an-unproven-decision-reply-is-dropped",
     record(participating=True), DecisionReceived(COMMIT, participating(), unproven),
     record(participating=True), ()),
    ("a-proven-decision-reply-resolves-remotely",
     IDLE, DecisionReceived(COMMIT, participating(), proven), IDLE,
     (RecordDecision(COMMIT, remote=True),)),
    # delivered batches
    ("a-local-commit-answers-the-client",
     record(waiting=WAIT, span=SPAN), Delivered(7), record(span=SPAN), (Reply(WAIT, 7),)),
    ("a-local-commit-without-a-client-is-silent", IDLE, Delivered(7), IDLE, ()),
    ("a-written-prepare-solicits-the-missing-votes-traced",
     record(votes={1: yes(1)}, span=SPAN), Delivered(PREPARE_BATCH, coordinating()),
     record(votes={1: yes(1)}, span=SPAN), (solicit(2, SPAN.context()),)),
    ("a-predecessors-written-prepare-waits-for-the-timer",
     IDLE, Delivered(PREPARE_BATCH, coordinating()), IDLE, ()),
    ("a-written-prepare-sends-the-first-vote-traced",
     record(participating=True, trace=CTX), Delivered(PREPARE_BATCH, participating()),
     record(participating=True), (vote_to_coordinator(CTX),)),
    ("a-written-prepare-not-admitted-here-sends-no-vote",
     IDLE, Delivered(PREPARE_BATCH, participating()), IDLE, ()),
    ("a-written-decision-informs-participants-and-answers",
     record(waiting=WAIT, votes={1: yes(1), 2: yes(2)}, attempts=3, span=SPAN),
     Delivered(9, coordinating(decided=True), COMMIT, DECISION_HEADER), record(span=SPAN),
     (inform(1, SPAN.context()), inform(2, SPAN.context()), Reply(WAIT, 9, True))),
    ("a-written-abort-answers-aborted",
     record(waiting=WAIT, votes={}), Delivered(9, coordinating(decided=True), ABORT),
     IDLE, (Send(1, DecisionMessage(record=ABORT, commit_batch=9)),
            Send(2, DecisionMessage(record=ABORT, commit_batch=9)), Reply(WAIT, 9, False))),
    ("a-written-decision-at-a-participant-resets-attempts",
     record(attempts=2), Delivered(9, participating(decided=True), COMMIT, DECISION_HEADER),
     IDLE, ()),
    # refusals at seal (and a participant's at admission)
    ("a-refused-coordination-answers-the-client",
     record(waiting=WAIT, votes={}), Refused("conflict"), IDLE,
     (Reply(WAIT, refusal="conflict"),)),
    ("a-refused-participation-votes-no-traced",
     record(participating=True, trace=CTX), Refused("conflict", vote_to=0), IDLE,
     (VoteNo(0, "conflict", CTX),)),
    # view changes
    ("a-view-change-resets-attempts-and-the-prepare-trace",
     record(votes={1: yes(1)}, participating=True, attempts=4, trace=CTX), ViewChange(False),
     record(votes={1: yes(1)}, participating=True), ()),
    ("a-demoted-leader-drops-its-coordination",
     record(waiting=WAIT, votes={1: yes(1)}, participating=True, attempts=4), ViewChange(True),
     record(waiting=WAIT), ()),
    # the retry timer, and resumption after an election
    ("retry-budget-spent-does-nothing",
     record(votes={}, attempts=_TWO_PC_MAX_RETRIES), Retry(coordinating()),
     record(votes={}, attempts=_TWO_PC_MAX_RETRIES), ()),
    ("retry-re-solicits-untraced",
     record(votes={1: yes(1)}, span=SPAN), Retry(coordinating()),
     record(votes={1: yes(1)}, attempts=1, span=SPAN), (ArmRetry(), solicit(2))),
    ("retry-decides-once-every-vote-is-in",
     record(votes={1: yes(1), 2: yes(2)}), Retry(coordinating()),
     record(votes={1: yes(1), 2: yes(2)}, attempts=1), (ArmRetry(), RecordDecision(COMMIT))),
    ("retry-without-our-header-is-unresumable",
     IDLE, Retry(coordinating(header=None)), record(attempts=1),
     (ArmRetry(), Unresumable(PREPARE_BATCH))),
    ("retry-re-votes-and-queries-the-coordinator-cluster",
     record(participating=True), Retry(participating()),
     record(participating=True, attempts=1),
     (ArmRetry(), vote_to_coordinator(), Query(0))),
    ("resumption-after-an-election-is-unbudgeted",
     record(attempts=_TWO_PC_MAX_RETRIES), Retry(coordinating(), timer=False),
     record(votes={}, attempts=_TWO_PC_MAX_RETRIES), (solicit(1), solicit(2))),
]


@pytest.mark.parametrize(
    "before, event, after, effects", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_decision_table(before, event, after, effects):
    assert twopc_step(before, event) == (after, effects)
    for effect in effects:  # Message equality ignores the trace, the effect's does not
        if isinstance(effect, Send):
            assert effect.message.trace is None


# -- the sequence property ---------------------------------------------------------

KINDS = st.sampled_from([
    "admit", "collect", "prepare-admitted", "prepare-again", "vote", "decision", "reply",
    "deliver-prepare", "deliver-decision", "deliver-local", "refused", "view-change",
    "demoted", "retry", "resume",
])
STEPS = st.lists(
    st.tuples(KINDS, st.integers(0, 3), st.booleans(), st.booleans()), max_size=60
)


@settings(max_examples=300, deadline=None)
@given(coordinator=st.booleans(), has_header=st.booleans(), steps=STEPS)
def test_any_input_sequence_keeps_the_invariants(coordinator, has_header, steps):
    """The data layer is a tiny model of the prepare group: ``written`` between
    the prepare's delivery and the decision's, ``decided`` once a decision is
    recorded (the shell's ``record_decision``)."""
    facts = coordinating if coordinator else participating
    own_header = header(0 if coordinator else 1) if has_header else None
    written = decided = deposed = False
    decisions = 0
    current = IDLE
    for kind, partition, flag, verdict_ok in steps:
        prepare = facts(own_header, decided) if written else None
        verified = []

        def verdict():
            verified.append(True)
            return verdict_ok

        event = {
            "admit": lambda: Admitted(WAIT),
            "collect": lambda: Admitted(WAIT, collect=True, span=SPAN if flag else None),
            "prepare-admitted": lambda: PrepareAdmitted(CTX if flag else None),
            "prepare-again": lambda: PrepareAgain(prepare),
            "vote": lambda: VoteReceived((yes if flag else no)(partition), prepare, verdict),
            "decision": lambda: DecisionReceived(COMMIT, prepare, verdict if flag else None),
            "reply": lambda: DecisionReceived(ABORT, prepare, verdict),
            "deliver-prepare": lambda: Delivered(PREPARE_BATCH, facts(own_header, decided)),
            "deliver-decision": lambda: Delivered(9, facts(None, True), COMMIT, DECISION_HEADER),
            "deliver-local": lambda: Delivered(7),
            "refused": lambda: Refused("conflict", None if coordinator else 0),
            "view-change": lambda: ViewChange(False),
            "demoted": lambda: ViewChange(True),
            "retry": lambda: Retry(prepare, timer=flag) if prepare else ViewChange(False),
            "resume": lambda: Retry(prepare, timer=False) if prepare else ViewChange(False),
        }[kind]()
        before = current
        current, effects = twopc_step(current, event)  # total: never raises

        # Votes are counted only from participants, and verified only when awaited.
        if current.votes is not None:
            assert set(current.votes) <= set(facts(own_header).participants)
        if verified:
            assert isinstance(event, (VoteReceived, DecisionReceived))
            assert prepare is not None and not prepare.decided
            if isinstance(event, VoteReceived):
                assert before.votes is not None and partition in prepare.participants
        # At most one decision is recorded per transaction.
        decisions += sum(isinstance(effect, RecordDecision) for effect in effects)
        assert decisions <= 1
        decided = decided or decisions == 1
        # Attempts stay within the budget.
        assert 0 <= current.attempts <= _TWO_PC_MAX_RETRIES
        # A deposed leader's stale coordination never sends from a delivered
        # batch or an arriving vote, until it admits or resumes again.
        if isinstance(event, ViewChange):
            deposed = event.demoted
        elif isinstance(event, (Admitted, PrepareAdmitted, Retry)):
            deposed = False
        elif deposed and isinstance(event, (Delivered, VoteReceived)):
            sends = [e for e in effects if isinstance(e, (Send, VoteNo, Query))]
            assert not sends or (isinstance(event, Delivered) and event.decision is not None)
        if isinstance(event, Delivered) and event.prepare is not None:
            written = event.decision is None
            if event.decision is not None:
                decided, decisions = False, 0  # the group retired: a new life may start
        # Every send carries the transaction: stamped with its trace or none at all.
        for effect in effects:
            if isinstance(effect, (Send, VoteNo)) and effect.trace is not None:
                assert effect.trace in (SPAN.context(), CTX)
