"""Two-Phase Commit over BFT as one transition function.

A 2PC step is sent only after the batch recording it is in the SMR log
(Section 3.3), so all a leader knows about a distributed transaction is the
replicated prepare group plus what it collected since: the votes of one it
coordinates, whether it participates in one, its retry attempts, the client
waiting for the outcome and the trace.  That is one frozen :class:`TxnRecord`
per transaction.  :func:`twopc_step` maps a record and one input to the next
record and the effects to run, and reads no replica: the replicated facts
ride in the input (:class:`Prepare`), and a vote's or a decision's verdict
is a thunk the step calls only once its gates say the message is awaited,
so nothing the record would drop is ever verified.
:class:`~repro.core.leader.LeaderRole` is the shell that builds the inputs,
keeps the records and runs the effects.  In DB-net terms the replicated
records are the data layer and this function is the net's transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Tuple, Union

from repro.common.ids import NO_BATCH, BatchNumber, NodeId, PartitionId
from repro.core.batch import CertifiedHeader, CommitRecord, PreparedVote
from repro.core.messages import CoordinatorPrepare, DecisionMessage, ParticipantPrepared
from repro.core.transaction import TxnPayload
from repro.obs.trace import Span, TraceContext
from repro.simnet.messages import Message

#: Retry-timer attempts per transaction and leadership.
_TWO_PC_MAX_RETRIES = 10


@dataclass(frozen=True)
class Waiting:
    """A client waiting for the outcome of a transaction it submitted here."""

    client: NodeId
    request_id: str


class TxnRecord(NamedTuple):
    """Everything a leader holds about one transaction outside the SMR log."""

    waiting: Optional[Waiting] = None
    #: Coordinator: the participants' votes so far (``None``: not collecting).
    votes: Optional[Mapping[PartitionId, PreparedVote]] = None
    #: Participant: a prepare admitted here whose decision has not arrived.
    participating: bool = False
    attempts: int = 0  # retry-timer attempts in this leadership
    #: The open leader-side span of a traced transaction admitted here; the
    #: shell opens, swaps and closes it, the step only stamps from it.
    span: Optional[Span] = None
    #: Participant: a traced prepare's context, until the first vote carries it.
    trace: Optional[TraceContext] = None


#: The record of a transaction the leader holds nothing about.
IDLE = TxnRecord()


class Prepare(NamedTuple):
    """What the replicated state says about one prepared transaction."""

    txn: TxnPayload
    coordinator: PartitionId
    batch: BatchNumber  # the batch that wrote the prepare
    partition: PartitionId  # this cluster
    participants: Tuple[PartitionId, ...]  # the other clusters it touches, in order
    header: Optional[CertifiedHeader] = None  # this cluster's, of ``batch`` (None: pruned)
    decided: bool = False


# -- inputs: what the shell saw -------------------------------------------------


@dataclass(frozen=True)
class Admitted:
    """A client waits here: for a transaction just admitted (``collect``: a
    distributed one, whose vote collection opens), or re-sending a request."""

    waiting: Waiting
    collect: bool = False
    span: Optional[Span] = None


@dataclass(frozen=True)
class PrepareAdmitted:
    """This cluster admitted a coordinator's prepare, traced by ``trace``."""

    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class PrepareAgain:
    """A prepare this cluster already admitted (``prepare``: and wrote) came again."""

    prepare: Optional[Prepare]


@dataclass(frozen=True)
class VoteReceived:
    """A participant's vote reached this coordinator (``verdict``: does it prove itself?)."""

    vote: PreparedVote
    prepare: Optional[Prepare]
    verdict: Callable[[], bool]


@dataclass(frozen=True)
class DecisionReceived:
    """A decision from the coordinator's leader (no ``verdict``), or from any
    replica answering a ``DecisionQuery`` (``verdict``: is the record proven?)."""

    record: CommitRecord
    prepare: Optional[Prepare]
    verdict: Optional[Callable[[], bool]] = None


@dataclass(frozen=True)
class Delivered:
    """Batch ``seq`` (certified by ``header``) wrote this transaction's local
    commit (no ``prepare``), its prepare, or its ``decision``."""

    seq: BatchNumber
    prepare: Optional[Prepare] = None
    decision: Optional[CommitRecord] = None
    header: Optional[CertifiedHeader] = None


@dataclass(frozen=True)
class Refused:
    """Admission or sealing refused the transaction; ``vote_to``: its
    coordinator, when this cluster only participates."""

    reason: str
    vote_to: Optional[PartitionId] = None


@dataclass(frozen=True)
class ViewChange:
    """The cluster rotated; ``demoted``: this replica no longer leads it."""

    demoted: bool


@dataclass(frozen=True)
class Retry:
    """Re-drive a written, undecided prepare: from the retry timer (budgeted)
    or, ``timer=False``, right after this leader's election."""

    prepare: Prepare
    timer: bool = True


# -- effects: what the shell does -----------------------------------------------


@dataclass(frozen=True)
class Send:
    """Send ``message``, stamped with ``trace``, to the leader of cluster ``to``."""

    to: PartitionId
    message: Message
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class VoteNo:
    """Send our signed negative vote to ``to``'s leader; count ``reason``."""

    to: PartitionId
    reason: str
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class Query:
    """Ask every member of cluster ``coordinator`` for the decision."""

    coordinator: PartitionId


@dataclass(frozen=True)
class RecordDecision:
    """Attach the decision to its prepare group (``remote``: via a DecisionReply)."""

    record: CommitRecord
    remote: bool = False


@dataclass(frozen=True)
class Reply:
    """Answer the waiting client: decided in ``batch``, or refused for ``refusal``."""

    waiting: Waiting
    batch: BatchNumber = NO_BATCH
    committed: bool = True
    refusal: str = ""


@dataclass(frozen=True)
class Unresumable:
    batch: BatchNumber  # its certified header is gone


@dataclass(frozen=True)
class ArmRetry:
    """One retry attempt was spent: the retry timer runs again."""


Input = Union[
    Admitted, PrepareAdmitted, PrepareAgain, VoteReceived, DecisionReceived, Delivered,
    Refused, ViewChange, Retry,
]
Effect = Union[Send, VoteNo, Query, RecordDecision, Reply, Unresumable, ArmRetry]
Step = Tuple[TxnRecord, Tuple[Effect, ...]]


def twopc_step(record: TxnRecord, event: Input) -> Step:
    """The transaction's next record and the effects to run, in order."""
    if isinstance(event, Delivered):
        return _delivered(record, event)
    if isinstance(event, VoteReceived):
        vote, prepare = event.vote, event.prepare
        if record.votes is None or prepare is None or prepare.decided:
            return record, ()
        # An unverifiable vote is *no* vote: the coordinator cannot sign an
        # abort on the participant's behalf, so the retry timer re-solicits.
        if vote.partition not in prepare.participants or not event.verdict():
            return record, ()
        record = record._replace(votes={**record.votes, vote.partition: vote})
        return record, _decide(record, prepare)
    if isinstance(event, DecisionReceived):
        prepare, verdict = event.prepare, event.verdict
        if prepare is None or prepare.decided or (verdict is not None and not verdict()):
            return record, ()  # never prepared here (we voted no), or already decided
        return record._replace(participating=False), (
            RecordDecision(event.record, remote=verdict is not None),
        )
    if isinstance(event, Admitted):
        votes, span = {} if event.collect else record.votes, event.span or record.span
        return record._replace(waiting=event.waiting, votes=votes, span=span), ()
    if isinstance(event, PrepareAdmitted):
        return record._replace(participating=True, trace=event.trace), ()
    if isinstance(event, PrepareAgain):
        return _vote(record, event.prepare)
    if isinstance(event, Refused):
        if event.vote_to is None:
            return _answer(record._replace(votes=None), refusal=event.reason)
        no = VoteNo(event.vote_to, event.reason, _trace(record))
        return record._replace(participating=False, trace=None), (no,)
    if isinstance(event, ViewChange):
        # A demoted leader drops its coordination wholesale: votes sent to it
        # land on the new leader, which re-solicits what it misses.
        if event.demoted:
            record = record._replace(votes=None, participating=False)
        return record._replace(attempts=0, trace=None), ()
    prepare, spent = event.prepare, ()
    if event.timer:
        if record.attempts >= _TWO_PC_MAX_RETRIES:
            return record, ()  # stranded past the budget; DecisionQuery may still land
        record, spent = record._replace(attempts=record.attempts + 1), (ArmRetry(),)
    if prepare.coordinator == prepare.partition:
        record, effects = _solicit(record, prepare)
        return record, spent + effects
    # Participant: re-send our vote, and ask the coordinator cluster for a
    # decision certified there whose broadcast died with its leader.
    record, effects = _vote(record, prepare)
    return record, spent + effects + (Query(prepare.coordinator),)


def own_vote(prepare: Prepare) -> Optional[PreparedVote]:
    """This cluster's positive vote for ``prepare``, proven by its certified header.

    A function of the replicated state alone: whoever leads the cluster
    builds the same one.  ``None`` when the header is genuinely absent.
    """
    header = prepare.header
    if header is None:
        return None
    return PreparedVote(txn_id=prepare.txn.txn_id, partition=prepare.partition, vote=True,
                        prepare_batch=prepare.batch, cd_vector=header.cd_vector, header=header)


def _trace(record: TxnRecord) -> Optional[TraceContext]:
    return record.span.context() if record.span is not None else record.trace


def _answer(record: TxnRecord, effects: Tuple[Effect, ...] = (), **outcome) -> Step:
    """Clear the waiting client, answering it with ``outcome`` after ``effects``."""
    if record.waiting is None:
        return record, effects
    return record._replace(waiting=None), effects + (Reply(record.waiting, **outcome),)


def _delivered(record: TxnRecord, event: Delivered) -> Step:
    prepare, decision = event.prepare, event.decision
    if prepare is None:  # a local transaction committed
        return _answer(record, batch=event.seq)
    if decision is None:
        # A prepare was written: its next 2PC step, only for prepares admitted
        # here; one a predecessor sealed waits for the retry timer.
        if prepare.coordinator != prepare.partition:
            return _vote(record, prepare) if record.participating else (record, ())
        return _solicit(record, prepare, first=True) if record.votes is not None else (record, ())
    if prepare.coordinator != prepare.partition:
        return (record._replace(attempts=0) if record.attempts else record), ()
    trace = _trace(record)
    sends = tuple(
        Send(to, DecisionMessage(record=decision, commit_batch=event.seq, header=event.header),
             trace)
        for to in prepare.participants
    )
    record = record._replace(votes=None, attempts=0)
    return _answer(record, sends, batch=event.seq, committed=decision.decision)


def _solicit(record: TxnRecord, prepare: Prepare, first: bool = False) -> Step:
    """Coordinator: send the written prepare to every participant yet to vote.

    Built from the replicated prepare and the certified header of its batch,
    never from leader memory, whether this leader just wrote it (``first``,
    the only solicitation that joins the trace), is re-soliciting, or was
    elected after its predecessor crashed.
    """
    if prepare.header is None:
        return record, (Unresumable(prepare.batch),)
    if record.votes is None:
        record = record._replace(votes={})
    votes, trace = record.votes, _trace(record) if first else None
    sends = tuple(
        Send(to, CoordinatorPrepare(txn=prepare.txn, coordinator=prepare.partition,
                                    prepare_batch=prepare.batch, header=prepare.header), trace)
        for to in prepare.participants
        if to not in votes
    )
    return record, sends + _decide(record, prepare)


def _vote(record: TxnRecord, prepare: Optional[Prepare]) -> Step:
    """Participant: this cluster's vote, first time or again (the first carries
    the prepare's trace).  Nothing before the prepare is written, or once its
    header is gone."""
    vote = None if prepare is None else own_vote(prepare)
    if vote is None:
        return record, ()
    send = Send(prepare.coordinator, ParticipantPrepared(vote=vote, header=vote.header),
                _trace(record))
    return (record if record.trace is None else record._replace(trace=None)), (send,)


def _decide(record: TxnRecord, prepare: Prepare) -> Tuple[Effect, ...]:
    """Record the decision once every participant's vote is in."""
    votes = record.votes
    if prepare.decided or not votes.keys() >= set(prepare.participants):
        return ()
    vote = own_vote(prepare)
    if vote is None:
        return ()
    decision = CommitRecord(
        txn=prepare.txn,
        coordinator=prepare.partition,
        decision=all(v.vote for v in votes.values()),
        prepare_batch=prepare.batch,
        votes={**votes, prepare.partition: vote},
    )
    return (RecordDecision(decision),)
