"""Byzantine behaviour library for fault-injection tests and experiments.

TransEdge's guarantees are only interesting if the reproduction can actually
exercise misbehaving nodes.  This module offers ready-made behaviours at the
consensus/transport level, built on top of the network fault-injection hooks:

* :func:`make_silent` — a crashed (fail-stop) replica: all of its outgoing
  traffic is dropped.
* :func:`make_equivocating_leader` — a leader that sends conflicting
  proposals to different halves of its cluster; honest replicas never reach a
  quorum on either proposal, so nothing unsafe is delivered.
* :func:`make_vote_forger` — a replica that tampers with its own votes'
  digests; honest replicas discard them during signature/digest checks.
* :func:`make_value_tamperer` — corrupts a chosen field of application-level
  responses (used to show read-only clients detect forged values through
  Merkle proofs).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Type

from repro.common.ids import NodeId, ReplicaId
from repro.simnet.faults import FaultInjector, FaultRule
from repro.simnet.messages import Message
from repro.bft.messages import Commit, PrePrepare, Prepare


@dataclass
class ByzantineBehaviour:
    """Handle describing an installed behaviour (useful for assertions)."""

    description: str
    node: NodeId
    injector: FaultInjector


def make_silent(injector: FaultInjector, node: NodeId) -> ByzantineBehaviour:
    """Make ``node`` fail-stop: none of its messages reach anyone."""
    injector.drop(FaultRule(src=node))
    return ByzantineBehaviour(description="silent", node=node, injector=injector)


def make_equivocating_leader(
    injector: FaultInjector,
    leader: ReplicaId,
    confused_replicas: List[ReplicaId],
    corrupt_proposal: Callable[[object], object],
) -> ByzantineBehaviour:
    """Send a different proposal to ``confused_replicas`` than to the rest.

    ``corrupt_proposal`` receives a deep copy of the proposal carried by the
    leader's ``PrePrepare`` and returns the conflicting proposal delivered to
    the confused replicas.  The digest is left untouched, so honest replicas
    detect the mismatch and refuse to prepare.
    """
    confused = set(confused_replicas)

    def mutate(message: Message) -> Message:
        assert isinstance(message, PrePrepare)
        message.proposal = corrupt_proposal(copy.deepcopy(message.proposal))
        return message

    for replica in sorted(confused):
        injector.tamper(FaultRule(src=leader, dst=replica, message_type=PrePrepare), mutate)
    return ByzantineBehaviour(description="equivocating-leader", node=leader, injector=injector)


def make_vote_forger(
    injector: FaultInjector,
    replica: ReplicaId,
    vote_types: Optional[List[Type[Message]]] = None,
) -> ByzantineBehaviour:
    """Corrupt the digests inside ``replica``'s outgoing votes.

    The vote signatures no longer match the tampered content, so honest
    replicas ignore them; the forger merely wastes its own voting power.
    """
    vote_types = vote_types or [Prepare, Commit]

    def mutate(message: Message) -> Message:
        message.digest = b"forged:" + bytes(reversed(message.digest))  # type: ignore[attr-defined]
        return message

    for vote_type in vote_types:
        injector.tamper(FaultRule(src=replica, message_type=vote_type), mutate)
    return ByzantineBehaviour(description="vote-forger", node=replica, injector=injector)


def make_value_tamperer(
    injector: FaultInjector,
    node: NodeId,
    message_type: Type[Message],
    mutate: Callable[[Message], Message],
) -> ByzantineBehaviour:
    """Corrupt application-level responses sent by ``node``.

    Typical use: flip bytes of the values carried in a read-only response so
    that tests can assert the client's Merkle-proof verification rejects the
    response.
    """
    injector.tamper(FaultRule(src=node, message_type=message_type), mutate)
    return ByzantineBehaviour(description="value-tamperer", node=node, injector=injector)
