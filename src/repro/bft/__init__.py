"""BFT state-machine-replication substrate (PBFT-style, per cluster)."""

from repro.bft.byzantine import (
    ByzantineBehaviour,
    make_equivocating_leader,
    make_silent,
    make_value_tamperer,
    make_vote_forger,
)
from repro.bft.engine import ConsensusApplication, PbftEngine
from repro.bft.log import LogEntry, ReplicatedLog
from repro.bft.messages import (
    BftMessage,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.bft.quorum import (
    CommitCertificate,
    ViewChangeCertificate,
    VoteTracker,
    certificate_payload,
    view_change_payload,
)

__all__ = [
    "BftMessage",
    "ByzantineBehaviour",
    "Commit",
    "CommitCertificate",
    "ConsensusApplication",
    "LogEntry",
    "NewView",
    "PbftEngine",
    "PrePrepare",
    "Prepare",
    "ReplicatedLog",
    "ViewChange",
    "ViewChangeCertificate",
    "VoteTracker",
    "certificate_payload",
    "view_change_payload",
    "make_equivocating_leader",
    "make_silent",
    "make_value_tamperer",
    "make_vote_forger",
]
