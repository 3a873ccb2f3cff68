"""The recovery session's completion rule, as a function of sequence numbers.

A state-transfer session completes on a reply only when the rejoiner holds
everything the responder certified: never while its log tip is below the
responder's, and — at or past it — exactly when the install extended the log
or the tips already matched (an up-to-date peer confirming there is nothing
to fetch).  A reply from a peer that is itself behind completes nothing.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.bft.log import LogEntry
from repro.common.ids import NO_BATCH
from repro.recovery.messages import StateTransferReply
from repro.recovery.snapshot import SnapshotImage
from repro.recovery.transfer import RecoveryCoordinator

SEQ = st.integers(-1, 40)


@given(held_before=SEQ, installed=st.integers(0, 10), responder_tip=SEQ)
def test_completes_exactly_when_caught_up_to_the_responder(held_before, installed, responder_tip):
    tip = held_before + installed  # an install only ever extends the log
    completes = RecoveryCoordinator._completes(held_before, tip, responder_tip)
    if tip < responder_tip:
        assert not completes
    else:
        assert completes == (tip > held_before or tip == responder_tip)


@given(image_seq=st.none() | SEQ, entry_seqs=st.lists(SEQ, max_size=4).map(sorted), tip=SEQ)
def test_a_late_reply_extends_the_log_iff_it_carries_a_higher_seq(image_seq, entry_seqs, tip):
    image = None if image_seq is None else SnapshotImage(partition=0, seq=image_seq, items=())
    reply = StateTransferReply(
        image=image, entries=tuple(LogEntry(seq, None, None) for seq in entry_seqs)
    )
    carried = entry_seqs + ([] if image_seq is None else [image_seq])
    assert reply.highest_seq() == max(carried, default=NO_BATCH)
    assert RecoveryCoordinator._extends(reply.highest_seq(), tip) == any(
        seq > tip for seq in carried
    )
