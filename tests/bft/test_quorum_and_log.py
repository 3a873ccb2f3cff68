"""Tests for vote tracking, commit certificates and the replicated log."""

from __future__ import annotations

import pytest

from repro.bft.log import ReplicatedLog
from repro.bft.quorum import CommitCertificate, VoteTracker, certificate_payload
from repro.common.errors import ConsensusError
from repro.common.ids import ReplicaId
from repro.crypto.signatures import HmacSigner, KeyRegistry, Signature


def make_cluster_signers(n=4, partition=0):
    registry = KeyRegistry()
    members = [ReplicaId(partition, i) for i in range(n)]
    signers = {m: HmacSigner(str(m)) for m in members}
    for signer in signers.values():
        registry.register(signer)
    return registry, members, signers


class TestVoteTracker:
    def test_counts_distinct_senders(self):
        tracker = VoteTracker()
        sig = Signature(signer="a", value=b"x", scheme="hmac")
        assert tracker.add("a", sig)
        assert not tracker.add("a", sig)
        assert tracker.add("b", Signature(signer="b", value=b"y", scheme="hmac"))
        assert tracker.count() == 2
        assert tracker.reached(2)
        assert not tracker.reached(3)

    def test_none_signature_is_not_counted(self):
        tracker = VoteTracker()
        assert not tracker.add("a", None)
        assert tracker.count() == 0

    def test_signatures_in_voter_order(self):
        tracker = VoteTracker()
        for name in ("c", "a", "b"):
            tracker.add(name, Signature(signer=name, value=name.encode(), scheme="hmac"))
        assert [s.signer for s in tracker.signatures()] == ["a", "b", "c"]
        assert tuple(s.signer for s in tracker.signatures()) == tracker.voters()
        assert tracker.voters() == ("a", "b", "c")


class TestCommitCertificate:
    def test_valid_certificate_verifies(self):
        registry, members, signers = make_cluster_signers()
        payload = certificate_payload(view=0, seq=3, digest=b"d")
        signatures = tuple(signers[m].sign(payload) for m in members[:3])
        certificate = CommitCertificate(
            partition=0, view=0, seq=3, digest=b"d", signatures=signatures
        )
        assert certificate.verify(registry, members, required=2)
        assert certificate.verify(registry, members, required=3)
        assert set(certificate.signers()) == {str(m) for m in members[:3]}

    def test_insufficient_signatures_fail(self):
        registry, members, signers = make_cluster_signers()
        payload = certificate_payload(view=0, seq=1, digest=b"d")
        certificate = CommitCertificate(
            partition=0, view=0, seq=1, digest=b"d",
            signatures=(signers[members[0]].sign(payload),),
        )
        assert not certificate.verify(registry, members, required=2)

    def test_signatures_from_outside_cluster_do_not_count(self):
        registry, members, signers = make_cluster_signers()
        outsider = HmacSigner("P9/R9")
        registry.register(outsider)
        payload = certificate_payload(view=0, seq=1, digest=b"d")
        certificate = CommitCertificate(
            partition=0, view=0, seq=1, digest=b"d",
            signatures=(signers[members[0]].sign(payload), outsider.sign(payload)),
        )
        assert not certificate.verify(registry, members, required=2)

    def test_certificate_bound_to_digest(self):
        registry, members, signers = make_cluster_signers()
        payload = certificate_payload(view=0, seq=1, digest=b"original")
        signatures = tuple(signers[m].sign(payload) for m in members[:3])
        forged = CommitCertificate(
            partition=0, view=0, seq=1, digest=b"forged", signatures=signatures
        )
        assert not forged.verify(registry, members, required=2)


class TestReplicatedLog:
    def _certificate(self, seq):
        return CommitCertificate(partition=0, view=0, seq=seq, digest=b"", signatures=())

    def test_append_and_get(self):
        log = ReplicatedLog()
        log.append(0, "a", self._certificate(0))
        entry = log.append(1, "b", self._certificate(1))
        assert log.entries_from(1) == (entry,)
        assert log.last_seq == 1
        assert log.next_seq == 2
        assert len(log) == 2
        assert [e.value for e in log.entries_from(0)] == ["a", "b"]

    def test_out_of_order_append_rejected(self):
        log = ReplicatedLog()
        with pytest.raises(ConsensusError):
            log.append(1, "b", self._certificate(1))

    def test_duplicate_seq_rejected(self):
        log = ReplicatedLog()
        log.append(0, "a", self._certificate(0))
        with pytest.raises(ConsensusError):
            log.append(0, "again", self._certificate(0))

    def test_an_empty_log_holds_nothing(self):
        log = ReplicatedLog()
        assert log.entries_from(0) == ()
        assert log.last_seq == -1


class TestLogTruncation:
    """Prefix compaction at and around a stable-checkpoint sequence number."""

    def _filled(self, count):
        log = ReplicatedLog()
        for seq in range(count):
            log.append(
                seq,
                f"v{seq}",
                CommitCertificate(partition=0, view=0, seq=seq, digest=b"", signatures=()),
            )
        return log

    def test_truncate_below_stable_checkpoint(self):
        log = self._filled(10)
        # Stable checkpoint at seq 6: entries 0..6 are covered by the image.
        assert log.truncate_prefix(7) == 7
        assert log.first_seq == 7
        assert log.last_seq == 9
        assert len(log) == 3
        assert [entry.seq for entry in log.entries_from(0)] == [7, 8, 9]

    def test_global_numbering_survives_truncation(self):
        log = self._filled(5)
        log.truncate_prefix(3)
        assert [entry.value for entry in log.entries_from(2)] == ["v3", "v4"]
        # Appends still speak global sequence numbers.
        assert log.next_seq == 5
        with pytest.raises(ConsensusError):
            log.append(7, "gap", CommitCertificate(partition=0, view=0, seq=7, digest=b"", signatures=()))
        log.append(5, "v5", CommitCertificate(partition=0, view=0, seq=5, digest=b"", signatures=()))
        assert log.last_seq == 5

    def test_truncate_is_idempotent_and_clamped(self):
        log = self._filled(4)
        assert log.truncate_prefix(2) == 2
        assert log.truncate_prefix(2) == 0  # already truncated there
        assert log.truncate_prefix(1) == 0  # below the base: no-op
        # Truncating past the end empties the log but keeps numbering.
        assert log.truncate_prefix(100) == 2
        assert len(log) == 0
        assert log.first_seq == 4
        assert log.next_seq == 4
        assert log.last_seq == 3

    def test_entries_from_returns_state_transfer_suffix(self):
        log = self._filled(8)
        log.truncate_prefix(4)
        assert [e.seq for e in log.entries_from(6)] == [6, 7]
        # Requests below the base silently clamp to what is still stored.
        assert [e.seq for e in log.entries_from(0)] == [4, 5, 6, 7]
        assert log.entries_from(8) == ()

    def test_reset_base_anchors_an_empty_log(self):
        log = ReplicatedLog()
        log.reset_base(12)
        assert log.first_seq == 12
        assert log.next_seq == 12
        assert log.last_seq == 11
        with pytest.raises(ConsensusError):
            log.append(0, "old", CommitCertificate(partition=0, view=0, seq=0, digest=b"", signatures=()))
        log.append(12, "v12", CommitCertificate(partition=0, view=0, seq=12, digest=b"", signatures=()))
        assert [entry.value for entry in log.entries_from(12)] == ["v12"]

    def test_reset_base_requires_empty_log(self):
        log = self._filled(2)
        with pytest.raises(ConsensusError):
            log.reset_base(5)
