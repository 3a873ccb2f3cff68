"""The per-node certificate-verdict memo inside ``VerifyCache``.

``CommitCertificate.verify`` asks the verifier's cache whether this very
certificate already passed against these members and this threshold before
it pays for ``KeyRegistry.verify_quorum``.  These tests pin what makes that
sound and invisible: the key covers every verified field, a negative verdict
never answers for anything, the entries share the cache's LRU bound and its
``store()`` (so the ``verify-cache-wedged`` bug still wedges everything), a
probe is neither a hit nor a miss, and a malformed certificate fails closed
without raising.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bft.quorum import CommitCertificate, certificate_payload
from repro.chaos.bugs import get_bug
from repro.common.ids import ReplicaId
from repro.crypto.signatures import HmacSigner, KeyRegistry, Signature

MEMBERS = tuple(ReplicaId(0, index) for index in range(4))
DIGEST = b"\x07" * 32


def make_registry(cache_size: int = 64):
    registry = KeyRegistry(verify_cache_size=cache_size)
    signers = [HmacSigner(str(member)) for member in MEMBERS]
    for signer in signers:
        registry.register(signer)
    return registry, signers


def certify(signers, partition=0, view=0, seq=5, digest=DIGEST, count=3):
    payload = certificate_payload(view, seq, digest)
    return CommitCertificate(
        partition=partition,
        view=view,
        seq=seq,
        digest=digest,
        signatures=tuple(signer.sign(payload) for signer in signers[:count]),
    )


def count_quorum_calls(monkeypatch):
    calls = []
    real = KeyRegistry.verify_quorum

    def counting(self, payload, signatures, required, allowed_signers=None):
        calls.append(payload)
        return real(self, payload, signatures, required, allowed_signers)

    monkeypatch.setattr(KeyRegistry, "verify_quorum", counting)
    return calls


def tampered_copies(certificate):
    """Copies of ``certificate`` that each differ from it in exactly one field."""
    first, *rest = certificate.signatures
    flipped = bytes([first.value[0] ^ 1]) + first.value[1:]
    return {
        "signature byte": dataclasses.replace(
            certificate, signatures=(dataclasses.replace(first, value=flipped), *rest)
        ),
        "signer name": dataclasses.replace(
            certificate, signatures=(dataclasses.replace(first, signer="P0/R3"), *rest)
        ),
        "digest": dataclasses.replace(certificate, digest=b"\x08" * 32),
        "view": dataclasses.replace(certificate, view=1),
        "seq": dataclasses.replace(certificate, seq=6),
        "partition": dataclasses.replace(certificate, partition=1),
    }


class TestMemoSoundness:
    def test_repeat_is_answered_without_a_quorum_check(self, monkeypatch):
        registry, signers = make_registry()
        verifier = registry.for_node()
        certificate = certify(signers)
        calls = count_quorum_calls(monkeypatch)
        assert all(certificate.verify(verifier, MEMBERS, 3) for _ in range(5))
        assert len(calls) == 1
        # An equal certificate built elsewhere (another message carrying the
        # same bytes) is the same certificate.
        assert certify(signers).verify(verifier, MEMBERS, 3)
        assert len(calls) == 1
        # Another node has its own memo.
        assert certificate.verify(registry.for_node(), MEMBERS, 3)
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "field", ["signature byte", "signer name", "digest", "view", "seq", "partition"]
    )
    def test_a_copy_differing_in_one_field_is_evaluated_afresh(self, monkeypatch, field):
        registry, signers = make_registry()
        verifier = registry.for_node()
        certificate = certify(signers, count=2)
        assert certificate.verify(verifier, MEMBERS, 2)
        calls = count_quorum_calls(monkeypatch)
        copy = tampered_copies(certificate)[field]
        # ``partition`` is not under the signatures (the header check binds
        # it), so that copy is valid — but on its own evaluation.
        assert copy.verify(verifier, MEMBERS, 2) is (field == "partition")
        assert len(calls) == 1
        # The negative verdict shadows neither itself nor the valid twin.
        copy.verify(verifier, MEMBERS, 2)
        assert len(calls) == (1 if field == "partition" else 2)
        assert certificate.verify(verifier, MEMBERS, 2)

    def test_members_and_threshold_are_part_of_the_key(self, monkeypatch):
        registry, signers = make_registry()
        verifier = registry.for_node()
        certificate = certify(signers, count=2)
        assert certificate.verify(verifier, MEMBERS, 2)
        calls = count_quorum_calls(monkeypatch)
        assert not certificate.verify(verifier, MEMBERS, 3)
        assert not certificate.verify(verifier, MEMBERS[1:], 2)
        assert not certificate.verify(verifier, [ReplicaId(1, i) for i in range(4)], 2)
        assert len(calls) == 3
        assert certificate.verify(verifier, MEMBERS, 2)
        assert len(calls) == 3

    def test_a_negative_verdict_is_never_kept(self, monkeypatch):
        # ``False`` may rest on a signer the registry does not know *yet*.
        registry, signers = make_registry()
        late = HmacSigner("P0/R9")
        members = MEMBERS + (ReplicaId(0, 9),)
        payload = certificate_payload(0, 5, DIGEST)
        certificate = dataclasses.replace(
            certify(signers, count=1),
            signatures=(signers[0].sign(payload), late.sign(payload)),
        )
        assert not certificate.verify(registry, members, 2)
        registry.register(late)  # a new identity, so the memo cannot be stale
        assert certificate.verify(registry, members, 2)

    def test_members_may_be_a_generator(self):
        registry, signers = make_registry()
        certificate = certify(signers)
        for _ in range(2):
            assert certificate.verify(registry, (member for member in MEMBERS), 3)
        assert not certificate.verify(registry, (member for member in MEMBERS[2:]), 3)


class TestMemoLivesInTheVerifyCache:
    def test_memo_entries_count_against_the_lru_bound(self, monkeypatch):
        registry, signers = make_registry(cache_size=6)
        verifier = registry.for_node()
        first, second = certify(signers, seq=1), certify(signers, seq=2)
        assert first.verify(verifier, MEMBERS, 3)
        assert len(verifier.cache) == 4
        assert second.verify(verifier, MEMBERS, 3)
        assert len(verifier.cache) == 6  # bound reached: the oldest two went
        calls = count_quorum_calls(monkeypatch)
        assert second.verify(verifier, MEMBERS, 3)
        assert len(calls) == 0
        # The first certificate's entry is still there (its two oldest
        # signature entries were evicted instead) ...
        assert first.verify(verifier, MEMBERS, 3)
        assert len(calls) == 0
        # ... until enough newer entries push it out like any other.
        third = certify(signers, seq=3)
        assert third.verify(verifier, MEMBERS, 3)
        assert certify(signers, seq=4).verify(verifier, MEMBERS, 3)
        assert len(verifier.cache) == 6
        assert len(calls) == 2
        assert first.verify(verifier, MEMBERS, 3)
        assert len(calls) == 3

    def test_wedged_cache_wedges_the_memo_too(self):
        registry, signers = make_registry()
        verifier = registry.for_node()
        certificate = certify(signers)
        with get_bug("verify-cache-wedged").patch():
            assert certificate.verify(verifier, MEMBERS, 3)
            one = verifier.cache.misses
            assert one == 3
            for _ in range(2):
                assert certificate.verify(verifier, MEMBERS, 3)
            assert verifier.cache.misses == 3 * one
            assert verifier.cache.hits == 0
            assert len(verifier.cache) == 0

    def test_a_probe_is_neither_a_hit_nor_a_miss(self):
        registry, signers = make_registry()
        verifier = registry.for_node()
        charged = []
        verifier.on_miss = charged.append
        certificate = certify(signers)
        assert certificate.verify(verifier, MEMBERS, 3)
        first = (verifier.cache.hits, verifier.cache.misses)
        assert first == (0, 3) and charged == [3]
        for _ in range(10):
            assert certificate.verify(verifier, MEMBERS, 3)
        assert (verifier.cache.hits, verifier.cache.misses) == first
        assert charged == [3]
        # A first-seen certificate over already-seen signatures costs hits,
        # exactly as before the memo.
        assert certificate.verify(verifier, MEMBERS, 2)
        assert (verifier.cache.hits, verifier.cache.misses) == (3, 3)


class TestMalformedCertificatesFailClosed:
    @pytest.mark.parametrize(
        "signatures",
        [(None,), None, [Signature("P0/R0", b"\x00" * 32, "hmac")]],
        ids=["none-entry", "none", "list"],
    )
    def test_malformed_signatures_return_false(self, signatures):
        registry, signers = make_registry()
        certificate = CommitCertificate(
            partition=0, view=0, seq=5, digest=DIGEST, signatures=signatures
        )
        for verifier in (registry, registry.for_node()):
            assert certificate.verify(verifier, MEMBERS, 1) is False
            assert certificate.verify(verifier, MEMBERS, 0) is False
            assert len(verifier.cache) == 0

    def test_fields_that_alias_as_keys_or_cannot_be_keys_fail_closed(self):
        registry, signers = make_registry()
        certificate = certify(signers, view=1)
        assert certificate.verify(registry, MEMBERS, 3)
        # ``True == 1`` as a dict key, but not under the signatures.
        assert not dataclasses.replace(certificate, view=True).verify(registry, MEMBERS, 3)
        assert not dataclasses.replace(certificate, digest=[7] * 32).verify(registry, MEMBERS, 3)
