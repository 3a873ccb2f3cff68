"""Tests for signers and the key registry."""

from __future__ import annotations

import random

import pytest

from repro.common.errors import SignatureError
from repro.crypto.signatures import (
    HmacSigner,
    KeyRegistry,
    RsaSigner,
    Signature,
    VerifyCache,
    make_signer,
)


@pytest.fixture
def registry_with_nodes():
    registry = KeyRegistry()
    signers = {name: HmacSigner(name) for name in ("P0/R0", "P0/R1", "P0/R2", "P0/R3")}
    for signer in signers.values():
        registry.register(signer)
    return registry, signers


class TestHmacSigner:
    def test_sign_verify_roundtrip(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = {"batch": 3, "root": b"\x01\x02"}
        signature = signers["P0/R0"].sign(payload)
        assert registry.verify(payload, signature)

    def test_rejects_wrong_payload(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        signature = signers["P0/R0"].sign({"batch": 3})
        assert not registry.verify({"batch": 4}, signature)

    def test_rejects_unknown_signer(self, registry_with_nodes):
        registry, _ = registry_with_nodes
        rogue = HmacSigner("intruder")
        signature = rogue.sign("hello")
        assert not registry.verify("hello", signature)

    def test_cannot_impersonate_other_node(self, registry_with_nodes):
        # A byzantine node cannot produce a signature that verifies as
        # coming from another node, because it does not know its secret.
        registry, signers = registry_with_nodes
        byzantine = signers["P0/R3"]
        forged = Signature(signer="P0/R0", value=byzantine.sign("x").value, scheme="hmac")
        assert not registry.verify("x", forged)

    def test_signature_requires_signer_identity(self):
        with pytest.raises(SignatureError):
            Signature(signer="", value=b"sig", scheme="hmac")


class TestRsaSigner:
    def test_sign_verify_roundtrip(self):
        registry = KeyRegistry()
        signer = RsaSigner("node-A", bits=256, rng=random.Random(11))
        registry.register(signer)
        payload = ["values", 1, 2, 3]
        assert registry.verify(payload, signer.sign(payload))

    def test_scheme_mismatch_is_rejected(self):
        registry = KeyRegistry()
        hmac_signer = HmacSigner("node-A")
        registry.register(hmac_signer)
        forged = Signature(signer="node-A", value=b"\x00" * 32, scheme="rsa")
        assert not registry.verify("x", forged)


class TestQuorumVerification:
    def test_quorum_met(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = {"seq": 9}
        sigs = [s.sign(payload) for s in signers.values()]
        assert registry.verify_quorum(payload, sigs, required=3)

    def test_duplicate_signers_count_once(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = "p"
        sigs = [signers["P0/R0"].sign(payload)] * 5
        assert not registry.verify_quorum(payload, sigs, required=2)

    def test_invalid_signatures_do_not_count(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        good = signers["P0/R0"].sign("p")
        bad = Signature(signer="P0/R1", value=b"junk", scheme="hmac")
        assert not registry.verify_quorum("p", [good, bad], required=2)

    def test_allowed_signers_restricts_quorum(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = 1
        sigs = [s.sign(payload) for s in signers.values()]
        assert not registry.verify_quorum(
            payload, sigs, required=3, allowed_signers=["P0/R0", "P0/R1"]
        )
        assert registry.verify_quorum(
            payload, sigs, required=2, allowed_signers=["P0/R0", "P0/R1"]
        )


class TestVerifyCache:
    """The memoized verify path must never be weaker than the uncached one."""

    def test_repeated_verifications_hit_the_cache(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = ["commit", 0, 7, b"\x01" * 32]
        signature = signers["P0/R0"].sign(payload)
        assert registry.verify(payload, signature)
        before = registry.cache.hits
        for _ in range(5):
            assert registry.verify(payload, signature)
        assert registry.cache.hits == before + 5

    def test_tampered_payload_fails_with_warm_cache(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = ["commit", 0, 7, b"\x01" * 32]
        signature = signers["P0/R0"].sign(payload)
        assert registry.verify(payload, signature)  # warm the cache
        tampered = ["commit", 0, 7, b"\x02" * 32]
        assert not registry.verify(tampered, signature)
        # ... and repeatedly: the negative result is also cached, never flipped.
        assert not registry.verify(tampered, signature)
        assert registry.verify(payload, signature)

    def test_tampered_signature_fails_with_warm_cache(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = {"seq": 12}
        signature = signers["P0/R1"].sign(payload)
        assert registry.verify(payload, signature)
        forged = Signature(
            signer=signature.signer,
            value=bytes(reversed(signature.value)),
            scheme=signature.scheme,
        )
        assert not registry.verify(payload, forged)

    def test_wrong_signer_fails_with_warm_cache(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = "vote"
        signature = signers["P0/R0"].sign(payload)
        assert registry.verify(payload, signature)
        impersonation = Signature(
            signer="P0/R1", value=signature.value, scheme=signature.scheme
        )
        assert not registry.verify(payload, impersonation)

    def test_cache_eviction_keeps_correctness(self):
        registry = KeyRegistry(verify_cache_size=2)
        signer = HmacSigner("node")
        registry.register(signer)
        payloads = [f"payload-{i}" for i in range(5)]
        signatures = [signer.sign(payload) for payload in payloads]
        for payload, signature in zip(payloads, signatures):
            assert registry.verify(payload, signature)
        # Everything still verifies (re-verified on miss after eviction) and
        # cross-pairing payloads with the wrong signature still fails.
        for payload, signature in zip(payloads, signatures):
            assert registry.verify(payload, signature)
            assert not registry.verify(payload, signatures[0]) or payload == payloads[0]

    def test_tampered_consensus_message_rejected_despite_warm_cache(
        self, registry_with_nodes
    ):
        """In-transit tampering: the honest vote verifies (and is cached),
        the tampered copy canonicalises differently and still fails."""
        from repro.bft.messages import Prepare

        registry, signers = registry_with_nodes
        honest = Prepare(view=0, seq=4, digest=b"agreed-digest")
        honest.signature = signers["P0/R0"].sign(honest.signing_payload())
        assert registry.verify(honest.signing_payload(), honest.signature)
        tampered = Prepare(view=0, seq=4, digest=b"forged-digest", signature=honest.signature)
        assert not registry.verify(tampered.signing_payload(), tampered.signature)

    def test_cache_key_cannot_be_poisoned_through_a_message(self, registry_with_nodes):
        """The registry derives the cache key from the payload it verifies —
        a sender cannot alias a verdict onto a different payload, because
        verifiers never accept a digest carried inside a message."""
        from repro.bft.messages import Prepare

        registry, signers = registry_with_nodes
        byzantine = signers["P0/R3"]
        target_payload = Prepare(view=0, seq=9, digest=b"payload-B").signing_payload()
        # The attacker's own message A verifies fine (it is validly signed)...
        message_a = Prepare(view=0, seq=9, digest=b"payload-A")
        message_a.signature = byzantine.sign(message_a.signing_payload())
        assert registry.verify(message_a.signing_payload(), message_a.signature)
        # ...but message B carrying A's signature must fail: A's cached
        # verdict is keyed under A's locally computed digest, not anything
        # the attacker can choose.
        assert not registry.verify(target_payload, message_a.signature)

    def test_quorum_verification_uses_one_encoding(self, registry_with_nodes):
        registry, signers = registry_with_nodes
        payload = {"seq": 3, "digest": b"q"}
        sigs = [s.sign(payload) for s in signers.values()]
        assert registry.verify_quorum(payload, sigs, required=3)
        before_hits = registry.cache.hits
        # Re-verifying the same certificate is answered fully from the cache.
        assert registry.verify_quorum(payload, sigs, required=3)
        assert registry.cache.hits >= before_hits + 3


class TestRegistration:
    def test_an_identity_registers_once(self, registry_with_nodes):
        # A replaced key would leave verdicts memoized under the old one.
        registry, signers = registry_with_nodes
        with pytest.raises(SignatureError):
            registry.register(HmacSigner("P0/R0", secret=b"rotated"))
        with pytest.raises(SignatureError):
            registry.for_node().register(signers["P0/R1"])
        assert registry.verify("x", signers["P0/R0"].sign("x"))

    @pytest.mark.parametrize("size", [0, -1])
    def test_a_cache_holds_at_least_one_entry(self, size):
        with pytest.raises(SignatureError):
            VerifyCache(size)
        with pytest.raises(SignatureError):
            KeyRegistry(verify_cache_size=size)


class TestFactories:
    def test_make_signer_backends(self):
        assert isinstance(make_signer("hmac", "a"), HmacSigner)
        assert isinstance(make_signer("rsa", "a", rng=random.Random(5), rsa_bits=256), RsaSigner)

    def test_make_signer_rejects_unknown_backend(self):
        with pytest.raises(SignatureError):
            make_signer("dsa", "a")
