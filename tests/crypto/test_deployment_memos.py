"""The deployment's verdict table and payload encodings change host work only.

Every node registry from ``KeyRegistry.for_node`` shares the deployment's
verdict table and :class:`~repro.crypto.signatures.Encodings`.  A node's own
``VerifyCache`` still counts, stores and charges exactly what it did; these
tests pin that the shared memos never answer for anything but the very
signature over the very payload that was checked, and that a Merkle proof
walk gives the same steps for a live tree and an archived view of it.
"""

from __future__ import annotations

import dataclasses

from repro import BatchConfig, SystemConfig, TransEdgeSystem
from repro.bft.byzantine import make_vote_forger
from repro.bft.messages import BftMessage, Commit, Prepare
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.hashing import sha256, stable_encode
from repro.crypto.merkle import MerkleStore, MerkleTree, ProofStep, verify_proof
from repro.crypto.signatures import Encodings, HmacSigner, KeyRegistry, Signature


def deployment():
    registry = KeyRegistry(verify_cache_size=64)
    signer = HmacSigner("node-a", encodings=registry.encodings)
    registry.register(signer)
    return registry, signer


def counting_checks(monkeypatch):
    checks = []
    real = KeyRegistry._check

    def counted(self, material, scheme, message, signature):
        checks.append(signature.value)
        return real(self, material, scheme, message, signature)

    monkeypatch.setattr(KeyRegistry, "_check", counted)
    return checks


class TestVerdictTable:
    def test_a_second_node_misses_its_cache_but_runs_no_second_check(self, monkeypatch):
        registry, signer = deployment()
        checks = counting_checks(monkeypatch)
        payload = ["prepare", 0, 3, b"\x01" * 32]
        signature = signer.sign(payload)
        first, second = registry.for_node(), registry.for_node()
        charged = []
        second.on_miss = charged.append

        assert first.verify(payload, signature) and second.verify(payload, signature)
        assert len(checks) == 1
        # The second node's model is untouched: a miss, stored and charged.
        assert (second.cache.hits, second.cache.misses, len(second.cache)) == (0, 1, 1)
        assert charged == [1]

    def test_a_fresh_forged_value_is_checked_after_the_genuine_one_passed(self, monkeypatch):
        registry, signer = deployment()
        checks = counting_checks(monkeypatch)
        payload = ["commit", 0, 7, b"\x02" * 32]
        genuine = signer.sign(payload)
        assert registry.for_node().verify(payload, genuine)

        forged = dataclasses.replace(genuine, value=bytes(32))
        other = registry.for_node()
        assert not other.verify(payload, forged)
        assert checks == [genuine.value, forged.value]
        # And the refusal is itself a verdict: a third node is refused too.
        assert not registry.for_node().verify(payload, forged)
        assert registry.for_node().verify(payload, genuine)
        assert len(checks) == 2

    def test_the_genuine_value_over_a_tampered_payload_is_refused(self):
        registry, signer = deployment()
        payload = ["commit", 0, 7, b"\x02" * 32]
        signature = signer.sign(payload)
        assert registry.for_node().verify(payload, signature)
        assert not registry.for_node().verify(["commit", 0, 7, b"\x03" * 32], signature)
        assert not registry.for_node().verify(["commit", 0, 8, b"\x02" * 32], signature)

    def test_a_claimed_signer_of_another_identity_is_refused(self):
        registry, signer = deployment()
        registry.register(HmacSigner("node-b", encodings=registry.encodings))
        payload = ["prepare", 1, 1, b"\x04" * 32]
        signature = signer.sign(payload)
        assert registry.for_node().verify(payload, signature)
        claimed = Signature(signer="node-b", value=signature.value, scheme="hmac")
        assert not registry.for_node().verify(payload, claimed)

    def test_vote_forger_votes_are_refused(self, monkeypatch):
        system = TransEdgeSystem(SystemConfig(
            num_partitions=1, fault_tolerance=1, initial_keys=16,
            batch=BatchConfig(max_size=2, timeout_ms=2.0),
        ))
        forger = system.topology.members(0)[3]
        make_vote_forger(system.fault_injector, forger)
        verdicts = []
        real = BftMessage.verify_sender

        def recorded(message, src, verifier):
            valid = real(message, src, verifier)
            if isinstance(message, (Prepare, Commit)):
                verdicts.append((src, valid))
            return valid

        monkeypatch.setattr(BftMessage, "verify_sender", recorded)
        client = system.create_client("writer")
        key = system.keys_of_partition(0)[0]
        results = []

        def body():
            for i in range(3):
                results.append((yield from client.read_write_txn([], {key: b"v%d" % i})))

        client.spawn(body())
        system.run_until_idle()

        forged = [valid for src, valid in verdicts if src == forger]
        honest = [valid for src, valid in verdicts if src != forger]
        assert forged and not any(forged)
        assert honest and all(honest)
        assert len(results) == 3 and all(result.committed for result in results)


class TestEncodings:
    def test_a_flat_payload_is_encoded_once_per_deployment(self, monkeypatch):
        import repro.crypto.signatures as signatures

        encoded = []
        real = signatures.stable_encode
        monkeypatch.setattr(
            signatures, "stable_encode", lambda value: encoded.append(value) or real(value)
        )
        registry, signer = deployment()
        payload = ["checkpoint", 100, b"\x05" * 32]
        signatures_ = [signer.sign(payload) for _ in range(3)]
        for node in (registry.for_node() for _ in range(4)):
            assert node.verify_quorum(payload, signatures_, required=1)
        assert encoded == [payload]
        assert registry.encodings.of(payload) == (stable_encode(payload), sha256(stable_encode(payload)))

    def test_true_where_one_was_signed_is_not_answered_from_the_memo(self):
        registry, signer = deployment()
        signed = ["commit", 1, 2, b"\x06" * 32]
        signature = signer.sign(signed)
        assert registry.for_node().verify(signed, signature)
        held = len(registry.encodings)

        lying = ["commit", True, 2, b"\x06" * 32]
        assert lying == signed  # equal as Python values, and as tuple keys
        message, digest = registry.encodings.of(lying)
        assert message == stable_encode(lying) != stable_encode(signed)
        assert digest == sha256(message)
        assert len(registry.encodings) == held  # not flat: never stored
        assert not registry.for_node().verify(lying, signature)

    def test_non_flat_payloads_are_encoded_afresh(self):
        encodings = Encodings()
        for payload in ("hello", ["nested", [1, 2]], {"k": b"v"}, ["float", 1.5], ["none", None]):
            assert encodings.of(payload) == (stable_encode(payload), sha256(stable_encode(payload)))
        assert len(encodings) == 0

    def test_a_list_and_a_tuple_share_one_entry(self):
        encodings = Encodings()
        assert encodings.of(["vote", 1, b"d"]) == encodings.of(("vote", 1, b"d"))
        assert len(encodings) == 1

    def test_the_memo_is_bounded(self):
        encodings = Encodings(size=4)
        for seq in range(10):
            encodings.of(["prepare", 0, seq, b"d"])
        assert len(encodings) == 4
        assert encodings.of(["prepare", 0, 0, b"d"])[0] == stable_encode(["prepare", 0, 0, b"d"])


class TestOneProofWalk:
    def test_archive_proofs_equal_live_tree_proofs(self):
        items = {f"key-{i:03d}": f"value-{i}".encode() for i in range(13)}  # odd levels
        store = MerkleStore(MerkleTree(items), MerkleTreeArchive())
        history = {0: dict(items)}
        for batch in range(1, 6):
            updates = {f"key-{(batch * 5 + i) % 13:03d}": f"b{batch}-{i}".encode() for i in range(3)}
            store.apply(updates, batch)
            items.update(updates)
            history[batch] = dict(items)
        for batch, state in history.items():
            live = MerkleTree(state)
            view = store.tree_at(batch)
            assert view.root == live.root
            for key in state:
                proof = view.prove(key)
                assert proof == live.prove(key)
                assert all(type(step) is ProofStep and type(step.sibling_is_left) is bool
                           for step in proof.steps)
                assert verify_proof(live.root, key, state[key], proof)

    def test_a_proof_step_is_an_immutable_pair(self):
        step = ProofStep(sibling=b"s", sibling_is_left=True)
        assert step == ProofStep(b"s", True) and step.sibling == b"s" and step.sibling_is_left
        try:
            step.sibling = b"t"
        except AttributeError:
            pass
        else:
            raise AssertionError("a ProofStep must not be mutable")
