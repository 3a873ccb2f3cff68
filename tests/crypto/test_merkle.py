"""Tests for the Merkle tree authenticated data structure."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ProofError
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleProof,
    MerkleStore,
    MerkleTree,
    ProofStep,
    verify_proof,
)


def make_items(n: int) -> dict:
    return {f"key-{i:03d}": f"value-{i}".encode() for i in range(n)}


def make_store(items: dict) -> MerkleStore:
    return MerkleStore(MerkleTree(items), MerkleTreeArchive())


class TestMerkleTree:
    def test_empty_tree_has_sentinel_root(self):
        assert MerkleTree({}).root == EMPTY_ROOT

    def test_single_item_tree(self):
        tree = MerkleTree({"k": b"v"})
        proof = tree.prove("k")
        assert verify_proof(tree.root, "k", b"v", proof)
        assert len(proof) == 0

    def test_root_is_independent_of_insertion_order(self):
        items = make_items(7)
        shuffled = dict(reversed(list(items.items())))
        assert MerkleTree(items).root == MerkleTree(shuffled).root

    def test_root_changes_when_a_value_changes(self):
        items = make_items(8)
        tree_a = MerkleTree(items)
        items["key-003"] = b"different"
        tree_b = MerkleTree(items)
        assert tree_a.root != tree_b.root

    def test_root_changes_when_a_key_is_added(self):
        items = make_items(5)
        tree_a = MerkleTree(items)
        items["zzz"] = b"new"
        assert tree_a.root != MerkleTree(items).root

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 33])
    def test_all_proofs_verify(self, n):
        items = make_items(n)
        tree = MerkleTree(items)
        for key, value in items.items():
            assert verify_proof(tree.root, key, value, tree.prove(key))

    def test_proof_fails_for_wrong_value(self):
        items = make_items(9)
        tree = MerkleTree(items)
        proof = tree.prove("key-004")
        assert not verify_proof(tree.root, "key-004", b"forged", proof)

    def test_proof_fails_against_wrong_root(self):
        items = make_items(9)
        tree = MerkleTree(items)
        other = MerkleTree(make_items(10))
        proof = tree.prove("key-004")
        assert not verify_proof(other.root, "key-004", items["key-004"], proof)

    def test_proof_fails_for_mismatched_key(self):
        items = make_items(4)
        tree = MerkleTree(items)
        proof = tree.prove("key-001")
        assert not verify_proof(tree.root, "key-002", items["key-002"], proof)

    @pytest.mark.parametrize(
        "steps",
        [5, (3,), (ProofStep(sibling=None, sibling_is_left=False),), (ProofStep(sibling="s", sibling_is_left=True),)],
        ids=["steps-an-int", "step-an-int", "sibling-none", "sibling-a-str"],
    )
    def test_malformed_proof_fails_instead_of_raising(self, steps):
        tree = MerkleTree(make_items(4))
        proof = MerkleProof(key="key-001", steps=steps)
        assert verify_proof(tree.root, "key-001", b"value-1", proof) is False

    def test_proving_missing_key_raises(self):
        with pytest.raises(ProofError):
            MerkleTree(make_items(3)).prove("missing")

    def test_contains_and_len(self):
        tree = MerkleTree(make_items(6))
        assert len(tree) == 6
        assert "key-000" in tree
        assert "nope" not in tree


class TestMerkleStore:
    def test_apply_updates_root_and_values(self):
        store = make_store(make_items(4))
        old_root = store.root
        new_root = store.apply({"key-001": b"updated", "new-key": b"fresh"}, batch=1)
        assert new_root != old_root
        assert verify_proof(new_root, "key-001", b"updated", store.tree.prove("key-001"))
        assert verify_proof(new_root, "new-key", b"fresh", store.tree.prove("new-key"))
        assert len(store) == 5

    def test_apply_empty_update_keeps_root(self):
        store = make_store(make_items(4))
        root = store.root
        assert store.apply({}, batch=1) == root

    def test_proofs_track_current_state(self):
        store = make_store(make_items(4))
        store.apply({"key-002": b"v2"}, batch=1)
        proof = store.tree.prove("key-002")
        assert verify_proof(store.root, "key-002", b"v2", proof)

    def test_store_matches_equivalent_tree(self):
        items = make_items(10)
        store = make_store(items)
        assert store.root == MerkleTree(items).root


class TestMerkleProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8), st.binary(min_size=0, max_size=16),
            min_size=1, max_size=24,
        )
    )
    def test_every_member_proves_and_forgeries_fail(self, items):
        tree = MerkleTree(items)
        for key, value in items.items():
            proof = tree.prove(key)
            assert verify_proof(tree.root, key, value, proof)
            assert not verify_proof(tree.root, key, value + b"x", proof)

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(st.text(min_size=1, max_size=6), st.binary(max_size=8),
                        min_size=2, max_size=16),
        st.data(),
    )
    def test_changing_one_value_changes_root(self, items, data):
        tree = MerkleTree(items)
        key = data.draw(st.sampled_from(sorted(items)))
        mutated = dict(items)
        mutated[key] = mutated[key] + b"\x01"
        assert MerkleTree(mutated).root != tree.root


class TestSharedGenesis:
    """Replicas of one cluster start from clones of one prototype tree."""

    def test_clone_hashes_nothing_and_equals_its_prototype(self, monkeypatch):
        prototype = MerkleTree(make_items(9))
        builds = []
        monkeypatch.setattr(MerkleTree, "__init__", lambda self, items: builds.append(items))
        twin = prototype.clone()
        assert builds == []  # a clone is not a build
        assert twin.root == prototype.root and twin.keys() == prototype.keys()
        assert twin.prove("key-004") == prototype.prove("key-004")

    def test_update_on_one_clone_leaves_sibling_and_prototype_untouched(self):
        items = make_items(9)
        prototype = MerkleTree(items)
        genesis_root, genesis_proof = prototype.root, prototype.prove("key-004")
        left, right = prototype.clone(), prototype.clone()

        left.update_values({"key-004": b"left"})
        assert left.root == MerkleTree({**items, "key-004": b"left"}).root
        for untouched in (right, prototype):
            assert untouched.root == genesis_root
            assert untouched.prove("key-004") == genesis_proof
            assert verify_proof(genesis_root, "key-004", items["key-004"], genesis_proof)

    def test_new_key_rebuilds_only_the_store_that_inserted_it(self):
        items = make_items(6)
        prototype = MerkleTree(items)
        left = MerkleStore(prototype.clone(), MerkleTreeArchive())
        right = MerkleStore(prototype.clone(), MerkleTreeArchive())
        right_tree = right.tree

        left.apply({"zzz-new": b"fresh"}, batch=1)
        assert left.root == MerkleTree({**items, "zzz-new": b"fresh"}).root
        assert "zzz-new" in left and len(left) == 7
        # The sibling keeps its own tree object, still over the six shared leaves.
        assert right.tree is right_tree and right.root == prototype.root
        assert "zzz-new" not in right and len(right) == 6
        assert prototype.keys() == tuple(sorted(items))


class TestIncrementalUpdates:
    def test_update_values_matches_rebuild(self):
        items = make_items(13)
        tree = MerkleTree(items)
        updates = {"key-003": b"changed-3", "key-011": b"changed-11"}
        new_root = tree.update_values(updates)
        rebuilt = MerkleTree({**items, **updates})
        assert new_root == rebuilt.root
        assert tree.root == rebuilt.root

    def test_root_with_updates_does_not_mutate(self):
        items = make_items(9)
        tree = MerkleTree(items)
        before = tree.root
        preview = tree.root_with_updates({"key-004": b"preview"})
        assert tree.root == before
        assert preview == MerkleTree({**items, "key-004": b"preview"}).root

    def test_update_values_rejects_new_keys(self):
        tree = MerkleTree(make_items(4))
        with pytest.raises(ProofError):
            tree.update_values({"brand-new": b"x"})
        with pytest.raises(ProofError):
            tree.root_with_updates({"brand-new": b"x"})

    def test_proofs_remain_valid_after_incremental_update(self):
        items = make_items(10)
        tree = MerkleTree(items)
        tree.update_values({"key-002": b"v2", "key-007": b"v7"})
        assert verify_proof(tree.root, "key-002", b"v2", tree.prove("key-002"))
        assert verify_proof(tree.root, "key-005", items["key-005"], tree.prove("key-005"))

    def test_store_incremental_and_rebuild_paths_agree(self):
        store = make_store(make_items(8))
        preview = store.preview_root({"key-001": b"x"})
        applied = store.apply({"key-001": b"x"}, batch=1)
        assert preview == applied
        # New key forces a rebuild and still matches a from-scratch tree.
        store.apply({"zzz-new": b"fresh"}, batch=2)
        expected = MerkleTree({**make_items(8), "key-001": b"x", "zzz-new": b"fresh"})
        assert store.root == expected.root

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(st.text(min_size=1, max_size=6), st.binary(max_size=8),
                        min_size=1, max_size=20),
        st.data(),
    )
    def test_incremental_update_equals_rebuild_property(self, items, data):
        tree = MerkleTree(items)
        keys = sorted(items)
        chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=5, unique=True))
        updates = {key: items[key] + b"\x42" for key in chosen}
        assert tree.root_with_updates(updates) == MerkleTree({**items, **updates}).root
        tree.update_values(updates)
        assert tree.root == MerkleTree({**items, **updates}).root
