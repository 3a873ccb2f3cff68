"""The Merkle path kernel, the insert path, and the store's one path.

Three contracts.  The kernel (:meth:`MerkleTree.path_overlay` +
:meth:`MerkleTree.install`) is equivalent to a rebuild, and the cells install
swaps out are exactly the reverse delta the parent commit's separate
``capture_paths`` walk produced.  :meth:`MerkleTree.inserted` equals a
from-scratch build and hashes only the updated leaves.  And
:class:`MerkleStore`, which finds every delta in a :class:`DeltaMemo`
(hashing it only on a miss), must be indistinguishable — root, proofs,
archived proofs, recorded deltas — from a store that rebuilds everything.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, precondition, rule

from repro.common.errors import ProofError
from repro.common.ids import NO_BATCH
from repro.crypto import merkle
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import DeltaMemo, MerkleStore, MerkleTree, verify_proof


def make_items(n: int) -> dict:
    return {f"key-{i:03d}": f"value-{i}".encode() for i in range(n)}


def capture_paths(tree: MerkleTree, keys) -> list:
    """The parent commit's reverse-delta walk, kept as the reference."""
    dirty = {tree._index[key] for key in keys}
    snapshot = []
    for level in tree._levels:
        snapshot.append({index: level[index] for index in dirty})
        dirty = {index // 2 for index in dirty}
    return snapshot


class TestKernelEqualsRebuild:
    # 1..9 leaves cover every mix of odd and even level sizes up to depth 4.
    @pytest.mark.parametrize("size", range(1, 10))
    def test_one_key_and_all_keys_updates(self, size):
        items = make_items(size)
        for keys in [[key] for key in items] + [list(items)]:
            tree = MerkleTree(items)
            updates = {key: b"new-" + key.encode() for key in keys}
            rebuilt = MerkleTree({**items, **updates})
            before = [list(level) for level in tree._levels]
            overlay = tree.path_overlay(updates)
            assert tree._levels == before  # the kernel mutates nothing
            assert overlay[-1][0] == rebuilt.root == tree.root_with_updates(updates)
            expected_delta = capture_paths(tree, keys)
            assert tree.install(overlay) == expected_delta
            assert tree._levels == rebuilt._levels

    @pytest.mark.parametrize(
        "updates",
        [
            {"aaa-new": b"first"},
            {"zzz-new": b"last"},
            {"key-000x": b"between"},
            {"key-000": b"changed", "zzz-new": b"last"},
            {"aaa": b"a", "key-000x": b"m", "zzz": b"z"},
        ],
    )
    @pytest.mark.parametrize("size", range(1, 10))
    def test_inserted_equals_rebuild_and_hashes_only_the_updated_leaves(
        self, size, updates, monkeypatch
    ):
        items = make_items(size)
        tree = MerkleTree(items)
        keys, before = tree.keys(), [list(level) for level in tree._levels]
        rebuilt = MerkleTree({**items, **updates})
        hashed = []
        real_leaf_digest = merkle.leaf_digest
        monkeypatch.setattr(
            merkle, "leaf_digest", lambda key, value: (hashed.append(key), real_leaf_digest(key, value))[1]
        )
        grown = tree.inserted(updates)
        assert sorted(hashed) == sorted(updates)
        assert (grown.keys(), grown._index, grown._levels) == (
            rebuilt.keys(), rebuilt._index, rebuilt._levels
        )
        assert (tree.keys(), tree._levels) == (keys, before)  # the receiving tree is untouched

    def test_installed_cells_are_the_parent_commits_reverse_delta(self):
        # Pinned from ``capture_paths`` at the parent commit: five leaves, the
        # last one an odd node promoted unchanged through two levels.
        tree = MerkleTree(make_items(5))
        superseded = tree.install(tree.path_overlay({"key-001": b"one", "key-004": b"four"}))
        assert [{i: d.hex()[:16] for i, d in sorted(cells.items())} for cells in superseded] == [
            {1: "4c0c1583e4ce8f78", 4: "1e86cd5144b22f3b"},
            {0: "5ee764557512b645", 2: "1e86cd5144b22f3b"},
            {0: "ad540c14b7f87b6f", 1: "1e86cd5144b22f3b"},
            {0: "1ab13daa3abedb03"},
        ]
        assert tree.root.hex()[:16] == "b1b88a2b36c177ca"

    def test_reinstalling_the_superseded_cells_restores_the_tree(self):
        tree = MerkleTree(make_items(7))
        before = [list(level) for level in tree._levels]
        delta = tree.install(tree.path_overlay({"key-002": b"x", "key-006": b"y"}))
        tree.install(delta)
        assert tree._levels == before


def count_kernel(monkeypatch) -> list:
    calls = []
    real = MerkleTree.path_overlay

    def counting(self, updates):
        calls.append(dict(updates))
        return real(self, updates)

    monkeypatch.setattr(MerkleTree, "path_overlay", counting)
    return calls


def make_store(items: dict, deltas=None) -> MerkleStore:
    return MerkleStore(MerkleTree(items), MerkleTreeArchive(), deltas=deltas)


class TestPreparedUpdate:
    U = {"key-001": b"u1", "key-005": b"u5"}
    V = {"key-001": b"v1", "key-002": b"v2"}

    def test_validated_preview_is_installed_not_rehashed(self, monkeypatch):
        store = make_store(make_items(8))
        calls = count_kernel(monkeypatch)
        root = store.preview_root(self.U)
        assert store.preview_root(dict(self.U)) == root  # a leader's own proposal
        assert store.apply(dict(self.U), batch=1) == root
        assert len(calls) == 1
        assert store.root == MerkleTree({**make_items(8), **self.U}).root
        assert store.tree_at(0).root == MerkleTree(make_items(8)).root

    def test_preview_u_apply_v_apply_u(self):
        store = make_store(make_items(8))
        store.preview_root(self.U)
        store.apply(self.V, batch=1)
        store.apply(self.U, batch=2)
        assert store.root == MerkleTree({**make_items(8), **self.V, **self.U}).root
        assert store.tree_at(1).root == MerkleTree({**make_items(8), **self.V}).root

    def test_preview_u_rebuild_apply_u(self):
        store = make_store(make_items(8))
        store.preview_root(self.U)
        store.apply({"zzz-new": b"fresh"}, batch=1)  # leaf positions shift
        store.apply(self.U, batch=2)
        expected = MerkleTree({**make_items(8), "zzz-new": b"fresh", **self.U})
        assert store.root == expected.root
        assert store.tree.prove("key-005") == expected.prove("key-005")

    def test_live_tree_mutated_behind_the_stores_back(self):
        # ``MerkleStore.tree`` hands out the mutable live tree; the store
        # looks deltas up by the root the tree has now.
        store = make_store(make_items(8))
        store.preview_root(self.U)
        store.tree.update_values(self.V)
        store.apply(self.U, batch=1)
        assert store.root == MerkleTree({**make_items(8), **self.V, **self.U}).root

    def test_callers_mapping_changed_between_preview_and_apply(self):
        store = make_store(make_items(8))
        updates = dict(self.U)
        store.preview_root(updates)
        updates["key-006"] = b"late"
        store.apply(updates, batch=1)
        assert store.root == MerkleTree({**make_items(8), **updates}).root

    def test_previewed_insert_is_adopted_at_the_apply(self, monkeypatch):
        store = make_store(make_items(6))
        retired = store.tree
        inserts = []
        real_inserted = MerkleTree.inserted
        monkeypatch.setattr(
            MerkleTree, "inserted", lambda self, updates: (inserts.append(1), real_inserted(self, updates))[1]
        )
        updates = {"key-001": b"x", "zzz-new": b"fresh"}
        root = store.preview_root(updates)
        assert store.tree is retired and "zzz-new" not in store
        assert store.apply(updates, batch=1) == root
        assert len(inserts) == 1  # previewed once, not rebuilt at delivery
        assert store.root == MerkleTree({**make_items(6), **updates}).root
        assert store.tree_at(0) is retired
        assert verify_proof(root, "zzz-new", b"fresh", store.tree.prove("zzz-new"))

    @pytest.mark.parametrize("behind_first", [True, False])
    def test_a_write_behind_the_stores_back_is_kept_by_a_later_insert(self, behind_first):
        # Equal roots are equal trees: the insert is hashed once and shared.
        memo, items, insert = DeltaMemo(), make_items(8), {"zzz-new": b"fresh"}
        behind, honest = make_store(items, memo), make_store(items, memo)
        behind.tree.update_values(self.U)
        honest.apply(self.U, batch=1)
        assert behind.root == honest.root
        expected = MerkleTree({**items, **self.U, **insert}).root
        for store in (behind, honest) if behind_first else (honest, behind):
            assert store.preview_root(insert) == expected
        assert len(memo) == 2  # the update and the insert

    def test_refused_batch_number_leaves_the_store_untouched(self):
        store = make_store(make_items(4))
        store.apply({"key-001": b"x"}, batch=5)
        root = store.root
        with pytest.raises(ValueError):
            store.apply({"key-002": b"y"}, batch=5)
        assert store.root == root
        assert verify_proof(root, "key-002", b"value-2", store.tree.prove("key-002"))


class ReferenceStore:
    """``MerkleStore`` semantics with nothing reused.

    The tree is rebuilt from scratch over ``leaves`` after every step, and
    reverse deltas come from the reference walk above.
    """

    def __init__(self, items: dict) -> None:
        self.leaves = dict(items)
        self.tree = MerkleTree(self.leaves)
        self.archive = MerkleTreeArchive()
        self.archive.reset(NO_BATCH)

    def preview_root(self, updates: dict) -> bytes:
        return MerkleTree({**self.leaves, **updates}).root

    def apply(self, updates: dict, batch: int) -> bytes:
        if self.tree.covers(updates):
            self.archive.record_delta(batch, capture_paths(self.tree, updates))
        else:
            self.archive.record_tree(batch, self.tree)
        self.write(updates)
        return self.tree.root

    def write(self, updates: dict) -> None:
        self.leaves.update(updates)
        self.tree = MerkleTree(self.leaves)


KEYS = sorted(make_items(11)) + ["new-a", "new-b", "new-c"]
updates_strategy = st.dictionaries(
    st.sampled_from(KEYS), st.binary(min_size=1, max_size=2), min_size=1, max_size=4
)


class PreparedUpdateMachine(RuleBasedStateMachine):
    """Random preview / apply / insert / write-behind runs.

    Update sets come from a bundle, so the same set is previewed, applied and
    applied again in every order — *preview U, apply V, apply U* and
    *preview U, insert, apply U* included.  Three stores share one small
    delta memo, as the members of a cluster do: every step is taken by all
    of them (a preview by some of them), so the first to look a write-set up
    hashes it and the others find it — or, once the memo evicted it, hash it
    again.  A write behind the stores' back is one more write to the tree,
    which a later insert keeps.
    """

    update_sets = Bundle("update_sets")

    def __init__(self) -> None:
        super().__init__()
        self.memo = DeltaMemo(budget=32)
        self.stores = [make_store(make_items(11), self.memo) for _ in range(3)]
        self.reference = ReferenceStore(make_items(11))
        self.batch = 0
        self.previewed = None
        # Root -> (tree, leaves) of every state the stores held: what each
        # memo entry must have been hashed from.
        self.states = {}
        self.record_state()

    def record_state(self) -> None:
        reference = self.reference
        self.states[reference.tree.root] = (reference.tree, dict(reference.leaves))

    @rule(target=update_sets, updates=updates_strategy)
    def new_update_set(self, updates):
        return updates

    @rule(updates=update_sets, which=st.sets(st.integers(0, 2), min_size=1))
    def preview(self, updates, which):
        expected = self.reference.preview_root(updates)
        for index in sorted(which):
            assert self.stores[index].preview_root(dict(updates)) == expected
        self.previewed = updates

    @precondition(lambda self: self.previewed is not None)
    @rule()
    def apply_what_was_previewed(self):
        # What a replica does at delivery — after anything else has happened.
        self.apply(self.previewed)

    @rule(updates=update_sets)
    def apply(self, updates):
        self.batch += 1
        expected = self.reference.apply(updates, self.batch)
        for store in self.stores:
            assert store.apply(dict(updates), batch=self.batch) == expected
        self.record_state()

    @rule(updates=update_sets)
    def write_behind_the_stores_back(self, updates):
        existing = {key: value for key, value in updates.items() if key in self.reference.tree}
        if existing:
            for store in self.stores:
                store.tree.update_values(existing)
            self.reference.write(existing)
            self.record_state()

    @invariant()
    def indistinguishable_from_the_reference(self):
        reference = self.reference
        expected_records = [
            (r.batch, r.delta, r.tree and r.tree.root) for r in reference.archive._records
        ]
        for store in self.stores:
            assert store.root == reference.tree.root
            assert store.tree.keys() == reference.tree.keys()
            for key in reference.tree.keys():
                assert store.tree.prove(key) == reference.tree.prove(key)
            records = [(r.batch, r.delta, r.tree and r.tree.root) for r in store.archive._records]
            assert records == expected_records
        for batch in range(NO_BATCH, self.batch + 1):
            for key in ("key-000", "key-010", "new-a"):
                expected = reference_prove_at(reference, key, batch)
                for store in self.stores:
                    assert self._prove_at(store, key, batch) == expected

    @invariant()
    def memo_entries_are_pristine_and_never_owned(self):
        shared = set()
        for (root, items), entry in self.memo._entries.items():
            tree, leaves = self.states[root]
            updates = dict(items)
            if entry.rebuilt is None:
                assert entry.overlay == tree.path_overlay(updates)
                shared.update(map(id, entry.overlay))
            else:
                rebuilt = MerkleTree({**leaves, **updates})
                assert (entry.rebuilt.keys(), entry.rebuilt._levels) == (rebuilt.keys(), rebuilt._levels)
                shared.update(map(id, [entry.rebuilt, *entry.rebuilt._levels]))
        for store in self.stores:
            owned = [store.tree, *store.tree._levels]
            for record in store.archive._records:
                owned += record.delta or [record.tree, *record.tree._levels]
            assert not shared.intersection(map(id, owned))

    @staticmethod
    def _prove_at(store, key, batch):
        try:
            return store.prove_at(key, batch)
        except ProofError:
            return None


def reference_prove_at(reference: ReferenceStore, key: str, batch: int):
    try:
        return reference.archive.prove_at(key, batch, reference.tree)
    except ProofError:
        return None


PreparedUpdateMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=14, deadline=None, derandomize=True
)
TestPreparedUpdateMachine = PreparedUpdateMachine.TestCase
