"""The copy-on-write store answers exactly as an eagerly materialised one.

``MultiVersionStore(initial)`` keeps ``initial`` as a shared base layer and
gives a key its own version chain only on its first write.  The reference
here materialises every chain up front, the way the constructor used to, and
both are driven through the same random history.
"""

from __future__ import annotations

from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StorageError, UnknownKeyError
from repro.common.ids import NO_BATCH
from repro.storage.mvstore import MultiVersionStore

BASE_KEYS = [f"base-{i}" for i in range(6)]
NEW_KEYS = [f"new-{i}" for i in range(4)]
UNIVERSE = BASE_KEYS + NEW_KEYS + ["never-written"]


def eager_store(initial) -> MultiVersionStore:
    """Reference: one ``[NO_BATCH]`` chain per preloaded key from the start."""
    store = MultiVersionStore()
    store.preload(initial)
    return store


def outcome(call):
    try:
        return call()
    except (StorageError, UnknownKeyError) as error:
        return type(error)


def observe(store: MultiVersionStore, horizon: int):
    """Every answer the store can give, dict orders included."""
    batches = range(NO_BATCH - 1, horizon + 2)
    return {
        "keys": list(store.keys()),
        "len": len(store),
        "contains": [key in store for key in UNIVERSE],
        "latest": [outcome(lambda: store.latest(key)) for key in UNIVERSE],
        "get": [store.get(key) for key in UNIVERSE],
        "version_of": [store.version_of(key) for key in UNIVERSE],
        "history": [outcome(lambda: store.history(key)) for key in UNIVERSE],
        "as_of": [[store.as_of(key, batch) for batch in batches] for key in UNIVERSE],
        "snapshot_image": [list(store.snapshot_image(batch).items()) for batch in batches],
        "snapshot_as_of": [list(store.snapshot_as_of(batch).items()) for batch in batches],
        "snapshot_latest": list(store.snapshot_latest().items()),
        "total_versions": store.total_versions(),
        "max_chain_length": store.max_chain_length(),
    }


writes = st.dictionaries(
    st.sampled_from(BASE_KEYS + NEW_KEYS), st.binary(max_size=4), min_size=1, max_size=4
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), writes, st.integers(min_value=-1, max_value=2)),
        st.tuples(st.just("prune"), st.integers(min_value=-2, max_value=12)),
    ),
    max_size=12,
)


class TestCopyOnWriteEqualsEager:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=len(BASE_KEYS)), operations)
    def test_same_answers_through_a_random_history(self, base_size, ops):
        initial = {key: key.encode() for key in BASE_KEYS[:base_size]}
        base = MappingProxyType(dict(initial))  # any write-through raises TypeError
        cow, eager = MultiVersionStore(base), eager_store(initial)
        batch = 0
        assert observe(cow, batch) == observe(eager, batch)
        for op in ops:
            if op[0] == "apply":
                # Steps of -1 go backwards (both must refuse), 0 rewrites the batch.
                batch = max(batch + op[2], NO_BATCH)
                assert outcome(lambda: cow.apply(op[1], batch)) == outcome(
                    lambda: eager.apply(op[1], batch)
                )
            else:
                assert cow.prune(op[1]) == eager.prune(op[1])
            assert observe(cow, batch) == observe(eager, batch)
        assert base == initial

        # A checkpoint image of either restores into an equal, base-less store.
        for at in (NO_BATCH, batch):
            restored, reference = MultiVersionStore(), MultiVersionStore()
            restored.restore_image(cow.snapshot_image(at))
            reference.restore_image(eager.snapshot_image(at))
            assert observe(restored, batch) == observe(reference, batch)

    def test_restore_image_refuses_a_store_that_only_has_a_base(self):
        store = MultiVersionStore({"a": b"1"})
        with pytest.raises(StorageError):
            store.restore_image({"b": (3, b"2")})

    def test_preload_refuses_a_key_of_the_base(self):
        store = MultiVersionStore({"a": b"1"})
        with pytest.raises(StorageError):
            store.preload({"a": b"2"})

    def test_two_stores_over_one_base_do_not_see_each_other(self):
        base = {"a": b"1", "b": b"2"}
        left, right = MultiVersionStore(base), MultiVersionStore(base)
        left.apply({"a": b"left", "fresh": b"x"}, batch=0)
        assert right.latest("a").value == b"1" and "fresh" not in right
        assert right.total_versions() == 2
        assert base == {"a": b"1", "b": b"2"}
