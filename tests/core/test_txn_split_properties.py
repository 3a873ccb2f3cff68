"""The split a transaction keeps of its key sets equals the closed forms.

``TxnPayload`` groups its reads and writes by partition once and answers
every accessor from that; the reference here is what each accessor computed
on every call at the parent commit (``HashPartitioner.local_keys`` /
``partitions_of`` and the two dict comprehensions, kept test-local now that
the split made them unused).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occ import Footprint
from repro.core.transaction import TxnPayload
from repro.storage.partitioner import HashPartitioner

KEYS = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def transactions(draw):
    reads = draw(st.dictionaries(KEYS, st.integers(-1, 9), max_size=6))
    writes = draw(st.dictionaries(KEYS, st.binary(max_size=2), min_size=0 if reads else 1, max_size=6))
    return TxnPayload(txn_id="t", reads=reads, writes=writes, client="c")


def assert_split_is_the_closed_form(txn: TxnPayload, partitioner: HashPartitioner) -> None:
    placed = partitioner.partition_of
    assert txn.partitions(partitioner) == frozenset(placed(key) for key in txn.keys())
    assert txn.is_distributed(partitioner) == (len({placed(key) for key in txn.keys()}) > 1)
    for partition in range(partitioner.num_partitions):
        reads = {key: v for key, v in txn.reads.items() if placed(key) == partition}
        writes = {key: v for key, v in txn.writes.items() if placed(key) == partition}
        assert txn.reads_in(partition, partitioner) == reads
        assert txn.writes_in(partition, partitioner) == writes
        # ... in the transaction's own key order:
        assert list(txn.reads_in(partition, partitioner)) == list(reads)
        assert list(txn.writes_in(partition, partitioner)) == list(writes)
        assert txn.read_keys_in(partition, partitioner) == frozenset(reads)
        assert txn.write_keys_in(partition, partitioner) == frozenset(writes)
        assert Footprint.of(txn, partition, partitioner) == Footprint(
            reads=frozenset(reads), writes=frozenset(writes)
        )


@settings(max_examples=60, deadline=None)
@given(transactions(), st.integers(1, 7), st.integers(1, 7))
def test_every_split_accessor_equals_its_closed_form(txn, small, large):
    first, second = HashPartitioner(small), HashPartitioner(large)
    # Two deployments of different size asked alternately: the answer kept
    # for one must never be served to the other.
    for partitioner in (first, second, first, second):
        assert_split_is_the_closed_form(txn, partitioner)


@settings(max_examples=40, deadline=None)
@given(transactions(), st.dictionaries(KEYS, st.binary(max_size=2), min_size=1, max_size=6), st.integers(1, 7))
def test_replace_starts_from_the_new_fields(txn, writes, partitions):
    partitioner = HashPartitioner(partitions)
    assert_split_is_the_closed_form(txn, partitioner)
    txn.encoded  # and the canonical bytes
    replaced = dataclasses.replace(txn, writes=writes)
    assert_split_is_the_closed_form(replaced, partitioner)
    assert replaced.encoded.data == TxnPayload("t", txn.reads, writes, "c").encoded.data


def test_a_single_partition_transaction_shares_its_own_mappings():
    partitioner = HashPartitioner(1)
    txn = TxnPayload(txn_id="t", reads={"a": 1}, writes={"b": b"x", "c": b"y"})
    assert txn.reads_in(0, partitioner) is txn.reads
    assert txn.writes_in(0, partitioner) is txn.writes
