"""One admission refusal: Definition 3.1 first, then the Augustus read locks.

A leader refuses a transaction at three places — a client's
``CommitRequest``, a coordinator's ``CoordinatorPrepare`` and, re-checking
what it admitted, the batch it seals — and all three ask the same rule.  A
writer is charged to a read-only transaction's shared lock
(``lock_interference_aborts``, Table 1's Augustus row) only when no
Definition 3.1 conflict would have refused it; every refusal names its
reason, at seal time too.
"""

from __future__ import annotations

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.common.types import TxnStatus
from repro.core.batch import PreparedRecord
from repro.core.leader import LOCK_REFUSAL
from repro.core.messages import CommitRequest, CoordinatorPrepare
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload
from repro.storage.locks import LockMode


def make_system() -> TransEdgeSystem:
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    system.run_until_idle()  # genesis certified on both clusters
    return system


def test_a_lock_taken_after_admission_refuses_the_prepare_at_seal():
    system = make_system()
    client = system.create_client("writer")
    coordinator = client._coordinator_for([0, 1])
    first, second = system.keys_of_partition(coordinator)[:2]
    remote = system.keys_of_partition(1 - coordinator)[0]
    leader = system.leader_replica(coordinator)
    # An earlier writer of ``second`` whose batch is still in consensus: it
    # is in no conflict index, but its exclusive lock makes the new writer's
    # all-or-nothing lock acquisition fail, so ``first`` stays free.
    assert leader.locks.try_acquire("in-consensus", [second], LockMode.EXCLUSIVE)

    admit = leader.leader_role.on_commit_request

    def admit_then_lock(message, src):
        admit(message, src)
        assert leader.leader_role.in_progress_size() == 1
        # A read-only transaction locks the admitted writer's key before the seal.
        assert leader.locks.try_acquire("augustus-read", [first], LockMode.SHARED)

    leader.leader_role.on_commit_request = admit_then_lock
    results = []

    def body():
        writes = {first: b"a", second: b"b", remote: b"c"}
        results.append((yield from client.read_write_txn([], writes)))

    client.spawn(body())
    system.run_until_idle()

    (result,) = results
    assert result.status is TxnStatus.ABORTED
    assert result.abort_reason == LOCK_REFUSAL
    assert leader.counters.lock_interference_aborts == 1
    assert leader.counters.conflict_aborts == 0


def test_a_conflicting_locked_prepare_counts_as_a_conflict_like_a_commit_request():
    system = make_system()
    participant = system.leader_replica(1)
    key = system.keys_of_partition(1)[0]
    # The writer below both conflicts with a prepared transaction and hits a
    # read-only transaction's shared lock.
    pending = TxnPayload("pending", reads={}, writes={key: b"p"}, client="test")
    participant.prepared_batches.add_group(1, [PreparedRecord(txn=pending, coordinator=1)])
    assert participant.locks.try_acquire("augustus-read", [key], LockMode.SHARED)
    writes = {system.keys_of_partition(0)[0]: b"a", key: b"b"}
    counters = participant.counters

    prepare = CoordinatorPrepare(
        txn=TxnPayload("prepared-writer", reads={}, writes=writes, client="test"),
        coordinator=0,
        prepare_batch=0,
        header=system.leader_replica(0).last_header,
    )
    participant.leader_role.on_coordinator_prepare(prepare, system.topology.leader(0))
    assert (counters.conflict_aborts, counters.lock_interference_aborts) == (1, 0)

    client = system.create_client("requester")
    request = CommitRequest(txn=TxnPayload("requested-writer", writes=writes, client="test"))
    participant.leader_role.on_commit_request(request, client.node_id)
    assert (counters.conflict_aborts, counters.lock_interference_aborts) == (2, 0)
