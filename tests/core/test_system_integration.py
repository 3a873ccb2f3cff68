"""End-to-end integration tests of the full TransEdge system.

These tests drive complete deployments (clusters + clients over the
simulated network) through the public API and check protocol-level
behaviour: commitment of local and distributed transactions, conflict
aborts, the snapshot read-only protocol (including the Figure-1 anomaly the
CD vectors exist to prevent), byzantine responses, and serializability of
observed histories.
"""

from __future__ import annotations

import gc

import pytest

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.common.ids import NO_BATCH
from repro.common.types import TxnStatus
from repro.core.messages import ReadOnlyReply
from repro.core.system import TransEdgeSystem
from repro.bft.byzantine import make_value_tamperer
from repro.crypto.merkle import MerkleProof, ProofStep
from repro.simnet.faults import FaultRule
from repro.verification.history import ExecutionHistory, version_order_from_system


def make_system(num_partitions=2, f=1, initial_keys=64, **config_kwargs):
    config_kwargs.setdefault("latency", LatencyConfig(jitter_fraction=0.0))
    config_kwargs.setdefault("batch", BatchConfig(max_size=20, timeout_ms=2.0))
    config = SystemConfig(
        num_partitions=num_partitions,
        fault_tolerance=f,
        initial_keys=initial_keys,
        **config_kwargs,
    )
    return TransEdgeSystem(config)


def run_transactions(system, client, bodies):
    """Spawn one process per body and run the simulation to completion."""
    processes = [client.spawn(body) for body in bodies]
    system.run_until_idle()
    return [process.result for process in processes]


class TestLocalTransactions:
    def test_local_write_only_commits(self):
        system = make_system()
        client = system.create_client("c1")
        key = system.keys_of_partition(0)[0]
        results = []

        def body():
            result = yield from client.read_write_txn([], {key: b"updated"})
            results.append(result)

        run_transactions(system, client, [body()])
        assert results[0].status is TxnStatus.COMMITTED
        assert results[0].commit_batch >= 0
        # The write is visible on every replica of the owning cluster.
        for replica in system.cluster_replicas(0):
            assert replica.store.latest(key).value == b"updated"

    def test_local_read_write_commits_and_bumps_version(self):
        system = make_system()
        client = system.create_client("c1")
        keys = system.keys_of_partition(0)[:2]
        results = []

        def body():
            result = yield from client.read_write_txn([keys[0]], {keys[1]: b"x"})
            results.append(result)

        run_transactions(system, client, [body()])
        assert results[0].committed
        leader = system.leader_replica(0)
        assert leader.store.version_of(keys[1]) == results[0].commit_batch

    def test_sequential_transactions_from_one_client_all_commit(self):
        system = make_system()
        client = system.create_client("c1")
        keys = system.keys_of_partition(0)[:5]
        outcomes = []

        def body():
            for index, key in enumerate(keys):
                result = yield from client.read_write_txn([], {key: f"v{index}".encode()})
                outcomes.append(result.status)

        run_transactions(system, client, [body()])
        assert outcomes == [TxnStatus.COMMITTED] * len(keys)

    def test_stale_read_aborts(self):
        system = make_system()
        client = system.create_client("c1")
        key = system.keys_of_partition(0)[0]
        results = []

        def body():
            # Read the key, let another transaction overwrite it, then try to
            # commit using the stale version.
            first = yield from client.read_write_txn([key], {key: b"first"})
            results.append(first)
            # Manually build a stale transaction: read version NO_BATCH (the
            # preloaded version) even though "first" already overwrote it.
            from repro.core.messages import CommitRequest
            from repro.core.transaction import TxnPayload
            from repro.simnet.proc import Call

            stale = TxnPayload(
                txn_id=client.next_txn_id(),
                reads={key: NO_BATCH},
                writes={key: b"stale-write"},
                client=client.name,
            )
            reply = yield Call(
                system.topology.leader(0), CommitRequest(txn=stale), timeout_ms=10_000
            )
            results.append(reply)

        run_transactions(system, client, [body()])
        assert results[0].committed
        assert results[1].status is TxnStatus.ABORTED
        assert "stale" in results[1].abort_reason


class TestDistributedTransactions:
    def test_distributed_transaction_commits_on_all_partitions(self):
        system = make_system()
        client = system.create_client("c1")
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        results = []

        def body():
            result = yield from client.read_write_txn([], {key0: b"d0", key1: b"d1"})
            results.append(result)

        run_transactions(system, client, [body()])
        assert results[0].committed
        assert system.leader_replica(0).store.latest(key0).value == b"d0"
        assert system.leader_replica(1).store.latest(key1).value == b"d1"
        # Both clusters recorded a commit record for the transaction.
        counters = system.counters()
        assert counters.distributed_committed >= 1

    def test_a_deployment_on_rsa_signatures_commits_and_serves_verified_reads(self):
        # ``crypto_backend`` is a capability, not an estimate: the same
        # protocol over real asymmetric signatures instead of the HMAC stand-in.
        system = make_system(crypto_backend="rsa", initial_keys=32)
        assert all(
            replica.signer.scheme == "rsa" for replica in system.replicas.values()
        )
        client = system.create_client("c1")
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        results = []

        def body():
            results.append(
                (yield from client.read_write_txn([], {key0: b"d0", key1: b"d1"}))
            )
            results.append((yield from client.read_only_txn([key0, key1])))

        run_transactions(system, client, [body()])
        assert results[0].committed
        assert results[1].verified
        assert results[1].values == {key0: b"d0", key1: b"d1"}

    def test_conflicting_concurrent_distributed_transactions_one_aborts(self):
        system = make_system()
        client_a = system.create_client("alice")
        client_b = system.create_client("bob")
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        results = {}

        def body(client, tag):
            result = yield from client.read_write_txn([], {key0: tag.encode(), key1: tag.encode()})
            results[tag] = result

        process_a = client_a.spawn(body(client_a, "a"))
        process_b = client_b.spawn(body(client_b, "b"))
        system.run_until_idle()
        statuses = {tag: result.status for tag, result in results.items()}
        committed = [tag for tag, status in statuses.items() if status is TxnStatus.COMMITTED]
        # Conflicting concurrent writers can never both commit; with opposite
        # coordinators optimistic validation may abort both, which is safe.
        assert len(committed) <= 1
        # Final state is consistent across partitions regardless of outcome.
        value0 = system.leader_replica(0).store.latest(key0).value
        value1 = system.leader_replica(1).store.latest(key1).value
        if committed:
            winner = committed[0].encode()
            assert value0 == winner and value1 == winner
        else:
            assert value0 == system.initial_data[key0]
            assert value1 == system.initial_data[key1]

    def test_distributed_transactions_over_three_partitions(self):
        system = make_system(num_partitions=3)
        client = system.create_client("c1")
        keys = [system.keys_of_partition(p)[0] for p in range(3)]
        results = []

        def body():
            result = yield from client.read_write_txn(
                [keys[0]], {keys[1]: b"v1", keys[2]: b"v2"}
            )
            results.append(result)

        run_transactions(system, client, [body()])
        assert results[0].committed
        for partition, key in enumerate(keys[1:], start=1):
            assert system.leader_replica(partition).store.latest(key).value is not None

    def test_interleaved_local_and_distributed_transactions(self):
        system = make_system()
        client = system.create_client("c1")
        local_key = system.keys_of_partition(0)[5]
        d_key0 = system.keys_of_partition(0)[6]
        d_key1 = system.keys_of_partition(1)[5]
        statuses = []

        def body():
            for i in range(3):
                local = yield from client.read_write_txn([], {local_key: f"l{i}".encode()})
                distributed = yield from client.read_write_txn(
                    [], {d_key0: f"d{i}".encode(), d_key1: f"d{i}".encode()}
                )
                statuses.extend([local.status, distributed.status])

        run_transactions(system, client, [body()])
        assert all(status is TxnStatus.COMMITTED for status in statuses)


class TestReadOnlyTransactions:
    def test_single_partition_read_only_is_one_round(self):
        system = make_system()
        client = system.create_client("c1")
        keys = system.keys_of_partition(0)[:3]
        results = []

        def body():
            result = yield from client.read_only_txn(keys)
            results.append(result)

        run_transactions(system, client, [body()])
        result = results[0]
        assert result.rounds == 1
        assert result.verified
        assert set(result.values) == set(keys)

    def test_read_only_sees_committed_writes(self):
        system = make_system()
        client = system.create_client("c1")
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        results = []

        def body():
            commit = yield from client.read_write_txn([], {key0: b"fresh0", key1: b"fresh1"})
            snapshot = yield from client.read_only_txn([key0, key1])
            results.extend([commit, snapshot])

        run_transactions(system, client, [body()])
        snapshot = results[1]
        assert snapshot.verified
        assert snapshot.values[key0] == b"fresh0"
        assert snapshot.values[key1] == b"fresh1"

    def test_figure1_anomaly_is_prevented(self):
        """Concurrent x/y co-writes must never be observed mixed (Figure 1)."""
        system = make_system(initial_keys=32)
        writer = system.create_client("writer")
        reader = system.create_client("reader")
        x = system.keys_of_partition(0)[0]
        y = system.keys_of_partition(1)[0]
        history = ExecutionHistory(initial_data=system.initial_data)
        snapshots = []

        def writer_body():
            for i in range(8):
                value = f"pair-{i}".encode()
                result = yield from writer.read_write_txn([], {x: value, y: value})
                if result.committed:
                    history.record_commit(result.txn_id, {}, {x: value, y: value})

        def reader_body():
            for _ in range(16):
                snapshot = yield from reader.read_only_txn([x, y])
                snapshots.append(snapshot)
                history.record_read_only(snapshot.txn_id, snapshot.values, snapshot.versions)

        writer.spawn(writer_body())
        reader.spawn(reader_body())
        system.run_until_idle()

        assert snapshots, "reader never completed"
        # The pair must always be observed atomically: both keys from the same
        # writing transaction (or both initial).
        history.check_atomic_visibility([{x, y}])
        history.check_read_only_values()
        history.check_serializable(version_order_from_system(system))

    def test_read_only_never_aborts_read_write(self):
        system = make_system(initial_keys=32)
        writer = system.create_client("writer")
        reader = system.create_client("reader")
        keys0 = system.keys_of_partition(0)[:4]
        keys1 = system.keys_of_partition(1)[:4]
        commit_statuses = []

        def writer_body():
            for i in range(10):
                writes = {keys0[i % 4]: f"w{i}".encode(), keys1[i % 4]: f"w{i}".encode()}
                result = yield from writer.read_write_txn([], writes)
                commit_statuses.append(result.status)

        def reader_body():
            for _ in range(20):
                yield from reader.read_only_txn(keys0[:2] + keys1[:2])

        writer.spawn(writer_body())
        reader.spawn(reader_body())
        system.run_until_idle()
        # Non-interference: the read-only stream causes no read-write aborts.
        assert all(status is TxnStatus.COMMITTED for status in commit_statuses)
        assert system.counters().lock_interference_aborts == 0

    def test_byzantine_read_only_response_is_detected_and_retried(self):
        system = make_system()
        client = system.create_client("c1")
        keys = system.keys_of_partition(0)[:2]
        leader_id = system.topology.leader(0)

        def corrupt(message):
            for key in list(message.values):
                message.values[key] = b"forged-by-byzantine-node"
            return message

        make_value_tamperer(system.fault_injector, leader_id, ReadOnlyReply, corrupt)
        results = []

        def body():
            result = yield from client.read_only_txn(keys)
            results.append(result)

        run_transactions(system, client, [body()])
        result = results[0]
        # The forged response was detected and another replica supplied a
        # verifiable one.
        assert client.stats.read_only_verification_failures >= 1
        assert result.verified
        for key in keys:
            assert result.values[key] != b"forged-by-byzantine-node"

    @pytest.mark.parametrize(
        "steps",
        [5, (3,), (ProofStep(sibling=None, sibling_is_left=True),)],
        ids=["steps-an-int", "step-an-int", "sibling-none"],
    )
    def test_malformed_proof_is_one_failed_verification(self, steps):
        """A proof of the right class with insides of the wrong shape used to
        raise out of ``verify_proof``; now the client asks the next member."""
        system = make_system()
        client = system.create_client("c1")
        keys = system.keys_of_partition(0)[:2]

        def corrupt(message):
            for key, proof in message.proofs.items():
                message.proofs[key] = MerkleProof(key=proof.key, steps=steps)
            return message

        make_value_tamperer(
            system.fault_injector, system.topology.leader(0), ReadOnlyReply, corrupt
        )
        results = []

        def body():
            results.append((yield from client.read_only_txn(keys)))

        run_transactions(system, client, [body()])
        assert client.stats.read_only_verification_failures >= 1
        assert results[0].verified
        assert all(results[0].values[key] == system.initial_data[key] for key in keys)

    def test_read_only_with_unwritten_keys_is_handled(self):
        system = make_system()
        client = system.create_client("c1")
        keys = [system.keys_of_partition(0)[0]]
        results = []

        def body():
            result = yield from client.read_only_txn(keys)
            results.append(result)

        run_transactions(system, client, [body()])
        assert results[0].values[keys[0]] == system.initial_data[keys[0]]


def unreachable_repro_types(drive):
    """Types of the unreachable ``repro`` objects ``drive()`` leaves behind.

    ``drive`` builds a deployment, runs it to idle and returns it, so the
    deployment stays reachable while everything its run is done with is
    garbage.  The cyclic collector is off meanwhile: what reference counting
    does not free, the collection after the run finds.
    """
    gc.collect()
    gc.disable()
    try:
        system = drive()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert system is not None
        return sorted(
            {type(found).__qualname__ for found in gc.garbage if type(found).__module__.startswith("repro.")}
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestNoCyclicGarbage:
    """A fault-free run to idle leaves nothing for the cyclic collector.

    Finished waits, fired and cancelled timers release what they hold: every
    reply, proof and process the run is done with dies by reference counting.
    This is what lets ``Simulator.run`` collect rarely (``RUN_GC_THRESHOLD``).
    """

    def test_a_run_to_idle_leaves_nothing_for_the_cyclic_collector(self):
        # Snapshot reads beside 2PC commits: the ``ro_snapshot`` shape.
        def drive():
            system = make_system(num_partitions=3)
            client = system.create_client("c1")
            keys = [system.keys_of_partition(partition)[:4] for partition in range(3)]

            def reader(index):
                yield from client.read_only_txn([keys[p][index] for p in range(3)])

            def writer(index):
                yield from client.read_write_txn(
                    [keys[0][index]], {keys[1][index]: b"w", keys[2][index]: b"w"}
                )

            results = run_transactions(
                system, client, [body(i) for i in range(4) for body in (reader, writer)]
            )
            assert len(results) == 8
            return system

        assert unreachable_repro_types(drive) == []

    def test_a_stream_of_local_write_only_transactions(self):
        # The ``local_write`` shape: batches of blind writes to one cluster.
        def drive():
            system = make_system(num_partitions=1)
            clients = [system.create_client(f"c{i}") for i in range(4)]
            keys = system.keys_of_partition(0)
            statuses = []

            def writer(client, index):
                for round_ in range(3):
                    result = yield from client.read_write_txn(
                        [], {keys[4 * round_ + index]: b"w%d" % round_}
                    )
                    statuses.append(result.status)

            for index, client in enumerate(clients):
                client.spawn(writer(client, index))
            system.run_until_idle()
            assert statuses == [TxnStatus.COMMITTED] * 12
            return system

        assert unreachable_repro_types(drive) == []

    def test_conflicting_writers_of_which_one_aborts(self):
        # Two read-modify-writes of one key: OCC commits one and aborts the other.
        def drive():
            system = make_system()
            key = system.keys_of_partition(0)[0]
            statuses = []

            def writer(client):
                result = yield from client.read_write_txn([key], {key: client.name.encode()})
                statuses.append(result.status)

            for name in ("a", "b"):
                client = system.create_client(name)
                client.spawn(writer(client))
            system.run_until_idle()
            assert sorted(status.value for status in statuses) == ["aborted", "committed"]
            return system

        assert unreachable_repro_types(drive) == []


class TestBaselineProtocols:
    def test_read_only_as_regular_transaction_commits_and_is_slower(self):
        system = make_system()
        client = system.create_client("c1")
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        results = {}

        def body():
            fast = yield from client.read_only_txn([key0, key1])
            slow = yield from client.read_only_as_regular_txn([key0, key1])
            results["transedge"] = fast
            results["2pc-bft"] = slow

        run_transactions(system, client, [body()])
        assert results["2pc-bft"].verified
        assert results["transedge"].latency_ms < results["2pc-bft"].latency_ms

    def test_augustus_read_only_interferes_with_writes(self):
        # Keep locks held long enough to collide with writer commits by using
        # wide-area latency between client and clusters.
        system = make_system(
            initial_keys=16,
            latency=LatencyConfig(
                jitter_fraction=0.0, client_to_cluster_ms=10.0, inter_cluster_ms=10.0
            ),
        )
        reader = system.create_client("augustus-reader")
        writer = system.create_client("writer")
        keys0 = system.keys_of_partition(0)[:2]
        keys1 = system.keys_of_partition(1)[:2]
        statuses = []

        def reader_body():
            for _ in range(30):
                yield from reader.augustus_read_only_txn(keys0 + keys1)

        def writer_body():
            for i in range(30):
                result = yield from writer.read_write_txn(
                    [], {keys0[0]: f"w{i}".encode(), keys1[0]: f"w{i}".encode()}
                )
                statuses.append(result.status)

        reader.spawn(reader_body())
        writer.spawn(writer_body())
        system.run_until_idle()
        aborted = [status for status in statuses if status is TxnStatus.ABORTED]
        assert system.counters().lock_interference_aborts > 0
        assert aborted, "expected at least one write aborted by Augustus read locks"


class TestSerializabilityUnderLoad:
    def test_random_mixed_workload_is_serializable(self):
        system = make_system(num_partitions=3, initial_keys=24)
        history = ExecutionHistory(initial_data=system.initial_data)
        clients = [system.create_client(f"c{i}") for i in range(3)]
        keys = sorted(system.initial_data)

        def body(client, offset):
            import random

            rng = random.Random(offset)
            for i in range(12):
                if rng.random() < 0.4:
                    chosen = rng.sample(keys, 3)
                    snapshot = yield from client.read_only_txn(chosen)
                    history.record_read_only(snapshot.txn_id, snapshot.values, snapshot.versions)
                else:
                    target = rng.sample(keys, 2)
                    value = f"{client.name}-{i}".encode()
                    writes = {key: value for key in target}
                    result = yield from client.read_write_txn([], writes)
                    if result.committed:
                        history.record_commit(result.txn_id, {}, writes)

        for index, client in enumerate(clients):
            client.spawn(body(client, index))
        system.run_until_idle()

        assert history.committed, "no transaction committed"
        assert history.read_only, "no read-only transaction completed"
        history.check_read_only_values()
        history.check_serializable(version_order_from_system(system))
