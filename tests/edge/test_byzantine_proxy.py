"""Byzantine edge proxies can only be caught, never believed.

Each behaviour from :mod:`repro.edge.byzantine` runs against a client that
re-reads a fixed key set while a writer keeps both partitions' certified
headers fresh.  In every case the client must (a) blacklist the proxy after
a verification failure, (b) never accept a wrong snapshot as verified, and
(c) finish the run on correct core-served reads.
"""

from __future__ import annotations

import itertools

import pytest

from repro.common.config import (
    BatchConfig,
    EdgeConfig,
    FreshnessConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.common.errors import VerificationError
from repro.core.system import TransEdgeSystem
from repro.edge.byzantine import BEHAVIOURS, install_byzantine
from repro.simnet.proc import Sleep
from repro.verification.history import ExecutionHistory, version_order_from_system


def run_scenario(behaviour_name: str, reads: int = 20):
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=64,
        batch=BatchConfig(max_size=8, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        freshness=FreshnessConfig(client_staleness_bound_ms=40.0),
        edge=EdgeConfig(enabled=True, num_proxies=1),
    )
    system = TransEdgeSystem(config)
    behaviour = install_byzantine(system.proxies[0], behaviour_name)
    history = ExecutionHistory(system.initial_data)
    reader = system.create_client("reader")
    writer = system.create_client("writer", edge_proxies=())
    read_keys = sorted(system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2])
    write_keys = [system.keys_of_partition(0)[0], system.keys_of_partition(1)[0]]
    results = []

    def reader_body():
        yield Sleep(60.0)  # let the writer freshen both partitions first
        for _ in range(reads):
            yield Sleep(5.0)
            result = yield from reader.read_only_txn(read_keys)
            results.append(result)
            if result.verified:
                history.record_read_only(result.txn_id, result.values, result.versions)

    def writer_body():
        counter = itertools.count()
        for _ in range(reads * 2):
            yield Sleep(2.5)
            stamp = next(counter)
            writes = {
                key: f"byz-{stamp}-{position}".encode()
                for position, key in enumerate(write_keys)
            }
            outcome = yield from writer.read_write_txn([], writes)
            if outcome.committed:
                history.record_commit(outcome.txn_id, {}, writes)

    reader.spawn(reader_body())
    writer.spawn(writer_body())
    system.run_until_idle()
    return system, reader, history, results, behaviour


@pytest.mark.parametrize("behaviour_name", sorted(BEHAVIOURS))
def test_byzantine_proxy_is_caught_and_blacklisted(behaviour_name):
    system, reader, history, results, behaviour = run_scenario(behaviour_name)

    # The proxy got caught: at least one verification failure, then exile.
    assert reader.stats.edge_verification_failures >= 1
    assert len(reader.edge_router.blacklisted()) == 1
    assert reader.edge_router.pick() is None

    # Every completed read ends verified: the failed edge attempt falls back
    # to a direct core round within the same transaction.
    assert results, "no reads completed"
    for result in results:
        assert result.verified
    # The blacklist landed mid-run, so the tail of the run is core-served.
    assert not results[-1].served_by_edge

    # No accepted (verified=True) result contradicts the committed history:
    # the byzantine proxy was caught, never believed.  (The writer keeps
    # running, so "correct" means a value some committed transaction wrote
    # at a serializable point — not necessarily the newest one.)
    history.check_read_only_values()
    history.check_serializable(version_order_from_system(system))
    assert results[-1].verified


def test_tampered_value_never_accepted():
    _, reader, _, results, behaviour = run_scenario("tampered-value")
    # Every tampered reply failed verification: zero edge-served reads.
    assert behaviour.mutations >= 1
    assert reader.stats.edge_reads_served == 0
    assert all(not result.served_by_edge for result in results)


def test_stale_header_served_within_bound_then_caught():
    _, reader, history, results, behaviour = run_scenario("stale-header")
    # The replayed (genuinely certified) snapshot passes while inside the
    # freshness bound — bounded staleness, not an accepted lie ...
    assert behaviour.replays >= 1
    # ... and is rejected once it ages past the bound.
    assert reader.stats.edge_verification_failures >= 1
    assert len(reader.edge_router.blacklisted()) == 1


def test_history_check_rejects_fabricated_observation():
    """Sanity-check the oracle itself: a value nobody wrote must be flagged."""
    system, _, history, results, _ = run_scenario("tampered-value", reads=5)
    history.record_read_only(
        "forged", {list(results[-1].values)[0]: b"never-written"}, {}
    )
    with pytest.raises(VerificationError):
        history.check_read_only_values()


class OmittedKeyBehaviour:
    """Withhold one requested key per section (a fabricated absence)."""

    name = "omitted-key"

    def __init__(self):
        self.omissions = 0

    def mutate(self, proxy, request, sections):
        import copy

        mutated = copy.deepcopy(sections)
        for section in mutated.values():
            for key in sorted(section.values):
                del section.values[key]
                section.versions.pop(key, None)
                section.proofs.pop(key, None)
                self.omissions += 1
                break
        return mutated


def test_omitted_key_is_never_believed():
    """Absence carries no proof, so a withheld key must never be accepted:
    the client falls back and the direct read supplies the real value."""
    from repro.common.config import BatchConfig, EdgeConfig, LatencyConfig, SystemConfig
    from repro.core.system import TransEdgeSystem

    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=64,
            batch=BatchConfig(max_size=8, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            edge=EdgeConfig(enabled=True, num_proxies=1),
        )
    )
    behaviour = OmittedKeyBehaviour()
    system.proxies[0].behaviour = behaviour
    reader = system.create_client("reader")
    writer = system.create_client("writer", edge_proxies=())
    keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]

    out = []

    def writes():
        for key in keys:
            result = yield from writer.read_write_txn([], {key: b"real-" + key.encode()})
            assert result.committed

    def reads():
        for _ in range(3):
            result = yield from reader.read_only_txn(keys)
            out.append(result)

    writer.spawn(writes())
    system.run_until_idle()
    reader.spawn(reads())
    system.run_until_idle()

    assert behaviour.omissions > 0
    for result in out:
        assert result.verified
        assert not result.served_by_edge  # the incomplete reply was rejected
        for key in keys:
            assert result.values[key] == b"real-" + key.encode()
    assert reader.stats.edge_fallbacks == 3


def test_idle_partition_staleness_does_not_blacklist_honest_proxy():
    """A freshness-bound failure caused by the *cluster's* idleness is not
    byzantine evidence: the direct read serves the same old header, so the
    proxy stays in rotation (the stale-replay attack is distinguished by the
    core being materially ahead — covered by the stale-header scenario)."""
    from repro.common.config import (
        BatchConfig,
        EdgeConfig,
        FreshnessConfig,
        LatencyConfig,
        SystemConfig,
    )
    from repro.core.system import TransEdgeSystem

    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=64,
            batch=BatchConfig(max_size=8, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            freshness=FreshnessConfig(client_staleness_bound_ms=10.0),
            edge=EdgeConfig(enabled=True, num_proxies=1),
        )
    )
    reader = system.create_client("reader")
    keys = system.keys_of_partition(0)[:2]
    out = []

    def reads():
        # The deployment is idle: every partition's newest header is the
        # genesis batch, far older than the 10 ms bound by the time the
        # bootstrap settles.
        result = yield from reader.read_only_txn(keys)
        out.append(result)

    reader.spawn(reads())
    system.run_until_idle()

    assert len(out) == 1
    assert reader.stats.edge_verification_failures >= 1
    # Honest proxy: not blacklisted, still in rotation for the next read.
    assert reader.edge_router.blacklisted() == frozenset()
    assert reader.edge_router.pick() is not None
