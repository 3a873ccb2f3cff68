"""The unified cache accounting API (TransEdgeSystem.cache_snapshot)."""

from __future__ import annotations

import dataclasses

from repro.common.config import BatchConfig, EdgeConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.workload.generator import WorkloadGenerator, WorkloadProfile


def make_edge_system() -> TransEdgeSystem:
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        batch=BatchConfig(max_size=10, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        initial_keys=64,
        edge=EdgeConfig(enabled=True, num_proxies=1),
    )
    return TransEdgeSystem(config)


def run_some_reads(system: TransEdgeSystem, reads: int = 6) -> None:
    client = system.create_client("c0")
    generator = WorkloadGenerator(
        sorted(system.initial_data),
        system.partitioner,
        profile=WorkloadProfile(value_size=16),
        seed=3,
    )
    specs = [generator.read_only() for _ in range(reads)]

    def body():
        for spec in specs:
            yield from client.read_only_txn(list(spec.read_keys))

    client.spawn(body(), name="reads")
    system.run_until_idle()


class TestCacheSnapshot:
    def test_sections_and_totals_agree(self):
        system = make_edge_system()
        run_some_reads(system)
        snapshot = system.cache_snapshot()
        assert set(snapshot) == {
            "verify_replicas", "verify_clients", "edge", "transport", "totals",
        }
        for section in ("verify_replicas", "verify_clients", "edge"):
            totals = snapshot["totals"][section]
            assert totals["hits"] == sum(
                entry["hits"] for entry in snapshot[section].values()
            )
            assert totals["misses"] == sum(
                entry["misses"] for entry in snapshot[section].values()
            )
        assert len(snapshot["verify_replicas"]) == len(system.replicas)
        assert len(snapshot["verify_clients"]) == len(system.clients)
        assert len(snapshot["edge"]) == len(system.proxies)

    def test_derived_views_match_the_snapshot(self):
        system = make_edge_system()
        run_some_reads(system)
        snapshot = system.cache_snapshot()
        # Every section reports the nodes' own counters, by node name.
        assert snapshot["verify_replicas"] == {
            str(replica.node_id): {
                "hits": replica.verifier.cache.hits,
                "misses": replica.verifier.cache.misses,
            }
            for replica in system.replicas.values()
        }
        assert snapshot["edge"] == {
            str(proxy.node_id): {
                "hits": proxy.counters.cache_hits,
                "misses": proxy.counters.cache_misses,
            }
            for proxy in system.proxies
        }
        # The system counters' cache fields are the replica-only totals.
        counters = system.counters()
        replica_totals = snapshot["totals"]["verify_replicas"]
        assert counters.verify_cache_hits == replica_totals["hits"]
        assert counters.verify_cache_misses == replica_totals["misses"]
        assert counters.edge_cache_hits == snapshot["totals"]["edge"]["hits"]
        assert counters.edge_cache_misses == snapshot["totals"]["edge"]["misses"]

    def test_record_event_writes_to_the_flight_recorder(self):
        system = make_edge_system()
        run_some_reads(system)
        before = len(system.env.obs.recorder.events_of_kind("cache-snapshot"))
        system.cache_snapshot()
        assert len(
            system.env.obs.recorder.events_of_kind("cache-snapshot")
        ) == before
        snapshot = system.cache_snapshot(record_event=True)
        events = system.env.obs.recorder.events_of_kind("cache-snapshot")
        assert len(events) == before + 1
        expected = dict(snapshot["totals"])
        if snapshot["transport"]:
            expected["transport"] = snapshot["transport"]
        assert events[-1].detail == expected

    def test_a_monitor_sample_builds_the_snapshot_once(self, monkeypatch):
        system = make_edge_system()
        run_some_reads(system)
        built = []
        build = system.cache_snapshot
        monkeypatch.setattr(
            system, "cache_snapshot", lambda *args, **kw: built.append(1) or build(*args, **kw)
        )
        sample = system.monitor_snapshot()
        assert len(built) == 1
        # ... and its counters are still the ones ``counters()`` reports.
        assert sample["counters"] == dataclasses.asdict(system.counters())
        assert sample["transport"] == build()["transport"]
