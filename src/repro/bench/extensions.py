"""The experiments that are not a sweep of the paper: functions of the harness.

``fig16`` (checkpointing and crash recovery), ``fig_edge`` (the edge proxy
tier), ``obs`` and ``slo`` (tracing and monitoring), ``perf`` and
``ablation-crypto`` (wall-clock micro-paths), ``chaos`` and ``fleet`` (the
chaos engine).  Each takes the :class:`~repro.bench.harness.Harness`, builds
whatever deployments it needs through :meth:`Harness.build` and returns a
:class:`~repro.metrics.tables.FigureResult` or
:class:`~repro.metrics.tables.TableResult`; every counter a gate judges goes
into the result's ``facts``.  The registry rows, with their gates, are in
:mod:`repro.bench.experiments`.
"""

from __future__ import annotations

import itertools
import random
import tempfile
import time
from collections import Counter
from typing import Callable, Dict

from repro.bench.drivers import execute_concurrent_workloads, execute_workload
from repro.bench.harness import Harness, latency_config, make_generator, section51_config
from repro.bench.scale import scaled
from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    EdgeConfig,
    FreshnessConfig,
    LatencyConfig,
    MonitorConfig,
    SystemConfig,
)
from repro.common.errors import VerificationError
from repro.common.types import TxnKind
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import MerkleStore, MerkleTree
from repro.crypto.signatures import HmacSigner, KeyRegistry, RsaSigner
from repro.edge.byzantine import BEHAVIOURS, install_byzantine
from repro.metrics.collector import summarize_latencies
from repro.metrics.tables import FigureResult, TableResult
from repro.obs.slo import default_slos, evaluate_slos, render_slo_table
from repro.simnet.proc import Sleep
from repro.storage.mvstore import MultiVersionStore
from repro.verification.history import ExecutionHistory, version_order_from_system

# ---------------------------------------------------------------------------
# Figure 16 — checkpointing, log compaction and crash recovery
# ---------------------------------------------------------------------------


def _recovery_config(checkpointing: bool, interval: int) -> SystemConfig:
    return SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        batch=BatchConfig(max_size=8, timeout_ms=2.0),
        latency=latency_config(0.0),
        initial_keys=400,
        value_size=64,
        checkpoint=CheckpointConfig(
            enabled=checkpointing, interval_batches=interval, retention_batches=interval
        ),
    )


def fig16_crash_recovery(harness: Harness) -> FigureResult:
    """Crash-and-recover replicas (follower *and* leader) under checkpointing.

    Not a figure of the paper: this exercises the ``repro.recovery``
    subsystem.  For each checkpoint interval a write-heavy workload runs while
    one follower of partition 0 is crashed mid-run and restarted later; the
    figure reports the end-of-run SMR log length with and without
    checkpointing, the longest version chain, and how far the restarted
    replica still trails its leader once the run drains.

    A final *leader-crash* run (mixed local + distributed workload) crashes
    the partition-0 **leader** mid-run with no manual view-change trigger:
    survivors detect the dead leader (progress monitor + client complaints),
    rotate views, the new leader resumes the predecessor's unfinished 2PC,
    and the restarted ex-leader rejoins through state transfer *adopting the
    current view*.  The run reports recoveries completed, automatic view
    changes, stranded prepared transactions (must be zero) and the per-node
    signature verify-cache hit rates; the recovery event counts of all runs
    are the figure's ``facts``.
    """
    txns = scaled(300)
    figure = FigureResult(
        figure_id="Figure 16",
        title="Checkpoint interval vs log growth and crash recovery",
        x_label="checkpoint interval (batches)",
        y_label="count (batches / versions)",
    )
    bounded_log = figure.add_series("max SMR log length (checkpointing)")
    unbounded_log = figure.add_series("max SMR log length (disabled)")
    chains = figure.add_series("max version-chain length (checkpointing)")
    lag = figure.add_series("restarted replica lag (batches)")
    events = Counter()
    intervals = (5, 10, 20)
    baseline_length = None
    for interval in intervals:
        for enabled in (True, False):
            if not enabled and baseline_length is not None:
                continue  # the interval is unused when disabled: one run suffices
            system = harness.build(_recovery_config(enabled, interval))
            generator = make_generator(system)
            specs = list(generator.stream_of(txns, TxnKind.LOCAL_READ_WRITE))
            victim = system.topology.members(0)[2]  # a follower: the cluster stays live
            if enabled:
                system.env.simulator.schedule(
                    25.0, lambda s=system, v=victim: s.crash_replica(v)
                )
                system.env.simulator.schedule(
                    70.0, lambda s=system, v=victim: s.restart_replica(v)
                )
            execute_workload(system, specs, concurrency=16, num_clients=4)
            if enabled:
                counters = system.counters()
                victim_replica = system.replicas[victim]
                events["checkpoints-stable"] += counters.checkpoints_stable
                events["log-entries-truncated"] += counters.log_entries_truncated
                events["versions-pruned"] += counters.versions_pruned
                events["recoveries-completed"] += victim_replica.counters.recoveries_completed
                bounded_log.add(interval, system.max_log_length())
                chains.add(interval, system.max_version_chain_length())
                lag.add(
                    interval,
                    system.leader_replica(0).log.last_seq - victim_replica.log.last_seq,
                )
            else:
                baseline_length = system.max_log_length()
    for interval in intervals:
        unbounded_log.add(interval, baseline_length)

    # Leader-crash variant: no manual suspect anywhere — convergence relies
    # entirely on the automatic failure detection added in PR 3.
    leader_series = figure.add_series("leader crash: recoveries / view changes / stranded")
    system = harness.build(_recovery_config(True, 10))
    generator = make_generator(system)
    locals_stream = generator.stream_of(txns * 2 // 3, TxnKind.LOCAL_READ_WRITE)
    dist_stream = generator.stream_of(txns // 3, TxnKind.DISTRIBUTED_READ_WRITE)
    # Interleave 2 local : 1 distributed so 2PC is in flight when the leader
    # dies (that is the hard case the recovery overhaul must converge from).
    mixed = []
    for spec in locals_stream:
        mixed.append(spec)
        if len(mixed) % 3 == 2:
            nxt = next(dist_stream, None)
            if nxt is not None:
                mixed.append(nxt)
    mixed.extend(dist_stream)
    victim = system.topology.leader(0)
    system.env.simulator.schedule(30.0, lambda: system.crash_replica(victim))
    # Restart well after the clients' commit timeout so the complaint-driven
    # view change happens first and the ex-leader rejoins a *newer* view.
    system.env.simulator.schedule(2_000.0, lambda: system.restart_replica(victim))
    result = execute_workload(
        system,
        mixed,
        concurrency=16,
        num_clients=4,
        client_prefix="leadercrash",
        # Short commit timeout: clients stuck on the dead leader complain
        # (and their aborted attempts terminate) quickly instead of at the
        # default 120 s, which keeps the run short.
        client_kwargs={"commit_timeout_ms": 500.0},
    )
    counters = system.counters()
    ex_leader = system.replicas[victim]
    stranded = system.stranded_prepared_transactions()
    events["leader-crash-recoveries-completed"] = ex_leader.counters.recoveries_completed
    events["leader-crash-view-changes"] = counters.view_changes
    events["leader-crash-views-adopted"] = counters.views_adopted
    events["leader-crash-decision-queries"] = counters.decision_queries_served
    events["stranded-prepared"] = stranded
    caches = system.cache_snapshot(record_event=True)
    verify_nodes = {**caches["verify_replicas"], **caches["verify_clients"]}
    cache_hits = sum(entry["hits"] for entry in verify_nodes.values())
    cache_misses = sum(entry["misses"] for entry in verify_nodes.values())
    leader_series.add(0, ex_leader.counters.recoveries_completed)
    leader_series.add(1, counters.view_changes)
    leader_series.add(2, stranded)

    figure.notes.append(
        f"{txns} local read-write txns per point; one partition-0 follower crashed at "
        "t=25ms and restarted (with state transfer) at t=70ms in the checkpointing runs"
    )
    figure.notes.append(
        "leader-crash run: partition-0 leader crashed at t=30ms, restarted at "
        f"t=2000ms; {result.executed} mixed txns executed; automatic view "
        f"change only (no manual suspect); stranded prepared txns = {stranded}; "
        f"ex-leader rejoined in view {ex_leader.engine.view}"
    )
    figure.notes.append(
        f"per-node verify caches: {100.0 * cache_hits / max(1, cache_hits + cache_misses):.1f}% "
        f"aggregate hit rate over {len(verify_nodes)} nodes"
    )
    figure.facts.update(sorted(events.items()))
    # The crash windows are where the reliable channel earns its keep:
    # retransmissions towards the dead node until the per-link cap
    # abandons its window, duplicate-drops as redeliveries race restarts.
    transport = caches["transport"]
    figure.notes.append(
        "reliable channel: "
        + ", ".join(f"{name}={count}" for name, count in sorted(transport.items()))
    )
    return figure


# ---------------------------------------------------------------------------
# Edge — the untrusted edge read-proxy tier (repro.edge)
# ---------------------------------------------------------------------------


def edge_latency_config() -> LatencyConfig:
    """A genuinely geo-distributed profile: clients far from every core
    cluster but one short hop from a same-region edge proxy — the setting in
    which TransEdge's verified edge caching pays off."""
    return LatencyConfig(
        intra_cluster_ms=0.3,
        inter_cluster_ms=2.0,
        client_to_cluster_ms=6.0,
        client_to_edge_ms=0.25,
        jitter_fraction=0.1,
    )


def _edge_config(num_proxies: int) -> SystemConfig:
    return SystemConfig(
        num_partitions=3,
        fault_tolerance=1,
        batch=BatchConfig(max_size=50, timeout_ms=5.0),
        latency=edge_latency_config(),
        initial_keys=300,
        value_size=64,
        edge=EdgeConfig(enabled=num_proxies > 0, num_proxies=max(1, num_proxies)),
    )


def _edge_byzantine_scenario(
    harness: Harness, behaviour_name: str, reads: int
) -> Dict[str, float]:
    """One byzantine-proxy containment run; returns the numbers CI gates on.

    A single proxy serves a client re-reading a fixed key set while a writer
    keeps committing to the same keys.  The proxy misbehaves per
    ``behaviour_name`` (tampered value / tampered proof / stale header); the
    client must catch it through verification, blacklist it, and finish the
    run on correct, fully verified core-served snapshots.
    ``accepted_invalid`` counts results that passed client verification yet
    contradict the committed history — the number that must be zero for the
    "a byzantine proxy can only be caught, never believed" claim.
    """
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        batch=BatchConfig(max_size=10, timeout_ms=2.0),
        latency=edge_latency_config(),
        initial_keys=80,
        value_size=64,
        freshness=FreshnessConfig(client_staleness_bound_ms=40.0),
        edge=EdgeConfig(enabled=True, num_proxies=1),
    )
    system = harness.build(config)
    behaviour = install_byzantine(system.proxies[0], behaviour_name)
    history = ExecutionHistory(system.initial_data)
    reader = system.create_client("edge-reader")
    writer = system.create_client("edge-writer")
    read_keys = sorted(system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2])
    # The writer touches both partitions so every honest header stays within
    # the freshness bound — only the byzantine replay can go stale.
    write_keys = [system.keys_of_partition(0)[0], system.keys_of_partition(1)[0]]
    results = []

    def reader_body():
        # Warm-up: let the writer commit to both partitions first, so every
        # honest header is younger than the staleness bound when reads begin
        # (the bound would otherwise flag genesis-era headers of a cluster
        # that has not sealed a batch since bootstrap).
        yield Sleep(60.0)
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
                key: f"edge-w{stamp}-{position}".encode().ljust(32, b"x")
                for position, key in enumerate(write_keys)
            }
            outcome = yield from writer.read_write_txn([], writes)
            if outcome.committed:
                history.record_commit(outcome.txn_id, {}, writes)

    reader.spawn(reader_body())
    writer.spawn(writer_body())
    system.run_until_idle()

    accepted_invalid = 0
    try:
        history.check_read_only_values()
        history.check_serializable(version_order_from_system(system))
    except VerificationError:  # an accepted (verified=True) result was wrong
        accepted_invalid = 1
    return {
        "reads": len(results),
        "blacklisted": float(len(reader.edge_router.blacklisted())),
        "verification_failures": float(reader.stats.edge_verification_failures),
        "edge_served": float(reader.stats.edge_reads_served),
        "accepted_invalid": float(accepted_invalid),
        "mutations": float(
            getattr(behaviour, "mutations", 0) or getattr(behaviour, "replays", 0)
        ),
    }


def fig_edge(harness: Harness) -> FigureResult:
    """Edge read-proxy tier: latency win, cache efficacy, byzantine containment.

    Not a figure of the paper: this exercises the ``repro.edge`` subsystem.
    Three parts:

    1. a proxy-count sweep under a read-heavy mixed workload with the
       near-edge/far-core latency profile — proxy-served reads must come out
       faster on average than core-served reads (0 proxies is the no-edge
       baseline);
    2. a read-fraction sweep at a fixed proxy count — cache hit rate as the
       write rate (header churn) varies;
    3. one containment run per byzantine-proxy behaviour (tampered value,
       tampered proof, stale header) — each must end with the proxy
       blacklisted and zero accepted-but-invalid reads.
    """
    txns = scaled(150)
    figure = FigureResult(
        figure_id="Edge",
        title="Edge proxy tier: read latency, cache hit rate, byzantine containment",
        x_label="edge proxies (part 1) / read fraction % (part 2) / scenario (part 3)",
        y_label="latency (ms) / percent / flag",
    )
    edge_latency = figure.add_series("proxy-served mean latency (ms)")
    core_latency = figure.add_series("core-served mean latency (ms)")
    hit_rate_series = figure.add_series("proxy cache hit rate (%)")

    for num_proxies in (0, 1, 2, 4):
        system = harness.build(_edge_config(num_proxies))
        # Zipfian reads: edge caches live off skewed popularity, and a skewed
        # working set is what makes the per-proxy caches warm within the run.
        generator = make_generator(
            system, read_only_fraction=0.9, distribution="zipfian"
        )
        specs = generator.mixed_stream(txns)
        result = execute_workload(system, specs, concurrency=8, num_clients=4)
        edge_mean, core_mean, edge_count, core_count = result.metrics.edge_latency_split(
            "read-only"
        )
        if edge_count:
            edge_latency.add(num_proxies, round(edge_mean, 3))
        if core_count:
            core_latency.add(num_proxies, round(core_mean, 3))
        counters = result.counters
        edge_totals = system.cache_snapshot(record_event=True)["totals"]["edge"]
        hits, misses = edge_totals["hits"], edge_totals["misses"]
        lookups = hits + misses
        if num_proxies > 0:
            hit_rate_series.add(
                num_proxies, round(100.0 * hits / max(1, lookups), 2)
            )
            figure.notes.append(
                f"{num_proxies} proxies: {edge_count} proxy-served / {core_count} "
                f"core-served reads, cache {hits}/{lookups} hits, "
                f"{counters.edge_core_fetches} core fetches, "
                f"{counters.headers_announced} headers announced"
            )

    fraction_hits = figure.add_series("cache hit rate vs read fraction (%)")
    for read_fraction in (0.6, 0.9, 1.0):
        system = harness.build(_edge_config(2))
        generator = make_generator(
            system, read_only_fraction=read_fraction, distribution="zipfian"
        )
        specs = generator.mixed_stream(txns)
        result = execute_workload(system, specs, concurrency=8, num_clients=4)
        edge_totals = system.cache_snapshot(record_event=True)["totals"]["edge"]
        hits, misses = edge_totals["hits"], edge_totals["misses"]
        fraction_hits.add(
            round(100 * read_fraction),
            round(100.0 * hits / max(1, hits + misses), 2),
        )

    blacklisted = figure.add_series("byzantine scenario: proxy blacklisted (1=yes)")
    invalid = figure.add_series("byzantine scenario: accepted-but-invalid reads")
    byz_reads = scaled(30, minimum=20)
    for position, behaviour_name in enumerate(sorted(BEHAVIOURS)):
        outcome = _edge_byzantine_scenario(harness, behaviour_name, reads=byz_reads)
        blacklisted.add(position, 1.0 if outcome["blacklisted"] else 0.0)
        invalid.add(position, outcome["accepted_invalid"])
        figure.notes.append(
            f"byzantine {behaviour_name}: {outcome['reads']:.0f} reads, "
            f"{outcome['edge_served']:.0f} edge-served before detection, "
            f"{outcome['verification_failures']:.0f} verification failures, "
            f"blacklisted={outcome['blacklisted']:.0f}, "
            f"accepted_invalid={outcome['accepted_invalid']:.0f}"
        )
    figure.facts["byzantine_scenarios"] = len(blacklisted.points)
    figure.notes.append(
        f"{txns} mixed txns per part-1/2 point (90% read-only in part 1); "
        "near-edge/far-core latency profile "
        "(client→edge 0.25 ms, client→core 6 ms one-way)"
    )
    return figure


# ---------------------------------------------------------------------------
# Obs — phase-level latency attribution from causal traces (repro.obs)
# ---------------------------------------------------------------------------


def _phase_note(aggregate) -> str:
    """One-line phase breakdown (p50/p95 ms and share) for figure notes."""
    parts = []
    for phase in aggregate.phases():
        summary = aggregate.summary(phase)
        parts.append(
            f"{phase} {summary.p50_ms:.2f}/{summary.p95_ms:.2f}ms p50/p95 "
            f"({100.0 * aggregate.share(phase):.0f}%)"
        )
    return f"phase breakdown over {aggregate.traces} traced txns: " + ", ".join(parts)


def _traced_config(**kwargs) -> SystemConfig:
    return section51_config(fault_tolerance=1, **kwargs).with_tracing(True, max_traces=20_000)


def obs_phase_attribution(harness: Harness) -> TableResult:
    """Per-phase latency table from causal traces (fig10-style workload).

    Not a figure of the paper: this is the observability layer
    (:mod:`repro.obs`) surfaced as a benchmark entry.  A traced
    distributed read-write run (the Figure 10 shape) is attributed
    phase-by-phase by partitioning each transaction's root interval
    (:func:`repro.obs.attribution.phase_breakdown`), so the per-phase sums
    reconcile with the end-to-end latency by construction — the worst
    per-trace reconciliation error is a fact, gated at 1%.  The trace digest
    is also recorded: same seed ⇒ byte-identical digest in any process, which
    the committed table holds CI's ``figures`` job to.
    """
    txns = scaled(200)
    system = harness.build(_traced_config(batch_timeout_ms=10.0))
    generator = make_generator(system)
    specs = [generator.distributed_read_write() for _ in range(txns)]
    execute_workload(system, specs, concurrency=16, num_clients=4)

    obs = system.env.obs
    aggregate = obs.phase_aggregate()

    table = TableResult(
        table_id="Obs",
        title="Phase-level latency attribution (distributed read-write)",
        columns=["count", "total ms", "share %", "p50 ms", "p95 ms", "p99 ms"],
    )
    for phase in aggregate.phases():
        summary = aggregate.summary(phase)
        table.set(phase, "count", summary.count)
        table.set(phase, "total ms", round(aggregate.total_ms(phase), 2))
        table.set(phase, "share %", round(100.0 * aggregate.share(phase), 1))
        table.set(phase, "p50 ms", round(summary.p50_ms, 3))
        table.set(phase, "p95 ms", round(summary.p95_ms, 3))
        table.set(phase, "p99 ms", round(summary.p99_ms, 3))
    end_to_end = summarize_latencies(aggregate.end_to_end_ms)
    end_to_end_total = sum(aggregate.end_to_end_ms)
    table.set("end-to-end", "count", end_to_end.count)
    table.set("end-to-end", "total ms", round(end_to_end_total, 2))
    table.set("end-to-end", "share %", 100.0)
    table.set("end-to-end", "p50 ms", round(end_to_end.p50_ms, 3))
    table.set("end-to-end", "p95 ms", round(end_to_end.p95_ms, 3))
    table.set("end-to-end", "p99 ms", round(end_to_end.p99_ms, 3))

    attributed = sum(aggregate.total_ms(phase) for phase in aggregate.phases())
    table.notes.append(
        f"{txns} distributed read-write txns, {aggregate.traces} complete traces; "
        f"attributed {attributed:.2f} ms vs end-to-end {end_to_end_total:.2f} ms "
        f"(worst per-trace reconciliation error {100.0 * aggregate.worst_error:.4f}%)"
    )
    table.notes.append(
        f"{obs.tracer.spans_recorded} spans recorded; trace digest {obs.tracer.digest()}"
    )
    table.facts["complete_traces"] = aggregate.traces
    table.facts["worst_reconciliation_error"] = aggregate.worst_error
    return table


# ---------------------------------------------------------------------------
# SLO — monitoring timeline graded against declarative objectives
# ---------------------------------------------------------------------------


def fig_slo(harness: Harness) -> TableResult:
    """Per-objective SLO grades over the live monitoring timeline.

    Not a figure of the paper: this surfaces the monitoring layer
    (:mod:`repro.obs.monitor`) as a benchmark entry.  A monitored mixed
    run samples windowed metric deltas on simulated time; each default
    objective (:func:`repro.obs.slo.default_slos`) is then graded window
    by window with error-budget burn accounting.  One row per objective;
    the notes carry the rendered SLO table, the node-health summary and
    the trace digest (same seed ⇒ byte-identical digest — monitoring is
    provably neutral, which ``tests/chaos/test_perf_oracle.py`` asserts).
    """
    txns = scaled(200)
    system = harness.build(
        _traced_config(batch_timeout_ms=10.0).with_updates(
            monitor=MonitorConfig(enabled=True, window_ms=50.0)
        )
    )
    generator = make_generator(system, read_only_fraction=0.4)
    specs = list(generator.mixed_stream(txns))
    execute_workload(system, specs, concurrency=8, num_clients=4)
    system.monitor.flush(system.now)

    samples = system.monitor.timeline.samples()
    results = evaluate_slos(samples, default_slos())

    table = TableResult(
        table_id="SLO",
        title="Service-level objectives over the monitoring timeline",
        columns=["windows", "violations", "budget %", "burn", "worst", "ok"],
    )
    for result in results:
        row = result.spec.name
        table.set(row, "windows", result.windows_evaluated)
        table.set(row, "violations", result.violations)
        table.set(row, "budget %", round(100.0 * result.spec.budget_fraction, 1))
        table.set(row, "burn", round(result.burn_rate, 2))
        worst = result.worst_value
        table.set(row, "worst", None if worst is None else round(worst, 3))
        table.set(row, "ok", "yes" if result.ok else "NO")

    health = system.monitor.health.summary()
    table.notes.append(
        f"{txns} mixed txns over {len(samples)} monitor windows "
        f"({system.config.monitor.window_ms:g}ms); "
        f"{len(health['transitions'])} health transitions, "
        f"terminal states {health['counts'] or '{all healthy}'}"
    )
    table.notes.append(render_slo_table(results))
    table.notes.append(
        f"trace digest {system.env.obs.tracer.digest()} "
        f"(byte-identical with monitoring disabled)"
    )
    return table


# ---------------------------------------------------------------------------
# Perf — snapshot-read hot path, wall clock
# ---------------------------------------------------------------------------


#: Partition sizes swept by the snapshot-read service-time measurement; the
#: largest is 10x the smallest, which is the flatness claim its gates hold.
PERF_KEY_COUNTS = (500, 1000, 2000, 5000)


def _mean_call_us(fn: Callable[[], None], reps: int) -> float:
    """Mean wall-clock microseconds per call over ``reps`` calls (1 warm-up)."""
    fn()
    started = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - started) / reps * 1e6


def perf_snapshot_hotpaths(harness: Harness) -> FigureResult:
    """Snapshot-read service time vs partition size, plus verify-cache hit rate.

    Not a figure of the paper.  It times the two implementations of round-2
    snapshot-read service against the same state:

    * ``archive prove_at`` — the :class:`MerkleTreeArchive` fast path, which
      resolves the historical tree as a copy-on-write view and proves only the
      requested keys (O(read · log K));
    * ``rebuild (pre-archive path)`` — the original implementation that
      materialises the historical snapshot and rebuilds a full tree per
      request (O(K)).

    The y-values are wall-clock microseconds per served request, so absolute
    numbers are machine-dependent; the gates therefore judge the per-point
    *speedup* (rebuild / fast, both timed in the same run).  A short
    end-to-end run also records the signature verify-cache hit rate in the
    notes and how its snapshot requests were served in the facts.
    """
    reps_fast = scaled(300)
    reps_rebuild = max(5, reps_fast // 10)
    figure = FigureResult(
        figure_id="Perf",
        title="Snapshot-read service time: archive fast path vs full rebuild",
        x_label="partition keys",
        y_label="service time per request (µs, wall-clock)",
    )
    fast_series = figure.add_series("archive prove_at")
    rebuild_series = figure.add_series("rebuild (pre-archive path)")
    batches = 32
    writes_per_batch = 8
    request_size = 4
    for key_count in PERF_KEY_COUNTS:
        rng = random.Random(key_count)
        items = {f"key-{i:06d}": b"value-" + bytes(26) for i in range(key_count)}
        keys = sorted(items)
        store = MultiVersionStore(items)
        merkle = MerkleStore(MerkleTree(items), MerkleTreeArchive(max_batches=2 * batches))
        for batch in range(1, batches + 1):
            updates = {
                rng.choice(keys): f"batch-{batch}-{i}".encode()
                for i in range(writes_per_batch)
            }
            store.apply(updates, batch)
            merkle.apply(updates, batch=batch)
        target = batches // 2
        request = [rng.choice(keys) for _ in range(request_size)]

        def serve_fast() -> None:
            tree = merkle.tree_at(target)
            for key in request:
                store.as_of(key, target)
                tree.prove(key)

        def serve_rebuild() -> None:
            tree = MerkleTree(store.snapshot_as_of(target))
            for key in request:
                store.as_of(key, target)
                tree.prove(key)

        fast_series.add(key_count, _mean_call_us(serve_fast, reps_fast))
        rebuild_series.add(key_count, _mean_call_us(serve_rebuild, reps_rebuild))

    # Verify-cache effectiveness, measured on a real (small) deployment under
    # a read-only + distributed-writer mix that exercises the round-2 path.
    # Traced, so the notes also carry a phase breakdown.
    system = harness.build(_traced_config(initial_keys=300))
    generator = make_generator(system)
    foreground = [generator.read_only(clusters=5) for _ in range(scaled(20))]
    background = [generator.distributed_read_write() for _ in range(scaled(40))]
    execute_concurrent_workloads(
        system,
        foreground,
        background,
        foreground_protocol="transedge",
        foreground_concurrency=4,
        background_concurrency=6,
        foreground_pacing_ms=8.0,
    )
    counters = system.counters()
    # Sum over every node's private cache — replicas *and* clients (the
    # replica-only totals live in SystemCounters.verify_cache_hits/misses).
    snapshot = system.cache_snapshot(record_event=True)
    cache_stats = {**snapshot["verify_replicas"], **snapshot["verify_clients"]}
    cache_hits = sum(entry["hits"] for entry in cache_stats.values())
    cache_misses = sum(entry["misses"] for entry in cache_stats.values())
    cache_total = max(1, cache_hits + cache_misses)
    figure.notes.append(
        f"verify-cache hit rate {100.0 * cache_hits / cache_total:.1f}% "
        f"({cache_hits} hits / {cache_misses} misses, summed over "
        f"{len(cache_stats)} per-node caches) on a 5-cluster f=1 run"
    )
    figure.facts["snapshot_requests_served"] = counters.snapshot_requests_served
    figure.facts["snapshot_fast_path"] = counters.snapshot_fast_path
    figure.facts["snapshot_rebuilds"] = counters.snapshot_rebuilds
    if snapshot["transport"]:
        figure.notes.append(
            "reliable channel: "
            + ", ".join(
                f"{name}={count}" for name, count in sorted(snapshot["transport"].items())
            )
        )
    figure.notes.append(
        f"{batches} batches of {writes_per_batch} writes archived per point; "
        f"requests read {request_size} keys; {reps_fast}/{reps_rebuild} timed "
        "repetitions (fast/rebuild)"
    )
    aggregate = system.env.obs.phase_aggregate()
    if aggregate.traces:
        figure.notes.append(_phase_note(aggregate))
    return figure


def ablation_crypto(harness: Harness) -> TableResult:
    """Wall-clock cost of the two signature backends (HMAC default vs RSA).

    Unlike the protocol experiments (which measure simulated time), this is a
    real-time microbenchmark of the two signer implementations, justifying
    the default choice of the HMAC backend for large simulations.
    """
    reps = scaled(200)
    payload = {"batch": 42, "root": b"\x01" * 32, "cd": [3, 1, 4, 1, 5]}
    table = TableResult(
        table_id="Ablation A3",
        title="Signature backends: service time per call (µs, wall-clock)",
        columns=["sign", "verify"],
    )
    signers = {
        "HMAC": HmacSigner("node"),
        "RSA-512": RsaSigner("node", bits=512, rng=random.Random(1)),
    }
    for name, signer in signers.items():
        registry = KeyRegistry()
        registry.register(signer)
        signature = signer.sign(payload)
        table.set(name, "sign", _mean_call_us(lambda: signer.sign(payload), reps))
        table.set(name, "verify", _mean_call_us(lambda: registry.verify(payload, signature), reps))
    table.notes.append(f"{reps} timed repetitions per cell")
    return table


# ---------------------------------------------------------------------------
# Chaos — the deterministic fault-injection engine (repro.chaos)
# ---------------------------------------------------------------------------


def chaos_sweep(harness: Harness) -> TableResult:
    """Seeded chaos runs judged by the full invariant oracle suite.

    Not a figure of the paper: this is the chaos engine
    (:mod:`repro.chaos`) surfaced as a benchmark entry, so the ``--json``
    pipeline records, per seed, how much work the generated scenario did
    (commits, verified reads, crash/restart cycles, simulator events) and —
    the headline number — ``oracle_failures = 0``.  The ``fleet`` experiment
    runs a wider sweep; this entry keeps a small fixed window in the
    benchmark trajectory.
    """
    from repro.chaos import run_seed

    count = scaled(4)
    table = TableResult(
        table_id="Chaos",
        title="Deterministic chaos runs: all invariant oracles must pass",
        columns=list(range(count)),
    )
    failures_total = 0
    for seed in range(count):
        report = run_seed(seed)
        failures_total += len(report.failures)
        table.set("oracle_failures", seed, len(report.failures))
        table.set("commits", seed, report.committed)
        table.set("verified_reads", seed, report.read_only_recorded)
        table.set("crashes", seed, report.crashes)
        table.set("restarts", seed, report.restarts)
        table.set("fault_events", seed, report.fault_events)
        table.set("sim_events", seed, report.events_processed)
        for failure in report.failures:
            table.notes.append(f"seed {seed}: [{failure.oracle}] {failure.description}")
    table.notes.append(
        f"{count} seeds, {failures_total} oracle failure(s); "
        "replay any seed with: python -m repro.chaos --seed N"
    )
    return table



#: Reaching any of these beyond the uniform sweep shows coverage-guided
#: search paying off: no uniform seed 0..24 hits them.
FLEET_RARE_COUNTERS = {
    "counter:catchup_recoveries",
    "counter:snapshot_rebuilds",
    "counter:transport_retransmits_abandoned",
}


def fleet_determinism(harness: Harness) -> TableResult:
    """The 25-seed chaos sweep, serial vs a 4-worker pool, and a coverage session.

    Not a figure of the paper.  One row per uniform seed 0..24 with its
    fingerprint and trace digest — the committed table is what a refactor
    that moves a chaos run has to change in plain sight — and, as facts,
    how many seeds differ between ``workers=1`` and ``workers=4`` (must be
    none), how many runs failed an oracle, and which rare counters the pinned
    coverage-guided session (seed 0, 16 mutants grown from the sweep's corpus)
    reaches that no uniform seed does (``transport_retransmits_abandoned``,
    through the ``long-crash`` mutation).
    """
    from repro.chaos.corpus import Corpus
    from repro.chaos.fleet import FleetSettings, coverage_session, run_seed_fleet, seed_corpus

    settings = FleetSettings(shrink=False, artifact_dir=None)
    serial = run_seed_fleet(range(25), settings, workers=1)
    pooled = run_seed_fleet(range(25), settings, workers=4)
    table = TableResult(
        table_id="Fleet",
        title="Chaos seeds 0..24: fingerprint and trace digest at any worker count",
        columns=["fingerprint", "trace digest"],
    )
    for run in serial:
        table.set(f"seed {run.seed}", "fingerprint", run.fingerprint)
        table.set(f"seed {run.seed}", "trace digest", run.trace_digest)
    table.facts["seeds_differing_serial_vs_4_workers"] = sum(
        (one.fingerprint, one.trace_digest) != (two.fingerprint, two.trace_digest)
        for one, two in zip(serial, pooled)
    )
    uniform_features = {feature for run in pooled for feature in run.signature}
    with tempfile.TemporaryDirectory(prefix="fleet-corpus-") as directory:
        corpus = Corpus(directory)
        seed_corpus(corpus, pooled)
        session = coverage_session(corpus, 0, 16, settings, workers=4)
    failing = [run for run in pooled if not run.ok] + list(session.failing)
    table.notes.extend(f"FAILED {run.summary}: {run.failures}" for run in failing)
    table.facts["oracle_failures"] = len(failing)
    rare = sorted((set(session.novel_features) - uniform_features) & FLEET_RARE_COUNTERS)
    table.facts["rare_counters_beyond_uniform_seeds"] = len(rare)
    table.notes.append(
        f"coverage session 0 reached beyond uniform seeds: {', '.join(rare) or 'nothing'}"
    )
    return table
