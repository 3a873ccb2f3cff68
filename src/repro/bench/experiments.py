"""One experiment function per figure/table of the paper's evaluation.

Every function builds the deployment it needs, runs the matching workload and
returns a :class:`~repro.metrics.tables.FigureResult` or
:class:`~repro.metrics.tables.TableResult` whose rendered text lists the same
rows/series the paper reports.  Absolute numbers are simulated milliseconds
and simulated transactions per second; EXPERIMENTS.md records how they
compare to the paper's measurements.

The mapping from experiment to paper artefact is in DESIGN.md §4.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.baselines.protocols import protocol_by_name
from repro.bench.drivers import execute_concurrent_workloads, execute_workload
from repro.bench.scale import scaled
from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    EdgeConfig,
    FreshnessConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.common.types import TxnKind
from repro.core.system import TransEdgeSystem
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import MerkleStore, MerkleTree
from repro.edge.byzantine import BEHAVIOURS, install_byzantine
from repro.metrics.collector import MetricsCollector
from repro.metrics.tables import FigureResult, TableResult
from repro.storage.mvstore import MultiVersionStore
from repro.verification.history import ExecutionHistory, version_order_from_system
from repro.workload.generator import WorkloadGenerator, WorkloadProfile

#: Batch sizes swept by the paper's throughput experiments (Figures 9-15).
PAPER_BATCH_SIZES = (1000, 1500, 2000, 2500, 3000, 3500)

#: Batch-size sweep used by default: the paper's sweep scaled down 10x, with
#: the key space scaled by the same factor so that the contention ratio
#: (in-flight writes / key space) matches the paper's 1M-key setup.
DEFAULT_BATCH_SIZES = (100, 200, 300, 350)

#: Key-space size used by the throughput experiments (see note above).
THROUGHPUT_KEYS = 60_000


# ---------------------------------------------------------------------------
# deployment builders
# ---------------------------------------------------------------------------


def latency_config(extra_ms: float = 0.0) -> LatencyConfig:
    """Edge-site latencies.

    The paper's testbed places all clusters in one facility (ChameleonCloud),
    so the baseline inter-cluster delay is small; the geo-distribution
    experiments add latency explicitly (``extra_ms``), exactly like the
    paper's "additional latency between clusters" knob.
    """
    return LatencyConfig(
        intra_cluster_ms=0.3,
        inter_cluster_ms=1.0,
        client_to_cluster_ms=0.5,
        inter_cluster_extra_ms=extra_ms,
        jitter_fraction=0.1,
    )


def build_system(
    num_partitions: int = 5,
    fault_tolerance: int = 2,
    batch_size: int = 100,
    batch_timeout_ms: float = 5.0,
    initial_keys: int = 600,
    extra_latency_ms: float = 0.0,
    seed: int = 7,
    value_size: int = 64,
    traced: bool = False,
) -> TransEdgeSystem:
    """A deployment mirroring Section 5.1 (5 clusters of ``3f+1`` replicas)."""
    config = SystemConfig(
        num_partitions=num_partitions,
        fault_tolerance=fault_tolerance,
        batch=BatchConfig(max_size=batch_size, timeout_ms=batch_timeout_ms),
        latency=latency_config(extra_latency_ms),
        initial_keys=initial_keys,
        value_size=value_size,
        seed=seed,
    )
    if traced:
        config = config.with_tracing(True, max_traces=20_000)
    return TransEdgeSystem(config)


def make_generator(system: TransEdgeSystem, seed: int = 11, **profile_kwargs) -> WorkloadGenerator:
    profile = WorkloadProfile(value_size=min(system.config.value_size, 64), **profile_kwargs)
    return WorkloadGenerator(
        sorted(system.initial_data), system.partitioner, profile=profile, seed=seed
    )


# ---------------------------------------------------------------------------
# Figure 4 — read-only latency: TransEdge vs 2PC/BFT
# ---------------------------------------------------------------------------


def fig4_read_only_latency(txns_per_point: Optional[int] = None) -> FigureResult:
    """Average read-only latency versus accessed clusters (Figure 4)."""
    txns = scaled(txns_per_point or 30)
    figure = FigureResult(
        figure_id="Figure 4",
        title="Read-only transaction latency, TransEdge vs 2PC/BFT",
        x_label="clusters accessed",
        y_label="latency (ms)",
    )
    series = {name: figure.add_series(name) for name in ("2PC/BFT", "TransEdge")}
    for clusters in range(1, 6):
        for protocol, label in (("2pc-bft", "2PC/BFT"), ("transedge", "TransEdge")):
            system = build_system(fault_tolerance=2)
            generator = make_generator(system)
            specs = [generator.read_only(clusters=clusters) for _ in range(txns)]
            result = execute_workload(
                system, specs, concurrency=4, read_only_protocol=protocol
            )
            series[label].add(clusters, result.mean_latency_ms("read-only"))
    figure.notes.append(f"{txns} read-only transactions per point, f=2 (7 replicas/cluster)")
    return figure


# ---------------------------------------------------------------------------
# Figure 5 — read-only latency split into rounds, vs Augustus
# ---------------------------------------------------------------------------


def fig5_read_only_rounds(txns_per_point: Optional[int] = None) -> FigureResult:
    """Round-1 latency, effective round-2 latency and Augustus (Figure 5)."""
    txns = scaled(txns_per_point or 30)
    background_txns = scaled(40)
    figure = FigureResult(
        figure_id="Figure 5",
        title="Read-only latency by round, TransEdge vs Augustus",
        x_label="clusters accessed",
        y_label="latency (ms)",
    )
    round1 = figure.add_series("TransEdge round 1")
    round2 = figure.add_series("TransEdge round 2 (effective)")
    augustus = figure.add_series("Augustus")
    for clusters in range(1, 6):
        for protocol in ("transedge", "augustus"):
            system = build_system(fault_tolerance=2)
            generator = make_generator(system)
            foreground = [generator.read_only(clusters=clusters) for _ in range(txns)]
            background = [generator.distributed_read_write() for _ in range(background_txns)]
            result = execute_concurrent_workloads(
                system,
                foreground,
                background,
                foreground_protocol=protocol,
                foreground_concurrency=4,
                background_concurrency=4,
                foreground_pacing_ms=12.0,
            )
            mean_total = result.mean_latency_ms("read-only")
            if protocol == "transedge":
                effective_round2 = result.metrics.effective_round2_ms("read-only")
                round1.add(clusters, max(0.0, mean_total - effective_round2))
                round2.add(clusters, effective_round2)
            else:
                augustus.add(clusters, mean_total)
    figure.notes.append(
        f"{txns} read-only txns per point with {background_txns} concurrent distributed writers"
    )
    return figure


# ---------------------------------------------------------------------------
# Figure 6 — read-only throughput: TransEdge vs Augustus
# ---------------------------------------------------------------------------


def fig6_read_only_throughput(txns_per_point: Optional[int] = None) -> FigureResult:
    txns = scaled(txns_per_point or 160)
    figure = FigureResult(
        figure_id="Figure 6",
        title="Read-only throughput, TransEdge vs Augustus",
        x_label="clusters accessed",
        y_label="throughput (txns/s, simulated)",
    )
    series = {name: figure.add_series(name) for name in ("TransEdge", "Augustus")}
    for clusters in range(1, 6):
        for protocol, label in (("transedge", "TransEdge"), ("augustus", "Augustus")):
            system = build_system(fault_tolerance=2)
            generator = make_generator(system)
            specs = [generator.read_only(clusters=clusters) for _ in range(txns)]
            result = execute_workload(
                system, specs, concurrency=24, num_clients=4, read_only_protocol=protocol
            )
            series[label].add(clusters, result.throughput_tps("read-only"))
    figure.notes.append(f"{txns} read-only transactions per point, 24 concurrent clients")
    return figure


# ---------------------------------------------------------------------------
# Figure 7 — long-running read-only transactions
# ---------------------------------------------------------------------------


def fig7_long_read_only(txns_per_point: Optional[int] = None) -> FigureResult:
    txns = scaled(txns_per_point or 8)
    background_txns = scaled(30)
    figure = FigureResult(
        figure_id="Figure 7",
        title="Long-running read-only transaction latency",
        x_label="read operations per read-only transaction",
        y_label="latency (ms)",
    )
    series = {name: figure.add_series(name) for name in ("TransEdge", "Augustus")}
    for ops in (250, 500, 1000, 1500, 2000):
        for protocol, label in (("transedge", "TransEdge"), ("augustus", "Augustus")):
            system = build_system(fault_tolerance=2, initial_keys=2500)
            generator = make_generator(system)
            foreground = [generator.read_only(clusters=5, ops=ops) for _ in range(txns)]
            background = [generator.distributed_read_write() for _ in range(background_txns)]
            result = execute_concurrent_workloads(
                system,
                foreground,
                background,
                foreground_protocol=protocol,
                foreground_concurrency=2,
                background_concurrency=4,
                foreground_pacing_ms=10.0,
            )
            series[label].add(ops, result.mean_latency_ms("read-only"))
    figure.notes.append(
        f"{txns} long read-only txns per point under concurrent distributed writers"
    )
    return figure


# ---------------------------------------------------------------------------
# Figure 8 — read-only throughput vs inter-cluster latency
# ---------------------------------------------------------------------------


def fig8_read_only_latency_sweep(txns_per_point: Optional[int] = None) -> FigureResult:
    txns = scaled(txns_per_point or 120)
    figure = FigureResult(
        figure_id="Figure 8",
        title="Read-only throughput as inter-cluster latency grows",
        x_label="clusters accessed",
        y_label="throughput (txns/s, simulated)",
    )
    for extra in (0, 20, 70, 150):
        series = figure.add_series(f"+{extra}ms between clusters")
        for clusters in range(1, 6):
            system = build_system(fault_tolerance=2, extra_latency_ms=float(extra))
            generator = make_generator(system)
            specs = [generator.read_only(clusters=clusters) for _ in range(txns)]
            result = execute_workload(
                system, specs, concurrency=24, num_clients=4, read_only_protocol="transedge"
            )
            series.add(clusters, result.throughput_tps("read-only"))
    figure.notes.append(f"{txns} read-only transactions per point")
    return figure


# ---------------------------------------------------------------------------
# Figures 9-15 and Table 1: read-write experiments
# ---------------------------------------------------------------------------


def _run_local_throughput(
    system: TransEdgeSystem, kind: TxnKind, count: int, concurrency: int
) -> float:
    generator = make_generator(system)
    specs = list(generator.stream_of(count, kind))
    label = {
        TxnKind.LOCAL_WRITE_ONLY: "local-write-only",
        TxnKind.LOCAL_READ_WRITE: "local-read-write",
    }[kind]
    result = execute_workload(system, specs, concurrency=concurrency, num_clients=4)
    return result.throughput_tps(label)


def fig9_local_throughput(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = DEFAULT_BATCH_SIZES,
) -> FigureResult:
    """Throughput of write-only and local read-write transactions (Figure 9).

    The 2PC/BFT baseline shares TransEdge's read-write path (Section 3.5), so
    its local read-write series is obtained from the same machinery with the
    read-only bookkeeping disabled being unnecessary — the paper itself
    reports the two systems as performing similarly here.
    """
    figure = FigureResult(
        figure_id="Figure 9",
        title="Local transaction throughput vs batch size",
        x_label="transaction batch size",
        y_label="throughput (txns/s, simulated)",
    )
    write_only = figure.add_series("Write-only (TransEdge)")
    local_rw = figure.add_series("Local read-write (TransEdge)")
    local_rw_baseline = figure.add_series("Local read-write (2PC/BFT)")
    for batch_size in batch_sizes:
        # The batch fills at every one of the 5 partitions, so the driver keeps
        # roughly (5 x batch size) transactions outstanding.
        count = scaled(txns_per_point or batch_size * 8, minimum=batch_size * 5)
        concurrency = min(batch_size * 5, count)
        for series_obj, kind in (
            (write_only, TxnKind.LOCAL_WRITE_ONLY),
            (local_rw, TxnKind.LOCAL_READ_WRITE),
            (local_rw_baseline, TxnKind.LOCAL_READ_WRITE),
        ):
            system = build_system(
                fault_tolerance=1,
                batch_size=batch_size,
                batch_timeout_ms=20.0,
                initial_keys=THROUGHPUT_KEYS,
            )
            series_obj.add(
                batch_size, _run_local_throughput(system, kind, count, concurrency)
            )
    figure.notes.append(
        "f=1 clusters; batch sizes are the paper's sweep scaled 10x down, "
        "key space scaled to preserve the contention ratio"
    )
    return figure


def _distributed_run(
    batch_size: int,
    count: int,
    read_ops: int,
    write_ops: int,
    extra_latency_ms: float = 0.0,
    initial_keys: int = THROUGHPUT_KEYS,
    skewed: bool = False,
):
    system = build_system(
        fault_tolerance=1,
        batch_size=batch_size,
        batch_timeout_ms=10.0,
        extra_latency_ms=extra_latency_ms,
        initial_keys=initial_keys,
    )
    generator = make_generator(system)
    if skewed:
        specs = [
            generator.skewed_read_write(read_ops=read_ops, write_ops=write_ops)
            for _ in range(count)
        ]
    else:
        specs = [
            generator.distributed_read_write(read_ops=read_ops, write_ops=write_ops)
            for _ in range(count)
        ]
    concurrency = min(max(16, batch_size), count)
    result = execute_workload(system, specs, concurrency=concurrency, num_clients=4)
    return result


def _skew_metrics(result):
    """Combined latency/throughput over the local + distributed labels.

    The skew sweep's W=1 point is a purely local transaction (the paper makes
    the same observation), so its samples land under the local label.
    """
    latencies = []
    committed = 0
    for label in ("local-read-write", "distributed-read-write"):
        metrics = result.metrics.operation(label)
        latencies.extend(metrics.latencies_ms)
        committed += metrics.committed
    mean_latency = sum(latencies) / len(latencies) if latencies else 0.0
    elapsed_s = result.elapsed_ms / 1000.0
    throughput = committed / elapsed_s if elapsed_s > 0 else 0.0
    return mean_latency, throughput


def fig10_distributed_latency(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = (90, 250),
) -> FigureResult:
    figure = FigureResult(
        figure_id="Figure 10",
        title="Distributed read-write latency vs read/write skew",
        x_label="write operations per transaction (of 6 total)",
        y_label="latency (ms)",
    )
    skews = [(5, 1), (4, 2), (3, 3), (2, 4), (1, 5)]
    for batch_size in batch_sizes:
        series = figure.add_series(f"batch size {batch_size}")
        for read_ops, write_ops in skews:
            count = scaled(txns_per_point or 250)
            result = _distributed_run(batch_size, count, read_ops, write_ops, skewed=True)
            latency, _ = _skew_metrics(result)
            series.add(write_ops, latency)
    figure.notes.append("x-axis encodes the skew R=5,W=1 ... R=1,W=5 by its write count")
    return figure


def fig11_distributed_throughput(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = (90, 250),
) -> FigureResult:
    figure = FigureResult(
        figure_id="Figure 11",
        title="Distributed read-write throughput vs read/write skew",
        x_label="write operations per transaction (of 6 total)",
        y_label="throughput (txns/s, simulated)",
    )
    skews = [(5, 1), (4, 2), (3, 3), (2, 4), (1, 5)]
    for batch_size in batch_sizes:
        series = figure.add_series(f"batch size {batch_size}")
        for read_ops, write_ops in skews:
            count = scaled(txns_per_point or 250)
            result = _distributed_run(batch_size, count, read_ops, write_ops, skewed=True)
            _, throughput = _skew_metrics(result)
            series.add(write_ops, throughput)
    return figure


def fig12_distributed_latency_sweep(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = (90, 250),
) -> FigureResult:
    figure = FigureResult(
        figure_id="Figure 12",
        title="Distributed read-write throughput vs added inter-cluster latency",
        x_label="additional latency between clusters (ms)",
        y_label="throughput (txns/s, simulated)",
    )
    for batch_size in batch_sizes:
        series = figure.add_series(f"batch size {batch_size}")
        for extra in (0, 20, 70, 150, 300, 500):
            count = scaled(txns_per_point or 200)
            result = _distributed_run(batch_size, count, read_ops=5, write_ops=3, extra_latency_ms=extra)
            series.add(extra, result.throughput_tps("distributed-read-write"))
    return figure


def fig13_abort_rates(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = DEFAULT_BATCH_SIZES,
) -> FigureResult:
    figure = FigureResult(
        figure_id="Figure 13",
        title="Read-write transaction abort rate",
        x_label="transaction batch size",
        y_label="% of aborted transactions",
    )
    for extra in (0, 20, 70):
        series = figure.add_series(f"+{extra}ms between clusters")
        for batch_size in batch_sizes:
            count = scaled(txns_per_point or max(250, batch_size * 2))
            result = _distributed_run(
                batch_size, count, read_ops=5, write_ops=3, extra_latency_ms=extra,
            )
            series.add(batch_size, 100.0 * result.abort_rate("distributed-read-write"))
    return figure


def fig14_mix_throughput(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = (100, 250),
) -> FigureResult:
    figure = FigureResult(
        figure_id="Figure 14",
        title="Throughput vs local/distributed read-write mix",
        x_label="% distributed read-write transactions",
        y_label="throughput (txns/s, simulated)",
    )
    for batch_size in batch_sizes:
        series = figure.add_series(f"batch size {batch_size}")
        for distributed_pct in (0, 20, 40, 60, 80, 100):
            count = scaled(txns_per_point or 400)
            system = build_system(
                fault_tolerance=1,
                batch_size=batch_size,
                batch_timeout_ms=10.0,
                initial_keys=THROUGHPUT_KEYS,
            )
            generator = make_generator(system)
            distributed_count = count * distributed_pct // 100
            local_count = count - distributed_count
            specs = list(
                itertools.chain(
                    generator.stream_of(local_count, TxnKind.LOCAL_READ_WRITE),
                    generator.stream_of(distributed_count, TxnKind.DISTRIBUTED_READ_WRITE),
                )
            )
            concurrency = min(max(32, batch_size), count)
            result = execute_workload(system, specs, concurrency=concurrency, num_clients=4)
            committed = sum(
                result.metrics.operation(label).committed
                for label in ("local-read-write", "distributed-read-write")
            )
            elapsed_s = result.elapsed_ms / 1000.0
            series.add(distributed_pct, committed / elapsed_s if elapsed_s > 0 else 0.0)
    return figure


def fig15_fault_tolerance(
    txns_per_point: Optional[int] = None,
    batch_sizes: Iterable[int] = (90, 150, 300),
) -> FigureResult:
    figure = FigureResult(
        figure_id="Figure 15",
        title="Effect of the per-cluster fault-tolerance level f",
        x_label="transaction batch size",
        y_label="latency (ms)",
    )
    for fault_tolerance in (1, 2, 3):
        series = figure.add_series(f"f={fault_tolerance} ({3 * fault_tolerance + 1} replicas)")
        for batch_size in batch_sizes:
            count = scaled(txns_per_point or 300)
            system = build_system(
                fault_tolerance=fault_tolerance,
                batch_size=batch_size,
                batch_timeout_ms=10.0,
                initial_keys=THROUGHPUT_KEYS,
            )
            generator = make_generator(system)
            specs = [generator.distributed_read_write() for _ in range(count)]
            concurrency = min(max(16, batch_size), count)
            result = execute_workload(system, specs, concurrency=concurrency, num_clients=4)
            series.add(batch_size, result.mean_latency_ms("distributed-read-write"))
    figure.notes.append(
        "the paper's caption reports throughput while its axis reports latency; latency is shown"
    )
    return figure


def table1_read_only_interference(txns_per_point: Optional[int] = None) -> TableResult:
    """Table 1: % of read-write aborts caused by conflicting read-only txns."""
    ro_txns = scaled(txns_per_point or 60)
    rw_txns = scaled(80)
    table = TableResult(
        table_id="Table 1",
        title="% of read-write transactions aborted by read-only transactions",
        columns=[1, 2, 3, 4, 5],
    )
    for clusters in range(1, 6):
        for protocol, row in (("augustus", "Augustus"), ("transedge", "TransEdge")):
            system = build_system(fault_tolerance=2, initial_keys=200)
            generator = make_generator(system)
            foreground = [generator.read_only(clusters=clusters, ops=clusters * 3) for _ in range(ro_txns)]
            background = [generator.distributed_read_write() for _ in range(rw_txns)]
            result = execute_concurrent_workloads(
                system,
                foreground,
                background,
                foreground_protocol=protocol,
                foreground_concurrency=6,
                background_concurrency=6,
                foreground_pacing_ms=6.0,
            )
            rw_metrics = result.metrics.operation("distributed-read-write")
            interference = result.counters.lock_interference_aborts
            total = max(1, rw_metrics.total)
            table.set(row, clusters, round(100.0 * min(interference, rw_metrics.aborted) / total, 2))
    table.notes.append(
        f"{ro_txns} read-only and {rw_txns} read-write transactions per cell"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 16 — checkpointing, log compaction and crash recovery
# ---------------------------------------------------------------------------


def fig16_crash_recovery(txns_per_point: Optional[int] = None) -> FigureResult:
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
    signature verify-cache hit rates.
    """
    txns = scaled(txns_per_point or 300)
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
    events = MetricsCollector()
    intervals = (5, 10, 20)
    baseline_length = None
    for interval in intervals:
        for enabled in (True, False):
            if not enabled and baseline_length is not None:
                continue  # the interval is unused when disabled: one run suffices
            config = SystemConfig(
                num_partitions=2,
                fault_tolerance=1,
                batch=BatchConfig(max_size=8, timeout_ms=2.0),
                latency=latency_config(0.0),
                initial_keys=400,
                value_size=64,
                checkpoint=CheckpointConfig(
                    enabled=enabled,
                    interval_batches=interval,
                    retention_batches=interval,
                ),
            )
            system = TransEdgeSystem(config)
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
            execute_workload(
                system, specs, concurrency=16, num_clients=4, metrics=events
            )
            if enabled:
                counters = system.counters()
                events.record_event("checkpoints-stable", counters.checkpoints_stable)
                events.record_event("log-entries-truncated", counters.log_entries_truncated)
                events.record_event("versions-pruned", counters.versions_pruned)
                victim_replica = system.replicas[victim]
                events.record_event(
                    "recoveries-completed", victim_replica.counters.recoveries_completed
                )
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
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        batch=BatchConfig(max_size=8, timeout_ms=2.0),
        latency=latency_config(0.0),
        initial_keys=400,
        value_size=64,
        checkpoint=CheckpointConfig(
            enabled=True, interval_batches=10, retention_batches=10
        ),
    )
    system = TransEdgeSystem(config)
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
        metrics=events,
        client_prefix="leadercrash",
        # Short commit timeout: clients stuck on the dead leader complain
        # (and their aborted attempts terminate) quickly instead of at the
        # default 120 s, which keeps the run short.
        client_kwargs={"commit_timeout_ms": 500.0},
    )
    counters = system.counters()
    ex_leader = system.replicas[victim]
    stranded = system.stranded_prepared_transactions()
    events.record_event("leader-crash-recoveries-completed",
                        ex_leader.counters.recoveries_completed)
    events.record_event("leader-crash-view-changes", counters.view_changes)
    events.record_event("leader-crash-views-adopted", counters.views_adopted)
    events.record_event("leader-crash-decision-queries", counters.decision_queries_served)
    events.record_event("stranded-prepared", stranded)
    events.record_cache_snapshot(system.cache_snapshot(record_event=True))
    cache_hits, cache_misses = events.verify_cache_totals()
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
        f"aggregate hit rate over {len(events.verify_cache_stats())} nodes"
    )
    figure.notes.append(
        "recovery events: "
        + ", ".join(f"{name}={count}" for name, count in sorted(events.events().items()))
    )
    # The crash windows are where the reliable channel earns its keep:
    # retransmissions towards the dead node until the per-link cap
    # abandons its window, duplicate-drops as redeliveries race restarts.
    transport = events.transport_counters()
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


def _edge_system(
    num_proxies: int,
    num_partitions: int = 3,
    initial_keys: int = 300,
    **config_kwargs,
) -> TransEdgeSystem:
    edge = EdgeConfig(enabled=num_proxies > 0, num_proxies=max(1, num_proxies))
    config = SystemConfig(
        num_partitions=num_partitions,
        fault_tolerance=1,
        batch=BatchConfig(max_size=50, timeout_ms=5.0),
        latency=edge_latency_config(),
        initial_keys=initial_keys,
        value_size=64,
        edge=edge,
        **config_kwargs,
    )
    return TransEdgeSystem(config)


def _edge_byzantine_scenario(behaviour_name: str, reads: int) -> Dict[str, float]:
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
    from repro.simnet.proc import Sleep

    system = TransEdgeSystem(config)
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

    from repro.common.errors import VerificationError

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


def fig_edge(txns_per_point: Optional[int] = None) -> FigureResult:
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
    txns = scaled(txns_per_point or 150)
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
        system = _edge_system(num_proxies)
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
        result.metrics.record_cache_snapshot(system.cache_snapshot(record_event=True))
        hits, misses = result.metrics.edge_cache_totals()
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
        system = _edge_system(2)
        generator = make_generator(
            system, read_only_fraction=read_fraction, distribution="zipfian"
        )
        specs = generator.mixed_stream(txns)
        result = execute_workload(system, specs, concurrency=8, num_clients=4)
        result.metrics.record_cache_snapshot(system.cache_snapshot(record_event=True))
        hits, misses = result.metrics.edge_cache_totals()
        fraction_hits.add(
            round(100 * read_fraction),
            round(100.0 * hits / max(1, hits + misses), 2),
        )

    blacklisted = figure.add_series("byzantine scenario: proxy blacklisted (1=yes)")
    invalid = figure.add_series("byzantine scenario: accepted-but-invalid reads")
    byz_reads = scaled(txns_per_point or 30, minimum=20)
    for position, behaviour_name in enumerate(sorted(BEHAVIOURS)):
        outcome = _edge_byzantine_scenario(behaviour_name, reads=byz_reads)
        blacklisted.add(position, 1.0 if outcome["blacklisted"] else 0.0)
        invalid.add(position, outcome["accepted_invalid"])
        figure.notes.append(
            f"byzantine {behaviour_name}: {outcome['reads']:.0f} reads, "
            f"{outcome['edge_served']:.0f} edge-served before detection, "
            f"{outcome['verification_failures']:.0f} verification failures, "
            f"blacklisted={outcome['blacklisted']:.0f}, "
            f"accepted_invalid={outcome['accepted_invalid']:.0f}"
        )
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


def obs_phase_attribution(txns_per_point: Optional[int] = None) -> TableResult:
    """Per-phase latency table from causal traces (fig10-style workload).

    Not a figure of the paper: this is the observability layer
    (:mod:`repro.obs`) surfaced as a benchmark entry.  A traced
    distributed read-write run (the Figure 10 shape) is attributed
    phase-by-phase by partitioning each transaction's root interval
    (:func:`repro.obs.attribution.phase_breakdown`), so the per-phase sums
    reconcile with the end-to-end latency by construction — the note below
    records the reconciliation error, which a test pins at ±1%.  The trace
    digest is also recorded: same seed ⇒ byte-identical digest, which is
    the regression oracle the CI ``obs-smoke`` job checks.
    """
    from repro.obs.attribution import (
        PhaseAggregate,
        phase_breakdown,
        reconciliation_error,
    )

    txns = scaled(txns_per_point or 200)
    system = build_system(fault_tolerance=1, batch_timeout_ms=10.0, traced=True)
    generator = make_generator(system)
    specs = [generator.distributed_read_write() for _ in range(txns)]
    result = execute_workload(system, specs, concurrency=16, num_clients=4)

    obs = system.env.obs
    aggregate = PhaseAggregate()
    root_durations: List[float] = []
    worst_error = 0.0
    for trace in obs.tracer.completed_traces():
        aggregate.add_trace(trace)
        worst_error = max(worst_error, reconciliation_error(trace))
        root = trace.root
        if root is not None and root.closed:
            root_durations.append(root.duration_ms)
            for phase, ms in phase_breakdown(trace).items():
                result.metrics.record_phase_sample(phase, ms)

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
    from repro.metrics.collector import summarize_latencies

    end_to_end = summarize_latencies(root_durations)
    table.set("end-to-end", "count", end_to_end.count)
    table.set("end-to-end", "total ms", round(sum(root_durations), 2))
    table.set("end-to-end", "share %", 100.0)
    table.set("end-to-end", "p50 ms", round(end_to_end.p50_ms, 3))
    table.set("end-to-end", "p95 ms", round(end_to_end.p95_ms, 3))
    table.set("end-to-end", "p99 ms", round(end_to_end.p99_ms, 3))

    attributed = sum(aggregate.total_ms(phase) for phase in aggregate.phases())
    table.notes.append(
        f"{txns} distributed read-write txns, {aggregate.traces} complete traces; "
        f"attributed {attributed:.2f} ms vs end-to-end {sum(root_durations):.2f} ms "
        f"(worst per-trace reconciliation error {100.0 * worst_error:.4f}%)"
    )
    table.notes.append(
        f"{obs.tracer.spans_recorded} spans recorded; trace digest {obs.tracer.digest()}"
    )
    return table


# ---------------------------------------------------------------------------
# SLO — monitoring timeline graded against declarative objectives
# ---------------------------------------------------------------------------


def fig_slo(txns_per_point: Optional[int] = None) -> TableResult:
    """Per-objective SLO grades over the live monitoring timeline.

    Not a figure of the paper: this surfaces the monitoring layer
    (:mod:`repro.obs.monitor`) as a benchmark entry.  A monitored mixed
    run samples windowed metric deltas on simulated time; each default
    objective (:func:`repro.obs.slo.default_slos`) is then graded window
    by window with error-budget burn accounting.  One row per objective;
    the notes carry the rendered SLO table, the node-health summary and
    the trace digest (same seed ⇒ byte-identical digest — monitoring is
    provably neutral, which the CI ``monitor-smoke`` job asserts).
    """
    from repro.common.config import MonitorConfig
    from repro.obs.slo import default_slos, evaluate_slos, render_slo_table

    txns = scaled(txns_per_point or 200)
    system = build_system(fault_tolerance=1, batch_timeout_ms=10.0, traced=True)
    system = TransEdgeSystem(
        system.config.with_updates(
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
# Perf — hot-path wall-clock baseline (BENCH_perf.json)
# ---------------------------------------------------------------------------


#: Partition sizes swept by the snapshot-read service-time measurement; the
#: largest is 10x the smallest, which is the flatness claim the perf baseline
#: records.
PERF_KEY_COUNTS = (500, 1000, 2000, 5000)


def _mean_call_us(fn: Callable[[], None], reps: int) -> float:
    """Mean wall-clock microseconds per call over ``reps`` calls (1 warm-up)."""
    fn()
    started = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - started) / reps * 1e6


def perf_snapshot_hotpaths(txns_per_point: Optional[int] = None) -> FigureResult:
    """Snapshot-read service time vs partition size, plus verify-cache hit rate.

    Not a figure of the paper: this is the repo's machine-readable perf
    baseline (``BENCH_perf.json``).  It times the two implementations of
    round-2 snapshot-read service against the same state:

    * ``archive prove_at`` — the :class:`MerkleTreeArchive` fast path, which
      resolves the historical tree as a copy-on-write view and proves only the
      requested keys (O(read · log K));
    * ``rebuild (pre-archive path)`` — the original implementation that
      materialises the historical snapshot and rebuilds a full tree per
      request (O(K)).

    The y-values are wall-clock microseconds per served request, so absolute
    numbers are machine-dependent; the CI regression gate therefore compares
    the per-point *speedup* (rebuild / fast, both timed on the same machine)
    against the committed baseline's speedup, with a generous 2x budget.  A
    short end-to-end run also records the shared signature verify-cache hit
    rate in the notes.
    """
    reps_fast = scaled(txns_per_point or 300)
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
        merkle = MerkleStore(items, archive=MerkleTreeArchive(max_batches=2 * batches))
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
    # Traced, so the perf baseline also records a phase breakdown note.
    system = build_system(fault_tolerance=1, initial_keys=300, traced=True)
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
    figure.notes.append(
        f"snapshot requests served {counters.snapshot_requests_served} "
        f"(fast path {counters.snapshot_fast_path}, rebuilds {counters.snapshot_rebuilds})"
    )
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


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def ablation_untracked_dependencies(txns_per_point: Optional[int] = None) -> FigureResult:
    """How often would naive (CD-vector-free) reads return inconsistent snapshots?

    The fraction of read-only transactions that need TransEdge's second round
    is exactly the fraction whose round-1 responses were cross-partition
    inconsistent — i.e. the anomaly rate a Merkle-tree-only design (Figure 1)
    would silently expose.
    """
    txns = scaled(txns_per_point or 40)
    background = scaled(60)
    figure = FigureResult(
        figure_id="Ablation A1",
        title="Round-2 rate = inconsistent snapshots prevented by CD vectors",
        x_label="clusters accessed",
        y_label="% of read-only transactions",
    )
    series = figure.add_series("round-2 (anomaly prevented)")
    for clusters in range(2, 6):
        system = build_system(fault_tolerance=1, initial_keys=200)
        generator = make_generator(system)
        foreground = [generator.read_only(clusters=clusters) for _ in range(txns)]
        writers = [generator.distributed_read_write() for _ in range(background)]
        result = execute_concurrent_workloads(
            system, foreground, writers,
            foreground_protocol="transedge",
            foreground_concurrency=4,
            background_concurrency=6,
            foreground_pacing_ms=8.0,
        )
        series.add(clusters, 100.0 * result.metrics.second_round_fraction("read-only"))
    return figure


def ablation_round2_vs_write_rate(txns_per_point: Optional[int] = None) -> FigureResult:
    """Second-round frequency as the concurrent write rate grows."""
    txns = scaled(txns_per_point or 40)
    figure = FigureResult(
        figure_id="Ablation A2",
        title="Second-round frequency vs concurrent distributed writers",
        x_label="concurrent writer processes",
        y_label="% of read-only transactions needing round 2",
    )
    series = figure.add_series("TransEdge")
    for writers in (0, 2, 4, 8):
        system = build_system(fault_tolerance=1, initial_keys=200)
        generator = make_generator(system)
        foreground = [generator.read_only(clusters=5) for _ in range(txns)]
        background = [generator.distributed_read_write() for _ in range(scaled(20) * writers)]
        result = execute_concurrent_workloads(
            system, foreground, background,
            foreground_protocol="transedge",
            foreground_concurrency=4,
            background_concurrency=max(1, writers),
            foreground_pacing_ms=8.0,
        )
        series.add(writers, 100.0 * result.metrics.second_round_fraction("read-only"))
    return figure


def chaos_sweep(seeds: Optional[int] = None) -> TableResult:
    """Seeded chaos runs judged by the full invariant oracle suite.

    Not a figure of the paper: this is the chaos engine
    (:mod:`repro.chaos`) surfaced as a benchmark entry, so the ``--json``
    pipeline records, per seed, how much work the generated scenario did
    (commits, verified reads, crash/restart cycles, simulator events) and —
    the headline number — ``oracle_failures = 0``.  The CI ``chaos-smoke``
    job runs a wider sweep through the CLI; this entry keeps a small fixed
    window in the benchmark trajectory.
    """
    from repro.chaos import run_seed

    count = seeds if seeds is not None else scaled(4)
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


#: Registry used by the CLI and the pytest-benchmark wrappers.
EXPERIMENTS = {
    "fig4": fig4_read_only_latency,
    "fig5": fig5_read_only_rounds,
    "fig6": fig6_read_only_throughput,
    "fig7": fig7_long_read_only,
    "fig8": fig8_read_only_latency_sweep,
    "fig9": fig9_local_throughput,
    "fig10": fig10_distributed_latency,
    "fig11": fig11_distributed_throughput,
    "fig12": fig12_distributed_latency_sweep,
    "fig13": fig13_abort_rates,
    "fig14": fig14_mix_throughput,
    "fig15": fig15_fault_tolerance,
    "fig16": fig16_crash_recovery,
    "fig_edge": fig_edge,
    "obs": obs_phase_attribution,
    "slo": fig_slo,
    "perf": perf_snapshot_hotpaths,
    "chaos": chaos_sweep,
    "table1": table1_read_only_interference,
    "ablation-untracked": ablation_untracked_dependencies,
    "ablation-round2": ablation_round2_vs_write_rate,
}
