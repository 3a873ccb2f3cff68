"""Workload drivers: run transaction streams against a simulated deployment.

The experiment functions in :mod:`repro.bench.experiments` all reduce to the
same pattern — build a system, run a stream of transaction specifications
with some concurrency, and collect metrics — which this module implements
once.

Concurrency model: ``concurrency`` driver processes are spawned across
``num_clients`` client nodes; each process repeatedly takes the next
specification from the shared stream and executes it (closed loop).  With a
concurrency at least as large as the configured batch size, leaders operate
at their batching limit, which is how the paper's throughput-versus-batch-
size experiments are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional

from repro.baselines.protocols import ReadOnlyProtocol, protocol_by_name
from repro.common.types import TxnKind
from repro.core.client import TransEdgeClient
from repro.core.system import SystemCounters, TransEdgeSystem
from repro.metrics.collector import MetricsCollector
from repro.simnet.proc import Sleep
from repro.workload.generator import TxnSpec


#: Metric operation labels, keyed by transaction kind.
OPERATION_LABELS = {
    TxnKind.LOCAL_WRITE_ONLY: "local-write-only",
    TxnKind.LOCAL_READ_WRITE: "local-read-write",
    TxnKind.DISTRIBUTED_READ_WRITE: "distributed-read-write",
    TxnKind.READ_ONLY: "read-only",
}


@dataclass
class WorkloadRunResult:
    """Everything an experiment needs from one workload execution."""

    metrics: MetricsCollector
    counters: SystemCounters
    elapsed_ms: float
    executed: int = 0

    def throughput_tps(self, label: Optional[str] = None) -> float:
        return self.metrics.throughput_tps(label)

    def mean_latency_ms(self, label: str) -> float:
        return self.metrics.operation(label).summary().mean_ms

    def abort_rate(self, label: str) -> float:
        return self.metrics.operation(label).abort_rate()


def _protocol(protocol: "str | ReadOnlyProtocol") -> ReadOnlyProtocol:
    return protocol_by_name(protocol) if isinstance(protocol, str) else protocol


@dataclass
class _Run:
    """One workload execution in progress: what its driver processes share."""

    system: TransEdgeSystem
    metrics: MetricsCollector
    executed: int = 0

    def _closed_loop(
        self,
        client: TransEdgeClient,
        specs: Iterator[TxnSpec],
        protocol: ReadOnlyProtocol,
        pacing_ms: float,
    ):
        """One driver process: take the next specification, execute it, record it."""
        metrics = self.metrics
        for spec in specs:
            if pacing_ms > 0:
                yield Sleep(pacing_ms)
            label = OPERATION_LABELS[spec.kind]
            metrics.mark_start(client.now)
            if spec.kind is TxnKind.READ_ONLY:
                result = yield from protocol.run(client, list(spec.read_keys))
                metrics.record_read_only(
                    label,
                    result.latency_ms,
                    rounds=result.rounds,
                    round2_latency_ms=result.round2_latency_ms,
                    served_by_edge=result.served_by_edge,
                )
            else:
                result = yield from client.read_write_txn(
                    list(spec.read_keys), dict(spec.writes)
                )
                if result.committed:
                    metrics.record_commit(label, result.latency_ms)
                else:
                    metrics.record_abort(label, result.latency_ms)
            self.executed += 1
            metrics.mark_end(client.now)

    def spawn(
        self,
        clients: List[TransEdgeClient],
        concurrency: int,
        specs: Iterable[TxnSpec],
        protocol: ReadOnlyProtocol,
        pacing_ms: float = 0.0,
        name_prefix: str = "",
    ) -> None:
        """Spread ``concurrency`` driver processes over ``clients``, sharing ``specs``."""
        stream = iter(specs)
        for index in range(max(1, concurrency)):
            client = clients[index % len(clients)]
            client.spawn(
                self._closed_loop(client, stream, protocol, pacing_ms),
                name=f"{name_prefix}-proc-{index}" if name_prefix else "",
            )

    def finish(self) -> WorkloadRunResult:
        self.system.run_until_idle()
        return WorkloadRunResult(
            metrics=self.metrics,
            counters=self.system.counters(),
            elapsed_ms=self.metrics.elapsed_ms,
            executed=self.executed,
        )


def execute_workload(
    system: TransEdgeSystem,
    specs: Iterable[TxnSpec],
    concurrency: int = 8,
    num_clients: int = 2,
    read_only_protocol: "str | ReadOnlyProtocol" = "transedge",
    client_prefix: str = "driver",
    client_kwargs: Optional[dict] = None,
) -> WorkloadRunResult:
    """Execute ``specs`` on ``system`` and return metrics.

    Read-only specifications are executed with ``read_only_protocol``;
    read-write specifications always use the TransEdge commit path (the
    2PC/BFT baseline shares it, per Section 3.5 of the paper).
    """
    run = _Run(system, MetricsCollector())
    clients = [
        system.create_client(f"{client_prefix}-{index}", **(client_kwargs or {}))
        for index in range(max(1, num_clients))
    ]
    run.spawn(
        clients, concurrency, specs, _protocol(read_only_protocol), name_prefix=client_prefix
    )
    return run.finish()


def execute_concurrent_workloads(
    system: TransEdgeSystem,
    foreground: Iterable[TxnSpec],
    background: Iterable[TxnSpec],
    foreground_protocol: "str | ReadOnlyProtocol" = "transedge",
    foreground_concurrency: int = 4,
    background_concurrency: int = 4,
    foreground_pacing_ms: float = 0.0,
) -> WorkloadRunResult:
    """Run a measured foreground stream while a background stream executes.

    Used by the experiments where read-only transactions are measured under
    concurrent read-write traffic (Figures 5, 7 and Table 1): the background
    read-write stream creates the cross-partition dependencies (and, for the
    Augustus baseline, the lock conflicts) whose cost is being measured.
    Both streams are recorded into the same collector under their own
    operation labels.

    ``foreground_pacing_ms`` spaces out the measured (foreground) operations
    so they overlap the whole background run instead of finishing in its
    first few milliseconds — read-only operations are much faster than
    distributed commits, so without pacing they would never observe the
    concurrency being studied.
    """
    run = _Run(system, MetricsCollector())
    fg_clients = [system.create_client(f"fg-{index}") for index in range(2)]
    bg_clients = [system.create_client(f"bg-{index}") for index in range(2)]
    run.spawn(
        fg_clients, foreground_concurrency, foreground, _protocol(foreground_protocol),
        pacing_ms=foreground_pacing_ms,
    )
    run.spawn(bg_clients, background_concurrency, background, protocol_by_name("transedge"))
    return run.finish()
