"""Command-line interface: ``python -m repro.obs``.

Runs a small traced workload (a mix of distributed read-write and
read-only transactions on a 3-partition deployment) and renders what the
observability layer captured::

    python -m repro.obs                       # trace trees + phase table
    python -m repro.obs --txns 40 --seed 3
    python -m repro.obs --chrome trace.json   # Chrome/Perfetto export
    python -m repro.obs --export run.json     # full run dump (CI artifact)
    python -m repro.obs --digest              # print only the trace digest
    python -m repro.obs --timeline            # monitor windows + health + SLOs

The run is deterministic: the same ``--txns``/``--seed`` always produce the
same spans and therefore the same digest, in any process and under any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.common.config import BatchConfig, MonitorConfig, SystemConfig
from repro.obs.export import (
    chrome_trace_document,
    render_trace_tree,
    run_document,
    write_json,
)
from repro.obs.hub import Observability
from repro.obs.slo import default_slos, evaluate_slos, render_slo_table


def traced_workload(txns: int, seed: int) -> Observability:
    """Run a small traced deployment and return its observability hub."""
    return _run_workload(txns, seed, monitor=False).env.obs


def monitored_workload(txns: int, seed: int, window_ms: float = 25.0):
    """Run the traced deployment with the monitor armed; return the system."""
    return _run_workload(txns, seed, monitor=True, window_ms=window_ms)


def _run_workload(txns: int, seed: int, monitor: bool, window_ms: float = 25.0):
    from repro.bench.drivers import execute_workload
    from repro.core.system import TransEdgeSystem
    from repro.workload.generator import WorkloadGenerator, WorkloadProfile

    config = SystemConfig(
        num_partitions=3,
        fault_tolerance=1,
        batch=BatchConfig(max_size=20, timeout_ms=5.0),
        initial_keys=120,
        value_size=64,
        seed=seed,
        monitor=MonitorConfig(enabled=monitor, window_ms=window_ms),
    ).with_tracing(True, max_traces=max(4 * txns, 64))
    system = TransEdgeSystem(config)
    generator = WorkloadGenerator(
        sorted(system.initial_data),
        system.partitioner,
        profile=WorkloadProfile(value_size=32, read_only_fraction=0.4),
        seed=seed + 1,
    )
    specs = list(generator.mixed_stream(txns))
    execute_workload(system, specs, concurrency=8, num_clients=2)
    if system.monitor is not None:
        system.monitor.flush(system.now)
    return system


def render_phase_table(obs: Observability) -> str:
    """The per-phase attribution table over every completed trace."""
    aggregate = obs.phase_aggregate()
    if not aggregate.traces:
        return "no completed traces"
    header = f"{'phase':<14}{'total ms':>10}{'share %':>9}{'p50 ms':>9}{'p95 ms':>9}"
    lines = [header, "-" * len(header)]
    for phase in aggregate.phases():
        summary = aggregate.summary(phase)
        lines.append(
            f"{phase:<14}{aggregate.total_ms(phase):>10.2f}"
            f"{100.0 * aggregate.share(phase):>9.1f}"
            f"{summary.p50_ms:>9.3f}{summary.p95_ms:>9.3f}"
        )
    lines.append(
        f"({aggregate.traces} traces; worst reconciliation error "
        f"{100.0 * aggregate.worst_error:.4f}%)"
    )
    return "\n".join(lines)


def render_timeline_table(samples) -> str:
    """One row per closed monitor window: throughput, latency, health fuel."""
    if not samples:
        return "no closed monitor windows"
    header = (
        f"{'window':>7}{'start ms':>10}{'commits':>9}{'aborts':>8}"
        f"{'p50 ms':>9}{'p95 ms':>9}{'retx':>6}{'handled':>9}"
    )
    lines = [header, "-" * len(header)]
    from repro.metrics.collector import percentile

    for sample in samples:
        latencies = sorted(sample.latencies)
        p50 = percentile(latencies, 0.50) if latencies else 0.0
        p95 = percentile(latencies, 0.95) if latencies else 0.0
        retx = int(sample.transport.get("messages_retransmitted", 0))
        handled = sum(sample.node_handled.values())
        lines.append(
            f"{sample.index:>7}{sample.start_ms:>10.1f}{sample.commits:>9}"
            f"{sample.aborts:>8}{p50:>9.2f}{p95:>9.2f}{retx:>6}{handled:>9}"
        )
    return "\n".join(lines)


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Run a small traced workload and render/export its causal traces.",
    )
    parser.add_argument("--txns", type=int, default=20,
                        help="transactions to run (default 20)")
    parser.add_argument("--seed", type=int, default=7,
                        help="deployment + workload seed (default 7)")
    parser.add_argument("--trees", type=int, default=2, metavar="N",
                        help="render the first N trace trees (default 2)")
    parser.add_argument("--chrome", metavar="PATH", default=None,
                        help="write Chrome-trace JSON (load in ui.perfetto.dev)")
    parser.add_argument("--export", metavar="PATH", default=None,
                        help="write the full run dump (traces + flight recorder)")
    parser.add_argument("--digest", action="store_true",
                        help="print only the trace digest and exit")
    parser.add_argument("--timeline", action="store_true",
                        help="run with the monitor armed and print the window "
                             "timeline, node health and SLO tables")
    parser.add_argument("--window-ms", type=float, default=25.0,
                        help="monitor sampling window in sim-ms (default 25)")
    args = parser.parse_args(argv)
    if args.txns < 1:
        parser.error("--txns must be >= 1")
    if args.window_ms <= 0:
        parser.error("--window-ms must be > 0")

    if args.timeline:
        system = monitored_workload(args.txns, args.seed, window_ms=args.window_ms)
        monitor = system.monitor
        samples = monitor.timeline.samples()
        print(
            f"{args.txns} txns monitored: {len(samples)} closed windows of "
            f"{args.window_ms:g}ms (sim time {system.now:.1f}ms), "
            f"digest {system.env.obs.tracer.digest()}"
        )
        print()
        print(render_timeline_table(samples))
        health = monitor.health.summary()
        print(f"\nnode health ({len(health['transitions'])} transitions):")
        if health["states"]:
            for node, state in sorted(health["states"].items()):
                print(f"  {node:<14}{state}")
        else:
            print("  all nodes healthy (no node ever left the healthy state)")
        print()
        print(render_slo_table(evaluate_slos(samples, default_slos())))
        return 0

    obs = traced_workload(args.txns, args.seed)

    if args.digest:
        print(obs.tracer.digest())
        return 0

    completed = obs.tracer.completed_traces()
    print(
        f"{args.txns} txns traced: {len(completed)} complete traces, "
        f"{obs.tracer.spans_recorded} spans, digest {obs.tracer.digest()}"
    )
    for trace in completed[: max(0, args.trees)]:
        print()
        print(render_trace_tree(trace))
    print()
    print(render_phase_table(obs))

    events = obs.recorder.timeline()
    if events:
        print(f"\nflight recorder ({len(events)} events):")
        for event in events[-10:]:
            print(f"  {event.time_ms:10.3f}ms  [{event.severity}] {event.node}: {event.kind}")

    if args.chrome:
        write_json(chrome_trace_document(obs), args.chrome)
        print(f"\nwrote Chrome trace to {args.chrome}")
    if args.export:
        write_json(run_document(obs), args.export)
        print(f"wrote run dump to {args.export}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
