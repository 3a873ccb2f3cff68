"""Metric definitions: the end-to-end set and the per-layer ledger.

``END_TO_END`` and ``PER_LAYER`` are the single source for the names, units
and directions listed in ``BENCHMARK.json`` (``perfbench/tests`` checks they
agree).  End-to-end metrics come from the untraced pass only; per-layer
metrics from the traced pass (:mod:`perfbench.trace`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench.reference import REFERENCE_S
from perfbench.trace import Recorder
from perfbench.workloads import Tally


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    what: str


#: Reported by every workload, never zero (the builder's contract).
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "wall s from nothing to a deployment ready for its first txn (reference-box seconds)"),
    EndToEnd("txn_per_wall_s", "1/s", "higher", 0.25,
             "successful txns (commits + verified reads) per wall s of the run, set-up excluded "
             "(reference-box seconds: metrics.quiet_wall_s and perfbench.reference)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, "ru_maxrss of the workload's process"),
    EndToEnd("success_share", "share", "higher", 0.10,
             "(commits + verified reads) / attempted = 1 - failed_share; aborts count against it"),
    EndToEnd("sim_tps", "1/s", "higher", 0.15,
             "successful txns per simulated second (the paper's throughput axis)"),
    EndToEnd("sim_p50_ms", "ms", "lower", 0.25,
             "simulated latency, median over all completed reads and committed read-write txns"),
)

#: Per-type simulated results, reported where a workload has the samples
#: (result files and ``compare`` only; ``BENCHMARK.json`` needs metrics that
#: every workload reports and that hold still from seed to seed).  A tail
#: percentile is reported only with at least ten samples beyond it: p95
#: from 200 samples, p99 from 1 000.
SIMULATED_EXTRA: Tuple[EndToEnd, ...] = tuple(
    EndToEnd(name, unit, "lower", 0.0, what)
    for name, unit, what in (
        ("failed_share", "share", "(attempted - commits - verified reads) / attempted"),
        ("sim_ro_p50_ms", "ms", "simulated read-only latency, median"),
        ("sim_ro_p95_ms", "ms", "simulated read-only latency, 95th percentile"),
        ("sim_ro_p99_ms", "ms", "simulated read-only latency, 99th percentile"),
        ("sim_commit_p50_ms", "ms", "simulated read-write commit latency, median"),
        ("sim_commit_p95_ms", "ms", "simulated read-write commit latency, 95th percentile"),
        ("sim_commit_p99_ms", "ms", "simulated read-write commit latency, 99th percentile"),
        ("sim_ro_round2_share", "share", "share of read-only txns that needed a second round"),
    )
)


def is_exact(name: str) -> bool:
    """Simulated results are a function of the seed alone: with the same seed
    they must repeat bit-for-bit, so ``compare`` flags any change instead of
    applying a bound."""
    return name.startswith("sim_") or name in ("success_share", "failed_share")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (the definition ``repro.metrics`` uses)."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def _entry(value: float, unit: str, **extra) -> Dict[str, object]:
    return {"value": value, "unit": unit, **extra}


def simulated_metrics(tally: Tally) -> Dict[str, Dict[str, object]]:
    """Every metric that depends on the seed alone (bit-identical per seed)."""
    out: Dict[str, Dict[str, object]] = {}
    attempted = max(1, tally.attempted)
    out["success_share"] = _entry(tally.successful / attempted, "share")
    out["failed_share"] = _entry(1.0 - tally.successful / attempted, "share")
    out["sim_tps"] = _entry(tally.successful / tally.sim_busy_s, "1/s")
    reads, commits = tally.ro_latencies_ms, tally.commit_latencies_ms
    everything = reads + commits
    out["sim_p50_ms"] = _entry(percentile(everything, 0.50), "ms", samples=len(everything))
    for prefix, samples in (("sim_ro", reads), ("sim_commit", commits)):
        for label, fraction, needed in (("p50", 0.50, 1), ("p95", 0.95, 200), ("p99", 0.99, 1000)):
            if len(samples) >= needed:
                out[f"{prefix}_{label}_ms"] = _entry(
                    percentile(samples, fraction), "ms", samples=len(samples)
                )
    if reads:
        out["sim_ro_round2_share"] = _entry(tally.ro_round2 / len(reads), "share", samples=len(reads))
    return out


def lower_quartile(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def quiet_wall_s(pieces_by_repetition: Sequence[Sequence[float]]) -> float:
    """Wall time of one repetition on a quiet machine, from all repetitions.

    The sandbox shares its cores: for a second or so at a time everything
    runs up to 2x slower, so whole-repetition medians move by 20 % from one
    invocation to the next.  Every repetition executes the same events in the
    same order, so each is timed in the same short pieces (set-up, then
    slices of ``SLICE_EVENTS`` simulator events); a piece is either hit by a
    slow spell or not.  Taking, for each piece, the lower quartile over the
    repetitions and adding the pieces up discards the slow spells as long as
    fewer than three quarters of the repetitions were hit at the same piece.
    """
    return sum(lower_quartile(piece) for piece in zip(*pieces_by_repetition))


def wall_metrics(
    tally: Tally, setups: Sequence[float], runs: Sequence[float],
    slices: Sequence[Sequence[float]], kernel_s: Sequence[float], peak_rss_mb: float,
) -> Dict[str, Dict[str, object]]:
    """Host-time metrics over the timed repetitions, in reference-box seconds.

    ``reps`` keeps every repetition's own value (same unit) for ``compare``;
    ``run_s`` and ``host_speed`` give the raw seconds and the conversion.
    """
    # reference-box seconds = seconds here x (reference kernel / kernel here)
    scale = REFERENCE_S / lower_quartile(kernel_s)
    # What a run spends outside its slices (spawning drivers) is one more piece.
    pieces = [[run - sum(sliced), *sliced] for run, sliced in zip(runs, slices)]
    per_rep = [tally.successful / (run * scale) for run in runs]
    return {
        "setup_s": _entry(
            lower_quartile(setups) * scale, "s", min=min(setups) * scale,
            max=max(setups) * scale, reps=[setup * scale for setup in setups],
        ),
        "txn_per_wall_s": _entry(
            tally.successful / (quiet_wall_s(pieces) * scale), "1/s",
            min=min(per_rep), max=max(per_rep), reps=per_rep,
        ),
        "run_s": _entry(statistics.median(runs), "s", min=min(runs), max=max(runs), reps=list(runs)),
        "host_speed": _entry(1.0 / scale, "ratio"),
        "peak_rss_mb": _entry(peak_rss_mb, "MB"),
    }


# ---------------------------------------------------------------------------
# per-layer ledger
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Everything the per-layer metrics are computed from (traced pass)."""

    rec: Recorder
    tally: Tally
    generate_s: float
    untraced_wall_s: float
    traced_wall_s: float

    def __post_init__(self) -> None:
        self.system_counters: Dict[str, int] = {}
        self.transport: Dict[str, int] = {}
        self.spans_recorded = 0
        for system in self.rec.systems:
            for name, value in asdict(system.counters()).items():
                self.system_counters[name] = self.system_counters.get(name, 0) + int(value)
            transport = system.env.reliability
            for name, value in (transport.counters if transport is not None else {}).items():
                self.transport[name] = self.transport.get(name, 0) + int(value)
            self.spans_recorded += system.env.obs.tracer.spans_recorded

    def counter(self, name: str) -> int:
        return self.rec.counters.get(name, 0)

    def ratio(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[Ledger], float]


def _calls(name: str, *stats: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", lambda L: L.rec.calls(*stats))


def _self(name: str, *stats: str) -> LayerMetric:
    return LayerMetric(name, "s", "lower", lambda L: L.rec.self_s(*stats))


def _counter(name: str, counter: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", lambda L: L.counter(counter))


def _system(name: str, field: str) -> LayerMetric:
    return LayerMetric(name, "count", "lower", lambda L: L.system_counters.get(field, 0))


PER_LAYER: Tuple[LayerMetric, ...] = (
    # simnet
    _counter("simnet.events", "simnet.events"),
    LayerMetric("simnet.events_per_wall_s", "1/s", "higher",
                lambda L: L.ratio(L.counter("simnet.events"), L.untraced_wall_s)),
    _self("simnet.sched_self_s", "simnet.sched"),
    _counter("simnet.peak_pending_events", "simnet.peak_pending_events"),
    LayerMetric("simnet.messages_sent", "count", "lower", lambda L: L.rec.calls("simnet.send")),
    LayerMetric("simnet.messages_per_txn", "count", "lower",
                lambda L: L.ratio(L.rec.calls("simnet.send"), L.tally.attempted)),
    _self("simnet.net_self_s", "simnet.net", "simnet.send"),
    _self("simnet.reliable_self_s", "simnet.reliable"),
    LayerMetric("simnet.retransmits", "count", "lower",
                lambda L: L.transport.get("messages_retransmitted", 0)),
    LayerMetric("simnet.acks", "count", "lower", lambda L: L.transport.get("acks_sent", 0)),
    # crypto.hashing
    _calls("hashing.encode_calls", "hashing.encode"),
    _counter("hashing.encode_bytes", "hashing.encode_bytes"),
    _self("hashing.encode_self_s", "hashing.encode"),
    _calls("hashing.sha256_calls", "hashing.sha256"),
    _self("hashing.sha256_self_s", "hashing.sha256"),
    # crypto.signatures
    _calls("signatures.sign_calls", "signatures.sign"),
    _self("signatures.sign_self_s", "signatures.sign"),
    _calls("signatures.verify_calls", "signatures.verify"),
    _self("signatures.verify_self_s", "signatures.verify", "signatures.quorum", "signatures.cache"),
    _calls("signatures.quorum_verifies", "signatures.quorum"),
    LayerMetric("signatures.verify_cache_hit_ratio", "share", "higher",
                lambda L: L.ratio(L.counter("signatures.cache_hits"),
                                  L.counter("signatures.cache_hits") + L.counter("signatures.cache_misses"))),
    # crypto.merkle + crypto.archive
    _calls("merkle.build_calls", "merkle.build"),
    _self("merkle.build_self_s", "merkle.build"),
    _calls("merkle.apply_calls", "merkle.apply"),
    _self("merkle.apply_self_s", "merkle.apply"),
    _calls("merkle.preview_calls", "merkle.preview"),
    _self("merkle.preview_self_s", "merkle.preview"),
    _calls("merkle.prove_calls", "merkle.prove"),
    _self("merkle.prove_self_s", "merkle.prove"),
    _calls("merkle.prove_at_calls", "merkle.prove_at"),
    _self("merkle.prove_at_self_s", "merkle.prove_at"),
    _calls("merkle.verify_proof_calls", "merkle.verify_proof"),
    _self("merkle.verify_proof_self_s", "merkle.verify_proof"),
    LayerMetric("merkle.archive_fast_path_ratio", "share", "higher",
                lambda L: L.ratio(L.counter("merkle.tree_at_archived"), L.counter("merkle.tree_at"))),
    # storage
    _calls("mvstore.init_calls", "mvstore.init"),
    _self("mvstore.init_self_s", "mvstore.init"),
    _calls("mvstore.apply_calls", "mvstore.apply"),
    _self("mvstore.apply_self_s", "mvstore.apply"),
    _calls("mvstore.read_calls", "mvstore.read"),
    _self("mvstore.read_self_s", "mvstore.read"),
    _calls("partitioner.partition_of_calls", "partitioner.partition_of"),
    LayerMetric("partitioner.calls_per_txn", "count", "lower",
                lambda L: L.ratio(L.rec.calls("partitioner.partition_of"), L.tally.attempted)),
    _self("partitioner.self_s", "partitioner.partition_of"),
    # bft
    _calls("bft.instances", "bft.propose"),
    LayerMetric("bft.txns_per_batch", "count", "higher",
                lambda L: L.ratio(L.counter("bft.batch_txns"), L.rec.calls("bft.propose"))),
    _calls("bft.handle_calls", "bft.handle"),
    _self("bft.handle_self_s", "bft.handle", "bft.propose"),
    _system("bft.view_changes", "view_changes"),
    # core
    _self("core.replica_self_s", "core.replica"),
    _self("core.leader_self_s", "core.leader", "core.two_pc_prepare"),
    _self("core.client_self_s", "core.client"),
    _self("core.batch_digest_self_s", "core.batch_digest"),
    _calls("core.occ_checks", "core.occ"),
    _self("core.occ_self_s", "core.occ"),
    _system("core.conflict_aborts", "conflict_aborts"),
    _calls("core.two_pc_prepares", "core.two_pc_prepare"),
    _self("core.system_init_self_s", "core.system_init"),
    LayerMetric("core.ro_round2_share", "share", "lower",
                lambda L: L.ratio(L.tally.ro_round2, len(L.tally.ro_latencies_ms))),
    _self("edge.proxy_self_s", "edge.proxy"),
    # recovery
    _self("recovery.self_s", "recovery"),
    _system("recovery.state_transfers", "state_transfers_served"),
    _system("recovery.checkpoints_stable", "checkpoints_stable"),
    # obs
    _self("obs.self_s", "obs"),
    LayerMetric("obs.spans_recorded", "count", "lower", lambda L: L.spans_recorded),
    # verification + chaos
    _self("verification.oracle_self_s", "verification.oracle"),
    _self("chaos.run_self_s", "chaos.run"),
    _self("chaos.twin_self_s", "chaos.twin"),
    LayerMetric("chaos.twin_wall_s", "s", "lower", lambda L: L.rec.total_s("chaos.twin")),
    _self("chaos.plan_self_s", "chaos.plan"),
    # the benchmark itself
    LayerMetric("workload.generate_s", "s", "lower", lambda L: L.generate_s),
    LayerMetric("trace.wall_s", "s", "lower", lambda L: L.traced_wall_s),
    LayerMetric("trace.overhead_ratio", "ratio", "lower",
                lambda L: L.ratio(L.traced_wall_s, L.untraced_wall_s)),
    LayerMetric("trace.unattributed_share", "share", "lower",
                lambda L: L.ratio(L.rec.root_self_ns, L.rec.root_ns)),
)


def layer_metrics(ledger: Ledger) -> Dict[str, Dict[str, object]]:
    return {metric.name: _entry(metric.value(ledger), metric.unit) for metric in PER_LAYER}


def fidelity_problems(ledger: Ledger) -> List[str]:
    """Cross-check what the wrappers counted against the program's own counters."""
    problems: List[str] = []
    rec = ledger.rec
    processed = sum(sim.events_processed for sim in rec.simulators.values())
    if ledger.counter("simnet.events") != processed:
        problems.append(
            f"wrappers saw {ledger.counter('simnet.events')} events, simulators processed {processed}"
        )
    hits = misses = 0
    for system in rec.systems:
        totals = system.cache_snapshot()["totals"]
        for section in ("verify_replicas", "verify_clients"):
            hits += totals[section]["hits"]
            misses += totals[section]["misses"]
        # cache_snapshot() leaves out two memos the wrappers also see: the
        # edge proxies' verifiers and the registry's own (offline verification).
        memos = [proxy.verifier.cache for proxy in system.proxies]
        memos.append(system.env.registry._cache)
        hits += sum(memo.hits for memo in memos)
        misses += sum(memo.misses for memo in memos)
    if (ledger.counter("signatures.cache_hits"), ledger.counter("signatures.cache_misses")) != (hits, misses):
        problems.append(
            f"verify cache: wrappers saw {ledger.counter('signatures.cache_hits')} hits / "
            f"{ledger.counter('signatures.cache_misses')} misses, cache_snapshot() says {hits} / {misses}"
        )
    served = ledger.system_counters.get("snapshot_requests_served", 0)
    fast = ledger.system_counters.get("snapshot_fast_path", 0)
    rebuilt = ledger.system_counters.get("snapshot_rebuilds", 0)
    refused = ledger.system_counters.get("snapshot_refused", 0)
    if (ledger.counter("merkle.tree_at_archived"), ledger.counter("merkle.tree_at")) != (
        fast, fast + rebuilt + refused
    ) or served != fast + rebuilt:
        problems.append(
            f"archive fast path: wrappers saw {ledger.counter('merkle.tree_at_archived')}/"
            f"{ledger.counter('merkle.tree_at')}, SystemCounters say {fast}/{served} (+{refused} refused)"
        )
    return problems
