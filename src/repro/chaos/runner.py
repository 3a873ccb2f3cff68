"""Execute one chaos plan and judge it with the invariant oracles.

The runner is a deterministic function of the plan: it builds the system
from the plan's config point, pre-generates every workload segment's
transaction specifications from the segment's own sub-seed, schedules the
fault plan on the simulator clock, runs to quiescence, restarts whatever is
still down, sends a small probe workload (liveness under quiescence), and
hands the recorded :class:`~repro.verification.history.ExecutionHistory`
plus the quiesced system to the oracle suite.

Two bookkeeping subtleties keep the oracles sound under faults:

* **Write-value uniqueness.**  Every write value is retagged
  ``s<segment>-t<txn>:<key>`` so that no two transactions anywhere in the
  run write the same bytes — the wr/ww edges of the serialization graph
  need unambiguous writers.
* **Unknown commit outcomes.**  A commit whose reply timed out may still
  have committed server-side.  Recording it as aborted would make later
  reads of its values look illegitimate, so after quiescence the runner
  resolves every unknown against the authoritative version chains and the
  replicated decision records, and records it as committed when any
  evidence of commitment exists.  (The planner additionally confines
  *client*-targeted drop faults to the read path — read-phase timeouts
  abort *before* submission, so they are never ambiguous.  Core-targeted
  drops hit replica↔replica links only, where the reliable channel
  retransmits; a commit made slow by core loss that still times out at the
  client lands in the same unknown-outcome resolution.)
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict, namedtuple
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.config import MonitorConfig

from repro.common.errors import SimulationError
from repro.common.ids import ReplicaId
from repro.common.types import Key, TxnKind, Value
from repro.core.messages import (
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadReply,
    ReadRequest,
    SnapshotReply,
    SnapshotRequest,
)
from repro.core.system import TransEdgeSystem
from repro.edge.messages import EdgeReadReply, EdgeReadRequest
from repro.crypto.hashing import sha256_hex, stable_encode
from repro.edge.byzantine import install_byzantine
from repro.simnet.faults import FaultRule, FaultSchedule
from repro.simnet.proc import Sleep
from repro.verification.history import ExecutionHistory
from repro.verification.oracles import (
    LatencyPool,
    OracleFailure,
    PhaseLatencyAnomalyOracle,
    RunObservation,
    run_suite,
)
from repro.workload.generator import TxnSpec, WorkloadGenerator, WorkloadProfile

from repro.chaos.bugs import InjectedBug, get_bug
from repro.chaos.plan import ChaosPlan, plan_from_seed

#: Read-path message types a client-targeted drop fault may affect (see
#: module docstring; core-targeted drops match all intra-cluster traffic).
_DROPPABLE = (
    ReadRequest,
    ReadReply,
    ReadOnlyRequest,
    ReadOnlyReply,
    SnapshotRequest,
    SnapshotReply,
    EdgeReadRequest,
    EdgeReadReply,
)


@dataclass
class ChaosReport:
    """Everything one chaos run produced, failures first."""

    plan: ChaosPlan
    failures: List[OracleFailure]
    committed: int = 0
    aborted: int = 0
    unknown_resolved_committed: int = 0
    read_only_recorded: int = 0
    read_only_unverified: int = 0
    probe_submitted: int = 0
    probe_committed: int = 0
    fault_events: int = 0
    crashes: int = 0
    restarts: int = 0
    events_processed: int = 0
    elapsed_sim_ms: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    history_digest: str = ""
    #: Streaming digest over every causal span the run recorded (repro.obs).
    #: Deliberately outside :meth:`fingerprint`: the fingerprint predates
    #: tracing and archived fingerprints must stay comparable.
    trace_digest: str = ""
    #: Flight-recorder tail + failing transactions' full traces, attached
    #: only when an oracle failed — the repro artifact's black box.
    flight_recorder: List[Dict[str, object]] = field(default_factory=list)
    failing_traces: List[Dict[str, object]] = field(default_factory=list)
    #: ``(start_ms, end_ms-or-None)`` intervals the fault plan was active
    #: (simulator clock); the performance oracle excludes them.
    fault_windows: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    #: Node-health summary from the live monitor (states + transitions).
    #: Like ``trace_digest``, deliberately outside :meth:`fingerprint`.
    health: Dict[str, object] = field(default_factory=dict)
    #: Worst commit-latency ratio vs the fault-free twin outside fault
    #: windows (``PhaseLatencyAnomalyOracle.measure``), when the run was
    #: graded.  A coverage signal (near-misses in [1.2, 2.0) are rare-path
    #: evidence for the fleet), deliberately outside :meth:`fingerprint`.
    perf_ratio: Optional[float] = None
    #: What became of the fault-free twin: ``"not-needed"``, ``"unjudgeable"``
    #: or ``"graded"`` (see :func:`run_plan`).  Outside :meth:`fingerprint`.
    twin: str = "not-needed"
    #: Whether a graded run's baseline was reused, not simulated.  Depends on
    #: what this process ran before: printed, never compared.
    twin_reused: bool = False
    #: Transient handles (not serialised): the run's live monitor and the
    #: oracle observation, kept so :func:`run_plan` can grade the run
    #: against its fault-free twin after ``_run`` returns.
    monitor: object = None
    observation: object = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def fingerprint(self) -> str:
        """Stable digest of everything observable: equal ⇒ identical run."""
        return sha256_hex(
            stable_encode(
                {
                    "history": self.history_digest,
                    "counters": {k: int(v) for k, v in self.counters.items()},
                    "committed": self.committed,
                    "aborted": self.aborted,
                    "read_only": self.read_only_recorded,
                    "unverified": self.read_only_unverified,
                    "events": self.events_processed,
                    "failures": [
                        [f.oracle, f.description] for f in self.failures
                    ],
                }
            )
        )

    def summary_line(self) -> str:
        status = "ok" if self.ok else f"FAIL({len(self.failures)})"
        return (
            f"seed {self.plan.seed}: {status}  "
            f"commits={self.committed} aborts={self.aborted} "
            f"reads={self.read_only_recorded} faults={self.fault_events} "
            f"events={self.events_processed}"
        )


def _history_digest(history: ExecutionHistory) -> str:
    commits = [
        [txn.txn_id, sorted((k, v) for k, v in txn.writes.items())]
        for txn in history.committed
    ]
    reads = [
        [
            obs.txn_id,
            sorted((k, v) for k, v in obs.values.items()),
            sorted((k, int(v)) for k, v in obs.versions.items()),
        ]
        for obs in history.read_only
    ]
    return sha256_hex(stable_encode({"commits": commits, "reads": reads}))


def _tagged_value(segment_index: int, txn_index: int, key: Key, size: int) -> Value:
    prefix = f"s{segment_index}-t{txn_index}:{key}".encode("ascii")
    return prefix.ljust(size, b".")


class _Tracker:
    """Mutable driver-side bookkeeping shared by all segment processes."""

    def __init__(self) -> None:
        self.committed = 0
        self.aborted = 0
        self.read_only_recorded = 0
        self.read_only_unverified = 0
        #: txn_id → writes, for commits whose reply timed out (outcome unknown).
        self.unknown: Dict[str, Dict[Key, Value]] = {}


def _segment_specs(
    plan: ChaosPlan, segment_index: int, population: Sequence[Key], partitioner
) -> List[TxnSpec]:
    """Pre-generate a segment's transaction stream from its sub-seed."""
    segment = plan.segments[segment_index]
    if segment.kind == "group-write":
        group = plan.groups[segment.group % len(plan.groups)]
        return [
            TxnSpec(
                kind=TxnKind.DISTRIBUTED_READ_WRITE,
                read_keys=(),
                writes={key: b"" for key in group},  # values retagged at send
            )
            for _ in range(segment.count)
        ]
    if segment.kind == "group-read":
        keys = tuple(sorted({key for group in plan.groups for key in group}))
        return [
            TxnSpec(kind=TxnKind.READ_ONLY, read_keys=keys, writes={})
            for _ in range(segment.count)
        ]
    profile = WorkloadProfile(
        read_ops=3,
        write_ops=2,
        read_only_ops=2,
        value_size=plan.config.value_size,
        read_only_fraction=segment.read_only_fraction,
        local_fraction=segment.local_fraction,
        distribution=segment.distribution,
        zipf_theta=segment.zipf_theta,
    )
    generator = WorkloadGenerator(
        population, partitioner, profile=profile, seed=segment.seed
    )
    if segment.kind == "read-only":
        return [generator.read_only() for _ in range(segment.count)]
    return list(generator.mixed_stream(segment.count))


def _segment_body(
    client,
    segment,
    segment_index: int,
    specs: List[TxnSpec],
    history: ExecutionHistory,
    tracker: _Tracker,
    value_size: int,
):
    def body():
        if segment.start_ms > 0:
            yield Sleep(segment.start_ms)
        for txn_index, spec in enumerate(specs):
            if segment.gap_ms > 0:
                yield Sleep(segment.gap_ms)
            if spec.kind is TxnKind.READ_ONLY:
                result = yield from client.read_only_txn(list(spec.read_keys))
                if result.verified:
                    tracker.read_only_recorded += 1
                    history.record_read_only(
                        result.txn_id, result.values, result.versions
                    )
                else:
                    tracker.read_only_unverified += 1
                continue
            writes = {
                key: _tagged_value(segment_index, txn_index, key, value_size)
                for key in spec.writes
            }
            result = yield from client.read_write_txn(list(spec.read_keys), writes)
            if result.committed:
                tracker.committed += 1
                history.record_commit(result.txn_id, {}, writes)
            else:
                tracker.aborted += 1
                if result.abort_reason == "commit reply timed out":
                    # Outcome unknown: resolved post-quiescence.
                    tracker.unknown[result.txn_id] = writes

    return body


def _resolve_unknown_outcomes(
    system: TransEdgeSystem, history: ExecutionHistory, tracker: _Tracker
) -> int:
    """Record unknown-outcome commits that demonstrably committed.

    Evidence, in order: any of the transaction's (unique) write values
    appearing in an authoritative version chain, or a replicated commit
    decision naming the transaction.
    """
    if not tracker.unknown:
        return 0
    # Only the unknown transactions' own write keys can carry evidence
    # (values are unique by construction), so scan just those chains.
    wanted: Set[Key] = {
        key for writes in tracker.unknown.values() for key in writes
    }
    present: Set[Tuple[Key, Value]] = set()
    for partition in system.topology.partitions():
        replica = system.leader_replica(partition)
        for key in sorted(wanted):
            if key not in replica.store:
                continue
            for _, value in replica.store.history(key):
                present.add((key, value))
    resolved = 0
    for txn_id in sorted(tracker.unknown):
        writes = tracker.unknown[txn_id]
        committed = any((key, value) in present for key, value in writes.items())
        if not committed:
            for replica in system.replicas.values():
                record = replica.decided.get(txn_id)
                if record is not None and record[1].committed:
                    committed = True
                    break
                if txn_id in replica.local_decided:
                    committed = True
                    break
        if committed:
            resolved += 1
            history.record_commit(txn_id, {}, writes)
    return resolved


def _schedule_faults(
    plan: ChaosPlan,
    system: TransEdgeSystem,
    bug: Optional[InjectedBug],
    crash_log: List[ReplicaId],
    restart_log: List[ReplicaId],
) -> List[Tuple[float, Optional[float]]]:
    """Schedule the fault plan; returns each fault's active interval.

    Intervals are on the simulator clock (plan times are run-relative and
    anchored at "now").  An end of ``None`` means the fault never lifts
    within the run — byzantine proxies stay installed, and crashes are
    never restarted under a ``skip_restarts`` bug.
    """
    simulator = system.env.simulator
    schedule = FaultSchedule(system.fault_injector, simulator)
    skip_restarts = bug is not None and bug.skip_restarts
    # Fault times are run-relative; the bootstrap (genesis batches) already
    # advanced the simulated clock, so anchor the plan at "now".
    base = simulator.now
    windows: List[Tuple[float, Optional[float]]] = []

    def plan_crash(event, target_of) -> None:
        def fire() -> None:
            target = target_of()
            if target is None or system.replicas[target].crashed:
                return
            system.crash_replica(target)
            crash_log.append(target)
            if skip_restarts:
                return

            def lift() -> None:
                if system.replicas[target].crashed:
                    system.restart_replica(target)
                    restart_log.append(target)

            simulator.schedule(event.duration_ms, lift)

        simulator.schedule_at(base + event.at_ms, fire)

    for event in plan.faults:
        if event.kind == "byzantine-proxy" or (
            skip_restarts and event.kind in ("crash", "leader-kill")
        ):
            windows.append((base + event.at_ms, None))
        else:
            windows.append(
                (base + event.at_ms, base + event.at_ms + event.duration_ms)
            )
        if event.kind == "crash":
            members = system.topology.members(event.partition % system.config.num_partitions)

            def target_of(event=event, members=members):
                return members[event.replica_index % len(members)]

            plan_crash(event, target_of)
        elif event.kind == "leader-kill":
            def leader_of(event=event):
                return system.topology.leader(
                    event.partition % system.config.num_partitions
                )

            plan_crash(event, leader_of)
        elif event.kind == "drop":
            if event.target == "core":
                # Lossy intra-cluster links: every ordered replica pair of the
                # partition drops with the event's probability.  All matching
                # traffic (envelopes, acks, retransmissions) travels the
                # reliable channel, which is what makes the window survivable.
                members = system.topology.members(
                    event.partition % system.config.num_partitions
                )
                for link_src in members:
                    for link_dst in members:
                        if link_src == link_dst:
                            continue
                        schedule.drop_window(
                            base + event.at_ms,
                            FaultRule(
                                src=link_src,
                                dst=link_dst,
                                probability=event.probability,
                            ),
                            until_ms=base + event.at_ms + event.duration_ms,
                        )
                continue
            client = system.clients[event.client % len(system.clients)]
            for message_type in _DROPPABLE:
                rule = (
                    FaultRule(
                        src=client.node_id,
                        message_type=message_type,
                        probability=event.probability,
                    )
                    if event.direction == "to-core"
                    else FaultRule(
                        dst=client.node_id,
                        message_type=message_type,
                        probability=event.probability,
                    )
                )
                schedule.drop_window(
                    base + event.at_ms,
                    rule,
                    until_ms=base + event.at_ms + event.duration_ms,
                )
        elif event.kind == "delay":
            schedule.delay_window(
                base + event.at_ms,
                FaultRule(probability=event.probability),
                extra_ms=event.extra_ms,
                until_ms=base + event.at_ms + event.duration_ms,
            )
        elif event.kind == "byzantine-proxy":
            if not system.proxies:
                continue
            proxy = system.proxies[event.proxy % len(system.proxies)]
            simulator.schedule_at(
                base + event.at_ms,
                lambda proxy=proxy, event=event: install_byzantine(
                    proxy, event.behaviour
                ),
            )
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")
    return windows


#: Fault-free twin baselines one process keeps (LRU); each is a dozen floats.
TWIN_MEMO_SIZE = 64


TwinCacheInfo = namedtuple("TwinCacheInfo", "hits misses maxsize currsize")


class _TwinBaselines:
    """``twin_baseline(plan, max_events)``: simulated once per twin plan.

    Returns the pooled latency baseline of ``plan``'s fault-free twin
    (:meth:`PhaseLatencyAnomalyOracle.pool` of its whole timeline), or
    ``None`` when the twin stalled: a truncated timeline is no baseline and
    is never kept.  The memo is sound because of what it may hold — a pure
    function of ``replace(plan, faults=())`` and the event budget, computed
    by the *unpatched* system, reduced to numbers that pin no deployment (a
    ``Monitor`` reaches its whole system through ``snapshot_fn``).
    """

    def __init__(self) -> None:
        self._kept: "OrderedDict[Tuple[str, int], LatencyPool]" = OrderedDict()
        self._hits = self._misses = 0

    def __call__(self, plan: ChaosPlan, max_events: int) -> Optional[LatencyPool]:
        twin_plan = replace(plan, faults=())
        key = (twin_plan.digest(), max_events)
        baseline = self._kept.get(key)
        if baseline is not None:
            self._hits += 1
            self._kept.move_to_end(key)
            return baseline
        self._misses += 1
        twin = _run(twin_plan, None, max_events)
        if twin.observation.simulation_stalled:
            return None
        baseline = self._kept[key] = PhaseLatencyAnomalyOracle.pool(twin.monitor)
        if len(self._kept) > TWIN_MEMO_SIZE:
            self._kept.popitem(last=False)
        return baseline

    def cache_info(self) -> TwinCacheInfo:
        return TwinCacheInfo(self._hits, self._misses, TWIN_MEMO_SIZE, len(self._kept))

    def cache_clear(self) -> None:
        self._kept.clear()
        self._hits = self._misses = 0


twin_baseline = _TwinBaselines()

#: Empty the twin memo — for code that patches the *honest* system between
#: two ``run_plan`` calls (a bug patch never reaches the twin; a
#: ``monkeypatch`` of the system itself does).
forget_twins = twin_baseline.cache_clear


def run_plan(
    plan: ChaosPlan,
    bug: "InjectedBug | str | None" = None,
    max_events: int = 4_000_000,
    monitor: bool = True,
    perf_oracle: bool = True,
) -> ChaosReport:
    """Execute ``plan`` and return its report (deterministic in the plan).

    With ``perf_oracle`` (and monitoring on), the run is additionally graded
    by the phase-latency anomaly oracle against its *fault-free twin*: the
    same plan with the fault schedule stripped, executed **outside** the
    injected-bug patch.  ``report.twin`` says what became of it:

    * ``"not-needed"`` — the run is already its own twin (no faults, no
      bug), the oracle is off, or latency is meaningless (stalled run);
    * ``"unjudgeable"`` — *judgeable first*: the run's own windows are
      pooled before anything else, and with fewer than ``min_commits``
      commits outside its fault windows the oracle is silent whatever a
      twin shows, so none is simulated (also: the twin itself stalled);
    * ``"graded"`` — *one baseline per twin plan*: against the baseline
      from :data:`twin_baseline`, which simulates each twin plan once.

    ``monitor=False`` disables the live monitor only — the cost model is
    untouched, which is exactly the configuration the neutrality tests
    compare against.
    """
    if isinstance(bug, str):
        bug = get_bug(bug)
    patch = bug.patch() if bug is not None else contextlib.nullcontext()
    with patch:
        report = _run(plan, bug, max_events, monitor=monitor)
    observation = report.observation
    if not (
        perf_oracle
        and report.monitor is not None
        and (plan.faults or bug is not None)
        and not observation.simulation_stalled
    ):
        return report
    oracle = PhaseLatencyAnomalyOracle()
    run_pool = oracle.run_pool(observation)
    hits = twin_baseline.cache_info().hits
    baseline = twin_baseline(plan, max_events) if run_pool is not None else None
    if baseline is None:
        report.twin = "unjudgeable"
        return report
    report.twin = "graded"
    report.twin_reused = twin_baseline.cache_info().hits > hits
    report.perf_ratio, perf_failures = oracle.grade(run_pool, baseline)
    if perf_failures:
        had_failures = bool(report.failures)
        report.failures.extend(perf_failures)
        if not had_failures:
            # Late failure: attach the black box _run skipped.
            obs = observation.system.env.obs
            report.flight_recorder = obs.recorder.as_dicts(last_n=200)
    return report


def run_seed(
    seed: int,
    bug: "InjectedBug | str | None" = None,
    max_events: int = 4_000_000,
    monitor: bool = True,
    perf_oracle: bool = True,
) -> ChaosReport:
    return run_plan(
        plan_from_seed(seed),
        bug=bug,
        max_events=max_events,
        monitor=monitor,
        perf_oracle=perf_oracle,
    )


def _run(
    plan: ChaosPlan,
    bug: Optional[InjectedBug],
    max_events: int,
    monitor: bool = True,
) -> ChaosReport:
    # Tracing is always on under chaos: spans draw no randomness and add no
    # simulator events, so fingerprints are unchanged, and the traces are
    # both an oracle input (trace completeness) and the failure artifact's
    # flight-recorder payload.  The retention window and per-node rings are
    # enlarged so excuse events (drops, delays) survive long fault storms.
    config = plan.config.to_system_config().with_tracing(
        True, max_traces=20_000, ring_capacity=100_000
    )
    if not monitor:
        # Escape hatch (``--no-monitor``): disable only the live monitor,
        # never the cost model — so this configuration is what the
        # monitoring-neutrality tests diff fingerprints against.
        config = replace(config, monitor=MonitorConfig(enabled=False)).validate()
    system = TransEdgeSystem(config)
    history = ExecutionHistory(system.initial_data)
    tracker = _Tracker()
    reserved = {key for group in plan.groups for key in group}
    population = [key for key in sorted(system.initial_data) if key not in reserved]

    clients = [
        system.create_client(
            f"chaos-{index}",
            commit_timeout_ms=plan.config.commit_timeout_ms,
            request_timeout_ms=plan.config.request_timeout_ms,
        )
        for index in range(plan.num_clients)
    ]

    processes = []
    for segment_index, segment in enumerate(plan.segments):
        specs = _segment_specs(plan, segment_index, population, system.partitioner)
        client = clients[segment.client % len(clients)]
        processes.append(
            client.spawn(
                _segment_body(
                    client,
                    segment,
                    segment_index,
                    specs,
                    history,
                    tracker,
                    plan.config.value_size,
                )(),
                name=f"chaos-seg-{segment_index}",
            )
        )

    crash_log: List[ReplicaId] = []
    restart_log: List[ReplicaId] = []
    fault_windows = _schedule_faults(plan, system, bug, crash_log, restart_log)

    stalled = False
    try:
        system.run_until_idle(max_events=max_events)
    except SimulationError:
        stalled = True

    # Quiescence: lift anything still down (the honest runner always rejoins
    # crashed replicas; the skip-crash-restarts bug models forgetting to).
    if not (bug is not None and bug.skip_restarts) and not stalled:
        for replica_id in sorted(
            (r for r in system.replicas if system.replicas[r].crashed), key=str
        ):
            system.restart_replica(replica_id)
            restart_log.append(replica_id)
        system.fault_injector.clear()
        try:
            system.run_until_idle(max_events=max_events)
        except SimulationError:
            stalled = True

    # Probe: once faults stop, fresh commits must succeed on every partition.
    probe_submitted = 0
    probe_results: List[object] = []
    if not stalled:
        probe = system.create_client(
            "chaos-probe", commit_timeout_ms=plan.config.commit_timeout_ms
        )
        keys_by_partition = system.partitioner.group_keys(population)
        probe_writes: List[Dict[Key, Value]] = []
        for partition in sorted(keys_by_partition):
            keys = sorted(keys_by_partition[partition])[:2]
            for index, key in enumerate(keys):
                probe_writes.append(
                    {key: f"probe-p{partition}-{index}:{key}".encode("ascii").ljust(
                        plan.config.value_size, b"."
                    )}
                )
        probe_submitted = len(probe_writes)

        def probe_body():
            for writes in probe_writes:
                result = yield from probe.read_write_txn([], dict(writes))
                probe_results.append(result)
                if result.committed:
                    history.record_commit(result.txn_id, {}, dict(writes))

        processes.append(probe.spawn(probe_body(), name="chaos-probe"))
        try:
            system.run_until_idle(max_events=max_events)
        except SimulationError:
            stalled = True

    probe_committed = sum(1 for result in probe_results if result.committed)
    resolved = _resolve_unknown_outcomes(system, history, tracker)

    # Close the monitoring timeline's tail window before anything reads it
    # (flush only samples counters — it cannot perturb the quiesced system).
    if system.monitor is not None:
        system.monitor.flush(system.now)

    observation = RunObservation(
        system=system,
        history=history,
        co_written_groups=[set(group) for group in plan.groups],
        restarted_replicas=sorted(set(restart_log), key=str),
        unfinished_processes=sorted(
            process.name for process in processes if not process.finished
        ),
        simulation_stalled=stalled,
        probe_submitted=probe_submitted,
        probe_committed=probe_committed,
        monitor=system.monitor,
        fault_windows=tuple(fault_windows),
    )
    failures = run_suite(observation)

    obs = system.env.obs
    flight_recorder: List[Dict[str, object]] = []
    failing_traces: List[Dict[str, object]] = []
    if failures:
        flight_recorder = obs.recorder.as_dicts(last_n=200)
        # Any retained trace a failure names by id ships whole: the artifact
        # then shows the failing transaction's entire causal history.
        descriptions = " ".join(f.description for f in failures)
        failing_traces = [
            trace.to_dict()
            for trace in obs.tracer.traces()
            if trace.trace_id in descriptions
        ]

    counters = {
        name: int(value) for name, value in asdict(system.counters()).items()
    }
    counters.update(
        {
            f"transport_{name}": int(value)
            for name, value in system.env.reliability.counters.items()
        }
    )
    return ChaosReport(
        plan=plan,
        failures=failures,
        committed=tracker.committed,
        aborted=tracker.aborted,
        unknown_resolved_committed=resolved,
        read_only_recorded=tracker.read_only_recorded,
        read_only_unverified=tracker.read_only_unverified,
        probe_submitted=probe_submitted,
        probe_committed=probe_committed,
        fault_events=len(plan.faults),
        crashes=len(crash_log),
        restarts=len(restart_log),
        events_processed=system.env.simulator.events_processed,
        elapsed_sim_ms=system.now,
        counters=counters,
        history_digest=_history_digest(history),
        trace_digest=obs.tracer.digest(),
        flight_recorder=flight_recorder,
        failing_traces=failing_traces,
        fault_windows=list(fault_windows),
        health=system.monitor.health.summary() if system.monitor is not None else {},
        monitor=system.monitor,
        observation=observation,
    )
