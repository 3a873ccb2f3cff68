"""Pluggable invariant oracles over a finished system run.

The hand-written tests each check one guarantee of one scenario; the chaos
engine (:mod:`repro.chaos`) instead generates *arbitrary* scenarios and needs
the guarantees packaged as reusable oracles it can run after every one.  An
oracle inspects a :class:`RunObservation` — the quiesced system plus the
execution history the driver recorded — and returns the invariant violations
it found (empty list = invariant held).

The standard suite covers the reproduction's end-to-end promises:

* **quiescent liveness** — once faults stop, every submitted transaction
  terminates, no 2PC participant stays wedged in ``prepared``, and the
  post-quiescence probe commits succeed;
* **recovery convergence** — crashed-and-restarted replicas complete state
  transfer, and replicas at the same log position agree byte-for-byte on
  their Merkle roots (no forks);
* **read-value legitimacy** — no accepted (verified) read-only result
  contains a value that neither the initial database nor any committed
  transaction wrote;
* **atomic visibility** — co-written key groups are never observed torn;
* **serializability** — the conflict graph over committed transactions and
  read-only observations is acyclic against the authoritative version order
  (Theorems 3.4/4.5 of the paper);
* **checkpoint/archive coherence** — for every batch a round-2 snapshot
  request can still name, archive-served Merkle proofs are byte-identical to
  proofs from a from-scratch rebuild of that batch's tree (the PR-2
  fast-path contract, re-checked after arbitrary churn);
* **edge freshness bound** — when ``client_staleness_bound_ms`` is armed,
  every edge-served read's certified header was within the bound at
  acceptance time (checked against the flight recorder's
  ``edge-read-accepted`` evidence);
* **phase-latency anomaly** — a *performance* oracle: outside the injected
  fault windows, per-window commit latency and per-phase attribution
  (:mod:`repro.obs.monitor`) must track the same seed's fault-free twin.
  Catches bugs that stay correctness-green but make the system slow — a
  wedged verify cache commits every transaction and still lights this up.

Oracles never raise on a violation; they *describe* it, so a single run can
report every broken invariant and the shrinker can match failures by oracle
name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import VerificationError
from repro.common.types import Key
from repro.crypto.merkle import MerkleTree
from repro.verification.history import ExecutionHistory, version_order_from_system


#: Pooled commit-latency statistics of a run's timeline windows (``commits``,
#: ``mean``, ``p95``, ``phase_per_commit``): plain numbers, no monitor.
LatencyPool = Dict[str, object]


@dataclass(frozen=True)
class OracleFailure:
    """One invariant violation, attributed to the oracle that found it."""

    oracle: str
    description: str

@dataclass
class RunObservation:
    """Everything the oracles need to know about one finished run.

    ``system`` is the quiesced :class:`~repro.core.system.TransEdgeSystem`;
    ``history`` holds what the driver recorded; the remaining fields carry
    driver-side bookkeeping the system itself cannot know (how many commits
    were submitted, which processes never finished, which replicas were
    crash/restarted along the way).
    """

    system: object
    history: ExecutionHistory
    co_written_groups: Sequence[Set[Key]] = ()
    restarted_replicas: Sequence[object] = ()
    unfinished_processes: Sequence[str] = ()
    simulation_stalled: bool = False
    probe_submitted: int = 0
    probe_committed: int = 0
    #: Live monitor of this run (:class:`repro.obs.monitor.Monitor`), when
    #: one was installed; performance oracles read its timeline.
    monitor: object = None
    #: Pooled latency baseline of the same plan's *fault-free twin* (the plan
    #: with the fault schedule stripped), when the driver produced one:
    #: :meth:`PhaseLatencyAnomalyOracle.pool` of the twin's whole timeline.
    twin_baseline: Optional[LatencyPool] = None
    #: ``(start_ms, end_ms)`` intervals during which faults were active;
    #: ``end_ms`` of ``None`` means active until the end of the run.
    fault_windows: Sequence[Tuple[float, Optional[float]]] = ()


class Oracle:
    """Base class: ``check`` returns the violations found (empty = held)."""

    name = "oracle"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        raise NotImplementedError

    def _failure(self, description: str) -> OracleFailure:
        return OracleFailure(oracle=self.name, description=description)


class QuiescentLivenessOracle(Oracle):
    """Faults stopped — did everything that was admitted terminate?"""

    name = "quiescent-liveness"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        failures: List[OracleFailure] = []
        if observation.simulation_stalled:
            failures.append(
                self._failure("simulation hit its event budget without quiescing")
            )
        for name in observation.unfinished_processes:
            failures.append(
                self._failure(f"driver process {name} never finished its workload")
            )
        system = observation.system
        stranded = system.stranded_prepared_transactions()
        if stranded:
            failures.append(
                self._failure(
                    f"{stranded} distributed transaction(s) still prepared-but-"
                    "undecided after quiescence"
                )
            )
        crashed = sorted(
            str(replica_id)
            for replica_id, replica in system.replicas.items()
            if replica.crashed
        )
        if crashed:
            failures.append(
                self._failure(f"replicas still crashed after quiescence: {crashed}")
            )
        if observation.probe_committed < observation.probe_submitted:
            failures.append(
                self._failure(
                    f"only {observation.probe_committed}/{observation.probe_submitted} "
                    "post-quiescence probe commits succeeded"
                )
            )
        return failures


class RecoveryConvergenceOracle(Oracle):
    """Restarted replicas rejoined; equal log positions mean equal state."""

    name = "recovery-convergence"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        failures: List[OracleFailure] = []
        system = observation.system
        for replica_id in observation.restarted_replicas:
            replica = system.replicas[replica_id]
            if replica.crashed:
                continue  # reported by the liveness oracle
            if replica.counters.recoveries_completed < 1:
                failures.append(
                    self._failure(
                        f"restarted replica {replica_id} never completed recovery"
                    )
                )
            elif replica.recovery.in_progress:
                failures.append(
                    self._failure(
                        f"restarted replica {replica_id} still mid-recovery "
                        "after quiescence"
                    )
                )
        # Fork detection: replicas of one partition standing at the same log
        # position must agree on the Merkle root.  (A replica may lag the tip
        # if it rejoined between instances — that is staleness, not a fork.)
        for partition in system.topology.partitions():
            by_seq: Dict[int, Dict[bytes, List[str]]] = {}
            for replica in system.cluster_replicas(partition):
                if replica.crashed:
                    continue
                roots = by_seq.setdefault(replica.log.last_seq, {})
                roots.setdefault(replica.merkle.root, []).append(str(replica.node_id))
            for seq, roots in sorted(by_seq.items()):
                if len(roots) > 1:
                    failures.append(
                        self._failure(
                            f"partition {partition} forked at log position {seq}: "
                            f"{sorted(sorted(names) for names in roots.values())}"
                        )
                    )
            # The leader must hold the cluster's certified tip: a quorum can
            # only be ahead of it if consensus moved on without it.
            leader = system.leader_replica(partition)
            ahead = [
                str(replica.node_id)
                for replica in system.cluster_replicas(partition)
                if not replica.crashed and replica.log.last_seq > leader.log.last_seq
            ]
            if len(ahead) >= system.config.quorum_size:
                failures.append(
                    self._failure(
                        f"partition {partition}: a quorum {sorted(ahead)} is ahead "
                        f"of its leader {leader.node_id}"
                    )
                )
        return failures


class ReadValueLegitimacyOracle(Oracle):
    """No accepted read-only result may contain a value nobody wrote."""

    name = "read-values"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        try:
            observation.history.check_read_only_values()
        except VerificationError as error:
            return [self._failure(str(error))]
        return []


class AtomicVisibilityOracle(Oracle):
    """Co-written key groups are observed all-or-nothing."""

    name = "atomic-visibility"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        if not observation.co_written_groups:
            return []
        try:
            observation.history.check_atomic_visibility(observation.co_written_groups)
        except VerificationError as error:
            return [self._failure(str(error))]
        return []


class SerializabilityOracle(Oracle):
    """The serialization graph is acyclic against the real version order."""

    name = "serializability"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        version_order = version_order_from_system(observation.system)
        try:
            observation.history.check_serializable(version_order)
        except VerificationError as error:
            return [self._failure(str(error))]
        return []


class CheckpointArchiveCoherenceOracle(Oracle):
    """Archive-served snapshot proofs are byte-identical to rebuilt ones.

    For each partition leader, every batch a round-2 request can still name
    (the retained, requestable headers) is resolved twice: through the
    Merkle-tree archive fast path and by rebuilding the historical tree from
    the multi-version store — roots and per-key proofs must match exactly.
    ``sample_per_partition``/``keys_per_batch`` bound the work.
    """

    name = "archive-coherence"

    def __init__(self, sample_per_partition: int = 3, keys_per_batch: int = 4) -> None:
        self._sample = sample_per_partition
        self._keys = keys_per_batch

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        failures: List[OracleFailure] = []
        system = observation.system
        for partition in system.topology.partitions():
            replica = system.leader_replica(partition)
            candidates = sorted(
                number
                for number in replica.requestable_header_batches()
                if replica.merkle.archive_covers(number)
            )
            # Newest batches stress the most recent deltas; spread the rest.
            step = max(1, len(candidates) // max(1, self._sample))
            for number in candidates[::-step][: self._sample]:
                view = replica.merkle.tree_at(number)
                if view is None:
                    failures.append(
                        self._failure(
                            f"partition {partition}: archive refused batch {number} "
                            "it claims to cover"
                        )
                    )
                    continue
                reference = MerkleTree(replica.store.snapshot_as_of(number))
                if view.root != reference.root:
                    failures.append(
                        self._failure(
                            f"partition {partition}: archive root for batch "
                            f"{number} differs from rebuild"
                        )
                    )
                    continue
                for key in list(reference.keys())[:: max(1, len(reference.keys()) // self._keys)][
                    : self._keys
                ]:
                    if view.prove(key) != reference.prove(key):
                        failures.append(
                            self._failure(
                                f"partition {partition}: proof for {key!r} at batch "
                                f"{number} differs between archive and rebuild"
                            )
                        )
        return failures


class TraceCompletenessOracle(Oracle):
    """Every traced commit request that reached a healthy leader was answered.

    State-based oracles cannot see a *lost reply*: the transaction commits,
    every replica agrees, and only the client is left waiting.  The causal
    traces (:mod:`repro.obs`) can — a trace containing a
    ``net:CommitRequest`` span but no ``net:CommitReply`` span means some
    leader swallowed the outcome.  Runs with injected faults are not
    spuriously blamed: a transaction is excused when the flight recorder
    shows its messages were dropped/delayed by fault injection, when any
    targeted partition crashed or changed leader (the retry machinery may
    legitimately leave a timed-out client behind), or when the leader itself
    reported the coordination unresumable.  No-op unless tracing is on.
    """

    name = "trace-completeness"

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        system = observation.system
        obs = getattr(getattr(system, "env", None), "obs", None)
        if obs is None or not obs.tracing:
            return []
        if observation.simulation_stalled:
            return []  # liveness already failed; orphaned traces are a symptom

        faulted_traces: Set[str] = set()
        excused_partitions: Set[int] = set()
        for event in obs.recorder.timeline():
            detail = event.detail or {}
            if event.kind in ("message-dropped", "message-delayed"):
                trace_id = detail.get("trace_id")
                if trace_id:
                    faulted_traces.add(trace_id)
            elif event.kind in (
                "replica-crash",
                "replica-restart",
                "view-change",
                "leader-suspected",
            ):
                partition = detail.get("partition")
                if partition is not None:
                    excused_partitions.add(partition)
        unresumable: Set[str] = set()
        for replica in system.replicas.values():
            unresumable.update(replica.leader_role.unresumable)

        failures: List[OracleFailure] = []
        for trace in obs.tracer.traces():
            requests = [span for span in trace.spans if span.name == "net:CommitRequest"]
            if not requests:
                continue
            if any(span.name == "net:CommitReply" for span in trace.spans):
                continue
            if trace.trace_id in faulted_traces or trace.trace_id in unresumable:
                continue
            targets = {self._destination_partition(span) for span in requests}
            if targets & excused_partitions:
                continue
            failures.append(
                self._failure(
                    f"transaction {trace.trace_id}: commit request reached a "
                    f"healthy leader (partition(s) {sorted(targets)}) but no "
                    "commit reply was ever sent"
                )
            )
        return failures

    @staticmethod
    def _destination_partition(span) -> int:
        """Partition of a net span's destination ("client:c0->P1/R0" → 1)."""
        destination = span.node.split("->")[-1]
        if destination.startswith("P") and "/" in destination:
            try:
                return int(destination[1:].split("/", 1)[0])
            except ValueError:
                return -1
        return -1


class EdgeFreshnessBoundOracle(Oracle):
    """Edge-served reads must honour the client staleness bound.

    When ``FreshnessConfig.client_staleness_bound_ms`` is armed, an honest
    client rejects any verified section whose certified header is older than
    the bound at acceptance time (the freshness clause of
    :func:`repro.core.readonly.verify_snapshot`) — so the flight-recorder
    ``edge-read-accepted`` events, which record each accepted section's
    header age at that exact moment, must all sit within the bound.  One
    outside it means the declared staleness SLO is silently unenforced:
    the check regressed, or the edge tier pinned an aged context past the
    refresh machinery.  No-op when the bound is unset, and zero false positives by construction: the oracle re-applies the
    same strict-``>`` comparison the client's own acceptance path uses.
    """

    name = "edge-freshness-bound"

    #: At most this many individual violations are itemised; the rest fold
    #: into one aggregate line so a long run cannot flood the report.
    _MAX_ITEMISED = 5

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        system = observation.system
        bound = system.config.freshness.client_staleness_bound_ms
        obs = getattr(getattr(system, "env", None), "obs", None)
        if bound is None or obs is None:
            return []
        failures: List[OracleFailure] = []
        overflow = 0
        for event in obs.recorder.timeline():
            if event.kind != "edge-read-accepted":
                continue
            detail = event.detail or {}
            staleness_ms = detail.get("staleness_ms") or {}
            for partition, staleness in sorted(staleness_ms.items()):
                if staleness <= bound:
                    continue
                if len(failures) >= self._MAX_ITEMISED:
                    overflow += 1
                    continue
                failures.append(
                    self._failure(
                        f"transaction {detail.get('txn_id')}: edge-served read "
                        f"of partition {partition} accepted against a header "
                        f"{staleness:.2f}ms old, beyond the {bound:.0f}ms "
                        f"client staleness bound (proxy {detail.get('proxy')})"
                    )
                )
        if overflow:
            failures.append(
                self._failure(
                    f"{overflow} further edge-served read(s) exceeded the "
                    f"{bound:.0f}ms staleness bound"
                )
            )
        return failures


class PhaseLatencyAnomalyOracle(Oracle):
    """Commit latency outside fault windows must track the fault-free twin.

    Correctness oracles cannot see a run that commits everything *slowly*.
    This oracle can: the chaos driver replays the same plan with the fault
    schedule stripped (and without any injected bug), and both runs carry a
    monitoring timeline (:mod:`repro.obs.monitor`).  Windows overlapping an
    injected fault interval — padded by one window of lead (a fault can
    straddle the boundary it starts in) and ``grace_ms`` of tail (queues
    drain, views settle) — are excluded from the run; the twin had no faults
    at all, so its *entire* timeline is the baseline.  The surviving
    windows' commit latencies and per-phase attribution are pooled and
    compared.  A mean or p95 beyond ``ratio`` × twin (and ``floor_ms`` above
    it, so microsecond noise on tiny baselines never trips) is an anomaly;
    the failure names the worst-regressed phase so the report reads as a
    diagnosis ("verify went 6x") rather than a stopwatch.

    Deliberately conservative: it stays silent when either run yields fewer
    than ``min_commits`` commits outside fault windows, when monitors are
    missing, or when the run already failed liveness (stalls make latency
    meaningless).  Thresholds are loose enough that scheduling drift between
    a faulted run and its twin — retries landing in different batches —
    stays well below them; the CI chaos sweep runs 25 seeds with this oracle
    armed to keep that true.

    Grading is two steps so a driver can stop after the first:
    :meth:`run_pool` pools the faulted run alone (``None`` is already the
    verdict, whatever the twin would show), :meth:`grade` compares it with
    the twin's *baseline* — :meth:`pool` of its whole timeline, plain numbers
    a driver may keep — and returns ratio and failures from the one pass.
    """

    name = "phase-latency-anomaly"

    def __init__(
        self,
        ratio: float = 2.0,
        floor_ms: float = 3.0,
        grace_ms: float = 150.0,
        min_commits: int = 8,
    ) -> None:
        self._ratio = ratio
        self._floor_ms = floor_ms
        self._grace_ms = grace_ms
        self._min_commits = min_commits

    def run_pool(self, observation: RunObservation) -> Optional[LatencyPool]:
        """The run's own pool outside its fault windows, or None.

        None means the oracle stays silent *whatever the twin shows* — no
        monitor, a stalled run, or fewer than ``min_commits`` commits
        survive the exclusion — so a driver need not produce a twin at all.
        """
        monitor = observation.monitor
        if monitor is None or observation.simulation_stalled:
            return None
        lead_ms = monitor.config.window_ms
        excluded = [
            (start - lead_ms, (float("inf") if end is None else end + self._grace_ms))
            for start, end in observation.fault_windows
        ]
        pool = self.pool(monitor, excluded)
        return pool if pool["commits"] >= self._min_commits else None

    def grade(
        self, run_pool: Optional[LatencyPool], baseline: Optional[LatencyPool]
    ) -> Tuple[Optional[float], List[OracleFailure]]:
        """``(measure, check)`` of one :meth:`run_pool` against a twin baseline.

        The ratio is the worst run/twin ratio over pooled commit mean and
        p95.  The chaos fleet records it on every report: below the failure
        threshold but above ~1.2 it is an oracle *near-miss* — a coverage
        signal worth mutating toward even though nothing failed.
        """
        if (
            run_pool is None
            or baseline is None
            or baseline["commits"] < self._min_commits
        ):
            return None, []
        ratios: List[float] = []
        anomalies: List[str] = []
        for stat in ("mean", "p95"):
            run_value = run_pool[stat]
            twin_value = baseline[stat]
            if twin_value > 0:
                ratios.append(run_value / twin_value)
            if run_value > max(twin_value * self._ratio, twin_value + self._floor_ms):
                anomalies.append(
                    f"commit {stat} {run_value:.2f}ms vs twin {twin_value:.2f}ms"
                )
        failures: List[OracleFailure] = []
        if anomalies:
            failures.append(
                self._failure(
                    "latency regression outside fault windows: "
                    + ", ".join(anomalies)
                    + self._worst_phase_note(run_pool, baseline)
                )
            )
        return (max(ratios) if ratios else None), failures

    def measure(self, observation: RunObservation) -> Optional[float]:
        """Worst run/twin ratio over pooled commit mean and p95, or None."""
        return self.grade(self.run_pool(observation), observation.twin_baseline)[0]

    def check(self, observation: RunObservation) -> List[OracleFailure]:
        return self.grade(self.run_pool(observation), observation.twin_baseline)[1]

    @staticmethod
    def pool(monitor, excluded=()) -> LatencyPool:
        """Pooled latency/phase stats over a monitor's non-excluded windows.

        With nothing excluded this is a fault-free twin's *baseline*: plain
        numbers that hold no reference to the monitor or its deployment.

        A window's reach extends back to the *start* of the earliest
        transaction that finished in it: a commit stuck behind a crashed
        leader ends long after the fault lifted but its latency was caused
        inside the fault window, so a window holding such a straggler is
        excluded wholesale (latencies and phase sums both carry its cost).
        """
        latencies: List[float] = []
        commits = 0
        phase_ms: Dict[str, float] = {}
        for window in monitor.timeline.samples():
            reach = window.start_ms
            if window.earliest_root_start_ms is not None:
                reach = min(reach, window.earliest_root_start_ms)
            if any(reach < hi and window.end_ms > lo for lo, hi in excluded):
                continue
            latencies.extend(window.latencies)
            commits += window.commits
            for phase in sorted(window.phase_ms):
                phase_ms[phase] = phase_ms.get(phase, 0.0) + window.phase_ms[phase]
        ordered = sorted(latencies)
        mean = sum(ordered) / len(ordered) if ordered else 0.0
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))] if ordered else 0.0
        return {
            "commits": commits,
            "mean": mean,
            "p95": p95,
            "phase_per_commit": {
                phase: total / commits for phase, total in phase_ms.items()
            }
            if commits
            else {},
        }

    def _worst_phase_note(self, run_pool, twin_pool) -> str:
        """Name the phase whose per-commit cost regressed the most."""
        worst: "Optional[Tuple[float, str, float, float]]" = None
        twin_phases = twin_pool["phase_per_commit"]
        for phase, run_cost in sorted(run_pool["phase_per_commit"].items()):
            twin_cost = twin_phases.get(phase, 0.0)
            excess = run_cost - twin_cost
            if worst is None or excess > worst[0]:
                worst = (excess, phase, run_cost, twin_cost)
        if worst is None or worst[0] <= 0:
            return ""
        _, phase, run_cost, twin_cost = worst
        return (
            f"; worst phase: {phase} {run_cost:.2f}ms/commit "
            f"vs twin {twin_cost:.2f}ms/commit"
        )


def standard_suite() -> List[Oracle]:
    """The default oracle suite, cheapest first."""
    return [
        QuiescentLivenessOracle(),
        TraceCompletenessOracle(),
        EdgeFreshnessBoundOracle(),
        RecoveryConvergenceOracle(),
        ReadValueLegitimacyOracle(),
        AtomicVisibilityOracle(),
        SerializabilityOracle(),
        CheckpointArchiveCoherenceOracle(),
    ]


def run_suite(
    observation: RunObservation, oracles: Sequence[Oracle] = ()
) -> List[OracleFailure]:
    """Run every oracle and collect all violations (never stops early)."""
    failures: List[OracleFailure] = []
    for oracle in oracles or standard_suite():
        failures.extend(oracle.check(observation))
    return failures
