"""The four benchmark workloads: inputs from a seed, deployment, execution, checks.

Each workload separates four steps so the harness can time them apart:

``generate(seed, scale)``
    builds the *inputs* (system configuration, transaction specifications,
    chaos plans) from the seed alone.  The program under test only ever
    receives these inputs.  Not timed as set-up or run; reported as
    ``workload.generate_s``.
``setup(inputs)``
    from nothing to a deployment that can accept its first transaction
    (``setup_s``).
``execute(state, inputs)``
    the closed-loop run itself (the wall time behind ``txn_per_wall_s``).
``check(state, inputs, tally)``
    untimed correctness checks; returns a list of problems (empty = correct).
    ``notes(state)`` adds remarks that are not problems.

All load is *closed loop*: a driver submits its next transaction only after
the previous one completed, with the stated number of drivers.  Message
delays are the injected ``LATENCY`` below (simulated), not a real network.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.chaos.plan import ChaosPlan, plan_from_seed
from repro.chaos.runner import ChaosReport, run_plan
from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.common.types import Key, TxnKind, Value
from repro.core.system import TransEdgeSystem, generate_initial_data
from repro.simnet.proc import Sleep
from repro.storage.partitioner import HashPartitioner
from repro.workload.generator import TxnSpec, WorkloadGenerator, WorkloadProfile

#: Injected message delays (ms): the paper's single-facility testbed, the
#: same numbers as ``repro.bench.experiments.latency_config()``.  Copied, not
#: imported, so a rewrite of the figure harness cannot move the benchmark.
LATENCY = LatencyConfig(
    intra_cluster_ms=0.3,
    inter_cluster_ms=1.0,
    client_to_cluster_ms=0.5,
    inter_cluster_extra_ms=0.0,
    jitter_fraction=0.1,
)

VALUE_SIZE = 64


# ---------------------------------------------------------------------------
# what one repetition produced
# ---------------------------------------------------------------------------


#: The run is timed in slices of this many simulator events (see
#: ``metrics.quiet_wall_s``: the slices of one repetition are compared with
#: the same slices of the others).
SLICE_EVENTS = 1_000


@dataclass
class Tally:
    """Client-side record of one repetition.

    Everything except ``slice_s`` is a simulated result: a function of the
    inputs alone, identical in every repetition.
    """

    attempted: int = 0
    committed: int = 0
    aborted: int = 0
    reads_verified: int = 0
    reads_unverified: int = 0
    ro_round2: int = 0
    ro_latencies_ms: List[float] = field(default_factory=list)
    commit_latencies_ms: List[float] = field(default_factory=list)
    #: Simulated seconds during which transactions were in flight.
    sim_busy_s: float = 0.0
    events: int = 0
    #: Digest(s) of everything observable, for the tracing-neutrality check.
    fingerprints: Tuple[str, ...] = ()
    #: Wall seconds of each slice of the run, in order (host time).
    slice_s: List[float] = field(default_factory=list)

    @property
    def successful(self) -> int:
        return self.committed + self.reads_verified


@dataclass
class Stream:
    """One closed-loop stream: ``drivers`` processes over ``clients`` nodes."""

    prefix: str
    specs: List[TxnSpec]
    drivers: int
    clients: int
    pacing_ms: float = 0.0


# ---------------------------------------------------------------------------
# workloads on one TransEdge deployment
# ---------------------------------------------------------------------------


@dataclass
class SystemInputs:
    config: SystemConfig
    streams: List[Stream]

    @property
    def submitted(self) -> int:
        return sum(len(stream.specs) for stream in self.streams)


@dataclass
class SystemState:
    system: TransEdgeSystem
    #: key -> values written by committed transactions (filled by execute).
    committed_values: Dict[Key, Set[Value]] = field(default_factory=dict)
    written_keys: Set[Key] = field(default_factory=set)
    read_values: List[Tuple[Key, Optional[Value]]] = field(default_factory=list)


def _scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(count * scale)))


class SystemWorkload:
    """A workload that drives transaction streams against one deployment."""

    def __init__(
        self,
        name: str,
        deployment: str,
        load: str,
        why: str,
        fault_tolerance: int,
        keys: int,
        batch: BatchConfig,
    ) -> None:
        self.name = name
        self.deployment = deployment
        self.load = load
        self.why = why
        self._fault_tolerance = fault_tolerance
        self._keys = keys
        self._batch = batch

    # -- inputs -------------------------------------------------------------

    def _config(self, scale: float) -> SystemConfig:
        return SystemConfig(
            num_partitions=5,
            fault_tolerance=self._fault_tolerance,
            batch=self._batch,
            latency=LATENCY,
            initial_keys=_scaled(self._keys, scale, minimum=500),
            value_size=VALUE_SIZE,
            seed=7,
        ).validate()

    def _streams(self, generator: WorkloadGenerator, scale: float) -> List[Stream]:
        raise NotImplementedError

    def generate(self, seed: int, scale: float = 1.0) -> SystemInputs:
        config = self._config(scale)
        generator = WorkloadGenerator(
            sorted(generate_initial_data(config)),
            HashPartitioner(config.num_partitions),
            profile=WorkloadProfile(value_size=VALUE_SIZE),
            seed=11 + seed,
        )
        return SystemInputs(config=config, streams=self._streams(generator, scale))

    # -- one repetition -----------------------------------------------------

    def setup(self, inputs: SystemInputs) -> SystemState:
        return SystemState(system=TransEdgeSystem(inputs.config))

    def execute(self, state: SystemState, inputs: SystemInputs) -> Tally:
        system = state.system
        tally = Tally()
        window: List[float] = []  # first start / last end, simulated ms

        def driver(client, specs: Iterator[TxnSpec], pacing_ms: float):
            for spec in specs:
                if pacing_ms > 0:
                    yield Sleep(pacing_ms)
                if not window:
                    window.extend((client.now, client.now))
                if spec.kind is TxnKind.READ_ONLY:
                    result = yield from client.read_only_txn(spec.read_keys)
                    if result.verified:
                        tally.reads_verified += 1
                    else:
                        tally.reads_unverified += 1
                    tally.ro_latencies_ms.append(result.latency_ms)
                    if result.rounds >= 2:
                        tally.ro_round2 += 1
                    state.read_values.extend(result.values.items())
                else:
                    state.written_keys.update(spec.writes)
                    result = yield from client.read_write_txn(
                        list(spec.read_keys), dict(spec.writes)
                    )
                    if result.committed:
                        tally.committed += 1
                        tally.commit_latencies_ms.append(result.latency_ms)
                        for key, value in spec.writes.items():
                            state.committed_values.setdefault(key, set()).add(value)
                    else:
                        tally.aborted += 1
                tally.attempted += 1
                window[1] = max(window[1], client.now)

        for stream in inputs.streams:
            clients = [
                system.create_client(f"{stream.prefix}-{index}")
                for index in range(stream.clients)
            ]
            shared = iter(stream.specs)
            for index in range(stream.drivers):
                client = clients[index % len(clients)]
                client.spawn(
                    driver(client, shared, stream.pacing_ms),
                    name=f"{stream.prefix}-proc-{index}",
                )
        clock = time.perf_counter
        while True:
            started = clock()
            processed = system.run(max_events=SLICE_EVENTS)
            tally.slice_s.append(clock() - started)
            if processed < SLICE_EVENTS:
                break
        tally.sim_busy_s = (window[1] - window[0]) / 1000.0 if window else 0.0
        tally.events = system.env.simulator.events_processed
        return tally

    # -- correctness --------------------------------------------------------

    def check(self, state: SystemState, inputs: SystemInputs, tally: Tally) -> List[str]:
        system = state.system
        problems: List[str] = []
        if tally.attempted != inputs.submitted:
            problems.append(
                f"executed {tally.attempted} of {inputs.submitted} submitted transactions"
            )
        if tally.reads_unverified:
            problems.append(f"{tally.reads_unverified} read-only results not verified")
        stranded = system.stranded_prepared_transactions()
        if stranded:
            problems.append(f"{stranded} transactions stranded in prepared state")
        server_commits = system.committed_read_write()
        if server_commits != tally.committed:
            problems.append(
                f"clients saw {tally.committed} commits, replicas count {server_commits}"
            )
        for partition in system.topology.partitions():
            roots = {replica.merkle.root for replica in system.cluster_replicas(partition)}
            if len(roots) != 1:
                problems.append(f"partition {int(partition)}: replicas disagree on the Merkle root")
        # Atomic visibility: what the stores hold, and what verified reads
        # returned, was either preloaded or written by a *committed* txn.
        initial = system.initial_data
        stale = 0
        for key in state.written_keys:
            leader = system.leader_replica(system.partitioner.partition_of(key))
            value = leader.store.latest(key).value
            allowed = state.committed_values.get(key, ())
            if value != initial[key] and value not in allowed:
                stale += 1
            elif allowed and value == initial[key]:
                stale += 1  # a committed write was lost
        if stale:
            problems.append(f"{stale} keys hold a value no committed transaction explains")
        fabricated = sum(
            1
            for key, value in state.read_values
            if value != initial.get(key) and value not in state.committed_values.get(key, ())
        )
        if fabricated:
            problems.append(f"{fabricated} verified reads returned a never-committed value")
        return problems


    def notes(self, state: SystemState) -> List[str]:
        return []


class RoSnapshot(SystemWorkload):
    def __init__(self) -> None:
        super().__init__(
            name="ro_snapshot",
            deployment="5 clusters, f=2 (7 replicas each), 5 000 keys, batch 100 / 5 ms",
            load="1 500 read-only txns over all 5 clusters from 8 readers paced 0.5 ms, "
            "beside 75 distributed read-write txns from 4 writers",
            why="the paper's headline verified snapshot read: simnet transport, "
            "signatures and hashing dominate; storage build and set-up are negligible",
            fault_tolerance=2,
            keys=5_000,
            batch=BatchConfig(max_size=100, timeout_ms=5.0),
        )

    def _config(self, scale: float) -> SystemConfig:
        # The read path does not depend on the key count: keep it fixed so a
        # scaled-down run still has plenty of keys in each of the 5 clusters.
        return super()._config(1.0)

    def _streams(self, generator: WorkloadGenerator, scale: float) -> List[Stream]:
        reads = [generator.read_only(clusters=5) for _ in range(_scaled(1_500, scale))]
        writes = [generator.distributed_read_write() for _ in range(_scaled(75, scale))]
        return [
            Stream("fg", reads, drivers=8, clients=2, pacing_ms=0.5),
            Stream("bg", writes, drivers=4, clients=2),
        ]


class LocalWrite(SystemWorkload):
    def __init__(self) -> None:
        super().__init__(
            name="local_write",
            deployment="5 clusters, f=1 (4 replicas each), 60 000 keys, batch 200 / 20 ms",
            load="3 000 local write-only txns, 1 500 closed-loop drivers on 4 clients",
            why="batch and storage path: Merkle apply, partitioner, mvstore, with set-up "
            "a large share of the total; few messages and signatures (mirror of ro_snapshot)",
            fault_tolerance=1,
            keys=60_000,
            batch=BatchConfig(max_size=200, timeout_ms=20.0),
        )

    def _streams(self, generator: WorkloadGenerator, scale: float) -> List[Stream]:
        specs = list(generator.stream_of(_scaled(3_000, scale), TxnKind.LOCAL_WRITE_ONLY))
        # 1 500 drivers, not the figure's batch x 5 = 1 000: with exactly one
        # batch worth of arrivals per cluster, whether a batch fills or waits
        # out its 20 ms timer is a coin flip and simulated throughput jumps
        # +-25 % from seed to seed.
        return [Stream("driver", specs, drivers=_scaled(1_500, scale), clients=4)]


class DistRw(SystemWorkload):
    def __init__(self) -> None:
        super().__init__(
            name="dist_rw",
            deployment="5 clusters, f=1 (4 replicas each), 60 000 keys, batch 250 / 10 ms",
            load="400 distributed txns (5 reads + 3 writes), 250 closed-loop drivers on 4 clients",
            why="2PC across clusters: stable_encode, partition_of, verify_quorum, CD vectors "
            "and OCC aborts; a read-path gain that costs commits shows here",
            fault_tolerance=1,
            keys=60_000,
            batch=BatchConfig(max_size=250, timeout_ms=10.0),
        )

    def _streams(self, generator: WorkloadGenerator, scale: float) -> List[Stream]:
        specs = [
            generator.distributed_read_write(read_ops=5, write_ops=3)
            for _ in range(_scaled(400, scale))
        ]
        return [Stream("driver", specs, drivers=_scaled(250, scale), clients=4)]


# ---------------------------------------------------------------------------
# chaos: fault-injected runs judged by the oracle suite
# ---------------------------------------------------------------------------

#: Chaos plans per repetition at scale 1.
CHAOS_PLANS = 8

#: Oracles that judge correctness.  ``phase-latency-anomaly`` compares
#: simulated latency with the fault-free twin against a heuristic threshold;
#: it is a performance alarm, so it is reported but does not fail the run.
ADVISORY_ORACLES = frozenset({"phase-latency-anomaly"})


@dataclass
class ChaosState:
    reports: List[ChaosReport] = field(default_factory=list)


class ChaosFaults:
    """Fault schedules fixed by the benchmark, transaction streams by the seed.

    Plan ``i`` takes its deployment, workload shape and fault schedule (which
    node fails, and when) from ``plan_from_seed(i)``; ``--seed`` re-draws the
    sub-seed of every workload segment, i.e. which keys the transactions
    touch.  Drawing the whole plan from the seed instead makes repetitions of
    one commit differ by more than any regression bound (deployment size and
    client time-outs vary plan to plan), so the schedule is part of the
    benchmark, like the deployments of the other workloads.
    """

    name = "chaos_faults"
    deployment = (
        f"{CHAOS_PLANS} chaos plans (2-3 clusters, f=1, 36-64 keys, edge tier in some), "
        "crash / leader-kill / drop / delay / byzantine-proxy schedules of plans 0..7"
    )
    load = (
        "each plan's mixed segments (about 55 txns) plus its fault-free twin, "
        "monitor and tracing on, full oracle suite"
    )
    why = (
        "the fault-injected run a consensus system must have: the only workload where "
        "retransmits, view changes, recovery, obs and the verification oracles do work"
    )

    def generate(self, seed: int, scale: float = 1.0) -> List[ChaosPlan]:
        plans = []
        for index in range(_scaled(CHAOS_PLANS, scale)):
            base = plan_from_seed(index)
            rng = random.Random(seed * 1_000_003 + index)
            plans.append(
                replace(
                    base,
                    segments=tuple(
                        replace(segment, seed=rng.randrange(1 << 31))
                        for segment in base.segments
                    ),
                )
            )
        return plans

    def setup(self, inputs: Sequence[ChaosPlan]) -> ChaosState:
        # Set-up of a chaos run is plan expansion plus building each plan's
        # deployment.  ``run_plan`` builds its own deployments again inside
        # the run, so these are built and dropped.
        for plan in inputs:
            plan_from_seed(plan.seed)
            TransEdgeSystem(plan.config.to_system_config().with_tracing(True))
        return ChaosState()

    def execute(self, state: ChaosState, inputs: Sequence[ChaosPlan]) -> Tally:
        tally = Tally()
        fingerprints = []
        for plan in inputs:
            started = time.perf_counter()
            report = run_plan(plan)
            tally.slice_s.append(time.perf_counter() - started)
            state.reports.append(report)
            tally.committed += report.committed + report.probe_committed
            tally.aborted += report.aborted + (report.probe_submitted - report.probe_committed)
            tally.reads_verified += report.read_only_recorded - report.read_only_unverified
            tally.reads_unverified += report.read_only_unverified
            tally.sim_busy_s += report.elapsed_sim_ms / 1000.0
            tally.events += report.events_processed
            fingerprints.append(report.fingerprint())
            system = report.observation.system
            tally.ro_round2 += sum(c.stats.read_only_second_rounds for c in system.clients)
            for trace in system.env.obs.tracer.traces():
                root = trace.root
                if root is None or root.end_ms is None:
                    continue
                if root.name == "txn:ro":
                    tally.ro_latencies_ms.append(root.duration_ms)
                elif root.name == "txn:rw" and root.status == "ok":
                    tally.commit_latencies_ms.append(root.duration_ms)
        tally.attempted = (
            tally.committed + tally.aborted + tally.reads_verified + tally.reads_unverified
        )
        tally.fingerprints = tuple(fingerprints)
        return tally

    def check(self, state: ChaosState, inputs: Sequence[ChaosPlan], tally: Tally) -> List[str]:
        problems = []
        for report in state.reports:
            for failure in report.failures:
                if failure.oracle not in ADVISORY_ORACLES:
                    problems.append(
                        f"chaos plan {report.plan.seed}: {failure.oracle}: {failure.description}"
                    )
        return problems

    def notes(self, state: ChaosState) -> List[str]:
        alarms = sum(
            1
            for report in state.reports
            for failure in report.failures
            if failure.oracle in ADVISORY_ORACLES
        )
        return [f"{alarms} advisory phase-latency alarms (not a correctness failure)"] if alarms else []


WORKLOADS = (RoSnapshot(), LocalWrite(), DistRw(), ChaosFaults())


def by_name(name: str):
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(workload.name for workload in WORKLOADS)
    raise ValueError(f"unknown workload {name!r}; expected one of {known}")
