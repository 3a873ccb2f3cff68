"""End-to-end tracing tests on real deployments.

These pin the three headline properties of the observability layer:

* determinism — the same seed produces byte-identical trace digests;
* neutrality — tracing changes what a run *records*, never what it does;
* well-formedness — spans parent correctly, close consistently and carry
  known phases, including under crashes and leader failover.
"""

from __future__ import annotations

import pytest

from repro.bench.drivers import execute_workload
from repro.common.config import BatchConfig, SystemConfig
from repro.core.messages import CoordinatorPrepare, ParticipantPrepared
from repro.core.system import TransEdgeSystem
from repro.obs.cli import traced_workload
from repro.obs.phases import PHASES
from repro.workload.generator import WorkloadGenerator, WorkloadProfile


def build_traced_system(seed: int = 7, **obs_changes) -> TransEdgeSystem:
    config = SystemConfig(
        num_partitions=3,
        fault_tolerance=1,
        batch=BatchConfig(max_size=20, timeout_ms=5.0),
        initial_keys=120,
        value_size=64,
        seed=seed,
    ).with_tracing(True, **obs_changes)
    return TransEdgeSystem(config)


def run_mixed(system: TransEdgeSystem, txns: int = 15, seed: int = 8):
    generator = WorkloadGenerator(
        sorted(system.initial_data),
        system.partitioner,
        profile=WorkloadProfile(value_size=32, read_only_fraction=0.4),
        seed=seed,
    )
    specs = list(generator.mixed_stream(txns))
    return execute_workload(system, specs, concurrency=8, num_clients=2)


def _txn_of(message) -> str:
    if isinstance(message, CoordinatorPrepare):
        return message.txn.txn_id
    return message.vote.txn_id


def assert_well_formed(trace) -> None:
    ids = [span.span_id for span in trace.spans]
    assert len(set(ids)) == len(ids)
    known = set(ids)
    root = trace.root
    assert root is not None
    for span in trace.spans:
        assert span.phase in PHASES
        assert span.trace_id == trace.trace_id
        if span.closed:
            assert span.end_ms >= span.start_ms
        if span is not root:
            # Every non-root span chains to another span of this trace (the
            # sender-side context or a local parent).
            assert span.parent_id in known
    if trace.complete:
        assert root.closed


class TestDeterminism:
    def test_same_seed_same_digest(self):
        first = traced_workload(12, seed=5)
        second = traced_workload(12, seed=5)
        assert first.tracer.digest() == second.tracer.digest()
        assert first.tracer.spans_recorded == second.tracer.spans_recorded

    def test_different_seed_different_digest(self):
        assert (
            traced_workload(12, seed=5).tracer.digest()
            != traced_workload(12, seed=6).tracer.digest()
        )

    def test_tracing_does_not_change_the_run(self):
        traced = build_traced_system()
        untraced = TransEdgeSystem(
            SystemConfig(
                num_partitions=3,
                fault_tolerance=1,
                batch=BatchConfig(max_size=20, timeout_ms=5.0),
                initial_keys=120,
                value_size=64,
                seed=7,
            )
        )
        results = [run_mixed(system) for system in (traced, untraced)]
        assert results[0].executed == results[1].executed
        assert (
            traced.env.simulator.events_processed
            == untraced.env.simulator.events_processed
        )
        assert traced.now == untraced.now
        assert traced.env.obs.tracer.spans_recorded > 0
        assert untraced.env.obs.tracer.spans_recorded == 0


class TestWellFormedness:
    def test_spans_well_formed_on_clean_run(self):
        system = build_traced_system()
        run_mixed(system)
        traces = list(system.env.obs.tracer.traces())
        assert traces
        assert all(trace.complete for trace in traces)
        for trace in traces:
            assert_well_formed(trace)

    def test_distributed_commit_trace_shape(self):
        system = build_traced_system()
        client = system.create_client("shape")
        key_by_partition = {}
        for key in sorted(system.initial_data):
            key_by_partition.setdefault(system.partitioner.partition_of(key), key)
        writes = {key: b"x" * 8 for key in list(key_by_partition.values())[:2]}
        outcome = {}

        def body():
            result = yield from client.read_write_txn([], writes)
            outcome["result"] = result

        client.spawn(body(), name="shape")
        system.run_until_idle()
        assert outcome["result"].committed
        trace = system.env.obs.tracer.trace(outcome["result"].txn_id)
        assert trace is not None and trace.complete
        names = [span.name for span in trace.spans]
        assert "net:CommitRequest" in names
        assert "leader:batch-wait" in names
        assert "leader:consensus" in names
        assert "net:CoordinatorPrepare" in names
        assert "net:ParticipantPrepared" in names
        assert "net:DecisionMessage" in names
        assert "net:CommitReply" in names
        assert trace.find("leader:consensus").phase == "consensus"

    def test_retry_timer_resends_carry_no_trace(self):
        # Only the first solicitation and the first vote join the
        # transaction's trace: a prepare or vote the 2PC retry timer re-sends
        # is untraced protocol traffic.  The coordinator swallows the first
        # vote, so both leaders' retry timers re-drive the coordination.
        system = build_traced_system()
        coordinator, participant = system.leader_replica(0), system.leader_replica(1)
        writes = {system.keys_of_partition(p)[0]: b"x" * 8 for p in (0, 1)}
        sent = []
        for leader in (coordinator, participant):
            def recording(dst, message, original=leader.send):
                original(dst, message)  # stamps the message's trace, if any
                sent.append(message)
            leader.send = recording
        count = coordinator.leader_role.on_participant_prepared
        swallowed = []

        def lose_first_vote(message, src):
            if swallowed:
                count(message, src)
            else:
                swallowed.append(message)

        coordinator.leader_role.on_participant_prepared = lose_first_vote
        client = system.create_client("retry")
        outcome = {}

        def body():
            outcome["result"] = yield from client.read_write_txn([], writes)

        client.spawn(body(), name="retry")
        system.run_until_idle()
        assert outcome["result"].committed
        assert system.counters().two_pc_retries >= 1
        txn_id = outcome["result"].txn_id
        for kind in (CoordinatorPrepare, ParticipantPrepared):
            traces = [m.trace for m in sent if isinstance(m, kind) and _txn_of(m) == txn_id]
            assert len(traces) >= 2, kind.__name__  # the first send, then re-sends
            assert traces[0] is not None and traces[0].trace_id == txn_id
            assert traces[1:] == [None] * (len(traces) - 1), kind.__name__

    def test_spans_well_formed_under_crash_and_failover(self):
        system = build_traced_system(seed=11)
        victim = system.topology.leader(0)
        system.env.simulator.schedule(30.0, lambda: system.crash_replica(victim))
        system.env.simulator.schedule(2_000.0, lambda: system.restart_replica(victim))
        run_mixed(system, txns=20, seed=12)
        obs = system.env.obs
        for trace in obs.tracer.traces():
            assert_well_formed(trace)
        # The crash and the resulting view change landed on the recorder.
        kinds = {event.kind for event in obs.recorder.timeline()}
        assert "replica-crash" in kinds
        assert "replica-restart" in kinds
        # Leader-side spans open at the crash moment were closed, not leaked.
        statuses = {
            span.status
            for trace in obs.tracer.traces()
            for span in trace.spans
            if span.name in ("leader:batch-wait", "leader:consensus")
        }
        assert statuses <= {"ok", "abort", "leader-changed"}


class TestPhaseReconciliation:
    def test_reconciles_within_one_percent(self):
        from repro.obs.attribution import phase_breakdown, reconciliation_error

        system = build_traced_system()
        run_mixed(system, txns=20)
        completed = system.env.obs.tracer.completed_traces()
        assert completed
        for trace in completed:
            assert reconciliation_error(trace) <= 0.01
            breakdown = phase_breakdown(trace)
            assert breakdown
            assert sum(breakdown.values()) == pytest.approx(
                trace.root.duration_ms, rel=0.01
            )
