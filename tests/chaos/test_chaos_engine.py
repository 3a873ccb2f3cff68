"""End-to-end chaos engine tests: oracles pass honestly, catch injected bugs,
and the shrinker produces small replayable artifacts.

The fixed seeds used here are a subset of the CI ``chaos-smoke`` sweep, so a
failure in this file and a failure in CI point at the same scenario.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import plan_from_seed, run_plan, run_seed, shrink_plan
from repro.chaos.cli import ARTIFACT_VERSION, load_artifact, main as chaos_main, write_artifact
from repro.chaos.plan import ChaosPlan

#: Seeds exercised by the tier-1 suite (kept small; CI sweeps more).
SMOKE_SEEDS = (0, 3, 21)

#: A seed where the no-dependency-repair bug reproduces (verified fixed
#: scenario; the CLI self-test sweeps many more).
BUGGY_SEED = 4


class TestHonestRuns:
    @pytest.mark.parametrize("seed", SMOKE_SEEDS)
    def test_seed_passes_every_oracle(self, seed, twinned_run):
        report = twinned_run(seed)
        assert report.failures == []
        # The run actually exercised the system: work happened, the probe
        # committed on every partition, and read-only traffic was recorded.
        assert report.committed > 0
        assert report.probe_submitted > 0
        assert report.probe_committed == report.probe_submitted
        assert report.read_only_recorded > 0

    def test_core_link_drops_are_survived_by_the_reliable_channel(self, twinned_run):
        # Seed 2's plan opens core-link drop windows — traffic the planner
        # was historically forbidden from touching because one lost Commit
        # vote wedged consensus forever.  The run must both pass every
        # oracle and show the reliable channel actually working for it.
        report = twinned_run(2)
        assert report.failures == []
        assert report.counters["transport_messages_retransmitted"] > 0

    def test_crash_faults_really_crash_and_restart(self, twinned_run):
        # Seed 21's plan contains a crash; the report must show the crash
        # and the restart (the honest runner always rejoins replicas).
        report = twinned_run(21)
        assert report.crashes > 0
        assert report.restarts >= report.crashes


class TestInjectedBugs:
    def test_dependency_repair_bug_is_caught_and_shrinks(self):
        plan = plan_from_seed(BUGGY_SEED)
        report = run_plan(plan, bug="no-dependency-repair")
        oracles = {failure.oracle for failure in report.failures}
        # Torn snapshots violate serializability and/or atomic visibility.
        assert oracles & {"serializability", "atomic-visibility"}

        # A bounded shrink budget: six runs already take this plan from 3
        # faults to 0 and from 7 segments to 5.  The full-budget shrink of the
        # same bug on the same seed runs on every PR as the first step of CI's
        # ``chaos-smoke`` job (``--seed 4 --inject-bug no-dependency-repair``).
        result = shrink_plan(plan, report, bug="no-dependency-repair", max_runs=6)
        assert result.report.failures
        # Acceptance bound: the minimal schedule carries at most 10 fault
        # events (these shrink to 0-1 — the anomaly needs no faults at all).
        assert len(result.plan.faults) <= 10
        assert len(result.plan.segments) <= len(plan.segments)
        # The shrunk plan still reproduces from its serialised form.
        round_trip = ChaosPlan.from_dict(result.plan.to_dict())
        replay = run_plan(round_trip, bug="no-dependency-repair")
        assert {f.oracle for f in replay.failures} & oracles

    def test_skip_restart_bug_is_caught_by_liveness_oracle(self):
        report = run_seed(21, bug="skip-crash-restarts")
        oracles = {failure.oracle for failure in report.failures}
        assert "quiescent-liveness" in oracles

    def test_ack_without_delivery_bug_is_caught_by_liveness_oracle(self):
        # The nastiest transport bug: the receiver acks a sequence number it
        # never delivered to the protocol layer.  The sender stops
        # retransmitting (the ack looks legitimate), so the loss is
        # permanent and silent at the transport — only the system-level
        # liveness oracle sees the wedged run.
        report = run_seed(BUGGY_SEED, bug="ack-without-delivery")
        oracles = {failure.oracle for failure in report.failures}
        assert "quiescent-liveness" in oracles

    def test_drop_commit_replies_caught_by_trace_oracle(self):
        # The bug swallows every 2nd commit reply at the leader.  Nothing is
        # torn and nothing deadlocks immediately, so only the causal traces
        # expose it: a CommitRequest span that reached a healthy leader but
        # never produced a CommitReply span.  The client itself is fine —
        # f+1 replica outcome reports settle its commit — which is exactly
        # why nothing but the trace shows the leader's missing reply.
        report = run_plan(plan_from_seed(1), bug="drop-commit-replies")
        oracles = {failure.oracle for failure in report.failures}
        assert "trace-completeness" in oracles
        # The flight recorder dumped its black box and the failing
        # transactions' full traces ride on the report.
        assert report.flight_recorder
        assert report.failing_traces
        span_names = [
            [span["name"] for span in trace["spans"]]
            for trace in report.failing_traces
        ]
        # Every stuck transaction is missing its reply; at least one shows
        # the smoking gun the oracle flagged (request without reply).
        assert all("net:CommitReply" not in names for names in span_names)
        assert any("net:CommitRequest" in names for names in span_names)

    def test_honest_run_carries_digest_but_no_black_box(self, twinned_run):
        report = twinned_run(0)
        assert report.failures == []
        # Every chaos run records a trace digest (the determinism oracle for
        # replays), but the crash payloads stay empty on clean runs.
        assert len(report.trace_digest) == 64
        assert report.flight_recorder == []
        assert report.failing_traces == []
        assert run_seed(0).trace_digest == report.trace_digest


class TestArtifacts:
    def test_artifact_round_trip_and_replay_command(self, tmp_path):
        plan = plan_from_seed(BUGGY_SEED)
        report = run_plan(plan, bug="no-dependency-repair")
        assert report.failures
        path = write_artifact(
            str(tmp_path), plan, report, "no-dependency-repair", shrink_runs=0
        )
        document = load_artifact(path)
        assert document["seed"] == BUGGY_SEED
        assert document["bug"] == "no-dependency-repair"
        assert document["failures"]
        assert document["replay"].startswith("python -m repro.chaos --replay ")
        assert ChaosPlan.from_dict(document["plan"]) == plan
        # And the document is plain JSON (no repr leakage).
        json.dumps(document)

    def test_artifact_carries_the_flight_recorder(self, tmp_path):
        plan = plan_from_seed(1)
        report = run_plan(plan, bug="drop-commit-replies")
        assert report.failures
        path = write_artifact(
            str(tmp_path), plan, report, "drop-commit-replies", shrink_runs=0
        )
        document = load_artifact(path)
        assert document["version"] == ARTIFACT_VERSION
        assert "health" in document
        assert document["flight_recorder"]
        assert document["failing_traces"]
        events = document["flight_recorder"]
        assert all(event["seq"] >= 0 for event in events)
        json.dumps(document)

    def test_cli_replay_reproduces_from_artifact(self, tmp_path, capsys):
        plan = plan_from_seed(BUGGY_SEED)
        report = run_plan(plan, bug="no-dependency-repair")
        path = write_artifact(
            str(tmp_path), plan, report, "no-dependency-repair", shrink_runs=0
        )
        exit_code = chaos_main(["--replay", path])
        out = capsys.readouterr().out
        assert exit_code == 1  # the recorded failure still reproduces
        assert "FAIL" in out

    def test_cli_seed_run_exits_clean(self, capsys):
        exit_code = chaos_main(["--seed", "0"])
        out, err = capsys.readouterr()
        assert exit_code == 0
        assert "passed every oracle" in out
        # What became of the twin goes to the progress stream: whether its
        # baseline was simulated or reused depends on what ran before.
        assert "twins" not in out
        assert err.startswith("twins: 1 graded (")
        assert err.endswith("0 unjudgeable, 0 not needed\n")
