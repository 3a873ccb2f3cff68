"""The chaos fleet: parallel determinism, coverage guidance and the corpus.

Four properties anchor the fleet design, plus the regression pins for the
bugs the fleet campaign itself surfaced and fixed:

* **Parallel determinism** — the same seeds produce byte-identical
  fingerprints and trace digests at every worker count; parallelism buys
  wall-clock only.
* **Signature stability** — a run's coverage signature is a pure function
  of report data outside the fingerprint, identical however the run is
  executed.
* **Corpus round-trip** — entries survive the directory round-trip, and a
  tampered digest is caught on replay (each entry is a standing
  determinism oracle).
* **Session determinism** — a coverage session is a function of
  ``(corpus state, session seed)``; worker count never reaches the RNG.

The pinned mutant plans under ``tests/chaos/data/`` are real fuzzer finds:
a client that recorded positional leader refusals as authoritative aborts,
and an elected-while-behind leader that stalled its partition (two
variants).  All three now pass every oracle; these pins keep them passing.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import replace

import pytest

from repro.chaos import (
    ChaosPlan,
    Corpus,
    CorpusEntry,
    FleetSettings,
    coverage_session,
    coverage_signature,
    plan_from_seed,
    plan_id,
    replay_corpus,
    run_plan,
    run_seed_fleet,
    seed_corpus,
)
from repro.chaos.bugs import get_bug
from repro.chaos.coverage import _apply_op
from repro.chaos.fleet import run_fleet
from repro.chaos.shrink import shrink_plan

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: Cheap settings shared by the fleet tests: no twin run, no shrinking, no
#: artifact files — determinism is about fingerprints, not byproducts.
FAST = FleetSettings(perf_oracle=False, shrink=False, artifact_dir=None)


def load_pinned_plan(name: str) -> ChaosPlan:
    with open(os.path.join(DATA_DIR, name), "r", encoding="utf-8") as handle:
        return ChaosPlan.from_dict(json.load(handle), name)


class TestFleetDeterminism:
    SEEDS = [1, 3, 4]

    @pytest.fixture(scope="class")
    def serial(self):
        return run_seed_fleet(self.SEEDS, FAST, workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial_byte_for_byte(self, serial, workers):
        parallel = run_seed_fleet(self.SEEDS, FAST, workers=workers)
        assert [r.seed for r in parallel] == [r.seed for r in serial]
        assert [r.fingerprint for r in parallel] == [r.fingerprint for r in serial]
        assert [r.trace_digest for r in parallel] == [r.trace_digest for r in serial]
        assert [r.counters for r in parallel] == [r.counters for r in serial]

    def test_fleet_matches_the_serial_runner(self, serial, untwinned_run):
        # The fleet is a wrapper, not a fork: its results are the runner's.
        for result in serial:
            report = untwinned_run(result.seed)
            assert result.fingerprint == report.fingerprint()
            assert result.trace_digest == report.trace_digest
            assert result.twin == report.twin == "not-needed"

    def test_what_became_of_the_twin_crosses_the_process_boundary(self):
        results = run_seed_fleet([1, 20], replace(FAST, perf_oracle=True), workers=2)
        assert [r.twin for r in results] == ["unjudgeable", "graded"]
        assert [r.perf_ratio is None for r in results] == [True, False]


class TestCoverageSignature:
    def test_signature_is_pure_and_sorted(self):
        counters = {"catchup_recoveries": 2, "snapshot_rebuilds": 0}
        health = {"transitions": [{"to": "crashed"}, {"to": "healthy"}]}
        signature = coverage_signature(counters, health, ["liveness"], 1.5)
        assert signature == (
            "counter:catchup_recoveries",
            "health:crashed",
            "oracle:liveness",
            "perf:near-miss",
        )
        assert coverage_signature(counters, health, ["liveness"], 1.5) == signature

    def test_perf_near_miss_band_is_half_open(self):
        assert "perf:near-miss" in coverage_signature({}, {}, (), 1.2)
        assert "perf:near-miss" not in coverage_signature({}, {}, (), 2.0)
        assert "perf:near-miss" not in coverage_signature({}, {}, (), None)

    def test_fleet_result_signature_matches_recomputation(self):
        result = run_seed_fleet([21], FAST)[0]
        assert result.signature == coverage_signature(
            result.counters,
            result.health,
            failure_oracles=[oracle for oracle, _ in result.failures],
            perf_ratio=result.perf_ratio,
        )
        # Seed 21 crashes two replicas: the rare catch-up path and the
        # crash/recovery health states must be visible to the planner.
        assert "counter:catchup_recoveries" in result.signature
        assert "health:crashed" in result.signature

    def test_tiny_archive_mutation_reaches_the_rebuild_path(self):
        # No uniform seed asks for a batch outside the 512-batch archive;
        # seed 27 under the ``tiny-archive`` mutation's smallest window
        # does, and the rebuilt answers keep every oracle green.
        base = plan_from_seed(27)
        drawn = _apply_op(base, "tiny-archive", random.Random(0)).config
        assert drawn.archive_max_batches in (1, 2, 3)
        assert replace(drawn, archive_max_batches=512) == base.config
        mutant = replace(base, config=replace(base.config, archive_max_batches=1))
        (result,) = run_fleet([mutant], FAST)
        assert result.ok, result.failures
        assert "counter:snapshot_rebuilds" in result.signature


class TestCorpus:
    def test_round_trip_preserves_entries(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        results = run_seed_fleet([1, 3], FAST)
        admitted = seed_corpus(corpus, results)
        assert len(admitted) == 2
        reloaded = Corpus(str(tmp_path / "corpus"))
        assert sorted(reloaded.entries) == sorted(corpus.entries)
        for entry_id, entry in corpus.entries.items():
            twin = reloaded.entries[entry_id]
            assert twin.plan.to_dict() == entry.plan.to_dict()
            assert twin.signature == entry.signature
            assert twin.fingerprint == entry.fingerprint
            assert twin.trace_digest == entry.trace_digest
            assert twin.parent == entry.parent

    def test_duplicate_admission_is_a_noop(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        results = run_seed_fleet([1], FAST)
        assert seed_corpus(corpus, results) != []
        assert seed_corpus(corpus, results) == []
        assert len(corpus) == 1

    def test_replay_detects_a_stale_digest(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        seed_corpus(corpus, run_seed_fleet([1], FAST))
        (entry,) = corpus.ordered()
        tampered = CorpusEntry(
            entry_id=entry.entry_id,
            plan=entry.plan,
            signature=entry.signature,
            fingerprint="0" * 64,
            trace_digest=entry.trace_digest,
            parent=entry.parent,
        )
        corpus.entries[entry.entry_id] = tampered
        results, drift = replay_corpus(corpus, FAST)
        assert results[0].ok
        assert [d.field_name for d in drift] == ["fingerprint"]
        assert drift[0].recorded == "0" * 64

    def test_clean_replay_has_no_drift(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        seed_corpus(corpus, run_seed_fleet([1, 3], FAST))
        _results, drift = replay_corpus(corpus, FAST, workers=2)
        assert drift == []


class TestCoverageSession:
    @pytest.fixture()
    def seeded_corpus(self, tmp_path):
        corpus = Corpus(str(tmp_path / "corpus"))
        seed_corpus(corpus, run_seed_fleet([1, 3], FAST))
        return corpus

    def test_session_is_deterministic_across_worker_counts(self, tmp_path):
        outcomes = []
        for workers in (1, 2):
            corpus = Corpus(str(tmp_path / f"corpus-{workers}"))
            seed_corpus(corpus, run_seed_fleet([1, 3], FAST))
            outcomes.append(
                coverage_session(corpus, 0, 3, FAST, workers=workers)
            )
        first, second = outcomes
        assert [r.seed for r in first.results] == [r.seed for r in second.results]
        assert [r.fingerprint for r in first.results] == [
            r.fingerprint for r in second.results
        ]
        assert first.admitted == second.admitted
        assert sorted(set(first.novel_features)) == sorted(set(second.novel_features))

    def test_mutants_take_namespaced_seeds(self, seeded_corpus):
        outcome = coverage_session(seeded_corpus, 7, 2, FAST)
        assert [r.seed for r in outcome.results] == [1070000, 1070001]

    def test_empty_corpus_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            coverage_session(Corpus(str(tmp_path / "void")), 0, 1, FAST)


class TestFuzzerFindRegressions:
    """Pinned mutant plans from the fleet's first campaigns.

    Each was a reproducible oracle failure before its fix; the plans are
    frozen exactly as the fuzzer emitted them.
    """

    def test_positional_leader_refusal_is_retried_not_aborted(self):
        # A mutant whose mid-run view changes made replicas answer "not the
        # current leader" — the client used to record that positional
        # refusal as an authoritative abort and fail atomic visibility.
        plan = load_pinned_plan("regress-positional-refusal.json")
        report = run_plan(plan, perf_oracle=False)
        assert report.ok, [f.description for f in report.failures]

    def test_behind_leader_with_pending_deliveries_catches_up(self):
        # A view change elected a replica that missed a decision while
        # crashed: it held later quorum-verified deliveries it could never
        # apply, and nothing in the partition could re-serve the gap.
        plan = load_pinned_plan("regress-behind-leader-pending.json")
        report = run_plan(plan, perf_oracle=False)
        assert report.ok, [f.description for f in report.failures]
        assert report.counters["catchup_recoveries"] > 0

    def test_behind_leader_reproposal_is_unwedged_by_state_transfer(self):
        # Variant two: the behind leader re-proposed an already-delivered
        # sequence; followers ignored it as stale and the leader's
        # in-flight flag wedged sealing forever.  The fuzzer's plan ran with
        # the archive off; on the one remaining system its timing no longer
        # elected a behind leader, so the pin is that plan under a rerolled
        # ``system_seed`` (a legal mutation) chosen because it fails
        # quiescent-liveness again once the leader's last-resort catch-up
        # is taken out of ``ViewProgressMonitor._fire``.
        plan = load_pinned_plan("regress-behind-leader-reproposal.json")
        report = run_plan(plan, perf_oracle=False)
        assert report.ok, [f.description for f in report.failures]
        assert report.counters["catchup_recoveries"] > 0


class TestOpenFuzzerFind:
    """ROADMAP "Carried over / Open fuzzer find": still failing, on purpose.

    ``regress-behind-leader-reproposal.json`` under ``system_seed`` 19795 (a
    legal ``reroll-system-seed`` mutant: checkpointing off, two core drop
    windows, no crash): ``P0/R0`` is behind, takes the monitor's catch-up
    branch three times 200 ms apart and never closes the gap.
    """

    @pytest.fixture(scope="class")
    def report(self):
        plan = load_pinned_plan("regress-behind-leader-reproposal.json")
        plan = replace(plan, config=replace(plan.config, system_seed=19795))
        return run_plan(plan, perf_oracle=False)

    def test_the_find_is_neither_fixed_nor_worse(self, report):
        # Exactly the two known oracles, and — a failing run is
        # byte-reproducible too, the atomic-visibility message prints its
        # writers sorted — the same fingerprint under any PYTHONHASHSEED.
        assert sorted({f.oracle for f in report.failures}) == [
            "atomic-visibility", "quiescent-liveness",
        ]
        assert report.fingerprint() == (
            "39230cdb09d07f791b0e93bc1f68b74ad14753e466df47eca7fc62b4d0670578"
        )

    @pytest.mark.xfail(
        strict=True,
        reason="open fuzzer find (ROADMAP 'Carried over'): the behind leader's catch-up "
        "loop never closes the gap; fails quiescent-liveness and atomic-visibility",
    )
    def test_behind_leader_catch_up_closes_the_gap(self, report):
        # Whoever fixes the catch-up loop: drop the xfail, delete the test
        # above, and fold this plan into TestFuzzerFindRegressions.
        assert report.ok, [f.description for f in report.failures]


class TestShrinkSettingsForwarding:
    """Regression pin: shrink re-runs must honor the CLI's run settings."""

    class _Recorder:
        def __init__(self):
            self.calls = []

        def __call__(self, candidate, bug=None, max_events=0, monitor=True,
                     perf_oracle=True):
            self.calls.append({"monitor": monitor, "perf_oracle": perf_oracle})

            class _Report:
                failures = []

            return _Report()

    class _FailingReport:
        def __init__(self, oracles):
            class _F:
                def __init__(self, oracle):
                    self.oracle = oracle

            self.failures = [_F(oracle) for oracle in oracles]

    def test_no_monitor_shrink_stays_unmonitored(self, monkeypatch):
        import repro.chaos.shrink as shrink_module

        recorder = self._Recorder()
        monkeypatch.setattr(shrink_module, "run_plan", recorder)
        shrink_plan(
            plan_from_seed(2),
            self._FailingReport(["liveness"]),
            monitor=False,
            perf_oracle=False,
            max_runs=5,
        )
        assert recorder.calls
        assert all(not call["monitor"] for call in recorder.calls)
        assert all(not call["perf_oracle"] for call in recorder.calls)

    def test_twin_skipped_unless_perf_oracle_is_the_target(self, monkeypatch):
        import repro.chaos.shrink as shrink_module

        recorder = self._Recorder()
        monkeypatch.setattr(shrink_module, "run_plan", recorder)
        shrink_plan(
            plan_from_seed(2),
            self._FailingReport(["liveness"]),
            monitor=True,
            perf_oracle=True,
            max_runs=5,
        )
        # A liveness failure never needs the fault-free twin, even though
        # the run itself had the perf oracle armed.
        assert recorder.calls
        assert all(call["monitor"] for call in recorder.calls)
        assert all(not call["perf_oracle"] for call in recorder.calls)

        recorder.calls.clear()
        shrink_plan(
            plan_from_seed(2),
            self._FailingReport(["phase-latency-anomaly"]),
            monitor=True,
            perf_oracle=True,
            max_runs=5,
        )
        assert recorder.calls
        assert all(call["perf_oracle"] for call in recorder.calls)


class TestReplayBugHandling:
    """Regression pins for the --replay / --inject-bug interaction."""

    @pytest.fixture()
    def artifact_with_bug(self, tmp_path):
        from repro.chaos.cli import write_artifact

        # Seed 0 has no crash faults, so skip-crash-restarts is inert and
        # the replay passes — letting the test read the summary line.
        plan = plan_from_seed(0)
        report = run_plan(plan, perf_oracle=False)
        return write_artifact(
            str(tmp_path), plan, report, "skip-crash-restarts", shrink_runs=0
        )

    def test_conflicting_inject_bug_is_an_error(self, artifact_with_bug, capsys):
        from repro.chaos.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--replay", artifact_with_bug, "--inject-bug", "drop-commit-replies"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "conflicts with the bug recorded" in captured.err

    def test_replay_summary_names_the_active_bug(self, artifact_with_bug, capsys):
        from repro.chaos.cli import main

        assert main(["--replay", artifact_with_bug]) == 0
        captured = capsys.readouterr()
        assert "bug: skip-crash-restarts" in captured.out

    def test_matching_inject_bug_is_accepted(self, artifact_with_bug, capsys):
        from repro.chaos.cli import main

        assert main(
            ["--replay", artifact_with_bug, "--inject-bug", "skip-crash-restarts"]
        ) == 0
        captured = capsys.readouterr()
        assert "bug: skip-crash-restarts" in captured.out


class TestEdgeFreshnessSelfTest:
    """The stale-edge-reads registry entry must stay catchable (X501 pin)."""

    def test_stale_edge_reads_is_caught_only_by_the_freshness_oracle(self):
        report = run_plan(
            plan_from_seed(1), bug=get_bug("stale-edge-reads"), perf_oracle=False
        )
        assert not report.ok
        assert {f.oracle for f in report.failures} == {"edge-freshness-bound"}

    def test_clean_edge_seed_passes_with_the_oracle_armed(self):
        report = run_plan(plan_from_seed(1), perf_oracle=False)
        assert report.ok, [f.description for f in report.failures]
