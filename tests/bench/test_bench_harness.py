"""Tests for the figure harness (scaling, drivers, experiment table, CLI)."""

from __future__ import annotations

import json
import os

import pytest

import repro.bench.run as run_module
from repro.bench.drivers import (
    OPERATION_LABELS,
    execute_concurrent_workloads,
    execute_workload,
)
from repro.bench.experiments import EXPERIMENTS
from repro.bench.gates import Gate, trend
from repro.bench.harness import Experiment, Figure, Harness, make_generator, section51_config
from repro.bench.run import main as bench_main
from repro.bench.scale import scale_factor, scaled
from repro.common.types import TxnKind
from repro.metrics.tables import FigureResult

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The smallest deployment the harness builds in these tests.
TINY = dict(num_partitions=2, fault_tolerance=1, initial_keys=32)


def build_system(**kwargs):
    return Harness().build(section51_config(**kwargs))


class TestScale:
    def test_default_scale_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert scale_factor() == 1.0
        assert scaled(30) == 30

    def test_scale_multiplies_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert scale_factor() == 2.5
        assert scaled(10) == 25

    def test_scale_has_floor_and_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert scale_factor() == pytest.approx(0.1)
        assert scaled(10, minimum=4) == 4

    @pytest.mark.parametrize("raw", ["not-a-number", "0", "-2", "nan", "inf", ""])
    def test_invalid_scale_fails_closed(self, monkeypatch, capsys, raw):
        # A gate that passes at a scale nobody asked for proves nothing: an
        # unparsable or non-positive value is a usage error naming the value,
        # and no experiment runs.
        monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
            scale_factor()
        monkeypatch.setattr(run_module, "EXPERIMENTS", {"fake": fake_row(lambda harness: 1 / 0)})
        assert bench_main(["fake"]) == 2
        assert repr(raw) in capsys.readouterr().err


def fake_figure(harness=None, last=5.0):
    figure = FigureResult(figure_id="Figure T", title="test", x_label="x", y_label="y")
    series = figure.add_series("s")
    series.add(1, 2.5)
    series.add(2, last)
    figure.facts["runs"] = 1
    return figure


def fake_row(produce=fake_figure, name="fake"):
    return Experiment(
        name, "extension: a fake", produce,
        gates=(Gate("the curve rises with x", trend("s", 2, ">", 1.0, 1)),),
    )


class TestExperimentRegistry:
    def test_every_paper_artefact_has_an_experiment(self):
        expected = {f"fig{i}" for i in range(4, 16)} | {"table1"}
        assert expected <= set(EXPERIMENTS)

    def test_registry_rows_name_their_artefact_and_carry_gates(self):
        for name, row in EXPERIMENTS.items():
            assert row.id == name
            assert callable(row.produce)
            assert row.paper.startswith(("Figure ", "Table ", "extension: ")), name
            assert len(row.gates) >= 1, name
            assert all(gate.claim and callable(gate.predicate) for gate in row.gates)
        for name in [f"fig{i}" for i in range(4, 16)] + ["table1"]:
            assert not EXPERIMENTS[name].paper.startswith("extension"), name

    def test_registry_ids_are_unique(self):
        from repro.bench.experiments import _rows

        with pytest.raises(ValueError, match="unique"):
            _rows(fake_row(), fake_row())

    def test_figures_10_and_11_are_two_extractors_over_one_sweep(self):
        assert EXPERIMENTS["fig10"].produce.sweep is EXPERIMENTS["fig11"].produce.sweep

    def test_fig9_baseline_series_is_an_alias_of_the_local_read_write_run(self):
        series = EXPERIMENTS["fig9"].produce.sweep.series
        assert series["Local read-write (2PC/BFT)"] is series["Local read-write (TransEdge)"]
        assert len(set(series.values())) == 2  # three series, two simulated

    def test_cli_lists_experiments(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table1" in out
        assert "Figure 4: " in out and "extension: " in out

    def test_cli_rejects_unknown_experiment(self):
        assert bench_main(["does-not-exist"]) == 2


class TestCli:
    def test_cli_writes_json_results(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_module, "EXPERIMENTS", {"fake": fake_row()})
        out = tmp_path / "BENCH_fake.json"
        assert bench_main(["fake", "--json", str(out)]) == 0
        document = json.loads(out.read_text(encoding="utf-8"))
        assert set(document) == {"scale_factor", "unix_time", "experiments"}
        assert document["scale_factor"] == scale_factor()
        assert set(document["experiments"]["fake"]) == {"elapsed_s", "result"}
        result = document["experiments"]["fake"]["result"]
        assert result["kind"] == "figure"
        assert result["series"][0]["points"] == [[1, 2.5], [2, 5.0]]
        assert result["facts"] == {"runs": 1}
        assert document["experiments"]["fake"]["elapsed_s"] >= 0

    def test_gates_are_evaluated_without_any_flag(self, monkeypatch, capsys):
        monkeypatch.setattr(run_module, "EXPERIMENTS", {"fake": fake_row()})
        assert bench_main(["fake"]) == 0
        out = capsys.readouterr().out
        assert "fake: the curve rises with x — observed s at 2 vs 1: 5 > 2.5" in out
        assert "1 gates evaluated, 0 failed" in out

    def test_a_bent_curve_exits_one_naming_experiment_and_claim(self, monkeypatch, capsys):
        bent = fake_row(lambda harness: fake_figure(last=2.0))
        monkeypatch.setattr(run_module, "EXPERIMENTS", {"fake": bent})
        assert bench_main(["fake"]) == 1
        captured = capsys.readouterr()
        assert "1 gates evaluated, 1 failed" in captured.out
        assert "fake: the curve rises with x — observed s at 2 vs 1: 2 not > 2.5" in captured.err

    def test_results_writes_exactly_the_ids_that_ran(self, tmp_path, monkeypatch):
        rows = {name: fake_row(name=name) for name in ("one", "two", "three")}
        monkeypatch.setattr(run_module, "EXPERIMENTS", rows)
        results = tmp_path / "tables"
        assert bench_main(["one", "three", "--results", str(results)]) == 0
        assert sorted(os.listdir(results)) == ["one.txt", "three.txt"]
        assert (results / "one.txt").read_text(encoding="utf-8") == fake_figure().render() + "\n"
        assert "fact: runs = 1" in (results / "one.txt").read_text(encoding="utf-8")

    def test_unwritable_outputs_are_usage_errors(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_module, "EXPERIMENTS", {"fake": fake_row(lambda harness: 1 / 0)})
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert bench_main(["fake", "--json", str(tmp_path / "no" / "dir.json")]) == 2
        assert bench_main(["fake", "--results", str(blocker / "tables")]) == 2

    def test_fig4_end_to_end_gates_pass_and_table_is_the_committed_one(
        self, tmp_path, capsys, monkeypatch
    ):
        # The headline claim, for real: one-round verified snapshot reads
        # against 2PC/BFT, through the CLI, judged by its gates and compared
        # with the golden table exactly as CI's `git diff` does.
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)  # goldens are scale 1
        assert bench_main(["fig4", "--results", str(tmp_path)]) == 0
        assert "2 gates evaluated, 0 failed" in capsys.readouterr().out
        golden = os.path.join(REPO, "benchmark_results", "fig4.txt")
        with open(golden, encoding="utf-8") as handle:
            assert (tmp_path / "fig4.txt").read_text(encoding="utf-8") == handle.read()


class TestTraceArgument:
    """``--trace`` is an argument of the harness's one deployment constructor."""

    def test_only_the_harness_asked_to_trace_traces(self):
        config = section51_config(**TINY)
        tracing, plain = Harness(trace=True), Harness()
        traced_system = tracing.build(config)
        untraced_system = plain.build(config)  # built after: nothing leaks across
        assert traced_system.env.obs.tracing and not untraced_system.env.obs.tracing
        assert tracing.traced is traced_system.env.obs
        assert plain.traced is None

    def test_a_deployment_that_asks_for_tracing_is_the_traced_one(self):
        harness = Harness()
        system = harness.build(section51_config(**TINY).with_tracing(True))
        assert harness.traced is system.env.obs

    def test_cli_exports_the_traced_deployment(self, tmp_path, monkeypatch):
        def produce(harness):
            system = harness.build(section51_config(**TINY))
            specs = list(make_generator(system).stream_of(3, TxnKind.LOCAL_WRITE_ONLY))
            execute_workload(system, specs, concurrency=1, num_clients=1)
            return fake_figure()

        monkeypatch.setattr(run_module, "EXPERIMENTS", {"fake": fake_row(produce)})
        out = tmp_path / "trace.json"
        assert bench_main(["fake", "--trace", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["traceEvents"]
        # The next in-process run is untraced: there is no global to mop up.
        assert bench_main(["fake"]) == 0
        assert not Harness().build(section51_config(**TINY)).env.obs.tracing


@pytest.fixture(scope="module")
def tiny_system():
    return build_system(
        num_partitions=2, fault_tolerance=1, batch_size=10, initial_keys=64
    )


class TestDrivers:
    def test_operation_labels_cover_all_kinds(self):
        assert set(OPERATION_LABELS) == set(TxnKind)

    def test_execute_workload_runs_mixed_specs(self):
        system = build_system(num_partitions=2, fault_tolerance=1, batch_size=10, initial_keys=64)
        generator = make_generator(system)
        specs = list(generator.stream_of(6, TxnKind.LOCAL_WRITE_ONLY))
        specs += [generator.read_only(clusters=2) for _ in range(4)]
        result = execute_workload(system, specs, concurrency=3, num_clients=2)
        assert result.executed == 10
        assert result.metrics.operation("local-write-only").total == 6
        assert result.metrics.operation("read-only").committed == 4
        assert result.elapsed_ms > 0
        assert result.throughput_tps() > 0

    def test_execute_workload_with_named_protocol(self):
        system = build_system(num_partitions=2, fault_tolerance=1, batch_size=10, initial_keys=64)
        generator = make_generator(system)
        specs = [generator.read_only(clusters=2) for _ in range(3)]
        result = execute_workload(system, specs, concurrency=2, read_only_protocol="augustus")
        assert result.metrics.operation("read-only").committed == 3

    def test_execute_concurrent_workloads_records_both_streams(self):
        system = build_system(num_partitions=2, fault_tolerance=1, batch_size=10, initial_keys=64)
        generator = make_generator(system)
        foreground = [generator.read_only(clusters=2) for _ in range(4)]
        background = [generator.distributed_read_write(read_ops=2, write_ops=2) for _ in range(4)]
        result = execute_concurrent_workloads(
            system, foreground, background,
            foreground_concurrency=2, background_concurrency=2,
            foreground_pacing_ms=2.0,
        )
        assert result.metrics.operation("read-only").committed == 4
        assert result.metrics.operation("distributed-read-write").total == 4
