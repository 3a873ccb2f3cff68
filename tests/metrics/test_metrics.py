"""Tests for metrics collection and result rendering."""

from __future__ import annotations

import pytest

from repro.metrics.collector import (
    LatencySummary,
    MetricsCollector,
    percentile,
    summarize_latencies,
)
from repro.metrics.tables import FigureResult, TableResult, format_number, render_mapping


class TestPercentiles:
    def test_percentile_of_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_percentile_bounds(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0

    def test_median_of_known_samples(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_summary_fields(self):
        summary = summarize_latencies([2.0, 4.0, 6.0, 8.0])
        assert summary.count == 4
        assert summary.mean_ms == 5.0
        assert summary.min_ms == 2.0
        assert summary.max_ms == 8.0
        assert summary.p99_ms == 8.0

    def test_empty_summary(self):
        assert summarize_latencies([]) == LatencySummary.empty()


class TestMetricsCollector:
    def test_commit_and_abort_rates(self):
        collector = MetricsCollector()
        for latency in (1.0, 2.0, 3.0):
            collector.record_commit("rw", latency)
        collector.record_abort("rw", 4.0)
        metrics = collector.operation("rw")
        assert metrics.total == 4
        assert metrics.abort_rate() == pytest.approx(0.25)
        assert metrics.summary().count == 4

    def test_throughput_uses_marked_window(self):
        collector = MetricsCollector()
        collector.mark_start(1000.0)
        for _ in range(50):
            collector.record_commit("ro", 1.0)
        collector.mark_end(2000.0)
        assert collector.elapsed_ms == 1000.0
        assert collector.throughput_tps("ro") == pytest.approx(50.0)
        assert collector.throughput_tps() == pytest.approx(50.0)

    def test_throughput_without_window_is_zero(self):
        collector = MetricsCollector()
        collector.record_commit("ro", 1.0)
        assert collector.throughput_tps() == 0.0

    def test_window_marks_expand_not_shrink(self):
        collector = MetricsCollector()
        collector.mark_start(100.0)
        collector.mark_start(500.0)
        collector.mark_end(900.0)
        collector.mark_end(300.0)
        assert collector.elapsed_ms == 800.0

    def test_read_only_round2_accounting(self):
        collector = MetricsCollector()
        collector.record_read_only("ro", 2.0, rounds=1)
        collector.record_read_only("ro", 5.0, rounds=2, round2_latency_ms=3.0)
        collector.record_read_only("ro", 6.0, rounds=2, round2_latency_ms=1.0)
        assert collector.second_round_fraction("ro") == pytest.approx(2 / 3)
        # mean round-2 latency 2.0 weighted by 2/3 frequency
        assert collector.effective_round2_ms("ro") == pytest.approx(2.0 * 2 / 3)

    def test_effective_round2_zero_without_second_rounds(self):
        collector = MetricsCollector()
        collector.record_read_only("ro", 2.0, rounds=1)
        assert collector.effective_round2_ms("ro") == 0.0
        assert collector.second_round_fraction("ro") == 0.0


class TestRendering:
    def test_format_number(self):
        assert format_number(5) == "5"
        assert format_number(1234.5) == "1,234"
        assert format_number(0.1234) == "0.12"
        assert format_number(0) == "0"

    def test_figure_render_contains_series_and_points(self):
        figure = FigureResult(
            figure_id="Figure 4",
            title="Read-only latency",
            x_label="clusters",
            y_label="latency (ms)",
        )
        transedge = figure.add_series("TransEdge")
        baseline = figure.add_series("2PC/BFT")
        for x in (1, 2, 3):
            transedge.add(x, 1.0 * x)
            baseline.add(x, 20.0 * x)
        text = figure.render()
        assert "Figure 4" in text
        assert "TransEdge" in text and "2PC/BFT" in text
        assert "60" in text  # 3 clusters baseline value
        assert figure.series_by_name("TransEdge").ys() == [1.0, 2.0, 3.0]

    def test_figure_missing_points_render_as_dash(self):
        figure = FigureResult("F", "t", "x", "y")
        series = figure.add_series("only-at-2")
        series.add(2, 5)
        other = figure.add_series("only-at-1")
        other.add(1, 7)
        text = figure.render()
        assert "-" in text

    def test_figure_unknown_series_raises(self):
        figure = FigureResult("F", "t", "x", "y")
        with pytest.raises(KeyError):
            figure.series_by_name("nope")

    def test_table_render(self):
        table = TableResult(
            table_id="Table 1",
            title="Aborts caused by read-only transactions (%)",
            columns=[1, 2, 3, 4, 5],
        )
        for clusters, value in zip(range(1, 6), [0.8, 1.3, 2.15, 3.4, 4.27]):
            table.set("Augustus", clusters, value)
            table.set("TransEdge", clusters, 0.0)
        text = table.render()
        assert "Augustus" in text and "TransEdge" in text
        assert "4.27" in text
        assert table.get("TransEdge", 3) == 0.0
        assert table.get("Augustus", 9) is None

    def test_render_mapping(self):
        text = render_mapping("summary", {"throughput": 1234.0, "aborts": 2})
        assert "summary" in text and "throughput" in text and "1,234" in text


class TestSerialisation:
    def test_figure_to_dict_roundtrips_through_json(self):
        import json

        figure = FigureResult("Figure 9", "t", "batch size", "tps")
        figure.add_series("TransEdge").add(100, 5000.5)
        figure.notes.append("a note")
        document = json.loads(json.dumps(figure.to_dict()))
        assert document["kind"] == "figure"
        assert document["series"] == [{"name": "TransEdge", "points": [[100, 5000.5]]}]
        assert document["notes"] == ["a note"]

    def test_table_to_dict_roundtrips_through_json(self):
        import json

        table = TableResult(table_id="Table 1", title="t", columns=[1, 2])
        table.set("row", 1, 0.5)
        document = json.loads(json.dumps(table.to_dict()))
        assert document["kind"] == "table"
        assert document["rows"] == {"row": [[1, 0.5]]}
