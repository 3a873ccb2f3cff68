"""LatencyReservoir tests: exact below the cap, bounded error above it."""

from __future__ import annotations

import random

import pytest

from repro.metrics.collector import (
    LatencyReservoir,
    MetricsCollector,
    percentile,
    summarize_latencies,
)


class TestExactRegime:
    def test_behaves_like_a_list_below_the_cap(self):
        reservoir = LatencyReservoir()
        reservoir.extend([3.0, 1.0, 2.0])
        reservoir.append(4.0)
        assert len(reservoir) == 4
        assert bool(reservoir)
        assert sorted(reservoir) == [1.0, 2.0, 3.0, 4.0]
        assert not reservoir.converted

    def test_summary_is_exact_below_the_cap(self):
        samples = [float(value) for value in range(1, 101)]
        reservoir = LatencyReservoir()
        reservoir.extend(samples)
        summary = reservoir.summary()
        exact = summarize_latencies(samples)
        assert summary == exact

    def test_empty_reservoir(self):
        reservoir = LatencyReservoir()
        assert len(reservoir) == 0
        assert not reservoir
        assert reservoir.summary().count == 0


class TestHistogramRegime:
    def test_conversion_at_cap_bounds_memory(self):
        cap = LatencyReservoir.DEFAULT_CAP
        reservoir = LatencyReservoir()
        rng = random.Random(5)
        total = cap + 5000
        reservoir.extend(rng.uniform(0.1, 500.0) for _ in range(total))
        assert reservoir.converted
        assert len(reservoir) == total
        # The histogram keeps log-spaced buckets, not samples: the bucket
        # count is bounded by the dynamic range, far below the sample count.
        assert len(reservoir._buckets) < 400

    def test_percentiles_within_documented_error(self):
        rng = random.Random(7)
        samples = [rng.uniform(0.5, 2000.0) for _ in range(30_000)]
        reservoir = LatencyReservoir()
        reservoir.extend(samples)
        assert reservoir.converted
        summary = reservoir.summary()
        for quantile, approx in (
            (0.5, summary.p50_ms),
            (0.95, summary.p95_ms),
            (0.99, summary.p99_ms),
        ):
            exact = percentile(samples, quantile)
            # Documented bound: ±2.5% relative error from the log bucketing.
            assert approx == pytest.approx(exact, rel=0.025)

    def test_count_total_min_max_stay_exact(self):
        samples = [float(value % 997) + 0.25 for value in range(20_000)]
        reservoir = LatencyReservoir()
        reservoir.extend(samples)
        summary = reservoir.summary()
        assert summary.count == len(samples)
        assert summary.mean_ms == pytest.approx(sum(samples) / len(samples))
        assert summary.min_ms == min(samples)
        assert summary.max_ms == max(samples)
        assert reservoir.total_ms == pytest.approx(sum(samples))

    def test_zero_samples_survive_conversion(self):
        reservoir = LatencyReservoir()
        reservoir.extend([0.0] * 10_000)
        reservoir.extend([5.0] * 2_000)
        summary = reservoir.summary()
        assert summary.count == 12_000
        assert summary.min_ms == 0.0
        assert summary.p50_ms == 0.0

    def test_iteration_yields_one_midpoint_per_sample(self):
        reservoir = LatencyReservoir(cap=4)
        reservoir.extend([0.0, 1.0, 10.0, 100.0, 1000.0])
        assert reservoir.converted
        samples = list(reservoir)
        assert len(samples) == 5 and samples[0] == 0.0
        for exact, midpoint in zip([1.0, 10.0, 100.0, 1000.0], samples[1:]):
            assert midpoint == pytest.approx(exact, rel=0.025)
            assert reservoir.min_ms <= midpoint <= reservoir.max_ms


class TestCollectorIntegration:
    def test_operation_metrics_use_reservoirs(self):
        collector = MetricsCollector()
        for latency in (1.0, 2.0, 3.0):
            collector.record_commit("rw", latency)
        metrics = collector.operation("rw")
        assert isinstance(metrics.latencies_ms, LatencyReservoir)
        assert metrics.summary().count == 3
