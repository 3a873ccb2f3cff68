"""Wall-time estimators and percentile rules."""

from perfbench import metrics
from perfbench.reference import REFERENCE_S
from perfbench.workloads import Tally


def test_quiet_wall_takes_each_piece_from_the_repetitions_that_were_not_disturbed():
    clean = [0.10, 0.20, 0.30]
    repetitions = [clean, [0.10, 0.45, 0.30], clean, [0.19, 0.20, 0.30], clean]
    assert abs(metrics.quiet_wall_s(repetitions) - 0.60) < 1e-12


def test_wall_metrics_are_in_reference_box_seconds():
    tally = Tally(attempted=100, committed=100, slice_s=[])
    runs, slices = [2.0, 2.0, 2.0], [[1.5], [1.5], [1.5]]
    slow_host = [2 * REFERENCE_S] * 8  # the kernel takes twice as long here
    result = metrics.wall_metrics(tally, [1.0, 1.0, 1.0], runs, slices, slow_host, 50.0)
    assert abs(result["setup_s"]["value"] - 0.5) < 1e-12
    assert abs(result["txn_per_wall_s"]["value"] - 100.0) < 1e-9
    assert abs(result["host_speed"]["value"] - 2.0) < 1e-12
    assert result["run_s"]["value"] == 2.0  # raw seconds stay available
    assert result["txn_per_wall_s"]["reps"] == [100.0, 100.0, 100.0]


def test_tail_percentiles_need_ten_samples_beyond_them():
    def tally(samples):
        return Tally(attempted=samples, reads_verified=samples, sim_busy_s=1.0,
                     ro_latencies_ms=[float(i) for i in range(samples)])

    assert "sim_ro_p95_ms" not in metrics.simulated_metrics(tally(199))
    with_p95 = metrics.simulated_metrics(tally(200))
    assert with_p95["sim_ro_p95_ms"]["value"] == 189.0 and "sim_ro_p99_ms" not in with_p95
    assert metrics.simulated_metrics(tally(1000))["sim_ro_p99_ms"]["value"] == 989.0
    # the metric every workload reports covers reads and commits together
    assert with_p95["sim_p50_ms"]["value"] == with_p95["sim_ro_p50_ms"]["value"] == 99.0
    mixed = tally(10)
    mixed.commit_latencies_ms = [100.0] * 30
    assert metrics.simulated_metrics(mixed)["sim_p50_ms"] == {"value": 100.0, "unit": "ms", "samples": 40}
