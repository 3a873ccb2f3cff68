"""The command end to end on every workload at a small scale, both passes."""

import json

import pytest

from perfbench import metrics, results, run, workloads

SCALE = "0.05"


def last_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_untraced_pass_reports_every_end_to_end_metric(workload, tmp_path, capsys):
    status = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--scale", SCALE, "--trace", "0", "--out", str(tmp_path)])
    report = last_line(capsys)
    assert status == 0 and report["correct"] is True
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["attempted"] >= 1 and report["failed"] == 0
    assert list(report["metrics"]) == [m.name for m in metrics.END_TO_END]
    for definition in metrics.END_TO_END:
        entry = report["metrics"][definition.name]
        assert entry["unit"] == definition.unit and entry["value"] > 0
    stored = results.load_run(tmp_path)[workload]
    assert stored["repetitions"] >= 3 and stored["problems"] == []
    assert len(stored["metrics"]["txn_per_wall_s"]["reps"]) == stored["repetitions"]
    extras = {m.name for m in metrics.SIMULATED_EXTRA}
    known = {m.name for m in metrics.END_TO_END} | extras | {"run_s", "host_speed"}
    assert set(stored["metrics"]) <= known


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_traced_pass_reports_every_layer_metric_and_sums_to_the_wall(workload, tmp_path, capsys):
    status = run.main(["--workload", workload, "--seed", "3", "--scale", SCALE,
                       "--trace", "1", "--out", str(tmp_path)])
    report = last_line(capsys)
    assert status == 0 and report["correct"] is True
    assert list(report["metrics"]) == [m.name for m in metrics.PER_LAYER]
    spans = json.loads((tmp_path / workload / results.SPANS).read_text())
    layer_ns = sum(stat["self_ns"] for stat in spans["stats"].values())
    assert layer_ns + spans["root_self_ns"] == spans["root_ns"]
    assert report["metrics"]["trace.unattributed_share"]["value"] <= 0.2
    assert report["metrics"]["simnet.events"]["value"] > 0
    assert len(spans["spans"][0]) == len(spans["span_fields"])
    assert results.load_run(tmp_path, results.LAYERS)[workload]["traced"] is True


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    workload = workloads.by_name("dist_rw")
    first = workload.generate(5, 0.05).streams[0].specs
    again = workload.generate(5, 0.05).streams[0].specs
    other = workload.generate(6, 0.05).streams[0].specs
    assert first == again and first != other
    chaos = workloads.by_name("chaos_faults")
    assert chaos.generate(5, 0.1) == chaos.generate(5, 0.1) != chaos.generate(6, 0.1)
    # The fault schedule belongs to the benchmark, not to the seed.
    assert chaos.generate(5, 0.1)[0].faults == chaos.generate(6, 0.1)[0].faults
