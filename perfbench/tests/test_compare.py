"""``compare`` verdicts on hand-made result pairs."""

import json

from perfbench import compare


def result(workload, seed=0, **values):
    metrics = {}
    for name, value in values.items():
        reps = value if isinstance(value, list) else None
        entry = {"value": sorted(reps)[len(reps) // 2] if reps else value, "unit": "x"}
        if reps:
            entry["reps"] = reps
        metrics[name] = entry
    return {"workload": workload, "seed": seed, "scale": 1.0, "metrics": metrics}


def write(tmp_path, name, *results):
    for item in results:
        directory = tmp_path / name / item["workload"]
        directory.mkdir(parents=True)
        (directory / "e2e.json").write_text(json.dumps(item))
    return tmp_path / name


def verdicts(tmp_path, base, other):
    rows = compare.compare(write(tmp_path, "a", base), write(tmp_path, "b", other))
    return {row.metric: row for row in rows}


def test_wall_metric_within_bound_is_same_beyond_is_worse_or_better(tmp_path):
    base = result("w", txn_per_wall_s=[100.0, 101.0, 99.0], setup_s=[1.0, 1.01, 0.99], peak_rss_mb=100.0)
    other = result("w", txn_per_wall_s=[70.0, 71.0, 69.0], setup_s=[0.6, 0.61, 0.59], peak_rss_mb=104.0)
    rows = verdicts(tmp_path, base, other)
    assert rows["txn_per_wall_s"].verdict == "worse"      # 30 % fewer txns/s, bound 25 %
    assert rows["setup_s"].verdict == "better"            # 40 % less set-up, bound 25 %
    assert rows["peak_rss_mb"].verdict == "same"          # +4 %, bound 10 %
    assert abs(rows["txn_per_wall_s"].ratio - 0.7) < 1e-9  # B/A, A is the base


def test_spread_wider_than_bound_is_unresolved_never_same(tmp_path):
    # The estimate rests on the fastest repetitions: here they are 40 % apart.
    base = result("w", txn_per_wall_s=[100.0, 140.0, 50.0, 100.0])
    other = result("w", txn_per_wall_s=[100.0, 100.0, 100.0, 100.0])
    assert verdicts(tmp_path, base, other)["txn_per_wall_s"].verdict == "unresolved"
    # Disturbed (slow) repetitions alone do not make a result unresolved.
    base = result("w", txn_per_wall_s=[100.0, 99.0, 50.0, 40.0])
    assert verdicts(tmp_path / "again", base, other)["txn_per_wall_s"].verdict == "same"


def test_small_absolute_setup_difference_is_not_a_regression(tmp_path):
    base = result("w", setup_s=[0.060, 0.061, 0.059])
    other = result("w", setup_s=[0.090, 0.091, 0.089])   # +50 % but only 0.03 s
    assert verdicts(tmp_path, base, other)["setup_s"].verdict == "same"


def test_simulated_metric_must_be_bit_identical_for_the_same_seed(tmp_path):
    base = result("w", sim_tps=1000.0, sim_p50_ms=3.0, sim_ro_round2_share=0.1)
    other = result("w", sim_tps=1000.0, sim_p50_ms=3.0000001, sim_ro_round2_share=0.1)
    rows = verdicts(tmp_path, base, other)
    assert rows["sim_tps"].verdict == "same"
    assert rows["sim_p50_ms"].verdict == "worse"
    assert rows["sim_p50_ms"].note == compare.CHANGED
    assert rows["sim_ro_round2_share"].verdict == "same"


def test_different_seeds_use_the_bound_instead(tmp_path):
    base = result("w", seed=0, sim_tps=1000.0)
    other = result("w", seed=1, sim_tps=990.0)
    assert verdicts(tmp_path, base, other)["sim_tps"].verdict == "same"


def test_exit_status_is_nonzero_on_any_worse(tmp_path, capsys):
    a = write(tmp_path, "a", result("w", txn_per_wall_s=[100.0, 100.0, 100.0]))
    b = write(tmp_path, "b", result("w", txn_per_wall_s=[50.0, 50.0, 50.0]))
    assert compare.main(a, b) == 1
    assert compare.main(a, a) == 0
    assert "B/A" in capsys.readouterr().out
