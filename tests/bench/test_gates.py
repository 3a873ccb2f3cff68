"""The gate vocabulary on synthetic results: each predicate passes and fails,
and absent evidence is a named failure, never a ``KeyError``."""

from __future__ import annotations

import pytest

from repro.bench.gates import Gate, cell, every, fact, ratio, some, trend
from repro.metrics.tables import FigureResult, TableResult


@pytest.fixture
def figure():
    result = FigureResult(figure_id="Figure T", title="test", x_label="x", y_label="y")
    slow = result.add_series("slow")
    fast = result.add_series("fast")
    for x, (slow_y, fast_y) in {1: (10.0, 2.0), 2: (30.0, 3.0), 3: (40.0, 4.0)}.items():
        slow.add(x, slow_y)
        fast.add(x, fast_y)
    result.add_series("partial").add(3, 1.0)
    result.add_series("empty")
    result.facts["rebuilds"] = 0
    return result


@pytest.fixture
def table():
    result = TableResult(table_id="Table T", title="test", columns=[1, 2])
    result.set("quiet", 1, 0.0)
    result.set("quiet", 2, 0.0)
    result.set("noisy", 1, 0.0)
    result.set("noisy", 2, 7.5)
    return result


def held(predicate, result):
    return Gate("claim", predicate).evaluate(result)[0]


class TestPredicates:
    def test_ratio_between_two_series(self, figure):
        assert held(ratio("slow", "fast", ">", 2.0), figure)
        assert not held(ratio("slow", "fast", ">", 6.0), figure)  # fails at x=1 only
        assert held(ratio("slow", "fast", ">=", 10.0, at=2), figure)
        assert not held(ratio("slow", "fast", ">=", 10.0, at=1), figure)

    def test_ratio_compares_the_points_both_series_have(self, figure):
        assert held(ratio("partial", "fast", "<", 1.0), figure)  # x=3 only

    def test_ratio_with_a_floor_per_x(self, figure):
        assert held(ratio("slow", "fast", ">=", {1: 5.0, 2: 10.0, 3: 10.0}), figure)
        assert not held(ratio("slow", "fast", ">=", {1: 5.0, 2: 10.0, 3: 10.5}), figure)

    def test_trend_between_two_points_of_one_series(self, figure):
        assert held(trend("slow", 3, ">", 1.5, 1), figure)
        assert not held(trend("slow", 3, ">", 4.0, 1), figure)

    def test_trend_over_every_series(self, table):
        assert held(trend("*", 2, ">=", 1.0, 1), table)
        assert not held(trend("*", 2, ">", 1.0, 1), table)  # "quiet" is flat

    def test_bound_on_every_point(self, figure):
        assert held(every("fast", "<", 5.0), figure)
        assert not held(every("fast", "<", 4.0), figure)
        assert held(every("fast", "<=", {1: 2.0, 2: 3.0, 3: 4.0}), figure)
        assert not held(every("fast", "<=", {1: 2.0, 2: 2.5, 3: 4.0}), figure)

    def test_bound_on_some_point(self, table):
        assert held(some("noisy", ">", 0.0), table)
        assert not held(some("quiet", ">", 0.0), table)

    def test_exact_cell(self, figure, table):
        assert held(cell("quiet", 2, "==", 0.0), table)
        assert not held(cell("noisy", 2, "==", 0.0), table)
        assert held(cell("slow", 1, "==", 10.0), figure)

    def test_bound_on_a_fact(self, figure):
        assert held(fact("rebuilds", "==", 0), figure)
        assert not held(fact("rebuilds", ">=", 1), figure)


class TestFailureText:
    def test_observed_values_name_the_failing_point(self, figure):
        ok, observed = Gate("claim", ratio("slow", "fast", ">", 6.0)).evaluate(figure)
        assert not ok
        assert "at 1: 10 not > 12" in observed
        assert "at 2: 30 > 18" in observed

    @pytest.mark.parametrize(
        "predicate, named",
        [
            (ratio("slow", "absent", ">", 1.0), "no series 'absent'"),
            (every("empty", ">", 0), "no series 'empty'"),
            (ratio("slow", "fast", ">", 1.0, at=9), "no point 9 in series 'slow'"),
            (trend("partial", 3, ">", 1.0, 1), "no point 1 in series 'partial'"),
            (cell("fast", 7, "==", 0), "no point 7 in series 'fast'"),
            (every("fast", "<=", {1: 2.0}), "no bound declared at 2"),
            (fact("restarts", "==", 0), "no fact 'restarts'"),
        ],
    )
    def test_missing_evidence_is_a_named_failure(self, figure, predicate, named):
        ok, observed = Gate("claim", predicate).evaluate(figure)
        assert not ok
        assert observed == named

    def test_missing_table_row_is_a_named_failure(self, table):
        assert Gate("claim", every("absent", "==", 0)).evaluate(table) == (
            False, "no series 'absent'",
        )
