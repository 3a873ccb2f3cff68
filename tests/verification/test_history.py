"""Tests for execution-history recording and serializability checks."""

from __future__ import annotations

import pytest

from repro.common.errors import VerificationError
from repro.verification.history import ExecutionHistory


class TestReadOnlyValueCheck:
    def test_values_from_committed_writes_pass(self):
        history = ExecutionHistory(initial_data={"x": b"init"})
        history.record_commit("t1", {}, {"x": b"v1"})
        history.record_read_only("r1", {"x": b"v1"}, {"x": 1})
        history.check_read_only_values()

    def test_initial_values_pass(self):
        history = ExecutionHistory(initial_data={"x": b"init"})
        history.record_read_only("r1", {"x": b"init"}, {"x": -1})
        history.check_read_only_values()

    def test_phantom_value_fails(self):
        history = ExecutionHistory(initial_data={"x": b"init"})
        history.record_commit("t1", {}, {"x": b"v1"})
        history.record_read_only("r1", {"x": b"never-written"}, {"x": 1})
        with pytest.raises(VerificationError):
            history.check_read_only_values()

    def test_none_values_are_allowed(self):
        history = ExecutionHistory()
        history.record_read_only("r1", {"x": None}, {"x": -1})
        history.check_read_only_values()


class TestAtomicVisibility:
    def test_consistent_pair_passes(self):
        history = ExecutionHistory(initial_data={"x": b"x0", "y": b"y0"})
        history.record_commit("t1", {}, {"x": b"a", "y": b"a"})
        history.record_commit("t2", {}, {"x": b"b", "y": b"b"})
        history.record_read_only("r1", {"x": b"a", "y": b"a"}, {})
        history.record_read_only("r2", {"x": b"b", "y": b"b"}, {})
        history.record_read_only("r3", {"x": b"x0", "y": b"y0"}, {})
        history.check_atomic_visibility([{"x", "y"}])

    def test_mixed_snapshot_fails(self):
        # The Figure 1 anomaly: x from t2 but y from t1.
        history = ExecutionHistory(initial_data={"x": b"x0", "y": b"y0"})
        history.record_commit("t1", {}, {"x": b"a", "y": b"a"})
        history.record_commit("t2", {}, {"x": b"b", "y": b"b"})
        history.record_read_only("bad", {"x": b"b", "y": b"a"}, {})
        with pytest.raises(VerificationError):
            history.check_atomic_visibility([{"x", "y"}])

    def test_mixed_snapshot_message_lists_writers_sorted_initial_state_first(self):
        # The message is hashed into chaos fingerprints and written into repro
        # artifacts: it must not follow set order (PYTHONHASHSEED).
        history = ExecutionHistory(initial_data={"x": b"x0", "y": b"y0", "z": b"z0"})
        history.record_commit("t9", {}, {"x": b"a"})
        history.record_commit("t10", {}, {"y": b"b"})
        history.record_read_only("bad", {"x": b"a", "y": b"b", "z": b"z0"}, {})
        with pytest.raises(VerificationError, match=r"writers \[None, 't10', 't9'\]$"):
            history.check_atomic_visibility([{"x", "y", "z"}])

    def test_partial_snapshot_of_group_is_ignored(self):
        history = ExecutionHistory()
        history.record_commit("t1", {}, {"x": b"a", "y": b"a"})
        history.record_read_only("r1", {"x": b"a"}, {})
        history.check_atomic_visibility([{"x", "y"}])


class TestSerializationGraph:
    def test_acyclic_history_passes(self):
        history = ExecutionHistory(initial_data={"x": b"x0"})
        history.record_commit("t1", {}, {"x": b"v1"})
        history.record_commit("t2", {}, {"x": b"v2"})
        history.record_read_only("r1", {"x": b"v1"}, {"x": 1})
        history.check_serializable(version_order={"x": [b"x0", b"v1", b"v2"]})

    def test_graph_edges_reflect_wr_and_rw(self):
        history = ExecutionHistory(initial_data={"x": b"x0"})
        history.record_commit("t1", {}, {"x": b"v1"})
        history.record_commit("t2", {}, {"x": b"v2"})
        history.record_read_only("r1", {"x": b"v1"}, {"x": 1})
        graph = history.build_serialization_graph({"x": [b"x0", b"v1", b"v2"]})
        assert graph.has_edge("t1", "t2")        # ww
        assert graph.has_edge("t1", "ro:r1")     # wr
        assert graph.has_edge("ro:r1", "t2")     # rw

    def test_read_of_initial_value_orders_reader_before_writers(self):
        history = ExecutionHistory(initial_data={"x": b"x0"})
        history.record_commit("t1", {}, {"x": b"v1"})
        history.record_read_only("r1", {"x": b"x0"}, {"x": -1})
        graph = history.build_serialization_graph({"x": [b"x0", b"v1"]})
        assert graph.has_edge("ro:r1", "t1")

    def test_cyclic_read_only_observation_fails(self):
        # Two keys written in opposite orders would make a read-only snapshot
        # seeing {x from t2, y from t1} create a cycle t1 -> ro -> t2 -> ... -> t1.
        history = ExecutionHistory(initial_data={"x": b"x0", "y": b"y0"})
        history.record_commit("t1", {}, {"x": b"a", "y": b"a"})
        history.record_commit("t2", {}, {"x": b"b", "y": b"b"})
        history.record_read_only("bad", {"x": b"b", "y": b"a"}, {})
        with pytest.raises(VerificationError):
            history.check_serializable(
                version_order={"x": [b"x0", b"a", b"b"], "y": [b"y0", b"a", b"b"]}
            )

    def test_check_all_runs_every_check(self):
        history = ExecutionHistory(initial_data={"x": b"x0", "y": b"y0"})
        history.record_commit("t1", {}, {"x": b"a", "y": b"a"})
        history.record_read_only("r1", {"x": b"a", "y": b"a"}, {})
        history.check_all(groups=[{"x", "y"}], version_order={"x": [b"x0", b"a"], "y": [b"y0", b"a"]})

    def test_check_all_raises_on_anomaly(self):
        history = ExecutionHistory(initial_data={"x": b"x0", "y": b"y0"})
        history.record_commit("t1", {}, {"x": b"a", "y": b"a"})
        history.record_commit("t2", {}, {"x": b"b", "y": b"b"})
        history.record_read_only("bad", {"x": b"b", "y": b"a"}, {})
        with pytest.raises(VerificationError):
            history.check_all(groups=[{"x", "y"}])
