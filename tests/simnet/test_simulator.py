"""Tests for the discrete-event simulator."""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.simnet.simulator import RUN_GC_THRESHOLD, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(3.0, lambda: order.append("middle"))
        sim.run_until_idle()
        assert order == ["early", "middle", "late"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run_until_idle()
        assert order == [0, 1, 2, 3, 4]

    def test_equal_time_events_from_every_entry_point_keep_insertion_order(self):
        # Heap entries are (time, sequence, fn, args) tuples: a tie on time
        # must be settled by the sequence alone, never by comparing callables.
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("child"))  # same instant, queued last

        sim.schedule_at(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.schedule_at(1.0, lambda: order.append("third"))
        sim.run_until_idle()
        assert order == ["first", "second", "third", "child"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_zero_delay_events_run(self):
        sim = Simulator()
        hits = []
        sim.schedule(0.0, lambda: hits.append(1))
        sim.run_until_idle()
        assert hits == [1]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_times_are_rejected_by_every_entry_point(self):
        # Both ``<`` guards are false for NaN, and a NaN key corrupts heap order.
        sim = Simulator()
        nan = float("nan")
        for schedule in (sim.schedule, sim.schedule_at, sim.schedule_call):
            with pytest.raises(SimulationError):
                schedule(nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_call(-1.0, lambda: None)
        assert sim.pending_events == 0
        assert sim.run_until_idle() == 0

    def test_arguments_are_passed_to_the_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, seen.append, "timer")
        sim.schedule_at(3.0, lambda *args: seen.append(args), 1, 2)
        assert sim.schedule_call(1.0, seen.append, "call") is None
        sim.run_until_idle()
        assert seen == ["call", "timer", (1, 2)]

    def test_events_can_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def chain(depth: int) -> None:
            hits.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(3))
        sim.run_until_idle()
        assert hits == [1.0, 2.0, 3.0, 4.0]


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        hits = []
        handle = sim.schedule(1.0, lambda: hits.append("no"))
        sim.schedule(2.0, lambda: hits.append("yes"))
        handle.cancel()
        sim.run_until_idle()
        assert hits == ["yes"]
        assert handle.cancelled

    def test_cancelled_head_events_are_skipped_for_free(self):
        sim = Simulator()
        hits = []
        heads = [sim.schedule(1.0, lambda: hits.append("dead")) for _ in range(3)]
        sim.schedule(2.0, lambda: hits.append("live"))
        for handle in heads:
            handle.cancel()
        # Skipped heads neither count against the budget nor move the clock.
        assert sim.run(max_events=1) == 1
        assert hits == ["live"]
        assert sim.now == 2.0
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        handle.cancel()  # should not raise


class TestRunLimits:
    def test_run_until_time_stops_and_advances_clock(self):
        sim = Simulator()
        hits = []
        sim.schedule(1.0, lambda: hits.append(1))
        sim.schedule(10.0, lambda: hits.append(2))
        sim.run(until_ms=5.0)
        assert hits == [1]
        assert sim.now == 5.0
        sim.run_until_idle()
        assert hits == [1, 2]

    def test_run_max_events(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: hits.append(i))
        processed = sim.run(max_events=4)
        assert processed == 4
        assert hits == [0, 1, 2, 3]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run_until_idle()
        assert sim.events_processed == 3

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_pending_events_counter_tracks_fire_and_cancel(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events == 5
        handles[0].cancel()
        handles[0].cancel()  # double-cancel must not decrement twice
        assert sim.pending_events == 4
        sim.run(max_events=2)
        assert sim.pending_events == 2
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_cancel_after_fire_does_not_corrupt_counter(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until_ms=1.5)
        handle.cancel()  # already fired: must be a no-op
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert sim.pending_events == 0

    def test_pending_events_counts_events_scheduled_during_run(self):
        sim = Simulator()
        observed = []

        def first():
            sim.schedule(1.0, lambda: None)
            observed.append(sim.pending_events)

        sim.schedule(1.0, first)
        sim.run_until_idle()
        assert observed == [1]
        assert sim.pending_events == 0

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule(1.0, reenter)
        sim.run_until_idle()

    def test_run_until_idle_is_idle_when_only_cancelled_entries_remain(self):
        # Exactly ``max_events`` fired and the heap still holds a cancelled
        # entry: idleness is judged by live events, not by heap length.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None).cancel()
        assert sim.run_until_idle(max_events=2) == 2
        assert sim.pending_events == 0

    def test_run_until_idle_backstop(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)


#: Thresholds a caller set before running: neither the interpreter's nor the run's.
CALLER_THRESHOLD = (1234, 5, 6)


@pytest.fixture
def caller_threshold():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER_THRESHOLD)
    yield CALLER_THRESHOLD
    gc.set_threshold(*saved)


class TestCollectorPolicy:
    """A run's loop has the run's collector thresholds; its caller keeps its own."""

    def test_callbacks_run_under_the_run_threshold(self, caller_threshold):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
        sim.run_until_idle()
        assert seen == [RUN_GC_THRESHOLD]
        assert gc.get_threshold() == caller_threshold

    @pytest.mark.parametrize(
        "limits", [{}, {"until_ms": 2.0}, {"max_events": 1}], ids=["drained", "until_ms", "max_events"]
    )
    def test_the_caller_threshold_comes_back_however_the_run_stops(self, caller_threshold, limits):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.get_threshold()))
        sim.schedule(5.0, lambda: None)
        sim.run(**limits)
        assert seen == [RUN_GC_THRESHOLD]
        assert gc.get_threshold() == caller_threshold
        sim.run()  # a second run sets and restores again
        assert gc.get_threshold() == caller_threshold

    def test_the_caller_threshold_comes_back_when_a_callback_raises(self, caller_threshold):
        sim = Simulator()

        def fail():
            assert gc.get_threshold() == RUN_GC_THRESHOLD
            raise RuntimeError("callback failed")

        sim.schedule(1.0, fail)
        with pytest.raises(RuntimeError):
            sim.run()
        assert gc.get_threshold() == caller_threshold

    def test_a_nested_run_hands_back_the_outer_runs_policy(self, caller_threshold):
        outer, inner = Simulator(), Simulator()
        seen = []
        inner.schedule(1.0, lambda: seen.append(("inner", gc.get_threshold())))

        def drive_inner():
            inner.run_until_idle()
            seen.append(("outer after inner", gc.get_threshold()))

        outer.schedule(1.0, drive_inner)
        outer.run_until_idle()
        assert seen == [("inner", RUN_GC_THRESHOLD), ("outer after inner", RUN_GC_THRESHOLD)]
        assert gc.get_threshold() == caller_threshold

    def test_a_disabled_collector_stays_disabled(self, caller_threshold):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        gc.disable()
        try:
            sim.run_until_idle()
            assert seen == [False] and not gc.isenabled()
        finally:
            gc.enable()
        assert gc.get_threshold() == caller_threshold


# One scheduler operation: (kind, number).  ``number`` is a delay or time
# offset in half-milliseconds (so equal-time ties are common), the index of
# the handle to cancel, a run horizon or an event budget, by kind.
_operations = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "schedule_at", "schedule_call", "cancel", "run_until", "run_max"]),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=40,
)


class TestAgainstAReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(_operations)
    def test_events_fire_in_time_then_insertion_order(self, operations):
        """The heap is a list sorted by ``(time, insertion index)``."""
        sim = Simulator()
        fired = []  # insertion indexes, in firing order
        handles = []  # (insertion index, handle)
        model = []  # live (time, insertion index)
        model_fired = []
        model_now = 0.0
        inserted = 0

        def fire_model(budget=None, horizon=None):
            nonlocal model_now
            count = 0
            for entry in sorted(model):
                if (horizon is not None and entry[0] > horizon) or count == budget:
                    break
                model.remove(entry)
                model_fired.append(entry[1])
                model_now = entry[0]
                count += 1
            if horizon is not None:
                model_now = max(model_now, horizon)
            return count

        for kind, number in operations:
            if kind in ("schedule", "schedule_at", "schedule_call"):
                time_ms = sim.now + number / 2.0
                if kind == "schedule":
                    handles.append((inserted, sim.schedule(number / 2.0, fired.append, inserted)))
                elif kind == "schedule_at":
                    handles.append((inserted, sim.schedule_at(time_ms, fired.append, inserted)))
                else:
                    sim.schedule_call(time_ms, fired.append, inserted)
                model.append((time_ms, inserted))
                inserted += 1
            elif kind == "cancel":
                if handles:
                    index, handle = handles[number % len(handles)]
                    handle.cancel()  # may already have fired or been cancelled
                    model[:] = [entry for entry in model if entry[1] != index]
                    assert handle.cancelled == (index not in model_fired)
            elif kind == "run_until":
                horizon = sim.now + number / 2.0
                assert sim.run(until_ms=horizon) == fire_model(horizon=horizon)
            else:
                assert sim.run(max_events=number) == fire_model(budget=number)
            assert fired == model_fired
            assert sim.pending_events == len(model)
            assert sim.events_processed == len(fired)
            assert sim.now == model_now
        assert sim.run_until_idle() == fire_model()
        assert fired == model_fired
        assert sim.pending_events == 0
