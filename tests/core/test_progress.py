"""The view-progress policy as a pure function: one row per outcome, plus totality.

:func:`~repro.core.progress.monitor_step` takes no replica, so every
decision the monitor can make is checked here from a state and one input,
and a Hypothesis property drives it through arbitrary input sequences.
End-to-end behaviour (a dead leader voted out, a futile catch-up falling
through to a vote) stays in ``test_auto_failover.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progress import (
    MAX_SUSPECT_ROUNDS,
    Arm,
    CatchUp,
    Complaint,
    Fire,
    MonitorState,
    Poke,
    ProbeAck,
    Suspect,
    ViewChange,
    monitor_step,
)

STALLED = (4, 7)  # the progress the monitor was armed at
MOVED = (5, 8)
STOOD_DOWN = MAX_SUSPECT_ROUNDS + 1


def fire(progress=STALLED, pending=True, undecided=False, behind=False, is_leader=False,
         recovering=False):
    return Fire(progress, pending, undecided, behind, is_leader, recovering)


def state(**fields):
    return MonitorState(**{"baseline": STALLED, **fields})


#: (id, state before, input, state after, effects)
ROWS = [
    ("healthy-re-arm",
     state(rounds=3, catchup_attempted=True, probes=frozenset({"t"})), fire(progress=MOVED),
     state(baseline=MOVED), (Arm(),)),
    ("healthy-idle-stays-quiet",
     state(rounds=3), fire(progress=MOVED, pending=False), state(), ()),
    ("stand-down-at-the-9th-silent-round",
     state(rounds=MAX_SUSPECT_ROUNDS), fire(), state(rounds=STOOD_DOWN), ()),
    ("stood-down-fire-does-nothing",
     state(rounds=STOOD_DOWN), fire(), state(rounds=STOOD_DOWN), ()),
    ("catch-up-when-behind",
     state(), fire(behind=True), state(rounds=1, catchup_attempted=True), (CatchUp(), Arm())),
    ("one-catch-up-per-stall-then-suspect",
     state(rounds=1, catchup_attempted=True), fire(behind=True),
     state(rounds=2, catchup_attempted=True), (Suspect(2), Arm())),
    ("leader-re-arms-at-round-1",
     state(), fire(is_leader=True), state(rounds=1), (Arm(),)),
    ("leader-last-resort-catch-up-at-round-2",
     state(rounds=1), fire(is_leader=True),
     state(rounds=2, catchup_attempted=True), (CatchUp(), Arm())),
    ("leader-without-consensus-work-never-catches-up",
     state(rounds=1), fire(is_leader=True, pending=False, undecided=True), state(rounds=2),
     (Arm(),)),
    ("follower-suspects",
     state(), fire(), state(rounds=1), (Suspect(1), Arm())),
    ("recovering-re-arms-without-voting",
     state(), fire(behind=True, recovering=True), state(rounds=1), (Arm(),)),
    ("silent-round-without-evidence-does-nothing",
     state(rounds=2), fire(pending=False), state(rounds=2), ()),
    ("poke-arms-on-evidence",
     state(rounds=2), Poke(MOVED, False, True), state(baseline=MOVED, rounds=2), (Arm(),)),
    ("stood-down-poke-without-progress-does-nothing",
     state(rounds=STOOD_DOWN), Poke(STALLED, True, True), state(rounds=STOOD_DOWN), ()),
    ("stood-down-poke-with-progress-revives",
     state(rounds=STOOD_DOWN, catchup_attempted=True, probes=frozenset({"t"})),
     Poke(MOVED, True, False), state(baseline=MOVED, catchup_attempted=True), (Arm(),)),
    ("complaint-revives-a-stood-down-monitor",
     state(rounds=STOOD_DOWN), Complaint("t"), state(probes=frozenset({"t"})), ()),
    ("complaint-keeps-the-count-while-live",
     state(rounds=3), Complaint("t"), state(rounds=3, probes=frozenset({"t"})), ()),
    ("probe-ack-for-an-unprobed-txn-is-ignored",
     state(probes=frozenset({"a"})), ProbeAck("b"), state(probes=frozenset({"a"})), ()),
    ("probe-ack-answers-every-complaint",
     state(probes=frozenset({"a", "b"})), ProbeAck("b"), state(), ()),
    ("view-change-answers-every-complaint",
     state(rounds=2, probes=frozenset({"a"})), ViewChange(), state(rounds=2), ()),
]


@pytest.mark.parametrize(
    "before, event, after, effects", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_decision_table(before, event, after, effects):
    assert monitor_step(before, event) == (after, effects)


PROGRESS = st.tuples(st.integers(0, 2), st.integers(0, 2))
TXNS = st.sampled_from(["a", "b", "c"])
INPUTS = st.one_of(
    st.builds(Poke, PROGRESS, st.booleans(), st.booleans()),
    st.builds(
        Fire, PROGRESS, st.booleans(), st.booleans(), st.booleans(), st.booleans(), st.booleans()
    ),
    st.builds(Complaint, TXNS),
    st.builds(ProbeAck, TXNS),
    st.just(ViewChange()),
)


@settings(max_examples=300, deadline=None)
@given(baseline=PROGRESS, events=st.lists(INPUTS, max_size=80))
def test_any_input_sequence_keeps_the_invariants(baseline, events):
    current = MonitorState(baseline=baseline)
    last_progress, catch_ups = baseline, 0
    for event in events:
        current, effects = monitor_step(current, event)  # total: never raises
        assert current.rounds <= STOOD_DOWN
        if isinstance(event, Poke) and event.progress != last_progress:
            last_progress, catch_ups = event.progress, 0
        catch_ups += effects.count(CatchUp())
        assert catch_ups <= 1  # at most one catch-up between two progress changes
        if any(isinstance(effect, Suspect) for effect in effects):
            assert isinstance(event, Fire) and not (event.is_leader or event.recovering)
        if Arm() in effects:
            assert effects.index(Arm()) == len(effects) - 1
