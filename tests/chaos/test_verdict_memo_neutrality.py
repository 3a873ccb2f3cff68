"""The deployment's verdict table and encodings change how much a run checks, never what it does.

A chaos seed run normally and run with both memos forced to miss (every
node's cache miss running its own MAC check over a payload it encodes
itself) must agree on every fingerprinted field, on the trace digest, on the
number of events and on every counter, the per-node verify-cache hits and
misses included.  Seeds 5 and 10 each have a view change and state
transfers, so votes, certificates, checkpoints and view-change votes are all
checked.
"""

from __future__ import annotations

import pytest

from repro.chaos import forget_twins, run_seed
from repro.crypto.signatures import BoundedMemo, KeyRegistry


@pytest.mark.parametrize("seed", [5, 10])
def test_forcing_the_verdict_memos_to_miss_changes_nothing_but_the_checking(
    seed, monkeypatch, cold_twins
):
    checks = []
    real_check = KeyRegistry._check

    def counting_check(self, material, scheme, message, signature):
        checks.append(signature.value)
        return real_check(self, material, scheme, message, signature)

    monkeypatch.setattr(KeyRegistry, "_check", counting_check)
    with_memo = run_seed(seed)
    checked_with_memo = len(checks)
    monkeypatch.setattr(BoundedMemo, "lookup", lambda self, key: None)
    # The honest system itself is patched from here on (see
    # test_memo_neutrality): its twin baselines must be its own.
    forget_twins()
    without_memo = run_seed(seed)

    assert with_memo.ok and without_memo.ok
    assert 0 < checked_with_memo < (len(checks) - checked_with_memo) / 3
    assert with_memo.counters["view_changes"] > 0
    assert with_memo.counters["recoveries_completed"] > 0
    assert with_memo.counters["verify_cache_misses"] > 0
    assert with_memo.counters == without_memo.counters
    for field in (
        "history_digest",
        "committed",
        "aborted",
        "read_only_recorded",
        "read_only_unverified",
        "events_processed",
        "elapsed_sim_ms",
        "trace_digest",
        "twin",
        "perf_ratio",
    ):
        assert getattr(with_memo, field) == getattr(without_memo, field), field
    assert with_memo.fingerprint() == without_memo.fingerprint()
