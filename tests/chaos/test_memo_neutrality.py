"""The certificate-verdict memo changes what a run costs, never what it does.

A chaos seed run normally and run with the memo forced to miss (every
certificate re-verified from its signatures, as before the memo existed) must
agree on every fingerprinted field and on the trace digest.  The one
exception is ``verify_cache_hits``: the per-signature lookups that a memo
answer skips were all hits, so that counter — and only that one — is lower.
"""

from __future__ import annotations

import pytest

from repro.chaos import forget_twins, run_seed
from repro.crypto.signatures import VerifyCache


@pytest.mark.parametrize("seed", [1, 6])
def test_forcing_the_memo_to_miss_changes_only_the_hit_count(
    seed, monkeypatch, cold_twins
):
    with_memo = run_seed(seed)
    monkeypatch.setattr(VerifyCache, "probe", lambda self, key: None)
    # The honest system itself is patched from here on: a twin baseline the
    # unpatched one left behind is not this system's (``cold_twins`` forgets
    # the patched system's again afterwards).
    forget_twins()
    without_memo = run_seed(seed)

    assert with_memo.ok and without_memo.ok
    hits = with_memo.counters["verify_cache_hits"]
    assert 0 < hits < without_memo.counters["verify_cache_hits"]
    assert dict(with_memo.counters, verify_cache_hits=None) == dict(
        without_memo.counters, verify_cache_hits=None
    )
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
    assert not with_memo.twin_reused and not without_memo.twin_reused
