"""The shared Merkle delta memo changes how much a run hashes, never what it does.

A chaos seed run normally and run with the memo forced to miss (every member
hashing every delta itself, once to preview it and again to apply it) must
agree on every fingerprinted field, on the trace digest, on the number of
events and on every counter.  Seeds 5 and 10 each have a view change and state transfers,
so crashed members replay batches the memo answers for.
"""

from __future__ import annotations

import pytest

from repro.chaos import forget_twins, run_seed
from repro.crypto.merkle import DeltaMemo, MerkleTree


@pytest.mark.parametrize("seed", [5, 10])
def test_forcing_the_delta_memo_to_miss_changes_nothing_but_the_hashing(
    seed, monkeypatch, cold_twins
):
    kernel_calls = []
    real_kernel = MerkleTree.path_overlay

    def counting_kernel(self, updates):
        kernel_calls.append(len(updates))
        return real_kernel(self, updates)

    monkeypatch.setattr(MerkleTree, "path_overlay", counting_kernel)
    with_memo = run_seed(seed)
    hashed_with_memo = len(kernel_calls)
    monkeypatch.setattr(DeltaMemo, "lookup", lambda self, key: None)
    # The honest system itself is patched from here on (see
    # test_memo_neutrality): its twin baselines must be its own.
    forget_twins()
    without_memo = run_seed(seed)

    assert with_memo.ok and without_memo.ok
    assert 0 < hashed_with_memo < len(kernel_calls) - hashed_with_memo
    assert with_memo.counters["view_changes"] > 0
    assert with_memo.counters["recoveries_completed"] > 0
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
