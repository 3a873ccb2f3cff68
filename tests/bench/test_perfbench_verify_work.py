"""How much signature checking a ``ro_snapshot`` deployment does on the host.

The nodes verify 19 768 signatures and 5 121 quorums in one repetition at
seed 0, and their verify caches miss on most of them: that is the simulated
model and it does not move.  Behind those misses the deployment checks each
distinct signature once (it checked 41 383 before the verdict table), and
each check is of a signature no other check saw.
"""

from __future__ import annotations

from perfbench import measure, workloads

from repro.crypto.signatures import KeyRegistry


def test_ro_snapshot_checks_each_signature_once(monkeypatch):
    checks = []
    real = KeyRegistry._check

    def counted(self, material, scheme, message, signature):
        checks.append((signature.signer, message, signature.value))
        return real(self, material, scheme, message, signature)

    monkeypatch.setattr(KeyRegistry, "_check", counted)
    workload = workloads.by_name("ro_snapshot")
    _, _, tally, problems, _ = measure._repetition(workload, workload.generate(0, 1.0))

    assert problems == []
    assert tally.reads_verified > 0
    assert len(checks) == len(set(checks)) == 3291
