"""Coverage signatures and plan mutation for the chaos fleet.

A finished chaos run is summarised into a *coverage signature*: the sorted
tuple of rare features it exhibited — rare counters that fired
(``catchup_recoveries``, ``snapshot_rebuilds``,
``transport_retransmits_abandoned``, ...), non-healthy health states the
monitor recorded, oracles that failed, and performance near-misses (a
commit-latency ratio vs the fault-free twin in [1.2, 2.0): too small to trip
the phase-latency oracle, too large to be noise).  Signatures are pure
functions of report data already outside the fingerprint, so computing them
never perturbs a run.

A :class:`CoverageMap` counts how often each feature has been seen across
all runs of a fleet/corpus; :func:`signature_weight` turns a signature into
a selection weight that favours plans whose features are globally rare —
the AFL-style scheduling heuristic.  :func:`mutate_plan` then derives a new
plan from a chosen corpus entry by perturbing its ``ConfigPoint`` and fault
plan inside the planner's legality envelope (at most the planner's own
fault severities scaled up, never an unsurvivable scenario: no new
crashes).  Several mutated dimensions are *unreachable* by the uniform
planner — a tiny archive (``snapshot_rebuilds``), an armed client
staleness bound — which is exactly the point: mutation opens config
regions uniform seeds 0..N can never visit.

One early operator is deliberately retired (see ``MUTATION_OPS``):
``low-retransmit-cap``.  The reliable channel's default retransmission
budget is sized so links to *live* peers survive every legal loss window
(:mod:`repro.simnet.reliable`); caps of 2–4 abandon live links
mid-blackout, i.e. permanent message loss, which the core's fault model
never promises to survive — the failures it produced (wedged 2PC,
phantom reads) were artifacts of the illegal config, not protocol bugs.
``long-crash`` covers the same rare counters legally: one solitary
replica outage stretched far past the whole retransmission budget makes
its peers abandon the dead links by design, and the replica rejoins
through state transfer at restart.

The fleet's early sessions earned their keep before this module ever
shipped: mutants surfaced a client bug (positional leader refusals
recorded as authoritative aborts) and an elected-while-behind leader
stall (a view change can elect a replica that missed decisions while
crashed; it re-proposes an already-decided sequence and nothing in the
partition can tell it so).  Both are fixed — see
:mod:`repro.core.client`, the catch-up outcomes of
:func:`~repro.core.progress.monitor_step` and
:meth:`~repro.core.leader.LeaderRole.on_recovery_complete` — and the
mutants that found them are pinned in ``tests/chaos/test_fleet.py``.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.chaos.plan import ChaosPlan, FaultEvent

#: Counters whose firing marks a rare protocol path worth biasing toward.
RARE_COUNTERS = (
    "catchup_recoveries",
    "snapshot_rebuilds",
    "two_pc_unresumable",
    "transport_retransmits_abandoned",
    "transport_links_abandoned",
)

#: Perf near-miss band: below the phase-latency oracle's 2.0x threshold but
#: clearly above twin noise.
NEAR_MISS_LOW = 1.2
NEAR_MISS_HIGH = 2.0


def coverage_signature(
    counters: Mapping[str, int],
    health: Mapping[str, object],
    failure_oracles: Iterable[str] = (),
    perf_ratio: Optional[float] = None,
) -> Tuple[str, ...]:
    """The sorted rare-feature tuple of one finished run."""
    features = set()
    for name in RARE_COUNTERS:
        if int(counters.get(name, 0) or 0) > 0:
            features.add(f"counter:{name}")
    for transition in health.get("transitions") or []:
        state = transition.get("to") if isinstance(transition, dict) else None
        if state and state != "healthy":
            features.add(f"health:{state}")
    for oracle in failure_oracles:
        features.add(f"oracle:{oracle}")
    if perf_ratio is not None and NEAR_MISS_LOW <= perf_ratio < NEAR_MISS_HIGH:
        features.add("perf:near-miss")
    return tuple(sorted(features))


class CoverageMap:
    """Global feature counts across every run the fleet has seen."""

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self.counts: Dict[str, int] = dict(counts or {})

    def observe(self, signature: Sequence[str]) -> List[str]:
        """Fold one signature in; returns the features seen for the first time."""
        fresh = [feature for feature in signature if feature not in self.counts]
        for feature in signature:
            self.counts[feature] = self.counts.get(feature, 0) + 1
        return fresh

    @classmethod
    def from_signatures(cls, signatures: Iterable[Sequence[str]]) -> "CoverageMap":
        coverage = cls()
        for signature in signatures:
            coverage.observe(signature)
        return coverage


def signature_weight(signature: Sequence[str], coverage: CoverageMap) -> float:
    """Selection weight of a corpus entry: the rarer its features, the higher.

    Every entry keeps a small floor so the corpus never starves; each
    feature contributes the inverse of its global count, so a plan that hit
    a once-seen counter outweighs one that only hit everyday degradations.
    """
    weight = 0.05
    for feature in signature:
        weight += 1.0 / max(1, coverage.counts.get(feature, 0))
    return weight


# ---------------------------------------------------------------------------
# Plan mutation
# ---------------------------------------------------------------------------

#: Mutation operator names, in the fixed order the mutator draws from
#: (stable order keeps sessions deterministic across processes).  The
#: retired ``low-retransmit-cap`` operator is documented in the module
#: docstring; do not re-add it without re-validating the envelope.
MUTATION_OPS = (
    "tiny-archive",
    "arm-staleness-bound",
    "tight-checkpoints",
    "harshen-drop",
    "add-core-blackout",
    "add-delay-storm",
    "extend-crash",
    "long-crash",
    "reroll-system-seed",
)


def _extendable_crash_indices(plan: ChaosPlan) -> List[int]:
    """Crash-kind faults safe to stretch: their partition's only outage.

    Extending one of two planned outages of the same partition could make
    the windows overlap — two concurrent crashes where the planner promised
    at most ``f = 1`` — so only solitary outages are candidates.
    """
    per_partition: Dict[int, int] = {}
    for fault in plan.faults:
        if fault.kind in ("crash", "leader-kill"):
            per_partition[fault.partition] = per_partition.get(fault.partition, 0) + 1
    return [
        index
        for index, fault in enumerate(plan.faults)
        if fault.kind in ("crash", "leader-kill")
        and per_partition[fault.partition] == 1
    ]


def _applicable_ops(plan: ChaosPlan) -> List[str]:
    ops = [
        "tiny-archive",
        "tight-checkpoints",
        "add-core-blackout",
        "add-delay-storm",
        "reroll-system-seed",
    ]
    if plan.config.edge_enabled:
        ops.append("arm-staleness-bound")
    if any(fault.kind == "drop" for fault in plan.faults):
        ops.append("harshen-drop")
    if _extendable_crash_indices(plan):
        ops.append("extend-crash")
        ops.append("long-crash")
    return sorted(ops, key=MUTATION_OPS.index)


def _apply_op(plan: ChaosPlan, op: str, rng: random.Random) -> ChaosPlan:
    config = plan.config
    if op == "tiny-archive":
        # Round-2 snapshot requests for batches past a 1–3 batch window
        # take the ``snapshot_rebuilds`` path, which the uniform planner's
        # 512-batch archive never leaves uncovered.
        return replace(
            plan,
            config=replace(config, archive_max_batches=rng.choice((1, 2, 3))),
        )
    if op == "arm-staleness-bound":
        return replace(
            plan,
            config=replace(
                config, client_staleness_bound_ms=rng.choice((30.0, 60.0, 120.0))
            ),
        )
    if op == "tight-checkpoints":
        return replace(
            plan,
            config=replace(
                config,
                checkpoint_enabled=True,
                checkpoint_interval=rng.choice((3, 4)),
                retention_batches=rng.choice((2, 4)),
            ),
        )
    if op == "harshen-drop":
        index = rng.choice(
            [i for i, fault in enumerate(plan.faults) if fault.kind == "drop"]
        )
        fault = plan.faults[index]
        harsher = replace(
            fault,
            probability=round(min(0.9, fault.probability * rng.uniform(1.5, 3.0)), 3),
            duration_ms=round(min(150.0, fault.duration_ms * rng.uniform(1.5, 3.0)), 3),
        )
        faults = tuple(
            harsher if i == index else f for i, f in enumerate(plan.faults)
        )
        return replace(plan, faults=faults)
    if op == "add-core-blackout":
        # A near-total intra-cluster loss window; survivable because the
        # reliable channel retransmits, but long enough that a lowered
        # retransmission cap can abandon links mid-window.
        blackout = FaultEvent(
            at_ms=round(rng.uniform(5.0, 25.0), 3),
            kind="drop",
            target="core",
            partition=rng.randrange(config.num_partitions),
            probability=round(rng.uniform(0.7, 0.95), 3),
            duration_ms=round(rng.uniform(50.0, 140.0), 3),
        )
        faults = tuple(sorted(plan.faults + (blackout,), key=lambda f: f.at_ms))
        return replace(plan, faults=faults)
    if op == "add-delay-storm":
        storm = FaultEvent(
            at_ms=round(rng.uniform(3.0, 25.0), 3),
            kind="delay",
            probability=round(rng.uniform(0.3, 0.6), 3),
            extra_ms=round(rng.uniform(4.0, 12.0), 3),
            duration_ms=round(rng.uniform(30.0, 80.0), 3),
        )
        faults = tuple(sorted(plan.faults + (storm,), key=lambda f: f.at_ms))
        return replace(plan, faults=faults)
    if op == "extend-crash":
        index = rng.choice(_extendable_crash_indices(plan))
        fault = plan.faults[index]
        longer = replace(
            fault,
            duration_ms=round(min(90.0, fault.duration_ms * rng.uniform(1.3, 2.0)), 3),
        )
        faults = tuple(longer if i == index else f for i, f in enumerate(plan.faults))
        return replace(plan, faults=faults)
    if op == "long-crash":
        # One solitary outage stretched far past the reliable channel's
        # whole retransmission budget (12 retransmits with backoff,
        # roughly 1.3 s): the dead replica's peers legally abandon their
        # links to it (``transport_retransmits_abandoned``,
        # ``transport_links_abandoned``) — the cap's designed purpose —
        # and the replica rejoins through state transfer when the chaos
        # runner restarts it.  Quorum is intact throughout (f = 1, one
        # solitary outage), so every oracle still holds.
        index = rng.choice(_extendable_crash_indices(plan))
        fault = plan.faults[index]
        longer = replace(
            fault, duration_ms=round(rng.uniform(1500.0, 2500.0), 3)
        )
        faults = tuple(longer if i == index else f for i, f in enumerate(plan.faults))
        return replace(plan, faults=faults)
    if op == "reroll-system-seed":
        return replace(
            plan, config=replace(config, system_seed=rng.randrange(1, 1 << 16))
        )
    raise ValueError(f"unknown mutation op {op!r}")


def mutate_plan(base: ChaosPlan, rng: random.Random, new_seed: int) -> ChaosPlan:
    """Derive a new plan from ``base`` by 1–2 legality-preserving mutations.

    The mutant takes ``new_seed`` as its identity (artifact names, summary
    lines); determinism still rests on the *plan*, exactly as for shrunk
    plans — the seed field is provenance, not an input to the runner.
    """
    mutant = replace(base, seed=new_seed)
    for _ in range(rng.randint(1, 2)):
        ops = _applicable_ops(mutant)
        mutant = _apply_op(mutant, rng.choice(ops), rng)
    return mutant
