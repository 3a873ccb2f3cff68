"""Deterministic chaos engine: seeded scenario fuzzing with invariant oracles.

One seed expands — through a single ``random.Random(seed)`` — into a whole
scenario: a configuration point (partitions, checkpointing, archive, edge
tier, failover knobs), a workload plan (mixed streams, hot-key skew,
co-written group traffic) and a fault plan (crashes and restarts, leader
kills mid-batch, client-link drop windows, delay windows, byzantine edge
proxies).  The run is executed on the discrete-event simulation, quiesced,
probed, and judged by the invariant oracle suite of
:mod:`repro.verification.oracles`.  On failure the schedule *shrinks* to a
minimal reproduction and is written as a replayable JSON artifact::

    python -m repro.chaos --seeds 25            # fuzz seeds 0..24
    python -m repro.chaos --seed 7              # one seed
    python -m repro.chaos --replay chaos-repro-7.json

Everything is derived from the seed and the plan alone — no wall clock, no
unseeded randomness — so two runs of the same seed are bit-identical, and a
``chaos-repro-<seed>.json`` artifact reproduces on any machine.

Every sweep goes through the *fleet* (:mod:`repro.chaos.fleet`): in-process
or worker-pool execution whose merged results are byte-identical at any
worker count, and coverage-guided mutation sessions that grow a persisted
corpus (:mod:`repro.chaos.corpus`) of rare-path plans, each entry doubling
as a standing determinism oracle.
"""

from repro.chaos.bugs import BUGS, InjectedBug
from repro.chaos.corpus import Corpus, CorpusEntry, plan_id
from repro.chaos.coverage import (
    CoverageMap,
    coverage_signature,
    mutate_plan,
    signature_weight,
)
from repro.chaos.fleet import (
    FleetResult,
    FleetSettings,
    SessionOutcome,
    coverage_session,
    replay_corpus,
    run_fleet,
    run_seed_fleet,
    seed_corpus,
)
from repro.chaos.plan import (
    ChaosPlan,
    ConfigPoint,
    FaultEvent,
    WorkloadSegment,
    plan_from_seed,
)
from repro.chaos.runner import ChaosReport, forget_twins, run_plan, run_seed
from repro.chaos.shrink import shrink_plan

__all__ = [
    "BUGS",
    "ChaosPlan",
    "ChaosReport",
    "ConfigPoint",
    "Corpus",
    "CorpusEntry",
    "CoverageMap",
    "FaultEvent",
    "FleetResult",
    "FleetSettings",
    "InjectedBug",
    "SessionOutcome",
    "WorkloadSegment",
    "coverage_session",
    "coverage_signature",
    "forget_twins",
    "mutate_plan",
    "plan_from_seed",
    "plan_id",
    "replay_corpus",
    "run_fleet",
    "run_plan",
    "run_seed",
    "run_seed_fleet",
    "seed_corpus",
    "shrink_plan",
    "signature_weight",
]
