"""Rule registry: every shipped rule, in catalog order."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lint.engine import Rule
from repro.lint.rules.determinism import (
    BareSetIterationRule,
    HashOrderingRule,
    MutableDefaultRule,
    UnseededRandomRule,
    WallClockRule,
)
from repro.lint.rules.protocol import (
    HandlerTargetRule,
    MessageLifecycleRule,
    TransportBypassRule,
    VerifyBeforeReadRule,
)
from repro.lint.rules.purity import SimBlockingRule, SimFilesystemRule
from repro.lint.rules.accounting import CounterIncrementRule
from repro.lint.rules.coverage import BugSelfTestCoverageRule
from repro.lint.rules.knobs import DeadConfigKnobRule
from repro.lint.rules.memos import CopyUnsafeMemoRule


def all_rules() -> List[Rule]:
    """Fresh instances of every rule (rules keep no cross-run state)."""
    return [
        UnseededRandomRule(),
        WallClockRule(),
        BareSetIterationRule(),
        HashOrderingRule(),
        MutableDefaultRule(),
        SimFilesystemRule(),
        SimBlockingRule(),
        MessageLifecycleRule(),
        VerifyBeforeReadRule(),
        TransportBypassRule(),
        HandlerTargetRule(),
        CounterIncrementRule(),
        BugSelfTestCoverageRule(),
        DeadConfigKnobRule(),
        CopyUnsafeMemoRule(),
    ]


def select_rules(ids: Optional[Sequence[str]]) -> List[Rule]:
    """The full registry, or the subset named by ``ids`` (order preserved)."""
    rules = all_rules()
    if not ids:
        return rules
    known = {rule.id for rule in rules}
    unknown = [rule_id for rule_id in ids if rule_id not in known]
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {', '.join(unknown)}; known: {', '.join(sorted(known))}"
        )
    wanted = set(ids)
    return [rule for rule in rules if rule.id in wanted]
