"""Declarative service-level objectives over the monitoring timeline.

An :class:`SloSpec` names a per-window metric, a comparison against a
target, and an error budget: the fraction of evaluated windows allowed to
violate the target before the objective as a whole is burned.  Specs are
plain frozen data — experiments declare them, :func:`evaluate_slos` grades
them against a :class:`~repro.obs.monitor.MetricsTimeline`'s windows, and
:func:`render_slo_table` turns the results into the fixed-width tables the
bench harness embeds in figure notes.

Metrics are *window-local* reads of :class:`~repro.obs.monitor.WindowSample`
(no cross-window state), which keeps grading trivially deterministic and
lets a window be judged the moment it closes:

``commit_p99_ms``
    Nearest-rank p99 of the window's end-to-end commit latencies.
``abort_rate``
    Aborted fraction of the window's finished transactions.
``retransmit_rate``
    Reliable-transport retransmits per finished transaction (0 when the
    channel is idle; skipped when nothing finished).
``edge_refresh_rounds``
    Edge refresh rounds the window performed (a *freshness floor*: use
    ``op=">="`` to demand background refresh keeps running, which bounds
    staleness at ``refresh_interval_ms`` + one round).

A window where a metric is undefined (no commits, say) is skipped for that
objective rather than graded — an idle window is not an SLO violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.metrics.collector import percentile
from repro.obs.monitor import WindowSample

#: Comparison operators an SLO may use (``value <op> target`` passes).
_OPS = ("<=", ">=")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective: ``metric <op> target`` per window.

    ``budget_fraction`` is the error budget: the fraction of evaluated
    windows allowed to violate the target while the objective still
    passes.  Burn rate is the observed violating fraction divided by the
    budget — above 1.0 the budget is exhausted.
    """

    name: str
    metric: str
    op: str
    target: float
    budget_fraction: float = 0.05

    def validate(self) -> "SloSpec":
        if self.op not in _OPS:
            raise ConfigurationError(f"slo {self.name}: op must be one of {_OPS}")
        if self.metric not in _METRICS:
            known = ", ".join(sorted(_METRICS))
            raise ConfigurationError(
                f"slo {self.name}: unknown metric {self.metric!r} (known: {known})"
            )
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise ConfigurationError(
                f"slo {self.name}: budget_fraction must be within [0, 1]"
            )
        return self

    def passes(self, value: float) -> bool:
        return value <= self.target if self.op == "<=" else value >= self.target


@dataclass
class SloResult:
    """How one objective fared over a timeline's evaluated windows."""

    spec: SloSpec
    windows_evaluated: int
    violations: int
    worst_value: Optional[float]

    @property
    def violation_fraction(self) -> float:
        if self.windows_evaluated == 0:
            return 0.0
        return self.violations / self.windows_evaluated

    @property
    def burn_rate(self) -> float:
        """Observed violating fraction over the allowed fraction.

        A zero budget means any violation burns infinitely hard; that is
        represented by the violation count itself scaled large, keeping the
        value finite for tables.
        """
        if self.spec.budget_fraction <= 0.0:
            return float(self.violations * 1000)
        return self.violation_fraction / self.spec.budget_fraction

    @property
    def ok(self) -> bool:
        return self.burn_rate <= 1.0


def _metric_commit_p99(window: WindowSample) -> Optional[float]:
    if not window.latencies:
        return None
    return percentile(window.latencies, 0.99)


def _metric_abort_rate(window: WindowSample) -> Optional[float]:
    finished = window.commits + window.aborts
    if finished == 0:
        return None
    return window.aborts / finished


def _metric_retransmit_rate(window: WindowSample) -> Optional[float]:
    finished = window.commits + window.aborts
    if finished == 0:
        return None
    return window.transport.get("messages_retransmitted", 0) / finished


def _metric_edge_refresh_rounds(window: WindowSample) -> Optional[float]:
    return float(window.counters.get("edge_refresh_rounds", 0))


_METRICS = {
    "commit_p99_ms": _metric_commit_p99,
    "abort_rate": _metric_abort_rate,
    "retransmit_rate": _metric_retransmit_rate,
    "edge_refresh_rounds": _metric_edge_refresh_rounds,
}


def default_slos() -> List[SloSpec]:
    """The stock objective set bench experiments grade against.

    Targets are calibrated to what a healthy (fault-free) contended run of
    this simulator actually does: windows with a handful of finished
    transactions can legitimately see majority-abort under contention, so
    the abort objective budgets for sparse-window noise instead of
    pretending per-window abort rates behave like long-run averages.
    """
    return [
        SloSpec("commit-p99", "commit_p99_ms", "<=", 400.0, budget_fraction=0.10),
        SloSpec("abort-rate", "abort_rate", "<=", 0.60, budget_fraction=0.20),
        SloSpec("retransmit-rate", "retransmit_rate", "<=", 1.0, budget_fraction=0.10),
    ]


def evaluate_slos(
    windows: Sequence[WindowSample], specs: Optional[Sequence[SloSpec]] = None
) -> List[SloResult]:
    """Grade ``specs`` (default: :func:`default_slos`) window by window."""
    if specs is None:
        specs = default_slos()
    results: List[SloResult] = []
    for spec in specs:
        spec.validate()
        metric = _METRICS[spec.metric]
        evaluated = 0
        violations = 0
        worst: Optional[float] = None
        for window in windows:
            value = metric(window)
            if value is None:
                continue
            evaluated += 1
            if not spec.passes(value):
                violations += 1
            if worst is None:
                worst = value
            elif spec.op == "<=":
                worst = max(worst, value)
            else:
                worst = min(worst, value)
        results.append(SloResult(spec, evaluated, violations, worst))
    return results


def render_slo_table(results: Sequence[SloResult]) -> str:
    """Fixed-width SLO report for bench notes and the obs CLI."""
    header = (
        f"{'slo':<18} {'objective':<28} {'windows':>7} "
        f"{'viol':>5} {'burn':>6} {'worst':>10} {'ok':>4}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        spec = result.spec
        objective = f"{spec.metric} {spec.op} {spec.target:g}"
        worst = "-" if result.worst_value is None else f"{result.worst_value:.2f}"
        lines.append(
            f"{spec.name:<18} {objective:<28} {result.windows_evaluated:>7} "
            f"{result.violations:>5} {result.burn_rate:>6.2f} {worst:>10} "
            f"{'yes' if result.ok else 'NO':>4}"
        )
    return "\n".join(lines)
