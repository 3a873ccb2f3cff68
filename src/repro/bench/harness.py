"""The figure harness: one deployment constructor, one sweep runner.

An experiment is one :class:`Experiment` row of the registry in
:mod:`repro.bench.experiments`.  Its result comes either from a function of
the :class:`Harness` or — for every sweep-shaped figure of the paper — from a
:class:`Figure`: a :class:`Sweep` (series axis × x axis, one fresh deployment
per point) declared as data, plus the series to extract from its runs.  Every
deployment any of them uses is built by :meth:`Harness.build`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.bench.drivers import (
    WorkloadRunResult,
    execute_concurrent_workloads,
    execute_workload,
)
from repro.bench.gates import Gate
from repro.bench.scale import scaled
from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.metrics.tables import FigureResult, Number, TableResult
from repro.obs.hub import Observability
from repro.workload.generator import TxnSpec, WorkloadGenerator, WorkloadProfile

Result = Union[FigureResult, TableResult]


def latency_config(extra_ms: float = 0.0) -> LatencyConfig:
    """Edge-site latencies.

    The paper's testbed places all clusters in one facility (ChameleonCloud),
    so the baseline inter-cluster delay is small; the geo-distribution
    experiments add latency explicitly (``extra_ms``), exactly like the
    paper's "additional latency between clusters" knob.
    """
    return LatencyConfig(
        intra_cluster_ms=0.3,
        inter_cluster_ms=1.0,
        client_to_cluster_ms=0.5,
        inter_cluster_extra_ms=extra_ms,
        jitter_fraction=0.1,
    )


def section51_config(
    num_partitions: int = 5,
    fault_tolerance: int = 2,
    batch_size: int = 100,
    batch_timeout_ms: float = 5.0,
    initial_keys: int = 600,
    extra_latency_ms: float = 0.0,
) -> SystemConfig:
    """The deployment of Section 5.1 (5 clusters of ``3f+1`` replicas)."""
    return SystemConfig(
        num_partitions=num_partitions,
        fault_tolerance=fault_tolerance,
        batch=BatchConfig(max_size=batch_size, timeout_ms=batch_timeout_ms),
        latency=latency_config(extra_latency_ms),
        initial_keys=initial_keys,
        value_size=64,
        seed=7,
    )


def make_generator(system: TransEdgeSystem, seed: int = 11, **profile_kwargs) -> WorkloadGenerator:
    profile = WorkloadProfile(value_size=min(system.config.value_size, 64), **profile_kwargs)
    return WorkloadGenerator(
        sorted(system.initial_data), system.partitioner, profile=profile, seed=seed
    )


@dataclass
class Point:
    """One sweep point: series-axis value, x value, foreground/background counts."""

    s: object
    x: Number
    n: int = 0
    m: int = 0
    run: Optional[WorkloadRunResult] = None


#: A sweep field is a constant, or a function of the point.
PerPoint = Union[object, Callable[[Point], object]]
Workload = Callable[[WorkloadGenerator, Point], Iterable[TxnSpec]]
Metric = Callable[[WorkloadRunResult], Number]


@dataclass(frozen=True)
class Sweep:
    """series axis × x axis → deployment arguments, workload, driver arguments."""

    #: ``{series name: series-axis value}``.  Names that share a value share
    #: its runs: the second is declared an alias of the first.
    series: Mapping[str, object]
    xs: Sequence[Number]
    system: PerPoint  # section51_config arguments
    txns: PerPoint  # foreground count; a constant is scaled by REPRO_BENCH_SCALE
    workload: Workload
    drive: PerPoint  # driver arguments
    #: With a background stream the point runs under
    #: :func:`execute_concurrent_workloads`, else :func:`execute_workload`.
    background_txns: PerPoint = 0
    background: Optional[Workload] = None


def _at(field: PerPoint, point: Point):
    return field(point) if callable(field) else field


def _count(field: PerPoint, point: Point) -> int:
    return field(point) if callable(field) else scaled(field)


class Harness:
    """What the experiments of one invocation share.

    ``trace`` turns causal tracing on in every deployment built here whose
    configuration left it off (tracing never changes what a run does, only
    what it records); ``traced`` is the hub of the last traced deployment.
    """

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.traced: Optional[Observability] = None
        self._runs: Dict[int, Dict[Tuple[object, Number], Point]] = {}

    def build(self, config: SystemConfig) -> TransEdgeSystem:
        """The one place the harness constructs a deployment."""
        if self.trace and not config.obs.tracing_enabled:
            config = config.with_tracing(True)
        system = TransEdgeSystem(config)
        if config.obs.tracing_enabled:
            self.traced = system.env.obs
        return system

    def points(self, sweep: Sweep) -> Dict[Tuple[object, Number], Point]:
        """Run ``sweep`` once per harness: figures over the same sweep share it."""
        if id(sweep) not in self._runs:
            self._runs[id(sweep)] = {
                (s, x): self._run_point(sweep, Point(s, x))
                for s in dict.fromkeys(sweep.series.values())
                for x in sweep.xs
            }
        return self._runs[id(sweep)]

    def _run_point(self, sweep: Sweep, point: Point) -> Point:
        point.n, point.m = _count(sweep.txns, point), _count(sweep.background_txns, point)
        system = self.build(section51_config(**_at(sweep.system, point)))
        generator = make_generator(system)
        streams = [list(sweep.workload(generator, point))]
        if sweep.background is not None:
            streams.append(list(sweep.background(generator, point)))
        driver = execute_workload if sweep.background is None else execute_concurrent_workloads
        point.run = driver(system, *streams, **_at(sweep.drive, point))
        return point


@dataclass(frozen=True)
class Figure:
    """A figure (or, with ``table``, a table) of the paper over one sweep."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    #: Two figures over the same sweep share its runs.
    sweep: Sweep
    #: What a series plots of a run: one extractor, or one per series name.
    metric: Union[Metric, Mapping[str, Metric]]
    #: Formatted with ``n``/``m``, the foreground/background counts per point.
    notes: Sequence[str] = ()
    table: bool = False

    def __call__(self, harness: Harness) -> Result:
        points = harness.points(self.sweep)
        if self.table:
            result: Result = TableResult(self.figure_id, self.title, columns=list(self.sweep.xs))
        else:
            result = FigureResult(self.figure_id, self.title, self.x_label, self.y_label)
        for name, s in self.sweep.series.items():
            extract = self.metric[name] if isinstance(self.metric, Mapping) else self.metric
            series = None if self.table else result.add_series(name)
            for x in self.sweep.xs:
                y = extract(points[s, x].run)
                if self.table:
                    result.set(name, x, y)
                else:
                    series.add(x, y)
        first = next(iter(points.values()))
        result.notes.extend(note.format(n=first.n, m=first.m) for note in self.notes)
        return result


@dataclass(frozen=True)
class Experiment:
    """One row of the registry: what it reproduces, how, and what must hold."""

    id: str
    #: The paper artefact reproduced ("Figure 4", "Table 1"), or "extension: …".
    paper: str
    produce: Callable[[Harness], Result]
    gates: Tuple[Gate, ...]
