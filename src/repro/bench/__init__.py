"""The simulated-figure harness: one experiment table, its gates, one CLI.

:data:`EXPERIMENTS` (:mod:`repro.bench.experiments`) is the registry — one
row per figure or table: id, the paper artefact it reproduces, how its result
is produced (a declared sweep run by :class:`~repro.bench.harness.Harness`, or
a function of :mod:`repro.bench.extensions`) and its gates
(:mod:`repro.bench.gates`).  ``python -m repro.bench.run`` runs rows, renders
their tables, evaluates their gates and, with ``--results``, writes the tables
that ``benchmark_results/`` commits.
"""

from repro.bench.drivers import (
    WorkloadRunResult,
    execute_concurrent_workloads,
    execute_workload,
)
from repro.bench.experiments import EXPERIMENTS
from repro.bench.scale import scale_factor, scaled

__all__ = [
    "EXPERIMENTS",
    "WorkloadRunResult",
    "execute_concurrent_workloads",
    "execute_workload",
    "scale_factor",
    "scaled",
]
