"""Static analysis for the TransEdge reproduction (``python -m repro.lint``).

The chaos engine (:mod:`repro.chaos`) finds invariant violations at runtime;
this package proves a class of them absent from the AST, which makes every
determinism claim structural rather than empirical.  Four rule families:

* **D — determinism**: no unseeded module-level randomness, no wall-clock or
  entropy reads, no iteration over bare ``set``/``frozenset`` values, no
  ``hash()``-dependent ordering, no mutable default arguments.  These are the
  hazards that leak ``PYTHONHASHSEED`` or the host clock into a simulation
  whose whole verification story is "same seed, same bytes" (PR 6 found one
  of these — set-iteration order in the workload key choosers — only after
  it corrupted cross-process trace digests at runtime).
* **P — protocol safety** (cross-file): every ``Message`` subclass defined in
  a ``messages.py`` is constructed somewhere and dispatched by some handler;
  handlers that read fields of signed payloads call a verifier first; no
  direct ``Network.send`` bypasses the reliable transport layer.
* **S — simulation purity**: no filesystem, subprocess, threading or
  blocking-I/O access inside ``simnet``/``bft``/``core`` event handlers —
  real I/O belongs in the bench/CLI layers.
* **A — accounting**: every counter field is actually incremented somewhere
  (a permanently-zero counter reads as "nothing happened" forever).

Vetted exceptions live in ``lint-baseline.toml``; every entry must carry a
written justification.  ``--self-test`` runs each rule against its violation
corpus under ``tests/lint/corpus/`` — the static-analysis analog of the
chaos engine's ``--inject-bug`` self-tests.
"""

from repro.lint.findings import Finding
from repro.lint.engine import FileRule, ProjectRule, Rule, SourceFile, collect_files, run_rules

__all__ = [
    "Finding",
    "FileRule",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "collect_files",
    "run_rules",
]
