"""perfbench: the repository's benchmark.

Four workloads, an end-to-end metric set measured untraced, and a per-layer
ledger from a traced pass.  See ``perfbench/README.md``.
"""
