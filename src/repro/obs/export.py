"""Trace exports: ASCII trace trees, Chrome-trace JSON, full run dumps.

Three consumers, three formats:

* humans in a terminal — :func:`render_trace_tree` draws one transaction's
  causal tree with per-span timing and phases;
* Chrome/Perfetto — :func:`chrome_trace_document` emits the Trace Event
  Format (``ph: "X"`` complete events, microsecond timestamps) so any run
  can be dropped into ``ui.perfetto.dev``;
* machines — :func:`run_document` bundles the digest, every retained trace
  and the flight-recorder timeline into one JSON document.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.attribution import phase_breakdown
from repro.obs.hub import Observability
from repro.obs.trace import Span, TraceData

#: Version stamp of the run/export documents.
EXPORT_VERSION = 1


def render_trace_tree(trace: TraceData) -> str:
    """One transaction's spans as an indented causal tree."""
    by_parent: Dict[Optional[int], List[Span]] = {}
    known = {span.span_id for span in trace.spans}
    for span in trace.spans:
        parent = span.parent_id if span.parent_id in known else None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda span: (span.start_ms, span.span_id))

    lines = [f"trace {trace.trace_id} ({'complete' if trace.complete else 'open'})"]

    def walk(span: Span, indent: int) -> None:
        extent = (
            f"{span.start_ms:.3f}..{span.end_ms:.3f}ms ({span.duration_ms:.3f}ms)"
            if span.closed
            else f"{span.start_ms:.3f}ms.. (open)"
        )
        status = "" if span.status in ("ok", "open") else f" [{span.status}]"
        lines.append(
            f"{'  ' * indent}- {span.name} @{span.node} phase={span.phase} {extent}{status}"
        )
        for child in by_parent.get(span.span_id, []):
            walk(child, indent + 1)

    for root in by_parent.get(None, []):
        walk(root, 1)
    breakdown = phase_breakdown(trace)
    if breakdown:
        parts = ", ".join(f"{phase}={ms:.3f}ms" for phase, ms in sorted(breakdown.items()))
        lines.append(f"  phases: {parts}")
    return "\n".join(lines)


def chrome_trace_events(trace: TraceData) -> List[Dict[str, object]]:
    """One trace's closed spans as Chrome Trace Event Format entries."""
    events: List[Dict[str, object]] = []
    for span in trace.spans:
        if not span.closed:
            continue
        events.append(
            {
                "name": span.name,
                "cat": span.phase,
                "ph": "X",
                # The Trace Event Format wants microseconds.
                "ts": round(span.start_ms * 1000.0, 3),
                "dur": round(span.duration_ms * 1000.0, 3),
                "pid": span.trace_id,
                "tid": span.node,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                },
            }
        )
    return events


def chrome_trace_document(obs: Observability) -> Dict[str, object]:
    """Every retained trace as one loadable Chrome-trace JSON document."""
    events: List[Dict[str, object]] = []
    for trace in obs.tracer.traces():
        events.extend(chrome_trace_events(trace))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "version": EXPORT_VERSION,
            "digest": obs.tracer.digest(),
        },
    }


def run_document(obs: Observability, last_events: int = 256) -> Dict[str, object]:
    """The full machine-readable dump of one observed run."""
    return {
        "version": EXPORT_VERSION,
        "digest": obs.tracer.digest(),
        "spans_recorded": obs.tracer.spans_recorded,
        "traces_evicted": obs.tracer.traces_evicted,
        "traces": [trace.to_dict() for trace in obs.tracer.traces()],
        "flight_recorder": obs.recorder.as_dicts(last_n=last_events),
    }


def write_json(document: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
