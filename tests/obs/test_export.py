"""Export tests: Chrome-trace schema, run dumps, trace trees and the CLI."""

from __future__ import annotations

import json

from repro.obs.cli import main as obs_main, traced_workload
from repro.obs.export import (
    chrome_trace_document,
    render_trace_tree,
    run_document,
    write_json,
)


class TestChromeExport:
    def test_document_schema(self):
        obs = traced_workload(8, seed=3)
        document = chrome_trace_document(obs)
        assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["digest"] == obs.tracer.digest()
        events = document["traceEvents"]
        assert events
        for event in events:
            # Trace Event Format complete events: every field present and typed.
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert isinstance(event["cat"], str)
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], str)  # trace id
            assert isinstance(event["tid"], str)  # node
            assert "span_id" in event["args"]

    def test_document_is_json_serialisable(self, tmp_path):
        obs = traced_workload(6, seed=3)
        path = tmp_path / "trace.json"
        write_json(chrome_trace_document(obs), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["digest"] == obs.tracer.digest()


class TestRunDocument:
    def test_document_carries_every_trace(self, tmp_path):
        obs = traced_workload(6, seed=3)
        path = tmp_path / "run.json"
        write_json(run_document(obs), str(path))
        document = json.loads(path.read_text())
        assert document["digest"] == obs.tracer.digest()
        assert document["spans_recorded"] == obs.tracer.spans_recorded
        assert document["traces"] == [
            json.loads(json.dumps(trace.to_dict())) for trace in obs.tracer.traces()
        ]
        assert isinstance(document["flight_recorder"], list)


class TestTraceTree:
    def test_tree_renders_every_span_and_phases(self):
        obs = traced_workload(4, seed=3)
        trace = obs.tracer.completed_traces()[0]
        rendered = render_trace_tree(trace)
        assert f"trace {trace.trace_id} (complete)" in rendered
        for span in trace.spans:
            assert span.name in rendered
        assert "phases:" in rendered


class TestCli:
    def test_cli_digest_mode_is_deterministic(self, capsys):
        assert obs_main(["--digest", "--txns", "6"]) == 0
        first = capsys.readouterr().out.strip()
        assert obs_main(["--digest", "--txns", "6"]) == 0
        second = capsys.readouterr().out.strip()
        assert first == second
        assert len(first) == 64

    def test_cli_exports(self, tmp_path, capsys):
        chrome = tmp_path / "chrome.json"
        dump = tmp_path / "run.json"
        code = obs_main([
            "--txns", "6", "--trees", "1",
            "--chrome", str(chrome), "--export", str(dump),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "complete traces" in out
        assert "phase" in out
        assert json.loads(chrome.read_text())["traceEvents"]
        assert json.loads(dump.read_text())["digest"]
