"""CLI contract: JSON schema stability, exit codes, and the live tree.

The live-tree test is the PR's point: ``python -m repro.lint`` over
``src/repro`` must stay clean modulo the justified baseline.  The
regression pins keep the specific defects this linter found (and this PR
fixed) from coming back.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.lint.cli import JSON_SCHEMA_VERSION, main
from repro.lint.engine import collect_files, run_rules
from repro.lint.rules import select_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CORPUS = os.path.join(REPO_ROOT, "tests", "lint", "corpus")


class TestJsonSchema:
    def test_document_shape_is_stable(self, capsys):
        bad = os.path.join(CORPUS, "D105", "bad.py")
        exit_code = main([bad, "--json", "--no-baseline", "--rule", "D105"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert document["version"] == JSON_SCHEMA_VERSION
        assert sorted(document) == [
            "counts",
            "findings",
            "rules",
            "stale_baseline",
            "version",
        ]
        assert document["rules"] == [
            {"id": "D105", "name": "mutable-default", "severity": "error"}
        ]
        assert document["counts"]["files"] == 1
        assert document["counts"]["findings"] == len(document["findings"]) == 3
        for entry in document["findings"]:
            assert sorted(entry) == [
                "line",
                "message",
                "path",
                "rule",
                "severity",
                "snippet",
                "suppressed",
            ]
            assert entry["suppressed"] is False

    def test_clean_run_exits_zero(self, capsys):
        good = os.path.join(CORPUS, "D105", "good.py")
        exit_code = main([good, "--json", "--no-baseline", "--rule", "D105"])
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert document["findings"] == []

    def test_text_report_names_each_finding(self, capsys):
        bad = os.path.join(CORPUS, "D105", "bad.py")
        exit_code = main([bad, "--no-baseline", "--rule", "D105"])
        lines = capsys.readouterr().out.splitlines()
        assert exit_code == 1
        findings = [line for line in lines if ": [D105] " in line]
        assert len(findings) == 3 and all("D105/bad.py:" in line for line in findings)
        assert lines[-1] == "1 files, 3 finding(s), 0 suppressed by baseline, 0 stale entries"

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == [rule.id for rule in select_rules(None)]
        assert any("[project]" in line for line in lines)
        assert any("[   file]" in line for line in lines)

    def test_unknown_rule_is_a_usage_error(self, capsys):
        assert main(["--rule", "Z999"]) == 2

    def test_stale_entry_is_named_by_rule_and_path(self, tmp_path, capsys):
        baseline = tmp_path / "b.toml"
        baseline.write_text(
            '[[suppress]]\nrule = "D101"\npath = "gone.py"\njustification = "j"\n',
            encoding="utf-8",
        )
        good = os.path.join(CORPUS, "D105", "good.py")
        assert main([good, "--baseline", str(baseline), "--rule", "D105"]) == 0
        assert f"{baseline}: stale baseline entry (D101 in gone.py)" in capsys.readouterr().out
        main([good, "--baseline", str(baseline), "--rule", "D105", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["stale_baseline"] == [{"rule": "D101", "path": "gone.py"}]

    def test_malformed_baseline_is_an_error(self, tmp_path, capsys):
        baseline = tmp_path / "b.toml"
        baseline.write_text('[[suppress]]\nrule = "D101"\n', encoding="utf-8")
        good = os.path.join(CORPUS, "D105", "good.py")
        assert main([good, "--baseline", str(baseline)]) == 2


class TestLiveTree:
    def test_src_repro_is_clean_modulo_baseline(self, capsys, monkeypatch):
        # Finding paths are cwd-relative and the baseline names repo-root
        # relative paths, so pin the cwd.
        monkeypatch.chdir(REPO_ROOT)
        exit_code = main(["src/repro"])
        output = capsys.readouterr().out
        assert exit_code == 0, f"live tree has unbaselined findings:\n{output}"
        assert "clean:" in output
        # Every baseline entry must still be earning its keep.
        assert "0 stale entries" in output

    def test_selftest_passes_from_cli(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["--self-test"]) == 0
        output = capsys.readouterr().out
        assert "15/15 checks passed" in output


class TestRegressionPins:
    """The true positives this linter surfaced stay fixed (PR 8)."""

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/bft/byzantine.py",  # tamper rules installed in set order
            "src/repro/chaos/runner.py",  # evidence scan iterated a str-key set
            "src/repro/core/leader.py",  # 2PC re-drive walked a bare set
            "src/repro/crypto/merkle.py",  # path walk iterated index sets (baselined until PR 13)
        ],
    )
    def test_fixed_files_have_no_bare_set_iteration(self, path):
        files = collect_files([os.path.join(REPO_ROOT, path)])
        findings = run_rules(files, select_rules(["D103"]), ignore_scopes=True)
        assert findings == [], [finding.render() for finding in findings]

    def test_chaos_cli_wall_clock_is_confined_to_the_baseline(self):
        # The baselined D102 sites are progress reporting only; anything new
        # in other chaos modules must fail here rather than grow the list.
        for module in ("runner.py", "plan.py", "shrink.py", "bugs.py"):
            files = collect_files(
                [os.path.join(REPO_ROOT, "src", "repro", "chaos", module)]
            )
            findings = run_rules(files, select_rules(["D102"]), ignore_scopes=True)
            assert findings == [], [finding.render() for finding in findings]
