"""Rule units: every rule against its violation corpus, plus targeted checks.

The corpus under ``tests/lint/corpus/<RULE>/`` is the linter's own
self-test (``python -m repro.lint --self-test``); these tests run the same
pairs through pytest so a regressed rule fails CI with a precise message,
and add finding-content assertions the self-test does not make.
"""

from __future__ import annotations

import os

import pytest

from repro.lint.engine import collect_files, run_rules
from repro.lint.rules import all_rules, select_rules
from repro.lint.selftest import run_selftest

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def findings_for(rule_id, path, ignore_scopes=True):
    rules = select_rules([rule_id])
    return [
        finding
        for finding in run_rules(collect_files([path]), rules, ignore_scopes=ignore_scopes)
        if finding.rule == rule_id
    ]


@pytest.fixture(scope="module")
def selftest_results():
    """One corpus self-test for the module (K601's sweeps examples/ and perfbench/)."""
    return run_selftest(CORPUS)


@pytest.fixture(scope="module")
def k601_bad():
    return findings_for("K601", os.path.join(CORPUS, "K601", "bad"))


class TestCorpus:
    @pytest.mark.parametrize("rule", all_rules(), ids=lambda rule: rule.id)
    def test_rule_detects_bad_and_passes_good(self, rule, selftest_results):
        results = {result.rule_id: result for result in selftest_results}
        result = results[rule.id]
        assert result.ok, result.detail

    def test_selftest_covers_every_rule_exactly(self, selftest_results):
        results = selftest_results
        assert [result.ok for result in results] == [True] * len(results)
        assert {result.rule_id for result in results} == {
            rule.id for rule in all_rules()
        }

    def test_unknown_corpus_directory_is_reported(self, tmp_path):
        (tmp_path / "D999").mkdir()
        results = run_selftest(str(tmp_path))
        bogus = [result for result in results if result.rule_id == "D999"]
        assert len(bogus) == 1 and not bogus[0].ok

    def test_missing_corpus_directory_is_reported(self, tmp_path):
        results = run_selftest(str(tmp_path / "nope"))
        assert any(result.rule_id == "corpus" and not result.ok for result in results)


class TestFindingContent:
    def test_d101_names_the_unseeded_call(self):
        findings = findings_for("D101", os.path.join(CORPUS, "D101", "bad.py"))
        assert any("random.random" in finding.message for finding in findings)
        assert all(finding.severity == "error" for finding in findings)

    def test_d103_flags_iteration_and_formatting(self):
        findings = findings_for("D103", os.path.join(CORPUS, "D103", "bad.py"))
        assert [finding.message.split(" iterates")[0] for finding in findings] == [
            "for loop", "comprehension", "f-string", "str()",
            # A Dict[..., Set[...]] attribute's values: ``.get(k, ())`` and ``[k]``.
            "for loop", "comprehension",
        ]

    def test_p301_reports_both_lifecycle_halves(self):
        findings = findings_for("P301", os.path.join(CORPUS, "P301", "bad"))
        messages = " | ".join(finding.message for finding in findings)
        assert "never constructed" in messages
        assert "never dispatched" in messages

    def test_p304_names_the_missing_handler(self):
        findings = findings_for("P304", os.path.join(CORPUS, "P304", "bad"))
        assert len(findings) == 1
        assert "self._on_pong" in findings[0].message
        assert "PongNode" in findings[0].message

    def test_p304_resolves_inherited_and_bound_handlers(self):
        findings = findings_for("P304", os.path.join(CORPUS, "P304", "good"))
        assert findings == []

    def test_s201_leaves_the_collector_to_the_run_loop(self, tmp_path):
        for module in ("simnet/simulator.py", "simnet/network.py", "core/replica.py", "bench/run.py"):
            path = tmp_path / "repro" / module
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("import gc\nfrom gc import collect\n")
        findings = findings_for("S201", str(tmp_path), ignore_scopes=False)
        flagged = sorted({finding.path.split("/repro/")[1] for finding in findings})
        assert flagged == ["core/replica.py", "simnet/network.py"]
        assert len(findings) == 4 and all("collector policy" in f.message for f in findings)

    def test_k601_names_the_dead_field_and_spares_helper_read_ones(self, k601_bad):
        dead = [f for f in k601_bad if "read by no module" in f.message]
        assert len(dead) == 1
        assert "CostConfig.think_ms" in dead[0].message

    def test_k601_names_the_field_nothing_ever_sets(self, k601_bad):
        # ``spare_ms`` is read, and the config module itself constructs it
        # with a second value — but no call outside does, so it is a constant.
        # ``trial_ms`` is read too, and only ``test_node.py`` shrinks it.
        unset = [f for f in k601_bad if "set by no call" in f.message]
        assert len(unset) == 2 and len(k601_bad) == 3
        assert "CostConfig.spare_ms" in unset[0].message
        assert "CostConfig.trial_ms" in unset[1].message

    def test_m701_names_both_kinds_of_memo(self):
        findings = findings_for("M701", os.path.join(CORPUS, "M701", "bad.py"))
        assert [finding.message.split(" is memoised")[0] for finding in findings] == [
            "Batch._digest", "Header._size",
        ]

    def test_rule_selection_rejects_unknown_ids(self):
        with pytest.raises(KeyError):
            select_rules(["Z999"])

    def test_findings_sort_stably(self):
        findings = findings_for("D105", os.path.join(CORPUS, "D105", "bad.py"))
        assert findings == sorted(findings, key=lambda finding: finding.sort_key())
        assert len(findings) == 3
