"""Baseline round-trip: parsing, required justifications, staleness."""

from __future__ import annotations

import pytest

from repro.lint.baseline import (
    BaselineEntry,
    BaselineError,
    apply_baseline,
    parse_baseline,
)
from repro.lint.findings import Finding


def write(tmp_path, text):
    path = tmp_path / "baseline.toml"
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD = """
# a comment
[[suppress]]
rule = "D102"
path = "src/repro/chaos/cli.py"
justification = "operator-facing timing only"

[[suppress]]
rule = "D103"
path = "src/repro/crypto/merkle.py"
justification = "int-keyed sets; \\"stable\\" iteration"
"""


class TestParse:
    def test_round_trip(self, tmp_path):
        entries = parse_baseline(write(tmp_path, GOOD))
        assert [(entry.rule, entry.path) for entry in entries] == [
            ("D102", "src/repro/chaos/cli.py"),
            ("D103", "src/repro/crypto/merkle.py"),
        ]
        assert entries[0].justification == "operator-facing timing only"
        assert entries[1].justification == 'int-keyed sets; "stable" iteration'

    def test_missing_justification_is_an_error(self, tmp_path):
        path = write(tmp_path, '[[suppress]]\nrule = "D102"\npath = "x.py"\n')
        with pytest.raises(BaselineError, match="missing 'justification'"):
            parse_baseline(path)

    def test_empty_justification_is_an_error(self, tmp_path):
        path = write(
            tmp_path,
            '[[suppress]]\nrule = "D102"\npath = "x.py"\njustification = "  "\n',
        )
        with pytest.raises(BaselineError, match="empty justification"):
            parse_baseline(path)

    def test_unquoted_value_is_an_error(self, tmp_path):
        path = write(tmp_path, "[[suppress]]\nrule = D102\n")
        with pytest.raises(BaselineError, match="not valid TOML"):
            parse_baseline(path)

    def test_unknown_table_is_an_error(self, tmp_path):
        path = write(tmp_path, "[other]\nrule = \"D102\"\n")
        with pytest.raises(BaselineError, match="unknown table"):
            parse_baseline(path)

    def test_key_outside_table_is_an_error(self, tmp_path):
        path = write(tmp_path, 'rule = "D102"\n')
        with pytest.raises(BaselineError, match="outside"):
            parse_baseline(path)

    def test_duplicate_key_is_an_error(self, tmp_path):
        path = write(
            tmp_path, '[[suppress]]\nrule = "D102"\nrule = "D103"\n'
        )
        with pytest.raises(BaselineError, match="not valid TOML"):
            parse_baseline(path)

    def test_non_string_value_is_an_error(self, tmp_path):
        path = write(
            tmp_path, '[[suppress]]\nrule = 102\npath = "x.py"\njustification = "j"\n'
        )
        with pytest.raises(BaselineError, match="'rule' must be a string"):
            parse_baseline(path)

    @pytest.mark.parametrize("text", ['[suppress]\nrule = "D102"\n', "suppress = [1]\n"])
    def test_suppress_that_is_not_an_array_of_tables_is_an_error(self, tmp_path, text):
        with pytest.raises(BaselineError, match="array of tables"):
            parse_baseline(write(tmp_path, text))

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(BaselineError, match="cannot read"):
            parse_baseline(str(tmp_path / "absent.toml"))


def finding(rule="D102", path="a.py", line=3):
    return Finding(rule=rule, severity="error", path=path, line=line, message="m")


class TestApply:
    def test_matching_entry_suppresses_all_findings_in_file(self):
        entries = [BaselineEntry(rule="D102", path="a.py", justification="ok")]
        findings = [finding(line=3), finding(line=9), finding(path="b.py")]
        unsuppressed, suppressed, stale = apply_baseline(findings, entries)
        assert [item.path for item in unsuppressed] == ["b.py"]
        assert len(suppressed) == 2
        assert stale == []

    def test_stale_entry_is_reported_as_dead(self):
        entries = [
            BaselineEntry(rule="D102", path="a.py", justification="ok"),
            BaselineEntry(rule="D103", path="gone.py", justification="dead"),
        ]
        unsuppressed, suppressed, stale = apply_baseline([finding()], entries)
        assert unsuppressed == []
        assert len(suppressed) == 1
        assert [entry.path for entry in stale] == ["gone.py"]

    def test_rule_must_match_not_just_path(self):
        entries = [BaselineEntry(rule="D103", path="a.py", justification="ok")]
        unsuppressed, _suppressed, stale = apply_baseline([finding()], entries)
        assert len(unsuppressed) == 1
        assert len(stale) == 1
