"""End-to-end lint runs: the shipped tree, suppressions, CLI plumbing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.runner import analyze_paths, discover_files
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


class TestShippedTreeIsClean:
    def test_src_repro_has_no_findings(self):
        report = analyze_paths([str(SRC_REPRO)])
        assert report.ok, report.to_text()
        assert report.suppressed == 0
        assert report.files_checked > 50

    def test_discovery_skips_caches_and_finds_sources(self):
        files = discover_files([str(SRC_REPRO)])
        names = {Path(f).name for f in files}
        assert "compiled.py" in names
        assert all("__pycache__" not in f for f in files)
        # Deterministic ordering (walk order, not global lexicographic).
        assert files == discover_files([str(SRC_REPRO)])


class TestSuppressions:
    RULES = ["version-guard", "suppression"]

    def test_justified_suppression_silences_the_rule(self):
        report = analyze_paths(
            [str(FIXTURES / "suppressed_justified.py")], rules=self.RULES
        )
        assert report.ok, report.to_text()
        assert report.suppressed == 1

    def test_unjustified_suppression_earns_meta_finding(self):
        report = analyze_paths(
            [str(FIXTURES / "suppressed_unjustified.py")], rules=self.RULES
        )
        assert not report.ok
        assert [f.rule for f in report.findings] == ["suppression"]
        assert report.suppressed == 1

    def test_rule_filter_scopes_the_run(self):
        # Without the filter the fixture also trips patch-listener.
        report = analyze_paths([str(FIXTURES / "suppressed_unjustified.py")])
        assert "patch-listener" in {f.rule for f in report.findings}


class TestParseErrors:
    def test_broken_file_reports_parse_error(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        report = analyze_paths([str(broken)])
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert not report.ok

    def test_missing_path_reports_parse_error(self, tmp_path):
        report = analyze_paths([str(tmp_path / "nope.py")])
        assert [f.rule for f in report.findings] == ["parse-error"]


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys):
        code = main(["lint", str(SRC_REPRO)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean: 0 findings" in out

    def test_findings_exit_nonzero_with_text_report(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "version_guard_bad.py"),
                "--rule",
                "version-guard",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "version-guard" in out
        assert "version_guard_bad.py" in out

    def test_json_format_is_machine_readable(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "version_guard_bad.py"),
                "--rule",
                "version-guard",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["rules"] == ["version-guard"]
        assert len(payload["findings"]) == 2
        first = payload["findings"][0]
        assert {"rule", "path", "line", "message", "hint"} <= set(first)

    def test_json_on_clean_input(self, capsys):
        code = main(
            [
                "lint",
                str(FIXTURES / "version_guard_good.py"),
                "--rule",
                "version-guard",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["findings"] == []


class TestReportOrdering:
    def test_findings_sorted_by_path_then_line(self):
        report = analyze_paths(
            [
                str(FIXTURES / "version_guard_bad.py"),
                str(FIXTURES / "patch_listener_bad.py"),
            ],
            rules=["version-guard", "patch-listener"],
        )
        keys = [(f.path, f.line) for f in report.findings]
        assert keys == sorted(keys)
        assert len(report.findings) >= 3


@pytest.mark.parametrize(
    "bad_fixture, rule",
    [
        ("version_guard_bad.py", "version-guard"),
        ("patch_listener_bad.py", "patch-listener"),
    ],
)
def test_analyze_paths_fires_each_rule(bad_fixture, rule):
    report = analyze_paths([str(FIXTURES / bad_fixture)], rules=[rule])
    assert not report.ok
    assert {f.rule for f in report.findings} == {rule}
