"""Tests for the ``lint`` CLI subcommand (exit codes, formats,
report artifacts)."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.privlint import validate_lint_report

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def dirty_tree(tmp_path):
    """A throwaway package with exactly one PL2 violation."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        textwrap.dedent(
            '''
            import random


            def draw():
                return random.random()
            '''
        )
    )
    return pkg


class TestExitCodes:
    def test_self_host_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_new_findings_exit_one(self, dirty_tree, capsys):
        assert main(["lint", "--paths", str(dirty_tree)]) == 1
        captured = capsys.readouterr()
        assert "PL2" in captured.out
        assert "privlint: 1 finding(s)" in captured.err

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        code = main(["lint", "--paths", str(tmp_path / "gone")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFormats:
    def test_json_output_validates(self, dirty_tree, capsys):
        assert main(
            ["lint", "--paths", str(dirty_tree), "--format", "json"]
        ) == 1
        document = json.loads(capsys.readouterr().out)
        validate_lint_report(document)
        assert document["summary"]["total"] == 1
        assert document["findings"][0]["rule"] == "PL2"
        assert "baselined" not in document["findings"][0]

    def test_text_findings_carry_location_and_severity(
        self, capsys
    ):
        assert main(["lint", "--paths", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "pl2_rng.py" in out
        assert "PL2 [error]" in out
        assert "PL4 [warning]" in out

    def test_out_writes_artifact(self, dirty_tree, tmp_path, capsys):
        report = tmp_path / "lint-report.json"
        code = main(
            [
                "lint",
                "--paths",
                str(dirty_tree),
                "--format",
                "json",
                "--out",
                str(report),
            ]
        )
        assert code == 1
        document = json.loads(report.read_text())
        validate_lint_report(document)
        # JSON artifacts are not duplicated onto stdout.
        assert capsys.readouterr().out == ""


@pytest.fixture
def stale_tree(tmp_path):
    """A clean package whose only ignore comment suppresses nothing."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        textwrap.dedent(
            '''
            def fine(x):  # privlint: ignore[PL2] stale excuse
                return x
            '''
        )
    )
    return pkg


class TestUnusedIgnoreFlags:
    def test_silent_without_the_flag(self, stale_tree, capsys):
        assert main(["lint", "--paths", str(stale_tree)]) == 0
        captured = capsys.readouterr()
        assert "unused ignore comment" not in captured.err
        assert "ignore[PL2]" not in captured.out

    def test_report_flag_warns_but_passes(self, stale_tree, capsys):
        assert main(
            [
                "lint",
                "--paths",
                str(stale_tree),
                "--report-unused-ignores",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "1 unused ignore comment(s)" in captured.err
        assert "warn-only" in captured.err
        assert "ignore[PL2]" in captured.out

    def test_strict_flag_fails_the_gate(self, stale_tree, capsys):
        assert main(
            [
                "lint",
                "--paths",
                str(stale_tree),
                "--strict-ignores",
            ]
        ) == 1
        captured = capsys.readouterr()
        assert "failing the gate" in captured.err
        assert "ignore[PL2]" in captured.out

    def test_working_ignores_pass_strict(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            textwrap.dedent(
                '''
                import random


                def draw():
                    return random.random()  # privlint: ignore[PL2] fixture
                '''
            )
        )
        assert main(
            ["lint", "--paths", str(pkg), "--strict-ignores"]
        ) == 0
        assert "unused" not in capsys.readouterr().err


class TestCallgraphArtifact:
    def test_timing_line_on_stderr(self, dirty_tree, capsys):
        main(["lint", "--paths", str(dirty_tree)])
        err = capsys.readouterr().err
        assert "privlint: analyzed 1 files in" in err

    def test_callgraph_out_is_not_a_flag(self, dirty_tree, tmp_path, capsys):
        # The call graph is an in-process analysis structure; lint
        # writes no call-graph artifact.
        artifact = tmp_path / "callgraph.json"
        with pytest.raises(SystemExit) as exited:
            main(
                [
                    "lint",
                    "--paths",
                    str(dirty_tree),
                    "--callgraph-out",
                    str(artifact),
                ]
            )
        assert exited.value.code == 2
        assert "--callgraph-out" in capsys.readouterr().err
        assert not artifact.exists()
