"""Framework tests: suppression parsing, the fail-closed
``repro-lint`` report reader, and the scan-set defaults."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.exceptions import LintError
from repro.privlint import (
    Finding,
    default_package_root,
    finding_from_dict,
    iter_source_files,
    lint_document,
    parse_suppressions,
    render_text,
    run_lint,
    validate_lint_report,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressions:
    def test_single_rule(self):
        table = parse_suppressions(
            "x = 1  # privlint: ignore[PL4] justification\n"
        )
        assert table == {1: frozenset({"PL4"})}

    def test_multiple_rules_and_star(self):
        table = parse_suppressions(
            "a = 1  # privlint: ignore[PL1, PL2]\n"
            "b = 2\n"
            "c = 3  # privlint: ignore[*] everything\n"
        )
        assert table[1] == frozenset({"PL1", "PL2"})
        assert 2 not in table
        assert table[3] == frozenset({"*"})

    def test_docstring_mention_does_not_suppress(self):
        table = parse_suppressions(
            '"""Write # privlint: ignore[PL1] on the line."""\n'
            "x = 1\n"
        )
        assert table == {}

    @pytest.mark.parametrize(
        "bad",
        [
            "x = 1  # privlint: ignore[]\n",
            "x = 1  # privlint: ignore[pl4]\n",
            "x = 1  # privlint: ignore[PL4; PL1]\n",
        ],
    )
    def test_malformed_lists_fail_closed(self, bad):
        with pytest.raises(LintError):
            parse_suppressions(bad, "mod.py")


class TestFinding:
    def test_round_trip(self):
        finding = Finding("PL1", "repro/x.py", 3, "message", "warning")
        assert finding_from_dict(finding.as_dict()) == finding

    def test_rejects_unknown_severity(self):
        with pytest.raises(LintError):
            Finding("PL1", "x.py", 1, "m", severity="fatal")

    @pytest.mark.parametrize(
        "entry",
        [
            "not a dict",
            {"rule": "PL1", "path": "x.py"},
            {"rule": "PL1", "path": "x.py", "line": "NaN..", "message": ""},
        ],
    )
    def test_malformed_entries_fail_closed(self, entry):
        with pytest.raises(LintError):
            finding_from_dict(entry)


class TestLintReport:
    def _document(self):
        result = run_lint([FIXTURES], package_root=FIXTURES)
        return lint_document(result)

    def test_document_validates(self):
        document = self._document()
        assert validate_lint_report(document) is document

    def test_json_round_trip_validates(self):
        document = json.loads(json.dumps(self._document()))
        validate_lint_report(document)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("format"),
            lambda d: d.__setitem__("format", "repro-profile"),
            lambda d: d.__setitem__("version", 99),
            lambda d: d.pop("findings"),
            lambda d: d["findings"][0].pop("rule"),
            lambda d: d.pop("summary"),
            lambda d: d["summary"].__setitem__("total", 0xBAD),
            lambda d: d["summary"].pop("suppressed"),
        ],
    )
    def test_fail_closed(self, mutate):
        document = self._document()
        mutate(document)
        with pytest.raises(LintError):
            validate_lint_report(document)

    def test_not_a_dict_fails(self):
        with pytest.raises(LintError):
            validate_lint_report([1, 2, 3])

    def test_render_text_summary_line(self):
        document = self._document()
        text = render_text(document)
        assert "pl1_taint.py:5: PL1 [error]" in text
        assert text.rstrip().endswith(
            "5 finding(s) (5 suppressed, 0 unused ignore(s))"
        )


class TestUnusedIgnores:
    def test_dead_suppression_is_reported(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def fine(x):  # privlint: ignore[PL2] stale excuse
                    return x
                '''
            }
        )
        assert not result.findings
        assert len(result.unused_ignores) == 1
        unused = result.unused_ignores[0]
        assert unused.line == 2
        assert unused.rules == ("PL2",)
        assert "mod.py" in unused.path
        assert "PL2" in unused.render()

    def test_working_suppression_is_not_reported(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                import random


                def draw():
                    return random.random()  # privlint: ignore[PL2] fixture
                '''
            }
        )
        assert not result.findings
        assert result.suppressed == 1
        assert result.unused_ignores == ()

    def test_document_carries_unused_ignores(self, lint_tree):
        result = lint_tree(
            {
                "mod.py": '''
                def fine(x):  # privlint: ignore[PL4] stale
                    return x
                '''
            }
        )
        document = lint_document(result)
        assert document["summary"]["unused_ignores"] == 1
        [entry] = document["unused_ignores"]
        assert entry["rules"] == ["PL4"]
        validate_lint_report(document)
        # The rendering only surfaces them when asked.
        assert "unused" in render_text(document)
        assert "stale" not in render_text(document)
        assert "ignore[PL4]" in render_text(
            document, show_unused_ignores=True
        )

    def test_self_host_has_no_dead_ignores(self):
        # Every inline ignore in the shipped package must still be
        # doing work; delete them when the code moves on.
        assert run_lint().unused_ignores == ()


class TestScanSet:
    def test_default_scan_matches_src_repro_exactly(self):
        """Regression: the default scan set is precisely the installed
        package's source files — nothing skipped, nothing extra."""
        package_root = default_package_root()
        expected = {
            p
            for p in package_root.rglob("*.py")
            if "tests" not in p.relative_to(package_root).parts[:-1]
            and "__pycache__" not in p.parts
        }
        assert set(iter_source_files([package_root])) == expected
        # And the default package root is the imported repro package.
        assert package_root == Path(repro.__file__).resolve().parent

    def test_scanned_files_cover_every_module(self):
        result = run_lint()
        assert len(result.files) == len(
            set(iter_source_files([default_package_root()]))
        )
        assert "repro/privlint/rules.py" in result.files

    def test_tests_directories_are_excluded(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "tests").mkdir()
        (tmp_path / "pkg" / "tests" / "test_mod.py").write_text(
            "import random\nrandom.seed(0)\n"
        )
        files = iter_source_files([tmp_path])
        assert [p.name for p in files] == ["mod.py"]

    def test_explicit_file_paths_are_honoured(self, tmp_path):
        target = tmp_path / "tests" / "fixture.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        # A directly named file is linted even under a tests/ dir.
        assert iter_source_files([target]) == [target.resolve()]

    def test_missing_path_fails_closed(self, tmp_path):
        with pytest.raises(LintError):
            iter_source_files([tmp_path / "nope"])

    def test_unparseable_file_fails_closed(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError):
            run_lint([tmp_path], package_root=tmp_path)
