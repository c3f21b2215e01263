"""The contract between ``benchmarks/run_all.py`` and the experiment
modules it drives.  No experiment runs here: the modules are only
imported, and the harness is exercised on stub experiments."""

from __future__ import annotations

import json
import types

import pytest

from benchmarks import run_all
from repro.analysis import render_table


def test_every_experiment_exposes_run_and_check():
    tags = [tag for tag, _ in run_all.EXPERIMENTS]
    assert tags == [f"E{i}" for i in range(1, 20)]
    for tag, module in run_all.EXPERIMENTS:
        assert callable(getattr(module, "run_experiment", None)), tag
        assert callable(getattr(module, "check", None)), tag


def _stub(name, check):
    table = render_table(["case", "value"], [["a", 1.5], ["b", 2]])
    return types.SimpleNamespace(
        __name__=name, run_experiment=lambda: table, check=check
    )


def _fail(table):
    raise AssertionError("bound exceeded")


@pytest.fixture
def stubs(monkeypatch, tmp_path):
    report = tmp_path / "BENCH_runall.json"
    monkeypatch.setattr(
        run_all,
        "EXPERIMENTS",
        [
            ("E1", _stub("stub_pass", lambda table: None)),
            ("E2", _stub("stub_fail", _fail)),
        ],
    )
    monkeypatch.setattr(run_all, "REPORT_PATH", report)
    return report


def test_failed_check_exits_1_naming_its_tag(stubs, capsys):
    assert run_all.main([]) == 1
    err = capsys.readouterr().err
    assert "E2 check failed" in err
    assert "failed checks: E2" in err
    assert "E1 check failed" not in err


def test_report_holds_only_module_and_rows(stubs, capsys):
    run_all.main([])
    report = json.loads(stubs.read_text())
    assert set(report) == {"seed", "experiments"}
    assert report["experiments"]["E1"] == {
        "module": "stub_pass",
        "rows": [["a", 1.5], ["b", 2]],
    }


def test_filtered_run_keeps_the_report(stubs, capsys):
    assert run_all.main(["E1"]) == 0
    assert not stubs.exists()


def test_unknown_tag_refused(stubs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_all.main(["E99"])
    assert excinfo.value.code == 2
    assert "E99" in capsys.readouterr().err
