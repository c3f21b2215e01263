"""Unit tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import io
import json
import tracemalloc
from collections import Counter

import pytest

from repro.cli import main
from repro.graphs import generators
from repro.graphs.io import graph_from_json, save_graph


@pytest.fixture
def grid_file(tmp_path):
    graph = generators.grid_graph(4, 4)
    path = tmp_path / "grid.json"
    save_graph(graph, path)
    return path


@pytest.fixture
def tree_file(tmp_path, rng):
    tree = generators.random_tree(12, rng)
    path = tmp_path / "tree.json"
    save_graph(tree, path)
    return path


@pytest.fixture
def edge_list_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1 2.0\n1 2 3.0\n0 2 9.0\n")
    return path


class TestInfo:
    def test_stats(self, grid_file, capsys):
        assert main(["info", "--graph", str(grid_file)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["vertices"] == 16
        assert stats["edges"] == 24
        assert stats["connected"] is True

    def test_edge_list_input(self, edge_list_file, capsys):
        code = main(
            ["info", "--graph", str(edge_list_file), "--edge-list"]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["vertices"] == 3

    def test_missing_file(self, tmp_path, capsys):
        code = main(["info", "--graph", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDistance:
    def test_prints_number(self, edge_list_file, capsys):
        code = main(
            [
                "distance",
                "--graph", str(edge_list_file),
                "--edge-list",
                "--eps", "5.0",
                "--source", "0",
                "--target", "2",
                "--seed", "0",
            ]
        )
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.0 < value < 15.0

    def test_seed_reproducible(self, edge_list_file, capsys):
        argv = [
            "distance",
            "--graph", str(edge_list_file),
            "--edge-list",
            "--eps", "1.0",
            "--source", "0",
            "--target", "2",
            "--seed", "7",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_tuple_vertices(self, grid_file, capsys):
        code = main(
            [
                "distance",
                "--graph", str(grid_file),
                "--eps", "5.0",
                "--source", "0,0",
                "--target", "3,3",
                "--seed", "1",
            ]
        )
        assert code == 0

    def test_bad_vertex_is_error(self, grid_file, capsys):
        code = main(
            [
                "distance",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--source", "99,99",
                "--target", "0,0",
            ]
        )
        assert code == 2


class TestPaths:
    def test_writes_released_graph(self, grid_file, tmp_path, capsys):
        out = tmp_path / "released.json"
        code = main(
            [
                "paths",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "3",
                "--out", str(out),
                "--source", "0,0",
                "--target", "3,3",
            ]
        )
        assert code == 0
        released = graph_from_json(out.read_text())
        assert released.num_edges == 24
        printed = json.loads(capsys.readouterr().out)
        assert printed["path"][0] == "(0, 0)"
        assert printed["path"][-1] == "(3, 3)"

    def test_stdout_graph_without_out(self, edge_list_file, capsys):
        code = main(
            [
                "paths",
                "--graph", str(edge_list_file),
                "--edge-list",
                "--eps", "1.0",
                "--seed", "3",
            ]
        )
        assert code == 0
        released = graph_from_json(capsys.readouterr().out)
        assert released.num_edges == 3

    def test_no_hop_bias_flag(self, edge_list_file, capsys):
        code = main(
            [
                "paths",
                "--graph", str(edge_list_file),
                "--edge-list",
                "--eps", "1.0",
                "--seed", "3",
                "--no-hop-bias",
            ]
        )
        assert code == 0


class TestSynthetic:
    def test_release(self, grid_file, capsys):
        code = main(
            ["synthetic", "--graph", str(grid_file), "--eps", "1.0", "--seed", "0"]
        )
        assert code == 0
        released = graph_from_json(capsys.readouterr().out)
        assert released.num_vertices == 16


class TestTreeDistances:
    def test_all_from_root(self, tree_file, capsys):
        code = main(
            [
                "tree-distances",
                "--graph", str(tree_file),
                "--eps", "1.0",
                "--root", "0",
                "--seed", "0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12

    def test_specific_pairs(self, tree_file, capsys):
        code = main(
            [
                "tree-distances",
                "--graph", str(tree_file),
                "--eps", "1.0",
                "--root", "0",
                "--pairs", "3:7", "1:11",
                "--seed", "0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("3:7\t")

    def test_non_tree_is_error(self, grid_file, capsys):
        code = main(
            [
                "tree-distances",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--root", "0,0",
            ]
        )
        assert code == 2


class TestServe:
    def test_answers_and_synopsis(self, grid_file, tmp_path, capsys):
        out = tmp_path / "synopsis.json"
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--pairs", "0,0:3,3", "1,1:2,2",
                "--synopsis-out", str(out),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# mechanism: all-pairs-basic")
        assert len(lines) == 3
        assert lines[1].startswith("0,0:3,3\t")
        from repro.serving import synopsis_from_json

        synopsis = synopsis_from_json(out.read_text())
        served = float(lines[1].split("\t")[1])
        assert synopsis.distance((0, 0), (3, 3)) == pytest.approx(
            served, abs=1e-6
        )

    def test_tree_auto_selected(self, tree_file, capsys):
        code = main(
            [
                "serve",
                "--graph", str(tree_file),
                "--eps", "1.0",
                "--seed", "0",
                "--pairs", "0:5",
            ]
        )
        assert code == 0
        assert "mechanism: tree" in capsys.readouterr().out

    def test_weight_bound_selects_covering(self, grid_file, capsys):
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--weight-bound", "1.0",
                "--seed", "0",
                "--pairs", "0,0:3,3",
            ]
        )
        assert code == 0
        assert "mechanism: bounded-weight" in capsys.readouterr().out

    def test_hub_set_override_and_synopsis(self, grid_file, tmp_path, capsys):
        out = tmp_path / "hub.json"
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--mechanism", "hub-set",
                "--pairs", "0,0:3,3",
                "--synopsis-out", str(out),
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# mechanism: hub-set")
        from repro.serving import HubSetSynopsis, synopsis_from_json

        synopsis = synopsis_from_json(out.read_text())
        assert isinstance(synopsis, HubSetSynopsis)
        served = float(lines[1].split("\t")[1])
        assert synopsis.distance((0, 0), (3, 3)) == pytest.approx(
            served, abs=1e-6
        )

    def test_sharded_serving(self, grid_file, capsys):
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--shards", "2",
                "--pairs", "0,0:3,3", "1,1:2,2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("# mechanism: sharded(2x")
        assert len(lines) == 3
        assert float(lines[1].split("\t")[1]) >= 0.0

    @pytest.mark.parametrize("bound", ["nan", "inf"])
    def test_non_finite_weight_bound_rejected(self, grid_file, capsys, bound):
        # NaN used to end in a traceback and inf to be served.
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--weight-bound", bound,
                "--pairs", "0,0:3,3",
            ]
        )
        assert code == 2
        assert "error: weight bound M" in capsys.readouterr().err

    def test_zero_shards_rejected(self, grid_file, capsys):
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--shards", "0",
                "--pairs", "0,0:3,3",
            ]
        )
        assert code == 2
        assert "at least 1 shard" in capsys.readouterr().err

    def test_sharded_rejects_synopsis_out(self, grid_file, tmp_path, capsys):
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--shards", "2",
                "--pairs", "0,0:3,3",
                "--synopsis-out", str(tmp_path / "s.json"),
            ]
        )
        assert code == 2
        assert "--shards" in capsys.readouterr().err

    def test_config_without_eps_rejected(
        self, grid_file, tmp_path, capsys
    ):
        cfg = tmp_path / "serving.json"
        cfg.write_text(
            json.dumps(
                {"format": "repro-serving-config", "version": 3}
            )
        )
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--config", str(cfg),
                "--pairs", "0,0:3,3",
            ]
        )
        assert code == 2
        assert "missing keys: eps" in capsys.readouterr().err

    def test_config_with_boolean_eps_rejected(
        self, grid_file, tmp_path, capsys
    ):
        cfg = tmp_path / "serving.json"
        cfg.write_text(
            '{"format": "repro-serving-config", "version": 3, "eps": true}'
        )
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--config", str(cfg),
                "--pairs", "0,0:3,3",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'eps' must be a number, got bool" in err

    def test_config_without_eps_rejected_despite_eps_flag(
        self, grid_file, tmp_path, capsys
    ):
        # The document itself must carry the budget: --eps overrides a
        # stated eps but never stands in for a missing one.
        cfg = tmp_path / "serving.json"
        cfg.write_text(
            json.dumps({"format": "repro-serving-config", "version": 3})
        )
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--config", str(cfg),
                "--eps", "0.5",
                "--pairs", "0,0:3,3",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing keys: eps" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--eps", "1.0", "--pairs", "0,0:3,3"],
        ["simulate", "--rows", "4", "--cols", "4", "--eps", "1.0"],
        ["distance", "--eps", "1.0", "--source", "0,0", "--target", "3,3"],
    ],
    ids=lambda argv: argv[0],
)
def test_backend_flag_is_gone(argv, grid_file, capsys):
    if argv[0] != "simulate":
        argv = [argv[0], "--graph", str(grid_file), *argv[1:]]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--backend", "numpy"])
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err


_V1_FIELDS = {"eps": 1.0, "backend": None}
_V2_FIELDS = {"eps": 1.0}


@pytest.mark.parametrize(
    "command, version, fields",
    [
        pytest.param("serve", 1, _V1_FIELDS, id="serve"),
        pytest.param("simulate", 1, _V1_FIELDS, id="simulate"),
        pytest.param("serve", 2, _V2_FIELDS, id="v2-serve"),
        pytest.param("simulate", 2, _V2_FIELDS, id="v2-simulate"),
    ],
)
def test_version_1_config_refused(
    command, version, fields, grid_file, tmp_path, capsys
):
    # Every version-1 document carries the dropped "backend" field, and
    # version 2 had six knobs version 3 dropped; the reader names the
    # version instead of guessing at either.  A version-2 document
    # that sets none of the dropped knobs is refused all the same.
    from repro import GraphError, ServingConfig

    text = json.dumps(
        {"format": "repro-serving-config", "version": version, **fields}
    )
    refusal = (
        f"unsupported serving config version {version} "
        "(this build reads version 3)"
    )
    with pytest.raises(GraphError) as excinfo:
        ServingConfig.from_json(text)
    assert str(excinfo.value) == refusal
    cfg = tmp_path / "serving.json"
    cfg.write_text(text)
    argv = {
        "serve": ["--graph", str(grid_file), "--pairs", "0,0:3,3"],
        "simulate": ["--rows", "4", "--cols", "4", "--queries", "5"],
    }[command]
    code = main([command, "--config", str(cfg), *argv])
    assert code == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"


class TestSimulate:
    def test_report_json(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--epochs", "2",
                "--queries", "50",
                "--seed", "0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_queries"] == 100
        assert report["ledger_spends"] == 2
        assert report["queries_per_second"] > 0

    def test_mechanism_override(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "25",
                "--seed", "2",
                "--mechanism", "hub-set",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mechanism"] == "hub-set"
        assert report["total_queries"] == 25

    def test_unknown_mechanism_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--rows", "4",
                    "--cols", "4",
                    "--eps", "1.0",
                    "--mechanism", "quantum",
                ]
            )

    def test_shards_flag(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "6",
                "--cols", "6",
                "--eps", "1.0",
                "--epochs", "1",
                "--queries", "40",
                "--seed", "3",
                "--shards", "2",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mechanism"].startswith("sharded(2x")
        assert report["total_queries"] == 40
        # One epoch spends 2 shard tenants + the boundary relay.
        assert report["ledger_spends"] == 3

    def test_config_document(self, tmp_path, capsys):
        from repro import ServingConfig

        cfg = tmp_path / "serving.json"
        cfg.write_text(ServingConfig(eps=1.0).to_json())
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--config", str(cfg),
                "--queries", "25",
                "--seed", "4",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total_queries"] == 25

    def test_flags_and_config_replay_identically(self, tmp_path, capsys):
        # The flags build the same ServingConfig a document states, so
        # a seeded replay answers bit for bit alike either way.
        from repro import ServingConfig

        flags = ["--eps", "0.5", "--weight-bound", "4.0", "--shards", "2"]
        cfg = tmp_path / "serving.json"
        cfg.write_text(
            ServingConfig(eps=0.5, weight_bound=4.0, shards=2).to_json()
        )
        reports = []
        for serving in (flags, ["--config", str(cfg)]):
            code = main(
                [
                    "simulate",
                    "--rows", "5",
                    "--cols", "5",
                    "--epochs", "2",
                    "--queries", "30",
                    "--seed", "6",
                    *serving,
                ]
            )
            assert code == 0
            report = json.loads(capsys.readouterr().out)
            # Wall-clock fields differ run to run.
            del report["queries_per_second"], report["latency_seconds"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["eps"] == 0.5
        assert reports[0]["mechanism"].startswith("sharded(2x")

    def test_config_clashes_with_serving_flags(self, tmp_path, capsys):
        """Regression: flags the config already decides are refused,
        not silently dropped."""
        from repro import ServingConfig

        cfg = tmp_path / "serving.json"
        cfg.write_text(ServingConfig(eps=1.0).to_json())
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--config", str(cfg),
                "--mechanism", "hub-set",
                "--shards", "2",
                "--seed", "4",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--mechanism" in err and "--shards" in err

    def test_config_without_eps_rejected(self, tmp_path, capsys):
        """Regression: a DP budget is never silently defaulted — a
        config document that omits eps needs an explicit --eps."""
        cfg = tmp_path / "serving.json"
        cfg.write_text(
            json.dumps(
                {
                    "format": "repro-serving-config",
                    "version": 3,
                    "mechanism": "hub-set",
                }
            )
        )
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--config", str(cfg),
                "--seed", "4",
            ]
        )
        assert code == 2
        assert "missing keys: eps" in capsys.readouterr().err


class TestMst:
    def test_release(self, grid_file, tmp_path):
        out = tmp_path / "tree.json"
        code = main(
            [
                "mst",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["tree_edges"]) == 15


class TestMetrics:
    def _simulate_snapshot(self, tmp_path, capsys, fmt="json"):
        out = tmp_path / ("metrics." + fmt)
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "30",
                "--seed", "0",
                "--metrics-out", str(out),
                "--metrics-format", fmt,
            ]
        )
        assert code == 0
        capsys.readouterr()  # drop the report JSON
        return out

    def test_simulate_reports_latency_quantiles(self, capsys):
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "30",
                "--seed", "0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        latency = report["latency_seconds"]
        assert latency["count"] == 30
        assert 0.0 <= latency["p50"] <= latency["p95"] <= latency["p99"]

    def test_simulate_metrics_out_json(self, tmp_path, capsys):
        out = self._simulate_snapshot(tmp_path, capsys)
        document = json.loads(out.read_text())
        assert document["format"] == "repro-telemetry"
        names = {m["name"] for m in document["metrics"]}
        assert "serving.query.latency" in names
        assert "budget.eps.remaining" in names

    def test_simulate_metrics_out_prometheus(self, tmp_path, capsys):
        out = self._simulate_snapshot(tmp_path, capsys, fmt="prom")
        text = out.read_text()
        assert "# TYPE serving_query_latency summary" in text
        assert 'quantile="0.99"' in text

    def test_metrics_subcommand_round_trip(self, tmp_path, capsys):
        out = self._simulate_snapshot(tmp_path, capsys)
        code = main(["metrics", "--in", str(out), "--format", "prom"])
        assert code == 0
        text = capsys.readouterr().out
        assert "# TYPE budget_eps_remaining gauge" in text

    def test_metrics_tenant_budget_view(self, tmp_path, capsys):
        out = self._simulate_snapshot(tmp_path, capsys)
        code = main(
            ["metrics", "--in", str(out), "--tenant", "distance-service"]
        )
        assert code == 0
        budget = json.loads(capsys.readouterr().out)
        assert budget["tenant"] == "distance-service"
        assert budget["eps_spent"] == pytest.approx(1.0)
        assert budget["eps_remaining"] == pytest.approx(0.0)

    def test_metrics_unknown_tenant_rejected(self, tmp_path, capsys):
        out = self._simulate_snapshot(tmp_path, capsys)
        code = main(["metrics", "--in", str(out), "--tenant", "nope"])
        assert code != 0
        err = capsys.readouterr().err
        assert "nope" in err
        assert "distance-service" in err

    def test_metrics_rejects_non_snapshot_json(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "something-else"}')
        code = main(["metrics", "--in", str(bogus)])
        assert code != 0

    def test_serve_metrics_out(self, grid_file, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--pairs", "0,0:3,3",
                "--metrics-out", str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        names = {m["name"] for m in document["metrics"]}
        assert "serving.query.latency" in names


class TestAuditCli:
    def _simulate_with_audit(self, tmp_path, capsys, epochs="2"):
        log = tmp_path / "audit.jsonl"
        snap = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--epochs", epochs,
                "--queries", "30",
                "--seed", "0",
                "--audit-log", str(log),
                "--metrics-out", str(snap),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return log, snap

    def test_simulate_writes_verifiable_log(self, tmp_path, capsys):
        log, snap = self._simulate_with_audit(tmp_path, capsys)
        code = main(
            ["audit", "verify", "--log", str(log), "--metrics", str(snap)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["verified"] is True
        assert summary["gauges_checked"] >= 3
        assert "distance-service" in summary["tenants"]

    def test_simulate_splits_events_between_sinks(self, tmp_path, capsys):
        # Every lifecycle event reaches the event log; the audit chain
        # gets the spends, rotations and releases, each once.
        from repro.telemetry import (
            AUDITED_KINDS,
            read_audit_log,
            read_event_log,
        )

        audit = tmp_path / "audit.jsonl"
        events = tmp_path / "events.jsonl"
        snap = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--rows", "6",
                "--cols", "6",
                "--eps", "1.0",
                "--epochs", "2",
                "--queries", "30",
                "--seed", "0",
                "--audit-log", str(audit),
                "--event-log", str(events),
                "--metrics-out", str(snap),
            ]
        )
        assert code == 0
        capsys.readouterr()
        logged = Counter(r["event"] for r in read_event_log(events))
        assert {
            "service.start",
            "mechanism.select",
            "budget.spend",
            "synopsis.build",
            "batch.serve",
            "ledger.rotate",
            "epoch.refresh",
        } <= set(logged)
        chained = Counter(r["kind"] for r in read_audit_log(audit))
        assert chained.pop("audit.open") == 1
        assert chained == Counter(
            {k: n for k, n in logged.items() if k in AUDITED_KINDS}
        )
        assert main(
            ["audit", "verify", "--log", str(audit), "--metrics", str(snap)]
        ) == 0

    def test_audit_tail_prints_json_records(self, tmp_path, capsys):
        log, _ = self._simulate_with_audit(tmp_path, capsys)
        assert main(["audit", "tail", "--log", str(log), "-n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert {"seq", "kind", "hash"} <= set(record)

    def test_audit_replay_prints_odometer(self, tmp_path, capsys):
        log, _ = self._simulate_with_audit(tmp_path, capsys)
        assert main(["audit", "replay", "--log", str(log)]) == 0
        odometer = json.loads(capsys.readouterr().out)
        assert odometer["format"] == "repro-audit-odometer"
        state = odometer["tenants"]["distance-service"]
        assert state["lifetime_spends"] == 2  # one build per epoch

    def test_audit_verify_tampered_log_exits_2(self, tmp_path, capsys):
        log, _ = self._simulate_with_audit(tmp_path, capsys)
        lines = log.read_text().splitlines()
        target = next(
            i for i, line in enumerate(lines) if "budget.spend" in line
        )
        lines[target] = lines[target].replace('"eps":1.0', '"eps":0.5')
        log.write_text("\n".join(lines) + "\n")
        assert main(["audit", "verify", "--log", str(log)]) == 2
        assert "hash chain" in capsys.readouterr().err

    def test_audit_verify_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["audit", "verify", "--log", str(tmp_path / "nope.jsonl")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_serve_audit_log_flag(self, grid_file, tmp_path, capsys):
        log = tmp_path / "serve-audit.jsonl"
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--pairs", "0,0:3,3",
                "--audit-log", str(log),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["audit", "verify", "--log", str(log)]) == 0
        assert json.loads(capsys.readouterr().out)["verified"] is True

    def test_audit_log_allowed_alongside_config(self, tmp_path, capsys):
        config = tmp_path / "serving.json"
        config.write_text(
            json.dumps(
                {
                    "format": "repro-serving-config",
                    "version": 3,
                    "eps": 1.0,
                }
            )
        )
        log = tmp_path / "audit.jsonl"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--queries", "20",
                "--seed", "0",
                "--config", str(config),
                "--audit-log", str(log),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["audit", "verify", "--log", str(log)]) == 0
        capsys.readouterr()

    def test_simulate_report_identical_with_audit(self, tmp_path, capsys):
        args = [
            "simulate",
            "--rows", "5",
            "--cols", "5",
            "--eps", "1.0",
            "--queries", "30",
            "--seed", "0",
        ]
        assert main(args) == 0
        plain = json.loads(capsys.readouterr().out)
        log = tmp_path / "audit.jsonl"
        assert main(args + ["--audit-log", str(log)]) == 0
        audited = json.loads(capsys.readouterr().out)
        # Auditing never touches the Rng: every noise-dependent figure
        # is bit-identical.  Wall-clock fields (throughput, latency)
        # legitimately differ between the two runs.
        for key in ("mechanism", "mean_abs_error", "max_abs_error",
                    "ledger_spends", "total_queries"):
            assert audited[key] == plain[key]


class TestReportCli:
    def _snapshot(self, tmp_path, capsys):
        snap = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "30",
                "--seed", "0",
                "--metrics-out", str(snap),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return snap

    def test_text_report(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        assert main(["report", "--in", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "== budgets ==" in out
        assert "distance-service" in out
        assert "== query latency ==" in out
        assert "(no rules given)" in out

    def test_json_report(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        code = main(["report", "--in", str(snap), "--format", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert "distance-service" in report["budgets"]
        assert report["budgets"]["distance-service"]["eps_spent"] == 1.0
        assert report["latency"]
        assert report["alerts"] == []

    def test_fired_alert_exits_1(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "format": "repro-alert-rules",
                    "version": 1,
                    "rules": [
                        {
                            "name": "budget-burn",
                            "kind": "burn-rate",
                            "op": ">=",
                            "value": 0.9,
                            "severity": "critical",
                        }
                    ],
                }
            )
        )
        code = main(
            ["report", "--in", str(snap), "--rules", str(rules)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[critical] budget-burn" in out

    def test_quiet_rules_exit_0(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "format": "repro-alert-rules",
                    "version": 1,
                    "rules": [
                        {
                            "name": "impossible",
                            "metric": "serving.queries",
                            "op": ">",
                            "value": 1e12,
                        }
                    ],
                }
            )
        )
        code = main(
            ["report", "--in", str(snap), "--rules", str(rules)]
        )
        assert code == 0
        assert "(none fired)" in capsys.readouterr().out

    def test_budget_readers_agree_per_tenant(self, tmp_path, capsys):
        # The report, metrics --tenant and the burn-rate rule read
        # one snapshot reader, so they agree tenant for tenant.
        snap = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--shards", "2",
                "--epochs", "3",
                "--queries", "30",
                "--seed", "0",
                "--metrics-out", str(snap),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                {
                    "format": "repro-alert-rules",
                    "version": 1,
                    "rules": [
                        {"name": "burn", "kind": "burn-rate",
                         "op": ">=", "value": 0.0}
                    ],
                }
            )
        )
        code = main(
            [
                "report", "--in", str(snap), "--format", "json",
                "--rules", str(rules),
            ]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        budgets = report["budgets"]
        assert sorted(budgets) == [
            "sharded-distance-service/relay",
            "sharded-distance-service/shard-0",
            "sharded-distance-service/shard-1",
        ]
        rates = {
            alert["labels"]["tenant"]: alert["observed"]
            for alert in report["alerts"]
        }
        assert sorted(rates) == sorted(budgets)
        for tenant, position in budgets.items():
            code = main(["metrics", "--in", str(snap), "--tenant", tenant])
            assert code == 0
            assert json.loads(capsys.readouterr().out) == {
                "tenant": tenant, **position
            }
            spent = position["eps_spent"]
            assert rates[tenant] == spent / (spent + position["eps_remaining"])

    def test_bad_rules_document_exits_2(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"format": "nope"}))
        code = main(
            ["report", "--in", str(snap), "--rules", str(rules)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestMetricsIo:
    def _snapshot(self, tmp_path, capsys):
        snap = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "30",
                "--seed", "0",
                "--metrics-out", str(snap),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return snap

    def test_stdin_dash_reads_snapshot(
        self, tmp_path, capsys, monkeypatch
    ):
        snap = self._snapshot(tmp_path, capsys)
        monkeypatch.setattr("sys.stdin", io.StringIO(snap.read_text()))
        code = main(["metrics", "--in", "-", "--format", "prom"])
        assert code == 0
        assert "# TYPE" in capsys.readouterr().out

    def test_stdin_bad_json_names_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
        code = main(["metrics", "--in", "-"])
        assert code == 2
        assert "stdin" in capsys.readouterr().err

    def test_out_writes_file_not_stdout(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        out = tmp_path / "rendered.prom"
        code = main(
            [
                "metrics",
                "--in", str(snap),
                "--format", "prom",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "# TYPE serving_query_latency summary" in out.read_text()

    def test_out_json_is_parseable(self, tmp_path, capsys):
        snap = self._snapshot(tmp_path, capsys)
        out = tmp_path / "rendered.json"
        code = main(["metrics", "--in", str(snap), "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        assert document["format"] == "repro-telemetry"


class TestObservabilityFlags:
    def _simulate(self, extra, capsys):
        args = [
            "simulate",
            "--rows", "5",
            "--cols", "5",
            "--eps", "1.0",
            "--queries", "30",
            "--seed", "0",
        ] + extra
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)

    def test_simulate_writes_all_artifacts(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        flight = tmp_path / "flight.json"
        events = tmp_path / "events.jsonl"
        self._simulate(
            [
                "--profile-out", str(profile),
                "--flight-out", str(flight),
                "--flight-threshold", "0.00001",
                "--event-log", str(events),
            ],
            capsys,
        )
        document = json.loads(profile.read_text())
        assert document["format"] == "repro-profile"
        phases = {row["phase"] for row in document["phases"]}
        assert "simulate.run" in phases
        assert "synopsis.build" in phases
        assert document["collapsed"]
        dump = json.loads(flight.read_text())
        assert dump["format"] == "repro-flight"
        assert dump["captured"] >= 1
        from repro.telemetry import read_event_log

        names = {r["event"] for r in read_event_log(events)}
        assert "synopsis.build" in names
        assert "batch.serve" in names

    def test_simulate_report_identical_with_observability(
        self, tmp_path, capsys
    ):
        plain = self._simulate([], capsys)
        observed = self._simulate(
            [
                "--profile-out", str(tmp_path / "p.json"),
                "--flight-out", str(tmp_path / "f.json"),
                "--flight-threshold", "0.00001",
                "--event-log", str(tmp_path / "e.jsonl"),
            ],
            capsys,
        )
        for key in ("mechanism", "mean_abs_error", "max_abs_error",
                    "ledger_spends", "total_queries"):
            assert observed[key] == plain[key]

    def test_serve_profile_and_flight_out(
        self, grid_file, tmp_path, capsys
    ):
        profile = tmp_path / "profile.json"
        flight = tmp_path / "flight.json"
        code = main(
            [
                "serve",
                "--graph", str(grid_file),
                "--eps", "1.0",
                "--seed", "0",
                "--pairs", "0,0:3,3",
                "--profile-out", str(profile),
                "--flight-out", str(flight),
                "--flight-threshold", "0.00001",
            ]
        )
        assert code == 0
        capsys.readouterr()
        phases = {
            row["phase"]
            for row in json.loads(profile.read_text())["phases"]
        }
        assert "serve.run" in phases
        assert "synopsis.build" in phases
        assert json.loads(flight.read_text())["captured"] >= 1


class TestProfileCli:
    def _profile_file(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "30",
                "--seed", "0",
                "--profile-out", str(profile),
            ]
        )
        assert code == 0
        capsys.readouterr()
        return profile

    def test_profile_out_traces_allocations_then_stops(
        self, tmp_path, capsys
    ):
        profile = self._profile_file(tmp_path, capsys)
        assert not tracemalloc.is_tracing()
        rows = json.loads(profile.read_text())["phases"]
        assert any(row["alloc_net_bytes"] != 0 for row in rows)

    def test_phases_table(self, tmp_path, capsys):
        profile = self._profile_file(tmp_path, capsys)
        assert main(["profile", "--in", str(profile)]) == 0
        out = capsys.readouterr().out
        assert "# profiled wall time" in out
        assert "simulate.run" in out

    def test_check_passes_on_real_run(self, tmp_path, capsys):
        profile = self._profile_file(tmp_path, capsys)
        assert main(["profile", "--in", str(profile), "--check"]) == 0
        capsys.readouterr()

    def test_check_fails_on_inconsistent_attribution(
        self, tmp_path, capsys
    ):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(
            json.dumps(
                {
                    "format": "repro-profile",
                    "version": 1,
                    "total_wall_seconds": 1.0,
                    "phases": [
                        {
                            "phase": "x",
                            "count": 1,
                            "wall_seconds": 1.0,
                            "wall_self_seconds": 2.0,
                            "cpu_seconds": 0.0,
                            "alloc_net_bytes": 0,
                        }
                    ],
                    "samples": 0,
                    "collapsed": "",
                }
            )
        )
        assert main(["profile", "--in", str(bogus), "--check"]) == 1
        assert "profile check failed" in capsys.readouterr().err

    def test_collapsed_output(self, tmp_path, capsys):
        profile = self._profile_file(tmp_path, capsys)
        code = main(
            ["profile", "--in", str(profile), "--format", "collapsed"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out  # non-empty collapsed stacks
        stack, _, count = out.splitlines()[0].rpartition(" ")
        assert int(count) >= 1

    def test_json_round_trip(self, tmp_path, capsys):
        profile = self._profile_file(tmp_path, capsys)
        code = main(
            ["profile", "--in", str(profile), "--format", "json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document == json.loads(profile.read_text())

    def test_rejects_non_profile_document(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "nope"}')
        assert main(["profile", "--in", str(bogus)]) == 2
        assert "error" in capsys.readouterr().err


class TestFlightCli:
    def _flight_file(self, tmp_path, capsys):
        flight = tmp_path / "flight.json"
        code = main(
            [
                "simulate",
                "--rows", "5",
                "--cols", "5",
                "--eps", "1.0",
                "--queries", "30",
                "--seed", "0",
                "--flight-out", str(flight),
                # Any latency clears 1 ns, so every query is captured
                # however fast the machine serves it.
                "--flight-threshold", "1e-9",
            ]
        )
        assert code == 0
        capsys.readouterr()
        return flight

    def test_text_summary(self, tmp_path, capsys):
        flight = self._flight_file(tmp_path, capsys)
        assert main(["flight", "--in", str(flight)]) == 0
        out = capsys.readouterr().out
        assert "# considered" in out
        assert "threshold" in out

    def test_record_limit(self, tmp_path, capsys):
        flight = self._flight_file(tmp_path, capsys)
        assert main(["flight", "--in", str(flight), "-n", "1"]) == 0
        out = capsys.readouterr().out
        # One header line plus at most one record line.
        assert len(out.strip().splitlines()) <= 2

    def test_json_format(self, tmp_path, capsys):
        flight = self._flight_file(tmp_path, capsys)
        code = main(
            ["flight", "--in", str(flight), "--format", "json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-flight"

    def test_rejects_non_flight_document(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "nope"}')
        assert main(["flight", "--in", str(bogus)]) == 2
        assert "error" in capsys.readouterr().err
