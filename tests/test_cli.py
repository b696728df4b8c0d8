import json

import pytest

from udgpart.cli import main
from udgpart.graphs import GeometricGraph

from test_graphs import complete_graph, star_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else None


def write_graph(path, g):
    path.write_text(g.to_json())
    return str(path)


class TestGenerate:
    def test_writes_graph_and_summary(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, summary = run_cli(
            capsys,
            "generate", "--nodes", "15", "--lambda", "0.1", "--rtr", "0.25",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        g = GeometricGraph.from_json(out.read_text())
        assert g.node_count == 15
        assert summary["placed"] == 15
        assert 0.0 <= summary["coverage"] <= 1.0

    def test_single_node(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, summary = run_cli(
            capsys,
            "generate", "--nodes", "1", "--lambda", "0.1", "--rtr", "0.2",
            "--out", str(out),
        )
        assert code == 0
        assert summary["avg_degree"] == 0.0

    def test_lambda_at_least_rtr_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "generate", "--nodes", "5", "--lambda", "0.5", "--rtr", "0.4",
                    "--out", str(tmp_path / "g.json"),
                ]
            )
        assert exc.value.code == 2

    def test_unreachable_connectivity_exits_1(self, tmp_path, capsys):
        code, summary = run_cli(
            capsys,
            "generate", "--nodes", "6", "--lambda", "0.4", "--rtr", "0.41",
            "--require-connected", "--max-attempts", "10",
            "--out", str(tmp_path / "g.json"),
        )
        assert code == 1
        assert summary["error"] == "unreachable-target"
        assert summary["attempts"] == 10
        assert summary["short_placements"] + summary["disconnected_placements"] == 10


class TestAdapt:
    def test_connect_and_thin(self, tmp_path, capsys):
        g = star_graph(5)
        src = write_graph(tmp_path / "in.json", g)
        out = tmp_path / "out.json"
        code, summary = run_cli(
            capsys,
            "adapt", "--graph", src, "--debridge", "--out", str(out),
        )
        assert code == 0
        adapted = GeometricGraph.from_json(out.read_text())
        assert adapted.bridges == ()
        assert summary["bridges"] == 0

    def test_irreducible_bridge_exits_1(self, tmp_path, capsys):
        g = GeometricGraph(
            positions=((0.2, 0.2), (0.6, 0.6)), edges=((0, 1),), r_tr=1.0
        )
        src = write_graph(tmp_path / "in.json", g)
        code, summary = run_cli(
            capsys,
            "adapt", "--graph", src, "--debridge", "--out", str(tmp_path / "o.json"),
        )
        assert code == 1
        assert summary["error"] == "IrreducibleBridgeError"


class TestPartition:
    def test_k3_feasible(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        report = tmp_path / "r.json"
        code, summary = run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "feasible",
            "--out", str(report),
        )
        assert code == 0
        assert summary["status"] == "optimal"
        assert summary["miss_cov"] == 0 and summary["inc_nodes"] == 0

    def test_star_maximal_objective_one(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", star_graph(4))
        code, summary = run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "maximal",
        )
        assert code == 0
        assert summary["objective_value"] == 1.0

    def test_infeasible_exits_1(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", star_graph(4))
        code, summary = run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "feasible",
        )
        assert code == 1
        assert summary["status"] == "infeasible"

    def test_k_above_n_is_usage_error(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "partition", "--graph", src, "--n", "3",
                    "--objective", "feasible", "--k", "5",
                ]
            )
        assert exc.value.code == 2

    def test_cost_portfolio_solve(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        code, summary = run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "maximal",
            "--costs", "0.5,0.5,1.0",
        )
        assert code == 0
        assert summary["status"] == "optimal"


class TestCheck:
    def _partition_report(self, tmp_path, capsys, g):
        src = write_graph(tmp_path / "g.json", g)
        report = tmp_path / "r.json"
        run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "optimal",
            "--out", str(report),
        )
        return src, report

    def test_valid_report_passes(self, tmp_path, capsys):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 0
        assert summary["valid"] is True

    def test_tampered_metrics_detected(self, tmp_path, capsys):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["errors"]["miss_cov"] += 1
        report.write_text(json.dumps(doc))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 1
        assert any("miss_cov" in p for p in summary["problems"])

    def test_tampered_assignment_detected(self, tmp_path, capsys):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["assignment"]["0"] = doc["assignment"]["1"]
        report.write_text(json.dumps(doc))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 1


class TestExportLp:
    def test_file_written_and_stable(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        out1, out2 = tmp_path / "a.lp", tmp_path / "b.lp"
        run_cli(
            capsys,
            "export-lp", "--graph", src, "--n", "2", "--objective", "optimal",
            "--out", str(out1),
        )
        run_cli(
            capsys,
            "export-lp", "--graph", src, "--n", "2", "--objective", "optimal",
            "--out", str(out2),
        )
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("Maximize")


class TestExperiment:
    def test_desk_config_produces_records(self, tmp_path, capsys):
        config = {
            "rows": [
                {"n_nodes": 20, "deg_exp": 4},
                {"n_nodes": 20, "deg_exp": 5},
            ],
            "graphs_per_row": 2,
            "partition_sizes": [3],
            "objectives": ["optimal", "maximal"],
            "time_limit": 30,
            "seed": 2,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        code, summary = run_cli(
            capsys,
            "experiment", "--config", str(cfg), "--out-dir", str(out_dir),
        )
        assert code == 0
        assert summary["records"] == 2 * 2 * 1 * 2
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "agg_median_time.csv").exists()

    def test_empty_rows_is_usage_error(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"rows": []}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2

    def test_explicit_lambda_rows_accepted(self, tmp_path, capsys):
        config = {
            "rows": [
                {"n_nodes": 15, "deg_exp": 4, "lambda": 0.12, "r_tr": 0.30}
            ],
            "graphs_per_row": 1,
            "partition_sizes": [3],
            "objectives": ["optimal"],
            "time_limit": 20,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, summary = run_cli(
            capsys,
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
        )
        assert code == 0
        assert summary["records"] == 1


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--nodes", "5"])
        assert exc.value.code == 2
