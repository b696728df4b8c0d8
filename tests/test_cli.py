import csv
import json
import math

import pytest

from udgpart import cli, ilp, metrics
from udgpart.cli import main
from udgpart.graphs import GeometricGraph

from test_graphs import complete_graph, path_graph, star_graph


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

    @pytest.mark.parametrize("flags", [["--thin-to", "5"], ["--thin-to", "1", "--exponent", "nan"]])
    def test_bad_thinning_is_usage_error(self, tmp_path, flags):
        src = write_graph(tmp_path / "in.json", star_graph(5))
        with pytest.raises(SystemExit) as exc:
            main(["adapt", "--graph", src, *flags, "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2


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

    @pytest.mark.parametrize(
        "objective, flags, kind, capacity",
        [
            ("feasible", ("--costs", "0.5,0.5,1.0"), "feasibility", "cost"),
            ("maximal", ("--k", "2"), "maximal-soft", "fixed-k"),
        ],
    )
    def test_capacity_variants_solve(
        self, tmp_path, capsys, objective, flags, kind, capacity
    ):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        report = tmp_path / "r.json"
        code, summary = run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", objective,
            *flags, "--out", str(report),
        )
        assert (code, summary["status"]) == (0, "optimal")
        doc = json.loads(report.read_text())
        assert (doc["kind"], doc["capacity"]["mode"]) == (kind, capacity)
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert (code, summary["valid"]) == (0, True)


class TestSeedSearch:
    def test_found_row_is_written_as_csv(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code, summary = run_cli(
            capsys,
            "seed-search", "--nodes", "20", "--deg", "4", "--seed", "9",
            "--samples", "5", "--max-probes", "30", "--out", str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            [row] = csv.DictReader(fh)
        assert (int(row["n_nodes"]), float(row["deg_exp"])) == (20, 4.0)
        assert tuple(float(row[c]) for c in ("lambda", "r_tr", "mean_coverage")) == (
            summary["lambda"], summary["r_tr"], summary["mean_coverage"]
        )

    def test_exhausted_probes_exit_1_with_the_best_probe(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code, summary = run_cli(
            capsys,
            "seed-search", "--nodes", "20", "--deg", "4", "--seed", "9",
            "--samples", "5", "--max-probes", "1", "--out", str(out),
        )
        assert code == 1
        assert summary["error"] == "search-failed"
        assert len(summary["best_probe"]) == 4
        assert not out.exists()


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

    @pytest.mark.parametrize("n", [None, "three", 2.5, True, 0])
    def test_report_without_integer_n_is_usage_error(self, tmp_path, capsys, n):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        if n is None:
            del doc["n"]
        else:
            doc["n"] = n
        report.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", src, "--report", str(report)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("kind", [None, "bogus", "Optimal-Soft", ["optimal-soft"]])
    def test_report_naming_no_program_is_usage_error(self, tmp_path, capsys, kind):
        # an objective above |V|·n = 9 that only the program's rule catches
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["objective_value"] = doc["best_bound"] = 10.0
        if kind is None:
            del doc["kind"]
        else:
            doc["kind"] = kind
        report.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", src, "--report", str(report)])
        assert exc.value.code == 2

    def test_tampered_assignment_detected(self, tmp_path, capsys):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["assignment"]["0"] = doc["assignment"]["1"]
        report.write_text(json.dumps(doc))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 1

    @pytest.mark.parametrize(
        "capacity",
        [
            {"mode": "cost"},
            {"mode": "cost", "costs": [0.5, 0.5]},
            None,
            {"mode": "all-of-them"},
            {"mode": "fixed-k", "k": "1"},
            {"mode": "cost", "costs": [10**400, 0.5, 0.5]},
            {"mode": "cost", "costs": ["0.5", "0.5", "1"]},
            {"mode": "cost", "costs": [0.5, 0.5, True]},
            {"mode": "cost", "costs": "111"},
        ],
        ids=[
            "cost-without-costs", "too-few-costs", "null", "unknown-mode", "string-k",
            "cost-past-float", "string-costs", "bool-cost", "costs-as-a-string",
        ],
    )
    def test_malformed_capacity_is_usage_error(self, tmp_path, capsys, capacity):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["capacity"] = capacity
        if capacity == {"mode": "all-of-them"}:
            doc["assignment"] = {str(v): [1, 2, 3] for v in range(3)}
        report.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", src, "--report", str(report)])
        assert exc.value.code == 2

    def test_large_cost_report_is_checked_without_the_domain(
        self, tmp_path, capsys, monkeypatch
    ):
        # n=40 unit costs span 2^40 candidate subsets; check tests each
        # node's means against the capacity rule instead of enumerating them
        def enumerate_domain(*args, **kwargs):
            raise AssertionError("check enumerated the portfolio domain")

        monkeypatch.setattr(ilp, "portfolio_domain", enumerate_domain)
        monkeypatch.setattr(cli, "portfolio_domain", enumerate_domain, raising=False)
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        costs = [0.5, 0.5, 1.0, 0.3, 0.3] + [0.9] * 35
        report = tmp_path / "r.json"
        report.write_text(json.dumps({
            "n": 40,
            "kind": "maximal-soft",
            "capacity": {"mode": "cost", "costs": costs},
            "objective_value": 0.0,
            "assignment": {"0": [1, 2], "1": [3], "2": [4, 5]},
            "errors": {"miss_cov": 3 * 35, "inc_nodes": 3},
        }))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 1
        assert summary["problems"] == ["rows broken: 1 (assign_2)"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("assignment", [[1], [2], [3]]),
            ("assignment", {"0": ["1"], "1": ["2"], "2": ["3"]}),
            ("assignment", {"0": 1, "1": 2, "2": 3}),
            ("errors", [1]),
        ],
        ids=["assignment-list", "string-means", "bare-integer-means", "errors-list"],
    )
    def test_malformed_assignment_or_errors_is_usage_error(
        self, tmp_path, capsys, field, value
    ):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc[field] = value
        report.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", src, "--report", str(report)])
        assert exc.value.code == 2

    def test_cost_portfolio_report_checks_valid(self, tmp_path, capsys):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        report = tmp_path / "r.json"
        run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "maximal",
            "--costs", "0.5,0.5,1.0", "--out", str(report),
        )
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 0
        assert summary == {"valid": True, "problems": []}

    def _path_report(self, tmp_path, capsys, kind, status, means, errors, objective):
        """Check a hand-made report on the path 0-1-2 with n = 3."""
        src = write_graph(tmp_path / "g.json", path_graph(3))
        report = tmp_path / "r.json"
        report.write_text(json.dumps({
            "status": status,
            "objective_value": objective,
            "kind": kind,
            "n": 3,
            "assignment": {str(v): [m] for v, m in enumerate(means)},
            "errors": dict(zip(("miss_cov", "inc_nodes"), errors)),
        }))
        return run_cli(capsys, "check", "--graph", src, "--report", str(report))

    def test_feasibility_assignment_must_cover_every_node(self, tmp_path, capsys):
        # every node on mean 1 with honest counts: 2 means missing at each node
        code, summary = self._path_report(
            tmp_path, capsys, "feasibility", "optimal", (1, 1, 1), (6, 3), 0.0
        )
        assert code == 1
        assert summary["problems"] == [
            "rows broken: 6 (cover_0_2, cover_0_3, cover_1_2, ...)"
        ]

    def test_objective_checked_whatever_the_status(self, tmp_path, capsys):
        # means 1/2/3 leave one mean missing at each end: miss_cov 2, and
        # |V|·n - miss_cov = 7 is the only objective that matches
        for status in ("optimal", "feasible-time-limit"):
            code, summary = self._path_report(
                tmp_path, capsys, "optimal-soft", status, (1, 2, 3), (2, 2), 7.0
            )
            assert (code, summary["valid"]) == (0, True)
            code, summary = self._path_report(
                tmp_path, capsys, "optimal-soft", status, (1, 2, 3), (2, 2), 99.0
            )
            assert code == 1
            assert summary["problems"] == ["objective_value 99.0 is not the program's 7.0"]
        # a feasibility program's objective is 0; the bound moves with the
        # claimed objective, so only the objective rule can catch it
        src = write_graph(tmp_path / "k3.json", complete_graph(3))
        report = tmp_path / "feasible.json"
        run_cli(
            capsys,
            "partition", "--graph", src, "--n", "3", "--objective", "feasible",
            "--out", str(report),
        )
        doc = json.loads(report.read_text())
        for status in ("optimal", "feasible-time-limit"):
            for objective in (5.0, -7.0):
                doc.update(status=status, objective_value=objective, best_bound=objective)
                report.write_text(json.dumps(doc))
                code, summary = run_cli(
                    capsys, "check", "--graph", src, "--report", str(report)
                )
                assert code == 1
                assert summary["problems"] == [
                    f"objective_value {objective} is not the program's 0.0"
                ]

    def test_maximal_objective_checked_against_inc_nodes(self, tmp_path, capsys):
        # means 1/2/3 leave both ends incomplete: inc_nodes 2, objective 1
        code, summary = self._path_report(
            tmp_path, capsys, "maximal-soft", "optimal", (1, 2, 3), (2, 2), 1.0
        )
        assert (code, summary["valid"]) == (0, True)
        code, summary = self._path_report(
            tmp_path, capsys, "maximal-soft", "optimal", (1, 2, 3), (2, 2), 2.0
        )
        assert code == 1
        assert summary["problems"] == ["objective_value 2.0 is not the program's 1.0"]

    def test_unreadable_report_is_usage_error(self, tmp_path):
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        report = tmp_path / "r.json"
        report.write_text("{not json")
        for path in (report, tmp_path / "missing.json"):
            with pytest.raises(SystemExit) as exc:
                main(["check", "--graph", src, "--report", str(path)])
            assert exc.value.code == 2

    @pytest.mark.parametrize("key", ["99", "abc", "01"])
    def test_assignment_naming_a_node_the_graph_lacks_is_rejected(
        self, tmp_path, capsys, key
    ):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["assignment"][key] = [1]
        report.write_text(json.dumps(doc))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 1
        assert summary["problems"] == [f"assignment names nodes the graph lacks: ['{key}']"]

    def test_bound_below_objective_is_rejected(self, tmp_path, capsys):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["status"], doc["best_bound"] = "feasible-time-limit", doc["objective_value"] - 1
        report.write_text(json.dumps(doc))
        code, summary = run_cli(capsys, "check", "--graph", src, "--report", str(report))
        assert code == 1
        assert summary["problems"] == ["best_bound 8.0 below objective_value 9.0"]

    def test_optimal_must_meet_its_bound(self, tmp_path, capsys):
        # a bound above the objective is what a cut solve reports, not a proof
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["best_bound"] = doc["objective_value"] + 1
        for status, problems in (
            ("feasible-time-limit", []),
            ("optimal", ["optimal with best_bound 10.0 != objective_value 9.0"]),
        ):
            doc["status"] = status
            report.write_text(json.dumps(doc))
            code, summary = run_cli(
                capsys, "check", "--graph", src, "--report", str(report)
            )
            assert (code, summary["problems"]) == (int(bool(problems)), problems)

    # json.dumps writes the floats below as the raw text NaN, Infinity and
    # -Infinity, which Python's json reads but JSON does not allow
    @pytest.mark.parametrize("bound", ["9", True, [9], math.nan, math.inf, -math.inf])
    def test_bound_that_is_not_a_number_is_usage_error(self, tmp_path, capsys, bound):
        src, report = self._partition_report(tmp_path, capsys, complete_graph(3))
        doc = json.loads(report.read_text())
        doc["best_bound"] = bound
        report.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", src, "--report", str(report)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("objective", [math.nan, math.inf, -math.inf])
    def test_objective_that_is_not_finite_is_usage_error(self, tmp_path, objective):
        # best_bound dropped: no bound rule can catch the objective
        src = write_graph(tmp_path / "g.json", path_graph(3))
        report = tmp_path / "r.json"
        report.write_text(json.dumps({
            "kind": "optimal-soft", "n": 3, "objective_value": objective,
            "assignment": {"0": [1], "1": [2], "2": [3]},
            "errors": {"miss_cov": 2, "inc_nodes": 2},
        }))
        with pytest.raises(SystemExit) as exc:
            main(["check", "--graph", src, "--report", str(report)])
        assert exc.value.code == 2

    def test_empty_graph_is_usage_error(self, tmp_path):
        # no program has no nodes, as partition already says
        src = tmp_path / "empty.json"
        src.write_text(json.dumps({"lambda": 0.1, "r_tr": 0.5, "nodes": [], "edges": []}))
        report = tmp_path / "r.json"
        report.write_text(json.dumps({
            "kind": "optimal-soft", "n": 3, "objective_value": 0.0, "assignment": {},
            "errors": {"miss_cov": 0, "inc_nodes": 0},
        }))
        for command in (
            ["check", "--report", str(report)],
            ["partition", "--n", "3", "--objective", "optimal"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--graph", str(src)])
            assert exc.value.code == 2


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

    def test_threads_flag_overrides_the_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"rows": [{"n_nodes": 20, "deg_exp": 4}], "threads": 1}))
        seen = []

        def run_experiment(config, out_dir):
            seen.append(config.threads)
            return []

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        code, summary = run_cli(
            capsys,
            "experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
            "--threads", "3",
        )
        assert (code, summary["records"], seen) == (1, 0, [3])

    @pytest.mark.parametrize(
        "config",
        [
            [1],
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "partition_sizes": 3},
            {"rows": [{"deg_exp": 4, "lambda": 0.12, "r_tr": 0.30}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "partition_sizes": [0]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "partition_sizes": ["3"]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "partition_sizes": [3.5]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "partition_sizes": [True]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "partition_sizes": []},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "objectives": []},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "max_attempts": 0},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "seed": -1},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "graphs_per_row": math.inf},
            {"rows": [{"n_nodes": math.inf, "deg_exp": 4}]},
            {"rows": [{"n_nodes": 0, "deg_exp": 4, "lambda": 0.1, "r_tr": 0.3}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4, "lambda": 0.3, "r_tr": 0.2}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4, "lambda": 0.1, "r_tr": math.inf}]},
            {"rows": [{"n_nodes": 20, "deg_exp": -1, "lambda": 0.1, "r_tr": 0.3}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "time_limit": math.nan},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "time_limit": math.inf},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "time_limit": 0},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "threads": 0},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "graphs_per_row": 1.7},
            {"rows": [{"n_nodes": 20.9, "deg_exp": 4}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "graphs_per_row": True},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "seed": "3"},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "max_attempts": 2.5},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "threads": "1"},
            {"rows": [{"n_nodes": 20, "deg_exp": "4"}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4, "lambda": "0.1", "r_tr": 0.3}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4, "lambda": 0.1, "r_tr": True}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4}], "time_limit": "20"},
            {"rows": [{"n_nodes": 20, "deg_exp": 4, "lambda": 0.05}]},
            {"rows": [{"n_nodes": 20, "deg_exp": 4, "r_tr": 0.3}]},
        ],
        ids=[
            "non-object", "scalar-partition-sizes", "lambda-row-without-n_nodes",
            "zero-partition-size", "string-partition-size", "fractional-partition-size",
            "boolean-partition-size", "empty-partition-sizes", "empty-objectives",
            "zero-max-attempts", "negative-seed", "infinite-graphs-per-row",
            "infinite-n_nodes", "zero-node-row", "lambda-above-r_tr", "infinite-r_tr",
            "negative-deg_exp", "nan-time-limit", "infinite-time-limit", "zero-time-limit",
            "zero-threads", "fractional-graphs-per-row", "fractional-n_nodes",
            "boolean-graphs-per-row", "string-seed", "fractional-max-attempts",
            "string-threads", "string-deg_exp", "string-lambda", "boolean-r_tr",
            "string-time-limit", "lambda-without-r_tr", "r_tr-without-lambda",
        ],
    )
    def test_malformed_config_is_usage_error(self, tmp_path, config, monkeypatch):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        # rejected before any graph is generated
        monkeypatch.setattr(cli, "run_experiment", None)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2


class TestGraphLoading:
    @pytest.mark.parametrize(
        "change",
        [
            {"nodes": [[0.1, 0.2], [1.5, 0.2]]},
            {"nodes": [[0.1, 0.2], [0.3, -0.1]]},
            {"nodes": [[0.1, 0.2], [0.3]]},
            {"nodes": [[0.1, 0.2], [0.3, 0.4, 0.5]]},
            {"nodes": [[0.1, 0.2], 0.3]},
            {"nodes": [[0.1, 0.2], [None, 0.4]]},
            {"edges": [[0]]},
            {"edges": [1]},
            {"r_tr": None},
            {"edges": [[0, math.inf]]},
            {"r_tr": math.inf},
            {"r_tr": math.nan},
            {"r_tr": -3},
            {"edges": [[0, 1.9]]},
            {"edges": [[False, 1]]},
            {"r_tr": True},
            {"nodes": [[0.1, 0.2], [False, 0.1]]},
            {"nodes": [[0.1, 0.2], ["0.3", 0.4]]},
            {"r_tr": "0.3"},
            {"lambda": "0.3"},
            {"edges": [[0, 1, "joined", "junk", 7]]},
        ],
        ids=[
            "x-outside", "y-outside", "one-coordinate", "three-coordinates",
            "bare-number-node", "null-coordinate", "one-field-edge", "bare-number-edge",
            "null-r_tr", "infinite-endpoint", "infinite-r_tr", "nan-r_tr",
            "negative-r_tr", "fractional-endpoint", "boolean-endpoint", "boolean-r_tr",
            "boolean-coordinate", "string-coordinate", "string-r_tr", "string-lambda",
            "extra-edge-fields",
        ],
    )
    def test_malformed_graph_is_usage_error(self, tmp_path, capsys, change):
        doc = {"lambda": 0.0, "r_tr": 0.5, "nodes": [[0.1, 0.2], [0.3, 0.4]], "edges": [[0, 1]]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps({**doc, **change}))
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--graph", str(path), "--n", "2", "--objective", "optimal"])
        assert exc.value.code == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--nodes", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--nodes", "0", "--lambda", "0.1", "--rtr", "0.3"],
            ["generate", "--nodes", "5", "--lambda", "0.1", "--rtr", "0.3", "--grid", "1"],
            ["generate", "--nodes", "5", "--lambda", "-0.1", "--rtr", "0.3"],
            ["generate", "--nodes", "5", "--lambda", "0.1", "--rtr", "inf"],
            ["generate", "--nodes", "5", "--lambda", "1e-200", "--rtr", "0.3"],
            ["generate", "--nodes", "5", "--lambda", "0.1", "--rtr", "0.3", "--seed", "-1"],
            [
                "generate", "--nodes", "5", "--lambda", "0.1", "--rtr", "0.3",
                "--require-connected", "--max-attempts", "0",
            ],
            ["seed-search", "--nodes", "20", "--deg", "4", "--samples", "0"],
            [
                "seed-search", "--nodes", "20", "--deg", "4",
                "--coverage-lo", "0.9", "--coverage-hi", "0.8",
            ],
            ["seed-search", "--nodes", "20", "--deg", "4", "--grid", "1"],
            ["seed-search", "--nodes", "0", "--deg", "4"],
            ["seed-search", "--nodes", "20", "--deg", "4", "--max-probes", "0"],
            ["seed-search", "--nodes", "20", "--deg", "4", "--seed", "-1"],
            ["partition", "--time-limit", "0"],
            ["partition", "--time-limit", "-1"],
            ["partition", "--time-limit", "nan"],
            ["partition", "--time-limit", "inf"],
            ["partition", "--k", "2", "--costs", "0.5,0.5,1.0"],
            ["partition", "--costs", "0.5,half,1.0"],
        ],
        ids=[
            "generate-zero-nodes", "generate-grid-1", "generate-negative-lambda",
            "generate-infinite-rtr", "generate-underflowing-lambda", "generate-negative-seed",
            "generate-zero-max-attempts", "seed-search-zero-samples",
            "seed-search-inverted-coverage-band", "seed-search-grid-1",
            "seed-search-zero-nodes", "seed-search-zero-max-probes",
            "seed-search-negative-seed",
            "partition-zero-time-limit", "partition-negative-time-limit",
            "partition-nan-time-limit", "partition-infinite-time-limit",
            "partition-k-and-costs", "partition-bad-costs",
        ],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, argv, capsys):
        if argv[0] == "partition":
            argv = argv + [
                "--graph", write_graph(tmp_path / "g.json", complete_graph(3)),
                "--n", "3", "--objective", "optimal",
            ]
        elif argv[0] == "generate":
            argv = argv + ["--out", str(tmp_path / "out.json")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--nodes", "5", "--lambda", "0.1", "--rtr", "0.3"],
            [
                "seed-search", "--nodes", "20", "--deg", "4", "--seed", "9",
                "--samples", "5", "--max-probes", "30",
            ],
            ["adapt", "--graph", "GRAPH"],
            ["partition", "--graph", "GRAPH", "--n", "3", "--objective", "optimal"],
            ["export-lp", "--graph", "GRAPH", "--n", "3", "--objective", "optimal"],
        ],
        ids=["generate", "seed-search", "adapt", "partition", "export-lp"],
    )
    def test_out_that_cannot_be_written_is_usage_error(
        self, tmp_path, argv, capsys, monkeypatch
    ):
        def no_solve(*args):
            raise AssertionError("solved before --out was checked")

        monkeypatch.setattr(cli, "solve", no_solve)
        src = write_graph(tmp_path / "g.json", complete_graph(3))
        out = tmp_path / "missing" / "out"
        argv = [src if a == "GRAPH" else a for a in argv] + ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_out_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_graph(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr(metrics, "prepare_graph", no_graph)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"rows": [{"n_nodes": 20, "deg_exp": 4}]}))
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", str(cfg), "--out-dir", str(cfg)])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "graph, flags",
        [
            ("star", ["--thin-to", "nan"]),
            ("readme", ["--thin-to", "3.5", "--exponent", "-1000"]),
            ("coincident", ["--thin-to", "1.5", "--exponent", "-2"]),
        ],
        ids=["adapt-nan-thin-to", "adapt-overflowing-weights", "adapt-zero-length-weights"],
    )
    def test_thinning_it_cannot_use_is_usage_error(self, tmp_path, capsys, graph, flags):
        src = tmp_path / "g.json"
        if graph == "star":
            write_graph(src, star_graph(5))
        elif graph == "readme":
            # the CLI walkthrough's graph: lengths down to lambda = 0.143, so
            # length**-1000 overflows
            main([
                "generate", "--nodes", "40", "--lambda", "0.143372", "--rtr", "0.235803",
                "--seed", "7", "--require-connected", "--out", str(src),
            ])
            capsys.readouterr()
        else:
            # the loader does not re-check lambda: nodes 0 and 1 coincide, so
            # 0.0**-2 divides by zero
            src.write_text(json.dumps({
                "lambda": 0.0, "r_tr": 1.0,
                "nodes": [[0.2, 0.2], [0.2, 0.2], [0.5, 0.5]],
                "edges": [[0, 1], [0, 2], [1, 2]],
            }))
        with pytest.raises(SystemExit) as exc:
            main(["adapt", "--graph", str(src), *flags, "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "o.json").exists()
