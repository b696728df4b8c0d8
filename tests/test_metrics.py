import csv
import hashlib
import io
import os
import random
from dataclasses import replace

import pytest

from udgpart import metrics
from udgpart.ilp import PartitionAssignment, build_maximal_soft, build_optimal_soft
from udgpart.metrics import (
    RESULT_COLUMNS,
    ExperimentConfig,
    ResultRecord,
    coverage_errors,
    read_results_csv,
    run_experiment,
    write_aggregates,
)
from udgpart.seeds import SeedTableRow, degree_seed
from udgpart.solver import SolveLimits, solve

from test_graphs import complete_graph, graph_from_edges, star_graph


class TestCoverageErrors:
    def test_overlap_deficit_pattern(self):
        # isolated same-mean pair (2 missing each), triangle with all three
        # means (fully covered), and a 2-3 pair missing one mean each:
        # four incomplete nodes, six missing coverages in total
        g = graph_from_edges(
            7, [(0, 1), (2, 3), (2, 4), (3, 4), (5, 6)]
        )
        a = PartitionAssignment.from_labels([1, 1, 1, 2, 3, 2, 3], 3)
        errors = coverage_errors(g, a, 3)
        assert errors.miss_cov == 6
        assert errors.inc_nodes == 4
        assert errors.per_node_missing == {0: 2, 1: 2, 5: 1, 6: 1}

    def test_complete_graph_with_distinct_means(self):
        errors = coverage_errors(
            complete_graph(3), PartitionAssignment.from_labels([1, 2, 3], 3), 3
        )
        assert (errors.miss_cov, errors.inc_nodes) == (0, 0)

    def test_single_node_sees_only_itself(self):
        g = graph_from_edges(1, [])
        errors = coverage_errors(g, PartitionAssignment.from_labels([1], 3), 3)
        assert (errors.miss_cov, errors.inc_nodes) == (2, 1)

    def test_multi_mean_nodes_contribute_every_mean(self):
        g = graph_from_edges(2, [(0, 1)])
        a = PartitionAssignment((frozenset((1, 2)), frozenset((3,))), 3)
        errors = coverage_errors(g, a, 3)
        assert (errors.miss_cov, errors.inc_nodes) == (0, 0)

    def test_rejects_out_of_range_assignment(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            coverage_errors(g, PartitionAssignment.from_labels([1, 2, 4], 4), 3)

    def test_rejects_partial_assignment(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            coverage_errors(g, PartitionAssignment.from_labels([1, 2], 3), 3)


class TestErrorBounds:
    """n means on |V| nodes leave at most |V| nodes incomplete and
    (n - 1)·|V| coverages missing."""

    def test_formula(self):
        # an isolated node sees its own mean only, so it misses the other n - 1
        g = graph_from_edges(10, [])
        errors = coverage_errors(g, PartitionAssignment.from_labels([1] * 10, 4), 4)
        assert (errors.inc_nodes, errors.miss_cov) == (10, 3 * 10)

    def test_single_mean_never_misses(self):
        g = graph_from_edges(10, [])
        errors = coverage_errors(g, PartitionAssignment.from_labels([1] * 10, 1), 1)
        assert (errors.inc_nodes, errors.miss_cov) == (0, 0)

    def test_all_same_mean_realises_bound(self):
        g = graph_from_edges(5, [(i, i + 1) for i in range(4)])
        errors = coverage_errors(g, PartitionAssignment.from_labels([1] * 5, 3), 3)
        max_inc, max_miss = g.node_count, (3 - 1) * g.node_count
        assert errors.inc_nodes == max_inc == 5
        assert errors.miss_cov == max_miss == 10

    def test_bounds_chain_on_fuzzed_assignments(self):
        rng = random.Random(77)
        for _ in range(200):
            nv = rng.randint(1, 12)
            n = rng.randint(2, 5)
            edges = {
                (u, v)
                for u in range(nv)
                for v in range(u + 1, nv)
                if rng.random() < 0.3
            }
            g = graph_from_edges(nv, edges)
            a = PartitionAssignment.from_labels(
                [rng.randint(1, n) for _ in range(nv)], n
            )
            e = coverage_errors(g, a, n)
            max_inc, max_miss = g.node_count, (n - 1) * g.node_count
            assert 0 <= e.inc_nodes <= max_inc
            assert e.inc_nodes <= e.miss_cov <= (n - 1) * e.inc_nodes <= max_miss


class TestObjectiveIdentities:
    def test_miss_cov_identity_at_optimality(self):
        for trial in range(6):
            rng = random.Random(trial)
            nv = rng.randint(4, 9)
            edges = {
                (u, v)
                for u in range(nv)
                for v in range(u + 1, nv)
                if rng.random() < 0.5
            }
            g = graph_from_edges(nv, edges)
            m = build_optimal_soft(g, 3)
            r = solve(m)
            assert r.status == "optimal"
            e = coverage_errors(g, r.assignment, 3)
            assert nv * 3 - r.objective == e.miss_cov

    def test_inc_nodes_identity_at_optimality(self):
        for trial in range(6):
            rng = random.Random(100 + trial)
            nv = rng.randint(4, 9)
            edges = {
                (u, v)
                for u in range(nv)
                for v in range(u + 1, nv)
                if rng.random() < 0.5
            }
            g = graph_from_edges(nv, edges)
            m = build_maximal_soft(g, 3)
            r = solve(m)
            assert r.status == "optimal"
            e = coverage_errors(g, r.assignment, 3)
            assert nv - r.objective == e.inc_nodes

    def test_star_objectives_bound_each_other(self):
        g = star_graph(4)
        opt = solve(build_optimal_soft(g, 3))
        mx = solve(build_maximal_soft(g, 3))
        e_opt = coverage_errors(g, opt.assignment, 3)
        e_max = coverage_errors(g, mx.assignment, 3)
        assert e_max.inc_nodes <= e_opt.inc_nodes
        assert e_opt.miss_cov <= e_max.miss_cov


AGGREGATE_FILES = (
    "agg_median_time.csv",
    "agg_mean_inc_nodes.csv",
    "agg_opt_split.csv",
    "agg_relative.csv",
)


def desk_config(tmp_path=None, **kw):
    rows = (degree_seed(20, 4), degree_seed(40, 4))
    defaults = dict(
        seed_rows=rows,
        graphs_per_row=5,
        partition_sizes=(3,),
        objectives=("optimal", "maximal"),
        limits=SolveLimits(time_limit=30),
        rng_seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperiment:
    def test_record_count_desk_scale(self, tmp_path):
        records = run_experiment(desk_config(), out_dir=str(tmp_path))
        assert len(records) == 2 * 5 * 1 * 2
        assert all(r.status == "optimal" for r in records)

    def test_csv_round_trip_reproduces_aggregates(self, tmp_path):
        batch, again = tmp_path / "batch", tmp_path / "again"
        run_experiment(desk_config(), out_dir=str(batch))
        again.mkdir()
        write_aggregates(read_results_csv(batch / "results.csv"), str(again))
        for name in AGGREGATE_FILES:
            assert (again / name).read_bytes() == (batch / name).read_bytes(), name

    def test_aggregate_files_written(self, tmp_path):
        run_experiment(desk_config(), out_dir=str(tmp_path))
        for name in ("results.csv",) + AGGREGATE_FILES:
            assert (tmp_path / name).exists()

    def test_metrics_recomputed_not_copied(self, tmp_path):
        records = run_experiment(desk_config(), out_dir=str(tmp_path))
        for r in records:
            if r.status != "optimal":
                continue
            if r.objective == "optimal":
                assert r.n_nodes * r.n - r.objective_value == r.miss_cov
            else:
                assert r.n_nodes - r.objective_value == r.inc_nodes

    def test_dominance_between_objectives_at_optimality(self, tmp_path):
        records = run_experiment(desk_config(), out_dir=str(tmp_path))
        by_instance = {}
        for r in records:
            by_instance.setdefault((r.graph_id, r.n), {})[r.objective] = r
        compared = 0
        for pair in by_instance.values():
            if {"optimal", "maximal"} <= set(pair) and all(
                p.status == "optimal" for p in pair.values()
            ):
                assert pair["maximal"].inc_nodes <= pair["optimal"].inc_nodes
                assert pair["optimal"].miss_cov <= pair["maximal"].miss_cov
                compared += 1
        assert compared == 10

    def test_sg2_variant_runs_bridge_free(self):
        config = desk_config(
            seed_rows=(degree_seed(20, 4),),
            graphs_per_row=3,
            variant="SG2",
        )
        records = run_experiment(config)
        assert len(records) == 3 * 2
        assert all(r.status == "optimal" for r in records)

    def test_relative_means_have_expected_sign(self, tmp_path):
        run_experiment(desk_config(), out_dir=str(tmp_path))
        with open(tmp_path / "agg_relative.csv", newline="") as fh:
            (rel,) = csv.DictReader(fh)
        assert int(rel["instances"]) == 10
        assert float(rel["p_miss_cov_percent"]) >= 0.0
        assert float(rel["p_inc_nodes_percent"]) >= 0.0

    def test_unreachable_row_becomes_skipped_record(self):
        impossible = SeedTableRow(
            node_count=6,
            deg_exp=3,
            lam=0.4,
            r_tr=0.41,
            mean_coverage=0.0,
            mean_avg_degree=0.0,
            p_connected=0.0,
        )
        config = ExperimentConfig(
            seed_rows=(impossible,),
            graphs_per_row=2,
            partition_sizes=(3,),
            limits=SolveLimits(time_limit=5),
            max_attempts=5,
        )
        records = run_experiment(config)
        assert len(records) == 2
        assert all(r.status == "skipped" for r in records)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(seed_rows=())
        with pytest.raises(ValueError):
            desk_config(variant="SG9")
        with pytest.raises(ValueError):
            desk_config(objectives=("optimal", "weird"))
        with pytest.raises(ValueError):
            desk_config(threads=0)
        for field, value in (
            ("graphs_per_row", 1.5),
            ("max_attempts", 2.5),
            ("rng_seed", 0.5),
            ("threads", True),
        ):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                desk_config(**{field: value})

    def test_parallel_matches_sequential(self, tmp_path):
        seq = run_experiment(desk_config(graphs_per_row=2))
        par = run_experiment(desk_config(graphs_per_row=2, threads=2))
        untimed = lambda records: [replace(r, wall_time_s=0.0) for r in records]
        assert untimed(par) == untimed(seq)

    # 8 cells: the worker count is the least of threads, cells and CPUs
    @pytest.mark.parametrize("cpus, workers", [(3, 3), (1000, 8)])
    def test_worker_count_is_bounded(self, monkeypatch, cpus, workers):
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        records = run_experiment(desk_config(graphs_per_row=2, threads=10**6))
        assert started == [workers]
        assert len(records) == 2 * 2 * 1 * 2

    def test_one_thread_reads_no_cpu_count(self, monkeypatch):
        def no_count():
            raise AssertionError("cpu_count read for a one-thread batch")

        monkeypatch.setattr(os, "cpu_count", no_count)
        assert len(run_experiment(desk_config(graphs_per_row=1))) == 2 * 1 * 1 * 2


def golden_records():
    """Fixed synthetic records covering every status and empty-cell case.

    Holds one ``skipped`` record, one time-limited record without an
    assignment, solved records of both statuses, integer and fractional
    expected degrees, and wall times that are not whole numbers.
    """
    rng = random.Random(4711)
    records = []
    for g_idx in range(12):
        variant = ("SG1", "SG2")[g_idx % 2]
        n_nodes, deg_exp = ((20, 4), (40, 5), (20, 4.5))[g_idx % 3]
        graph_id = f"{variant}-{n_nodes}-{deg_exp:g}-{g_idx:03d}"
        avg_degree = deg_exp - rng.random() / 4
        for n in (3, 4):
            for objective in ("optimal", "maximal"):
                worst = n_nodes * n if objective == "optimal" else n_nodes
                value = worst - rng.randrange(0, 4)
                optimal = rng.random() < 0.7
                bound = value if optimal else value + rng.randrange(1, 3)
                miss = n_nodes * n - value if objective == "optimal" else rng.randrange(0, 9)
                inc = n_nodes - value if objective == "maximal" else rng.randrange(0, 5)
                records.append(
                    ResultRecord(
                        graph_id=graph_id,
                        n_nodes=n_nodes,
                        deg_exp=deg_exp,
                        avg_degree=avg_degree,
                        variant=variant,
                        n=n,
                        objective=objective,
                        status="optimal" if optimal else "feasible-time-limit",
                        objective_value=float(value),
                        best_bound=float(bound),
                        wall_time_s=rng.uniform(0.0, 3.0),
                        miss_cov=miss,
                        inc_nodes=inc,
                    )
                )
    records.append(
        ResultRecord(
            graph_id="SG1-40-5-012", n_nodes=40, deg_exp=5, avg_degree=5.125,
            variant="SG1", n=4, objective="maximal", status="feasible-time-limit",
            objective_value=None, best_bound=40.0, wall_time_s=1.5,
            miss_cov=None, inc_nodes=None,
        )
    )
    records.append(
        ResultRecord(
            graph_id="SG2-20-4-013", n_nodes=20, deg_exp=4, avg_degree=0.0,
            variant="SG2", n=0, objective="", status="skipped",
            objective_value=None, best_bound=None, wall_time_s=0.0,
            miss_cov=None, inc_nodes=None,
        )
    )
    return records


# SHA-256 of each output file for golden_records(): results.csv and the
# aggregates are byte-stable, so a change here must change the format on purpose
GOLDEN_OUTPUT_SHA256 = {
    "results.csv": (
        "2f796ab1a286043ee38fda72f5cdb5b78c725ba3e531f203a6be56e236ad09b5"
    ),
    "agg_median_time.csv": (
        "cd6185508ba2d694133f5b149c66422bf0607973cafd09aa219bb8d317c49e09"
    ),
    "agg_mean_inc_nodes.csv": (
        "ab32983d9580eab81c5b7388231380681e98b3a1c632c28b9610c533b9ad8aa8"
    ),
    "agg_opt_split.csv": (
        "5be066f4456ab1120149b555dbc2dcc467d3dde2a07c1710762e2952be13f01a"
    ),
    "agg_relative.csv": (
        "127d3c80e48b39c08471da5c329a7e9efb04e6c5fa6a47bdb01f192811bb0158"
    ),
}


class TestGoldenOutputs:
    def _write(self, out_dir):
        records = golden_records()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(r.to_row() for r in records)
        (out_dir / "results.csv").write_text(buf.getvalue())
        write_aggregates(records, str(out_dir))
        return records

    def test_files_match_recorded_hashes(self, tmp_path):
        self._write(tmp_path)
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_OUTPUT_SHA256
        }
        assert digests == GOLDEN_OUTPUT_SHA256

    def test_results_csv_round_trips(self, tmp_path):
        records = self._write(tmp_path)
        assert read_results_csv(tmp_path / "results.csv") == records
