import csv
import io

import pytest

from udgpart.seeds import (
    COVERAGE_SEEDS,
    CSV_FIELDS,
    DEGREE_SEEDS,
    SeedTableRow,
    coverage_seed,
    degree_seed,
    rows_to_csv,
)


class TestDegreeSeeds:
    def test_full_grid_of_rows(self):
        assert len(DEGREE_SEEDS) == 60
        counts = sorted({r.node_count for r in DEGREE_SEEDS})
        assert counts == list(range(20, 320, 20))
        assert {r.deg_exp for r in DEGREE_SEEDS} == {3, 4, 5, 6}

    def test_lambda_shared_within_node_count(self):
        by_count = {}
        for r in DEGREE_SEEDS:
            by_count.setdefault(r.node_count, set()).add(r.lam)
        assert all(len(lams) == 1 for lams in by_count.values())

    def test_lookup(self):
        row = degree_seed(20, 4)
        assert (row.lam, row.r_tr) == (0.210938, 0.363867)
        assert row.p_connected == 1.0
        with pytest.raises(KeyError):
            degree_seed(25, 4)

    def test_rows_are_generator_compatible(self):
        for r in DEGREE_SEEDS:
            assert 0.0 < r.lam < r.r_tr < 1.0
            assert 0.7 <= r.mean_coverage <= 0.8


class TestCoverageSeeds:
    def test_bucket_grid(self):
        assert len(COVERAGE_SEEDS) == 32
        assert {r.node_count for r in COVERAGE_SEEDS} == {100, 200}
        assert {r.deg_exp for r in COVERAGE_SEEDS} == {4, 5}

    def test_lookup(self):
        row = coverage_seed(100, 5, 0.45)
        assert (row.lam, row.r_tr) == (0.0732, 0.150)
        with pytest.raises(KeyError):
            coverage_seed(100, 5, 0.47)

    def test_lambda_grows_with_bucket(self):
        for nv in (100, 200):
            for deg in (4, 5):
                lams = [
                    r.lam
                    for r in COVERAGE_SEEDS
                    if r.node_count == nv and r.deg_exp == deg
                ]
                assert lams == sorted(lams)


class TestCsv:
    def test_round_trip(self):
        text = rows_to_csv(DEGREE_SEEDS[:5])
        back = tuple(
            SeedTableRow(
                **{
                    attr: (int if attr == "node_count" else float)(rec[column])
                    for column, attr in CSV_FIELDS
                }
            )
            for rec in csv.DictReader(io.StringIO(text))
        )
        assert back == DEGREE_SEEDS[:5]

    def test_header(self):
        text = rows_to_csv(DEGREE_SEEDS[:1])
        assert text.splitlines()[0] == (
            "n_nodes,deg_exp,lambda,r_tr,mean_coverage,mean_avg_degree,p_connected"
        )
