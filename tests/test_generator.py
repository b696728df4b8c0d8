import hashlib
import math

import numpy as np
import pytest

from udgpart.generator import (
    GeneratorParams,
    PlacementResult,
    SeedSearchError,
    SeedSearchTargets,
    UnreachableTargetError,
    generate_connected,
    place_nodes,
    seed_search,
)
from udgpart.graphs import build_udg
from udgpart.metrics import VARIANT_DEBRIDGE_THIN, VARIANT_THIN, prepare_graph
from udgpart.seeds import degree_seed


def params_for(row, seed, node_count=None):
    return GeneratorParams(
        node_count=node_count or row.node_count,
        lam=row.lam,
        r_tr=row.r_tr,
        rng_seed=seed,
    )


def full_placements(row, count, seed0):
    """Placements that fit the full node count, retrying jammed runs."""
    out = []
    seed = seed0
    while len(out) < count:
        seed += 1
        r = place_nodes(params_for(row, seed))
        if r.placed == row.node_count:
            out.append(r)
        assert seed - seed0 < 40 * count, "placement fit rate collapsed"
    return out


class TestParams:
    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            GeneratorParams(node_count=5, lam=0.5, r_tr=0.4)
        with pytest.raises(ValueError):
            GeneratorParams(node_count=5, lam=0.0, r_tr=0.4)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            GeneratorParams(node_count=0, lam=0.1, r_tr=0.2)
        with pytest.raises(ValueError):
            GeneratorParams(node_count=5, lam=0.1, r_tr=0.2, grid_resolution=1)


class TestPlaceNodes:
    def test_single_node_blocks_its_disc(self):
        p = GeneratorParams(node_count=1, lam=0.2, r_tr=0.3, rng_seed=3)
        r = place_nodes(p)
        assert r.placed == 1
        assert r.graph.edge_count == 0
        # frozen from an exhaustive per-cell count at this seed; close to the
        # analytic clipped disc area pi * 0.2^2 = 0.1257
        assert r.unavailable_fraction == pytest.approx(0.124594, abs=1e-9)
        assert r.coverage == 0.0

    def test_saturation_reports_short_placement(self):
        p = GeneratorParams(node_count=10, lam=0.75, r_tr=0.9, rng_seed=5)
        r = place_nodes(p)
        assert r.placed < 10
        assert r.unavailable_fraction == 1.0

    def test_lambda_precision_holds(self):
        for seed in range(5):
            p = GeneratorParams(node_count=30, lam=0.09, r_tr=0.2, rng_seed=seed)
            r = place_nodes(p)
            assert r.graph.min_pairwise_distance() >= 0.09

    def test_deterministic_and_byte_identical(self):
        p = GeneratorParams(node_count=25, lam=0.1, r_tr=0.2, rng_seed=99)
        a = place_nodes(p)
        b = place_nodes(p)
        assert a.graph.to_json() == b.graph.to_json()
        assert a.coverage == b.coverage

    def test_positions_are_grid_corners(self):
        p = GeneratorParams(node_count=8, lam=0.1, r_tr=0.25, rng_seed=4, grid_resolution=50)
        r = place_nodes(p)
        for x, y in r.graph.positions:
            assert (x * 50) == int(x * 50)
            assert (y * 50) == int(y * 50)

    def test_coverage_monotone_in_lambda(self):
        means = []
        for lam in (0.06, 0.10, 0.14):
            covs = [
                place_nodes(GeneratorParams(20, lam, 0.9, rng_seed=400 + i)).coverage
                for i in range(20)
            ]
            means.append(sum(covs) / len(covs))
        assert means[0] < means[1] < means[2]


def whole_grid_place_nodes(params, rng):
    """Reference sampler: rescans every grid cell before each draw.

    Kept only to pin ``place_nodes``, which must pick the same cells from the
    same RNG stream.
    """
    res = params.grid_resolution
    marks = np.zeros(res * res, dtype=np.uint8)
    cell_coord = np.arange(res) / res
    lam, lam2 = params.lam, params.lam * params.lam
    placed = []
    for _ in range(params.node_count):
        candidates = np.flatnonzero(marks == 0)
        if candidates.size == 0:
            break
        pick = int(candidates[rng.integers(candidates.size)])
        i, j = divmod(pick, res)
        x, y = i / res, j / res
        placed.append((x, y))
        ilo = max(0, int(math.floor((x - lam) * res)))
        ihi = min(res - 1, int(math.ceil((x + lam) * res)))
        jlo = max(0, int(math.floor((y - lam) * res)))
        jhi = min(res - 1, int(math.ceil((y + lam) * res)))
        dx2 = (cell_coord[ilo : ihi + 1] - x) ** 2
        dy2 = (cell_coord[jlo : jhi + 1] - y) ** 2
        inside = dx2[:, None] + dy2[None, :] < lam2
        block = marks[ilo * res : (ihi + 1) * res].reshape(-1, res)[:, jlo : jhi + 1]
        np.minimum(block + inside.astype(np.uint8), 2, out=block)
    return PlacementResult(
        graph=build_udg(placed, r_tr=params.r_tr, lam=params.lam),
        coverage=float(int((marks >= 2).sum()) / marks.size),
        unavailable_fraction=float(int((marks >= 1).sum()) / marks.size),
        placed=len(placed),
    )


REFERENCE_PARAMS = [
    GeneratorParams(node_count=20, lam=0.210938, r_tr=0.309375, rng_seed=3),
    GeneratorParams(node_count=100, lam=0.09, r_tr=0.15, rng_seed=8),  # jams
    GeneratorParams(node_count=10, lam=0.75, r_tr=0.9, rng_seed=5),  # jams
    GeneratorParams(node_count=40, lam=0.2, r_tr=0.3, rng_seed=2),  # jams
    GeneratorParams(node_count=12, lam=0.2, r_tr=0.35, grid_resolution=37, rng_seed=4),
    GeneratorParams(node_count=60, lam=0.11, r_tr=0.2, grid_resolution=200, rng_seed=6),
    GeneratorParams(node_count=5, lam=0.3, r_tr=0.5, grid_resolution=2, rng_seed=1),  # jams
]


class TestMatchesWholeGridSampler:
    @pytest.mark.parametrize("params", REFERENCE_PARAMS)
    def test_same_result_and_rng_state(self, params):
        rng_new = np.random.default_rng(params.rng_seed)
        rng_ref = np.random.default_rng(params.rng_seed)
        got = place_nodes(params, rng_new)
        want = whole_grid_place_nodes(params, rng_ref)
        assert got == want
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


# SHA-256 of prepare_graph(..., seed=7).to_json(), recorded with the
# whole-grid sampler; seed 7 is one where SG1 and SG2 differ at 300 nodes
PINNED_GRAPHS = {
    (20, 3, VARIANT_THIN): "d9f42e35423d19ac7d8ef16d4ccf0a7073c969fd63761ded3ae2f4941cd1d2ce",
    (20, 3, VARIANT_DEBRIDGE_THIN): "a8c826a641054e246b4438073e713edbd22741967059ecd186b28e63163e5a8d",
    (100, 4, VARIANT_THIN): "12058f348be8442246d60b8c723e821097045f597e063c67557ead56e50f899a",
    (100, 4, VARIANT_DEBRIDGE_THIN): "30ea6da2589666d2a2fdf649aa6a69b00635dd7b50fc683b42d02c37da1dfc9f",
    (300, 6, VARIANT_THIN): "7dcf191bda981ac9213bd8306a565ade001b7b830d4504e01ca1c035cc20a905",
    (300, 6, VARIANT_DEBRIDGE_THIN): "9762858341a7f332c3e9bd26735acae570d3859ab6c7d2b06d16b74346012191",
}


class TestPinnedPreparedGraphs:
    @pytest.mark.parametrize("key", sorted(PINNED_GRAPHS))
    def test_prepare_graph_hash(self, key):
        node_count, deg, variant = key
        g = prepare_graph(degree_seed(node_count, deg), variant, seed=7, max_attempts=100)
        assert hashlib.sha256(g.to_json().encode()).hexdigest() == PINNED_GRAPHS[key]


class TestSeedRowReproduction:
    def test_row_20_3_degree_and_connectivity(self):
        # bundled seed row: lam 0.210938, r_tr 0.309375, deg 3.057, p_conn 0.857
        row = degree_seed(20, 3)
        sample = full_placements(row, 20, seed0=9000)
        deg = sum(r.graph.avg_degree for r in sample) / len(sample)
        cov = sum(r.coverage for r in sample) / len(sample)
        conn = sum(r.graph.is_connected() for r in sample) / len(sample)
        assert deg == pytest.approx(3.057, abs=0.45)
        assert cov == pytest.approx(0.771, abs=0.05)
        assert conn >= 0.55


class TestGenerateConnected:
    def test_table_row_succeeds_quickly(self):
        row = degree_seed(20, 4)
        r = generate_connected(params_for(row, seed=11), max_attempts=30)
        assert r.placed == 20
        assert r.graph.is_connected()

    def test_single_node_succeeds_immediately(self):
        p = GeneratorParams(node_count=1, lam=0.1, r_tr=0.2, rng_seed=0)
        r = generate_connected(p, max_attempts=1)
        assert r.placed == 1

    def test_impossible_combination_errors_with_stats(self):
        # r_tr barely above lam: edges need distance in [0.4, 0.41], which
        # 100 Monte-Carlo runs never produced a connected graph from
        p = GeneratorParams(node_count=6, lam=0.4, r_tr=0.41, rng_seed=1)
        with pytest.raises(UnreachableTargetError) as exc:
            generate_connected(p, max_attempts=15)
        assert exc.value.attempts == 15
        assert exc.value.attempts == (
            exc.value.short_placements + exc.value.disconnected_placements
        )

    def test_max_attempts_validated(self):
        p = GeneratorParams(node_count=2, lam=0.1, r_tr=0.3, rng_seed=1)
        with pytest.raises(ValueError):
            generate_connected(p, max_attempts=0)


class TestSeedSearch:
    def test_band_values_validated(self):
        with pytest.raises(ValueError):
            SeedSearchTargets(node_count=5, deg_target=3.0, sample_size=0)

    def test_small_search_converges(self):
        targets = SeedSearchTargets(
            node_count=20,
            deg_target=4.0,
            sample_size=5,
            max_probes=30,
        )
        row = seed_search(targets, rng_seed=77)
        assert 0.75 <= row.mean_coverage <= 0.80
        assert 4.0 <= row.mean_avg_degree <= 4.25
        assert 0.0 < row.lam < row.r_tr

    def test_unreachable_coverage_band_fails_with_best_probe(self):
        # five lam-discs cannot doubly cover 99.9% of the square for any
        # lam < r_tr < 1 (coarse lam sweep peaks near 0.71)
        targets = SeedSearchTargets(
            node_count=5,
            deg_target=2.0,
            coverage_band=(0.999, 1.0),
            sample_size=5,
            max_probes=12,
        )
        with pytest.raises(SeedSearchError) as exc:
            seed_search(targets, rng_seed=5)
        assert exc.value.best_probe is not None
