import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from udgpart.graphs import GeometricGraph, build_udg


def graph_from_edges(n, edges, r_tr=1.0, positions=None):
    """Graph with synthetic positions; edge set given explicitly."""
    if positions is None:
        # spread on a circle so all coordinates are distinct and inside [0,1)
        positions = tuple(
            (0.5 + 0.4 * math.cos(2 * math.pi * k / max(n, 1)),
             0.5 + 0.4 * math.sin(2 * math.pi * k / max(n, 1)))
            for k in range(n)
        )
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    return GeometricGraph(positions=positions, edges=edges, r_tr=r_tr)


def without_edge(g, u, v):
    """``g`` with the edge {u, v} removed, every other edge keeping its tag."""
    e = (min(u, v), max(u, v))
    kept = [(f, t) for f, t in zip(g.edges, g.edge_tags) if f != e]
    assert len(kept) == g.edge_count - 1, f"edge {e} not present"
    return GeometricGraph(
        positions=g.positions,
        edges=tuple(f for f, _ in kept),
        r_tr=g.r_tr,
        lam=g.lam,
        edge_tags=tuple(t for _, t in kept),
    )


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    return graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n):
    return graph_from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestBuildUdg:
    def test_edge_within_radius(self):
        g = build_udg([(0.1, 0.1), (0.2, 0.1)], r_tr=0.15)
        assert g.edges == ((0, 1),)

    def test_no_edge_beyond_radius(self):
        g = build_udg([(0.1, 0.1), (0.5, 0.1)], r_tr=0.15)
        assert g.edges == ()

    def test_collinear_points_give_path_not_triangle(self):
        g = build_udg([(0.1, 0.1), (0.2, 0.1), (0.3, 0.1)], r_tr=0.1)
        assert g.edges == ((0, 1), (1, 2))

    def test_boundary_distance_is_inclusive(self):
        g = build_udg([(0.1, 0.1), (0.3, 0.1)], r_tr=0.2)
        assert g.edges == ((0, 1),)

    def test_rejects_point_outside_unit_square(self):
        with pytest.raises(ValueError):
            build_udg([(0.1, 0.1), (1.0, 0.5)], r_tr=0.2)
        with pytest.raises(ValueError):
            build_udg([(-0.01, 0.1)], r_tr=0.2)

    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(ValueError):
            build_udg([(0.1, 0.1), (0.1, 0.1)], r_tr=0.2)

    def test_rejects_lambda_violation(self):
        with pytest.raises(ValueError):
            build_udg([(0.1, 0.1), (0.15, 0.1)], r_tr=0.3, lam=0.1)


def double_loop_udg(positions, r_tr, lam=0.0):
    """Reference UDG: tests every pair with ``math.dist`` in row-major order.

    Kept only to pin ``build_udg``, which must give the same edges and raise
    the same errors.
    """
    pts = tuple((float(x), float(y)) for x, y in positions)
    for x, y in pts:
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate coordinates")
    edges = []
    for u in range(len(pts)):
        for v in range(u + 1, len(pts)):
            d = math.dist(pts[u], pts[v])
            if lam > 0.0 and d < lam:
                raise ValueError(
                    f"nodes {u} and {v} are {d:.6f} apart, closer than lam={lam}"
                )
            if d <= r_tr:
                edges.append((u, v))
    return GeometricGraph(positions=pts, edges=tuple(edges), r_tr=r_tr, lam=lam)


def _graph_or_error(build, points, r_tr, lam):
    try:
        return build(points, r_tr=r_tr, lam=lam)
    except ValueError as exc:
        return str(exc)


@st.composite
def grid_udg_inputs(draw):
    """Distinct points on a 1/G grid, with r_tr and lam set to distances between them.

    A coarse grid repeats distances often, so pairs tie with r_tr and lam.
    """
    res = draw(st.sampled_from([5, 12, 1000]))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, res - 1), st.integers(0, res - 1)),
            min_size=2,
            max_size=min(30, res * res),
            unique=True,
        )
    )
    points = [(a / res, b / res) for a, b in cells]
    pair_distance = st.tuples(
        st.integers(0, len(points) - 1), st.integers(0, len(points) - 1)
    ).map(lambda p: math.dist(points[p[0]], points[p[1]]))
    r_tr = draw(pair_distance.filter(lambda d: d > 0))
    # the closest pair's distance is the largest lam that holds
    closest = min(math.dist(p, q) for k, p in enumerate(points) for q in points[:k])
    lam = draw(st.sampled_from([0.0, closest]) | pair_distance)
    return points, r_tr, lam


class TestMatchesDoubleLoop:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(grid_udg_inputs())
    def test_same_edges_and_errors(self, inputs):
        points, r_tr, lam = inputs
        assert _graph_or_error(build_udg, points, r_tr, lam) == _graph_or_error(
            double_loop_udg, points, r_tr, lam
        )


class TestNeighbourhood:
    def test_isolated_node(self):
        g = graph_from_edges(3, [(0, 1)])
        assert g.closed_neighbourhood(2) == {2}

    def test_star_center(self):
        g = star_graph(4)
        assert g.closed_neighbourhood(0) == {0, 1, 2, 3, 4}

    def test_star_leaf(self):
        g = star_graph(4)
        assert g.closed_neighbourhood(3) == {0, 3}

    def test_invalid_node_raises(self):
        g = star_graph(2)
        with pytest.raises(ValueError):
            g.closed_neighbourhood(17)


class TestDegreeStats:
    def test_cycle_is_regular(self):
        assert cycle_graph(4).degree_stats() == (2.0, 0.0)

    def test_star_k13(self):
        avg, var = star_graph(3).degree_stats()
        assert avg == 1.5
        assert var == 0.75

    def test_single_node(self):
        g = graph_from_edges(1, [])
        assert g.degree_stats() == (0.0, 0.0)

    def test_empty_graph_raises(self):
        g = graph_from_edges(0, [], positions=())
        with pytest.raises(ValueError):
            g.degree_stats()

    def test_degree_sum_is_twice_edge_count(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 12)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            }
            g = graph_from_edges(n, edges)
            assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count


class TestClusterCoefficient:
    def test_triangle_node(self):
        assert complete_graph(3).local_cluster_coefficient(0) == 1.0

    def test_path_center(self):
        assert path_graph(3).local_cluster_coefficient(1) == 0.0

    def test_degree_one_is_zero(self):
        assert path_graph(3).local_cluster_coefficient(0) == 0.0

    def test_always_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 10)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            }
            g = graph_from_edges(n, edges)
            for v in range(n):
                assert 0.0 <= g.local_cluster_coefficient(v) <= 1.0


class TestComponents:
    def test_two_disjoint_edges(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert len(g.connected_components) == 2

    def test_cycle_is_connected(self):
        g = cycle_graph(5)
        assert len(g.connected_components) == 1
        assert g.is_connected()

    def test_empty_edge_set(self):
        g = graph_from_edges(4, [])
        assert len(g.connected_components) == 4
        assert not g.is_connected()

    def test_components_partition_nodes(self):
        g = graph_from_edges(7, [(0, 1), (1, 2), (4, 5)])
        nodes = sorted(v for comp in g.connected_components for v in comp)
        assert nodes == list(range(7))


def brute_force_bridges(g):
    """Oracle: an edge is a bridge iff removing it increases the component count."""
    base = len(g.connected_components)
    return tuple(
        sorted(
            e for e in g.edges if len(without_edge(g, *e).connected_components) == base + 1
        )
    )


class TestBridges:
    def test_path_edges_are_bridges(self):
        assert path_graph(3).bridges == ((0, 1), (1, 2))

    def test_cycle_has_no_bridges(self):
        assert cycle_graph(4).bridges == ()

    def test_two_triangles_joined_by_edge(self):
        g = graph_from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        )
        assert g.bridges == ((2, 3),)

    def test_matches_removal_oracle_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(2, 11)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.3
            }
            g = graph_from_edges(n, edges)
            assert g.bridges == brute_force_bridges(g)

    def test_removing_a_bridge_splits_exactly_one_component(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(2, 10)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.35
            }
            g = graph_from_edges(n, edges)
            for e in g.bridges:
                assert e in g.edges
                before = len(g.connected_components)
                after = len(without_edge(g, *e).connected_components)
                assert after == before + 1


class TestJsonRoundTrip:
    def test_round_trip_is_identity(self):
        g = build_udg([(0.1, 0.2), (0.2, 0.2), (0.7, 0.9)], r_tr=0.15, lam=0.05)
        again = GeometricGraph.from_json(g.to_json())
        assert again == g

    def test_serialisation_is_byte_stable(self):
        g = build_udg([(0.1, 0.2), (0.2, 0.2)], r_tr=0.15)
        assert g.to_json() == g.to_json()

    def test_edges_are_stored_not_recomputed(self):
        # an adapted graph may hold an edge longer than r_tr
        g = graph_from_edges(2, [(0, 1)], r_tr=0.01)
        again = GeometricGraph.from_json(g.to_json())
        assert again.edges == ((0, 1),)

    def test_tagged_edges_survive(self):
        g = graph_from_edges(3, [(0, 1)]).with_edges([(1, 2)], tag="joined")
        doc = json.loads(g.to_json())
        assert [0, 1] in doc["edges"]
        assert [1, 2, "joined"] in doc["edges"]
        again = GeometricGraph.from_json(g.to_json())
        assert again == g
        assert dict(zip(again.edges, again.edge_tags))[(1, 2)] == "joined"


    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"r_tr": 0.5, "nodes": [[1.0, 0.5]], "edges": []},
            {"r_tr": 0.5, "nodes": [[0.5]], "edges": []},
            {"r_tr": 0.5, "nodes": [0.5], "edges": []},
            {"r_tr": 0.5, "nodes": [[0.1, 0.1], [0.2, 0.2]], "edges": [[1]]},
            {"r_tr": 0.5, "nodes": [[0.1, 0.1], [0.2, 0.2]], "edges": [[0, "b"]]},
            {"r_tr": 0.5, "nodes": [[0.1, 0.1], [0.2, 0.2]], "edges": [[0, 1.9]]},
            {"r_tr": 0.5, "nodes": [[0.1, 0.1], [0.2, 0.2]], "edges": [[False, 1]]},
            {"r_tr": math.inf, "nodes": [[0.1, 0.1]], "edges": []},
            {"r_tr": math.nan, "nodes": [[0.1, 0.1]], "edges": []},
            {"r_tr": -3, "nodes": [[0.1, 0.1]], "edges": []},
            {"r_tr": 0, "nodes": [[0.1, 0.1]], "edges": []},
            {"r_tr": 0.5, "edges": []},
            {"r_tr": 0.5, "nodes": []},
            {"nodes": [], "edges": []},
        ],
        ids=[
            "not-an-object", "x-at-one", "short-node", "bare-node", "short-edge",
            "named-edge-end", "fractional-edge-end", "boolean-edge-end",
            "infinite-r_tr", "nan-r_tr", "negative-r_tr", "zero-r_tr",
            "no-nodes", "no-edges", "no-r_tr",
        ],
    )
    def test_malformed_document_raises_value_error(self, doc):
        with pytest.raises(ValueError):
            GeometricGraph.from_json_dict(doc)


class TestImmutability:
    def test_with_edges_leaves_original_untouched(self):
        g = graph_from_edges(3, [(0, 1)])
        g2 = g.with_edges([(1, 2)], tag="joined")
        assert g.edges == ((0, 1),)
        assert g2.edges == ((0, 1), (1, 2))

    def test_duplicate_edge_rejected(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.with_edges([(0, 1)], tag="joined")
