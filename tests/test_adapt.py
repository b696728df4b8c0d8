import heapq
import itertools
import math
import random

import numpy as np
import pytest

from udgpart.adapt import (
    THINNING_MODES,
    IrreducibleBridgeError,
    TargetUnreachableError,
    ThinningStrategy,
    _augmenting_path,
    _chain_chords,
    _edge_connectivity,
    connect_components,
    eliminate_bridges,
    thin_to_degree,
)
from udgpart.generator import GeneratorParams, place_nodes
from udgpart.graphs import TAG_DEBRIDGED, GeometricGraph, build_udg

from test_graphs import (
    complete_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    without_edge,
)


class TestConnectComponents:
    def test_connected_graph_unchanged(self):
        g = cycle_graph(5)
        assert connect_components(g) is g

    def test_two_pairs_joined_by_closest_cross_pair(self):
        g = build_udg(
            [(0.1, 0.1), (0.2, 0.1), (0.8, 0.1), (0.9, 0.1)], r_tr=0.15
        )
        assert len(g.connected_components) == 2
        joined = connect_components(g)
        assert joined.is_connected()
        assert set(joined.edges) - set(g.edges) == {(1, 2)}
        assert dict(zip(joined.edges, joined.edge_tags))[(1, 2)] == "joined"

    def test_three_singletons_chain_along_shortest_pairs(self):
        g = build_udg([(0.0, 0.0), (0.0, 0.4), (0.0, 0.9)], r_tr=0.1)
        joined = connect_components(g)
        # 0-1 (0.4) first, then 1-2 (0.5) beats 0-2 (0.9)
        assert set(joined.edges) == {(0, 1), (1, 2)}

    def test_original_edges_kept_and_one_component(self):
        rng = random.Random(5)
        for _ in range(20):
            pts = [(rng.random(), rng.random()) for _ in range(rng.randint(2, 15))]
            g = build_udg(pts, r_tr=0.18)
            joined = connect_components(g)
            assert joined.is_connected()
            assert set(g.edges) <= set(joined.edges)
            assert joined.positions == g.positions


def reference_connect_components(g):
    """Test-only copy of the heap algorithm: pop the globally shortest
    candidate, let those between merged components lapse, and stop once one
    component remains."""
    comps = g.connected_components
    if len(comps) <= 1:
        return g
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    heap = []
    for a in range(len(comps)):
        for b in range(a + 1, len(comps)):
            heapq.heappush(heap, min(
                (g.edge_length(u, v), u, v)
                for u in sorted(comps[a])
                for v in sorted(comps[b])
            ))
    merged = [{ci} for ci in range(len(comps))]
    added = []
    while len(added) < len(comps) - 1:
        _, u, v = heapq.heappop(heap)
        a, b = merged[comp_of[u]], merged[comp_of[v]]
        if a is b:
            continue
        a |= b
        for ci in b:
            merged[ci] = a
        added.append((u, v))
    return g.with_edges(added, tag="joined")


class TestMatchesHeapJoining:
    def test_same_edges_on_placements_with_many_components(self):
        rng = random.Random(83)
        components = []
        for seed in range(12):
            nodes = rng.randint(20, 150)
            params = GeneratorParams(
                node_count=nodes,
                lam=0.01,
                r_tr=rng.uniform(1.2, 2.4) * math.sqrt(1.0 / (math.pi * nodes)),
                rng_seed=seed,
            )
            g = place_nodes(params).graph
            components.append(len(g.connected_components))
            got, want = connect_components(g), reference_connect_components(g)
            assert (got.edges, got.edge_tags) == (want.edges, want.edge_tags)
        assert min(components) >= 5 and max(components) >= 50


class TestEliminateBridges:
    def test_two_triangles_joined_by_bridge(self):
        g = graph_from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        )
        out = eliminate_bridges(g)
        assert out.bridges == ()
        extra = set(out.edges) - set(g.edges)
        assert len(extra) == 1
        (a, b) = extra.pop()
        assert a in {0, 1} and b in {4, 5}

    def test_complete_graph_unchanged(self):
        g = complete_graph(4)
        assert eliminate_bridges(g) is g

    def test_cycle_unchanged(self):
        g = cycle_graph(5)
        assert eliminate_bridges(g) is g

    @pytest.mark.parametrize(
        "n, chords",
        [(4, {(0, 2), (1, 3)}), (6, {(0, 2), (1, 3), (2, 4), (3, 5)})],
    )
    def test_path_gets_chain_chords(self, n, chords):
        g = path_graph(n)
        out = eliminate_bridges(g)
        assert set(out.edges) - set(g.edges) == chords
        tags = dict(zip(out.edges, out.edge_tags))
        assert all(tags[edge] == TAG_DEBRIDGED for edge in chords)
        assert out.bridges == ()

    def test_no_bridge_survives_unless_a_lone_edge(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(3, 12)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.22
            }
            g = graph_from_edges(n, edges)
            if any(len(c) == 2 for c in g.connected_components):
                with pytest.raises(IrreducibleBridgeError):
                    eliminate_bridges(g)
                continue
            out = eliminate_bridges(g)
            assert out.bridges == ()
            assert set(g.edges) <= set(out.edges)

    def test_two_node_graph_is_irreducible(self):
        with pytest.raises(IrreducibleBridgeError):
            eliminate_bridges(path_graph(2))

    def test_pendant_node_doubled_to_next_nearest(self):
        # triangle 0-1-2 with pendant 3 hanging off node 2
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        out = eliminate_bridges(g)
        assert out.bridges == ()
        extra = set(out.edges) - set(g.edges)
        assert len(extra) == 1
        assert 3 in extra.copy().pop()

    def test_builds_one_graph_value(self, monkeypatch):
        # triangles joined by one bridge and by a two-bridge chain, and a
        # pendant node; the chord for the bridge (2, 3) also mends (9, 10)
        g = graph_from_edges(
            11,
            [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6),
             (6, 7), (7, 8), (7, 9), (8, 9), (9, 10)],
        )
        built = []
        check = GeometricGraph.__post_init__
        monkeypatch.setattr(
            GeometricGraph, "__post_init__", lambda h: built.append(h) or check(h)
        )
        out = eliminate_bridges(g)
        assert built == [out]
        assert out.bridges == ()
        assert set(out.edges) - set(g.edges) == {(0, 10), (5, 7)}

    def test_positions_kept_and_edges_superset(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 12)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            }
            g = connect_components(graph_from_edges(n, edges))
            out = eliminate_bridges(g)
            assert out.bridges == ()
            assert set(g.edges) <= set(out.edges)
            assert out.positions == g.positions
            assert out.is_connected()


def brute_force_bridge_paths(g):
    """Oracle: enumerate every simple path of bridges, keep qualifying maximal ones.

    A qualifying path has >= 2 edges, all of them bridges, and every interior
    node of graph degree exactly 2.  The bridges form a forest, so there are
    at most |V|^2 paths to enumerate.
    """
    bridge_set = set(g.bridges)

    def qualifies(path):
        return len(path) >= 3 and all(g.degree(v) == 2 for v in path[1:-1])

    all_paths = []

    def extend(path):
        all_paths.append(tuple(path))
        for w in g.neighbours(path[-1]):
            if w not in path and (min(w, path[-1]), max(w, path[-1])) in bridge_set:
                extend(path + [w])

    for start in range(g.node_count):
        extend([start])

    qual = [p for p in all_paths if qualifies(p)]

    def contained(p, q):
        if len(p) >= len(q):
            return False
        text, hay = list(p), list(q)
        for k in range(len(hay) - len(text) + 1):
            if hay[k : k + len(text)] in (text, text[::-1]):
                return True
        return False

    maximal = {
        tuple(p if p[0] < p[-1] else p[::-1])
        for p in qual
        if not any(contained(p, q) for q in qual if p != q)
    }
    return tuple(sorted(maximal))


def oracle_chords(g):
    """The chords joining the nodes two apart along the oracle's chains."""
    return sorted(
        {
            (min(a, b), max(a, b))
            for chain in brute_force_bridge_paths(g)
            for a, b in zip(chain, chain[2:])
        }
    )


class TestChainChords:
    def test_path_graph_single_chain(self):
        g = path_graph(5)
        assert brute_force_bridge_paths(g) == ((0, 1, 2, 3, 4),)
        assert _chain_chords(g) == oracle_chords(g) == [(0, 2), (1, 3), (2, 4)]

    def test_two_triangles_joined_by_three_edge_chain(self):
        # triangles {0,1,2} and {5,6,7}, chain 2-3-4-5 of degree-2 interiors
        g = graph_from_edges(
            8,
            [(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7), (2, 3), (3, 4), (4, 5)],
        )
        assert brute_force_bridge_paths(g) == ((2, 3, 4, 5),)
        assert _chain_chords(g) == oracle_chords(g) == [(2, 4), (3, 5)]

    def test_cycle_has_none(self):
        g = cycle_graph(6)
        assert brute_force_bridge_paths(g) == ()
        assert _chain_chords(g) == []

    def test_single_bridge_is_not_a_chain(self):
        g = graph_from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        )
        assert brute_force_bridge_paths(g) == ()
        assert _chain_chords(g) == []

    def test_chains_meeting_at_a_degree_3_node(self):
        # arms 0-1-2-3, 0-4-5 and the single bridge 0-6 meet at node 0,
        # which is interior to none of them
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6)])
        assert brute_force_bridge_paths(g) == ((0, 1, 2, 3), (0, 4, 5))
        assert _chain_chords(g) == oracle_chords(g) == [(0, 2), (0, 5), (1, 3)]

    def test_pendant_chain(self):
        # triangle 0-1-2 with the chain 2-3-4-5 ending at the leaf 5
        g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert brute_force_bridge_paths(g) == ((2, 3, 4, 5),)
        assert _chain_chords(g) == oracle_chords(g) == [(2, 4), (3, 5)]

    def test_matches_enumeration_oracle_on_random_sparse_graphs(self):
        rng = random.Random(17)
        chorded = 0
        for _ in range(25):
            n = rng.randint(3, 9)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.25
            }
            g = graph_from_edges(n, edges)
            assert _chain_chords(g) == oracle_chords(g)
            chorded += bool(_chain_chords(g))
        assert chorded


def reference_eliminate_bridges(g):
    """Debridging as one graph value per chord: a whole-graph bridge scan and
    a cut graph per chord, which the working-adjacency loop must match."""
    chords = oracle_chords(g)
    if chords:
        g = g.with_edges(chords, tag=TAG_DEBRIDGED)
    while g.bridges:
        u, v = g.bridges[0]
        comps = without_edge(g, u, v).connected_components
        a_side = sorted(next(c for c in comps if u in c) - {u})
        b_side = sorted(next(c for c in comps if v in c) - {v})
        if a_side and b_side:
            _, a, b = min((g.edge_length(a, b), a, b) for a in a_side for b in b_side)
        elif a_side or b_side:
            lone, pool = (v, a_side) if a_side else (u, b_side)
            _, b, a = min((g.edge_length(lone, w), w, lone) for w in pool)
        else:
            raise IrreducibleBridgeError(
                f"bridge ({u}, {v}) joins two single nodes; no chord exists"
            )
        g = g.with_edges([(a, b)], tag="debridged")
    return g


def debridge_outcome(fn, g):
    try:
        out = fn(g)
    except IrreducibleBridgeError as exc:
        return str(exc)
    return out is g, out.edges, out.edge_tags


def small_udgs(seed, count):
    """``count`` lambda-UDGs of 2-30 nodes near the connectivity radius."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nodes = rng.randint(2, 30)
        r_tr = rng.uniform(1.2, 2.6) * math.sqrt(1.0 / (math.pi * nodes))
        params = GeneratorParams(
            node_count=nodes,
            lam=0.4 * r_tr,
            r_tr=r_tr,
            grid_resolution=250,
            rng_seed=rng.randrange(10**6),
        )
        out.append(place_nodes(params).graph)
    return out


def sparse_graphs(seed, count):
    """``count`` forests and near-forests of 2-20 nodes: chains, pendant nodes
    and lone two-node edges.  Every other graph keeps the circle positions of
    ``graph_from_edges``, whose equal chord lengths exercise the tie-breaks."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(2, 20)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 2.0 / n}
        positions = None if k % 2 else tuple((rng.random(), rng.random()) for _ in range(n))
        out.append(graph_from_edges(n, edges, positions=positions))
    return out


class TestMatchesPerChordDebridging:
    @pytest.mark.parametrize("joined", [False, True])
    @pytest.mark.parametrize("graphs", [small_udgs, sparse_graphs])
    def test_same_graph_tags_and_errors(self, graphs, joined):
        outcomes = set()
        for g in graphs(47 + joined, 150):
            if joined:
                g = connect_components(g)
            got = debridge_outcome(eliminate_bridges, g)
            assert got == debridge_outcome(reference_eliminate_bridges, g)
            outcomes.add(got[0] if isinstance(got, tuple) else "irreducible")
        # each batch has unchanged graphs, debridged ones and a lone edge
        assert outcomes == {True, False, "irreducible"}


class TestThinToDegree:
    def test_target_at_current_degree_is_identity(self):
        g = cycle_graph(6)
        out = thin_to_degree(g, 2.0, ThinningStrategy(), np.random.default_rng(0))
        assert out.edges == g.edges

    def test_triangle_single_removal(self):
        g = complete_graph(3)
        for mode in ("longest-first", "length-weighted-random", "uniform-random"):
            out = thin_to_degree(
                g,
                4.0 / 3.0,
                ThinningStrategy(mode=mode, forbid_disconnect=True),
                np.random.default_rng(1),
            )
            assert out.edge_count == 2
            assert out.avg_degree == pytest.approx(4.0 / 3.0)
            assert out.is_connected()

    def test_square_with_diagonal_drops_diagonal_first(self):
        pts = [(0.1, 0.1), (0.8, 0.1), (0.8, 0.8), (0.1, 0.8)]
        g = GeometricGraph(
            positions=tuple(pts),
            edges=((0, 1), (0, 2), (1, 2), (2, 3), (0, 3)),
            r_tr=1.0,
        )
        out = thin_to_degree(
            g,
            2.0,
            ThinningStrategy(mode="longest-first", forbid_disconnect=True),
            np.random.default_rng(0),
        )
        assert (0, 2) not in out.edges
        assert set(out.edges) == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_target_above_average_rejected(self):
        with pytest.raises(ValueError):
            thin_to_degree(cycle_graph(4), 3.0, ThinningStrategy(), np.random.default_rng(0))

    def test_unreachable_when_only_bridges_left(self):
        g = path_graph(5)
        with pytest.raises(TargetUnreachableError):
            thin_to_degree(
                g,
                0.5,
                ThinningStrategy(mode="uniform-random", forbid_disconnect=True),
                np.random.default_rng(3),
            )

    def test_connectivity_preserved_with_forbid_disconnect(self):
        rng = random.Random(41)
        for trial in range(15):
            pts = [(rng.random(), rng.random()) for _ in range(12)]
            g = build_udg(pts, r_tr=0.6)
            if not g.is_connected():
                continue
            target = 2.0 + rng.random() * (g.avg_degree - 2.0)
            out = thin_to_degree(
                g,
                target,
                ThinningStrategy(forbid_disconnect=True),
                np.random.default_rng(trial),
            )
            assert out.is_connected()
            assert out.avg_degree <= target
            assert out.avg_degree > target - 2.0 / out.node_count - 1e-12

    def test_no_new_bridges_when_forbidden(self):
        rng = random.Random(43)
        for trial in range(10):
            pts = [(rng.random(), rng.random()) for _ in range(12)]
            g = build_udg(pts, r_tr=0.55)
            if not g.is_connected() or g.avg_degree < 3.0:
                continue
            out = thin_to_degree(
                g,
                3.0,
                ThinningStrategy(forbid_disconnect=True, forbid_new_bridges=True),
                np.random.default_rng(trial),
            )
            assert set(out.bridges) <= set(g.bridges)

    def test_deterministic_for_fixed_seed(self):
        pts = [(0.08 * i, 0.05 * ((i * 7) % 13)) for i in range(12)]
        g = build_udg(pts, r_tr=0.5)
        s = ThinningStrategy(mode="length-weighted-random", exponent=2.0)
        a = thin_to_degree(g, 3.0, s, np.random.default_rng(9))
        b = thin_to_degree(g, 3.0, s, np.random.default_rng(9))
        assert a.edges == b.edges

    def test_seed_draws_as_its_generator(self):
        pts = [(0.08 * i, 0.05 * ((i * 7) % 13)) for i in range(12)]
        g = build_udg(pts, r_tr=0.5)
        s = ThinningStrategy(mode="length-weighted-random", exponent=2.0)
        for seed in (0, 9, 2**40):
            by_seed = thin_to_degree(g, 3.0, s, seed)
            assert by_seed.edges == thin_to_degree(g, 3.0, s, np.random.default_rng(seed)).edges
        assert thin_to_degree(g, 3.0, s).edges == thin_to_degree(g, 3.0, s, 0).edges

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ThinningStrategy(mode="by-vibes")

    def test_empty_graph_unchanged(self):
        g = graph_from_edges(0, [])
        for target in (0.0, 3.0):
            assert thin_to_degree(g, target, ThinningStrategy()) is g


def reference_thin_to_degree(g, deg_target, strategy, rng):
    """Thinning as one graph value per step: a whole-graph bridge scan per
    round and per reduced candidate, which the working-state loop must match
    draw for draw."""
    while g.avg_degree > deg_target:
        bridges = set(g.bridges)
        banned = set()
        while True:
            pool = [e for e in g.edges if e not in banned]
            if not pool:
                raise TargetUnreachableError("no removable edge left")
            edge = reference_pick_edge(g, pool, strategy, rng)
            if strategy.forbid_disconnect and edge in bridges:
                banned.add(edge)
                continue
            reduced = without_edge(g, *edge)
            if strategy.forbid_new_bridges and not bridges.issuperset(reduced.bridges):
                banned.add(edge)
                continue
            g = reduced
            break
    return g


def reference_pick_edge(g, pool, strategy, rng):
    if strategy.mode == "longest-first":
        return max(pool, key=lambda e: (g.edge_length(*e), (-e[0], -e[1])))
    if strategy.mode == "uniform-random":
        return pool[int(rng.integers(len(pool)))]
    weights = np.array([g.edge_length(*e) ** strategy.exponent for e in pool])
    total = weights.sum()
    if total <= 0:
        return pool[int(rng.integers(len(pool)))]
    return pool[int(rng.choice(len(pool), p=weights / total))]


def random_udgs(seed, count):
    """``count`` lambda-UDGs of 10-120 nodes, every other one debridged."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nodes = rng.randint(10, 120)
        r_tr = 2.2 * math.sqrt(1.0 / (math.pi * nodes))
        params = GeneratorParams(
            node_count=nodes,
            lam=0.4 * r_tr,
            r_tr=r_tr,
            grid_resolution=250,
            rng_seed=rng.randrange(10**6),
        )
        g = place_nodes(params).graph
        if len(out) % 2:
            try:
                g = eliminate_bridges(connect_components(g))
            except IrreducibleBridgeError:
                continue
        if g.edge_count:
            out.append(g)
    return out


def thin_outcome(fn, g, target, strategy, seed):
    rng = np.random.default_rng(seed)
    try:
        result = fn(g, target, strategy, rng)
    except TargetUnreachableError:
        result = TargetUnreachableError
    return result, rng.bit_generator.state


class TestMatchesPerStepThinning:
    @pytest.mark.parametrize("forbid_new_bridges", [False, True])
    @pytest.mark.parametrize("forbid_disconnect", [False, True])
    @pytest.mark.parametrize("mode", THINNING_MODES)
    def test_same_graph_and_rng_state(self, mode, forbid_disconnect, forbid_new_bridges):
        strategy = ThinningStrategy(
            mode=mode,
            forbid_disconnect=forbid_disconnect,
            forbid_new_bridges=forbid_new_bridges,
        )
        rng = random.Random(len(mode) + 2 * forbid_disconnect + forbid_new_bridges)
        unreachable = 0
        for seed, g in enumerate(random_udgs(rng.randrange(10**6), 6)):
            # targets down to 1 so that some runs end unreachable
            target = 1.0 + rng.random() * (g.avg_degree - 1.0)
            got = thin_outcome(thin_to_degree, g, target, strategy, seed)
            want = thin_outcome(reference_thin_to_degree, g, target, strategy, seed)
            assert got == want
            if got[0] is TargetUnreachableError:
                unreachable += 1
            else:
                assert got[0].edge_tags == want[0].edge_tags
        if forbid_disconnect or forbid_new_bridges:
            assert unreachable < 6


def brute_force_connectivity(g, u, v, limit):
    """Fewest edges that separate u from v in g without (u, v), capped at ``limit``."""
    rest = [e for e in g.edges if e != (u, v)]
    for k in range(limit):
        for cut in itertools.combinations(rest, k):
            h = graph_from_edges(g.node_count, set(rest) - set(cut))
            if not any(u in c and v in c for c in h.connected_components):
                return k
    return limit


class TestEdgeConnectivity:
    def test_matches_brute_force_on_every_edge(self):
        rng = random.Random(47)
        for _ in range(40):
            n = rng.randint(2, 8)
            edges = {
                (a, b) for a in range(n) for b in range(a + 1, n)
                if rng.random() < 0.45
            }
            g = graph_from_edges(n, edges)
            bridges = set(g.bridges)
            full = [set(g.neighbours(w)) for w in range(n)]
            for u, v in g.edges:
                cut = without_edge(g, u, v)
                adj = [set(cut.neighbours(w)) for w in range(n)]
                paths = _edge_connectivity(adj, u, v, 2)
                assert paths == brute_force_connectivity(g, u, v, 2)
                for limit in (0, 1):
                    assert _edge_connectivity(adj, u, v, limit) == min(paths, limit)
                # the rules thinning relies on
                assert (paths == 0) == ((u, v) in bridges)
                assert (paths == 1) == (not bridges.issuperset(cut.bridges))
                # debridging's search: the one arc (u, v) bars the edge both
                # ways, and a failed search returns its root's whole side
                path, side = _augmenting_path(full, {(u, v)}, u, v)
                assert (path is None) == (side is not None) == (paths == 0)
                if side is not None:
                    assert (u in side) != (v in side)
                    root = u if u in side else v
                    assert set(side) == next(
                        c for c in cut.connected_components if root in c
                    )
