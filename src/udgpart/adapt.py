"""Post-processing of generated graphs: joining, debridging, degree thinning.

All three adaptations keep node positions fixed and return new graph values.
Edges they introduce may exceed the transmission radius; they model
deliberately engineered long links and carry a provenance tag so downstream
consumers can tell them from plain unit-disk edges.
"""

import math
from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import TAG_DEBRIDGED, TAG_JOINED, GeometricGraph

THINNING_MODES = ("longest-first", "length-weighted-random", "uniform-random")


class IrreducibleBridgeError(RuntimeError):
    """A bridge in a graph too small for any chord to exist."""


class TargetUnreachableError(RuntimeError):
    """No eligible edge is left but the average degree is still above target."""


@dataclass(frozen=True)
class ThinningStrategy:
    mode: str = "length-weighted-random"
    exponent: float = 2.0
    forbid_disconnect: bool = True
    forbid_new_bridges: bool = False

    def __post_init__(self):
        if self.mode not in THINNING_MODES:
            raise ValueError(f"unknown thinning mode {self.mode!r}")
        if not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite")


def connect_components(g: GeometricGraph) -> GeometricGraph:
    """Join the connected components along geometrically nearest node pairs.

    For every pair of components the closest cross pair is a candidate; the
    candidates are taken shortest first, and one lapses when its components
    are already merged.  Added edges are tagged ``joined``.
    """
    comps = g.connected_components
    if len(comps) <= 1:
        return g
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    candidates = sorted(
        min((g.edge_length(u, v), u, v) for u in a for v in b)
        for a, b in combinations(comps, 2)
    )
    parent = list(range(len(comps)))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    added = []
    for _, u, v in candidates:
        cu, cv = find(comp_of[u]), find(comp_of[v])
        if cu != cv:
            parent[cu] = cv
            added.append((u, v))
    return g.with_edges(added, tag=TAG_JOINED)


def _chain_chords(g):
    """Sorted chords joining the nodes two apart along every bridge chain.

    A node of degree 2 that ends two bridges is interior to a chain, and its
    chord joins its two neighbours: the chain becomes a strip of triangles,
    so none of its edges stays a bridge.  No chord is an edge already and no
    two coincide, since either would close a cycle through bridges.
    """
    ends = Counter(v for bridge in g.bridges for v in bridge)
    return sorted(g.neighbours(v) for v, k in ends.items() if k == 2 == g.degree(v))


def eliminate_bridges(g: GeometricGraph) -> GeometricGraph:
    """Add edges until the graph is bridge-free, starting with chain chords.

    For a remaining bridge {u, v} the two components of the graph without
    that edge are joined a second time through their geometrically closest
    pair avoiding u and v themselves.  When one side consists of u alone the
    chord falls back to u and the next-nearest node across, and a lone edge
    on two nodes cannot be repaired at all.

    Chords only mend bridges, so one walk over the input's bridges meets the
    standing ones smallest first.  On one working adjacency, thinning's search
    runs from u and v at once with the bridge barred: the two trees meet on a
    mended bridge, or the smaller side is used up first, and the other side is
    the rest of the component.  One graph value results.
    """
    chords = _chain_chords(g)
    adj = [set(g.neighbours(v)) for v in range(g.node_count)]
    for a, b in chords:
        adj[a].add(b)
        adj[b].add(a)
    for u, v in g.bridges:
        path, side = _augmenting_path(adj, {(u, v)}, u, v)
        if path is not None:
            continue
        # chords never join components, so the other side is the rest of it
        rest = next(c for c in g.connected_components if u in c) - side
        a_side, b_side = (side, rest) if u in side else (rest, side)
        a_side, b_side = a_side - {u}, b_side - {v}
        if a_side and b_side:
            _, a, b = min(
                (g.edge_length(a, b), a, b) for a in a_side for b in b_side
            )
        elif a_side or b_side:
            # pendant endpoint: double up from it to the next-nearest node
            # across the bridge
            if a_side:
                lone, pool = v, a_side
            else:
                lone, pool = u, b_side
            _, b, a = min((g.edge_length(lone, w), w, lone) for w in pool)
        else:
            raise IrreducibleBridgeError(
                f"bridge ({u}, {v}) joins two single nodes; no chord exists"
            )
        chords.append((a, b))
        adj[a].add(b)
        adj[b].add(a)
    return g.with_edges(chords, tag=TAG_DEBRIDGED) if chords else g


def thin_to_degree(
    g: GeometricGraph,
    deg_target: float,
    strategy: ThinningStrategy,
    rng=None,
) -> GeometricGraph:
    """Remove edges one at a time until the average degree first drops to target.

    Edge choice follows the strategy: longest edge first (ties broken on the
    smaller endpoint pair), by random draw weighted with length^exponent, or
    uniformly at random.  ``rng`` is a numpy ``Generator`` or a seed for
    ``numpy.random.default_rng`` (``None`` means seed 0), so a seed draws
    the same edges as ``default_rng(seed)`` passed in.  Edges whose removal
    would disconnect the graph or create a new bridge are only skipped for
    the round in which they would; they stay candidates for later rounds.

    Both tests are local to the drawn edge {u, v}: with it removed, u and v
    are joined by no path exactly when it is a bridge, and by exactly one
    edge-disjoint path exactly when its removal creates a bridge (every new
    bridge separates u from v).  The rounds run on one working edge list and
    adjacency; the graph value is built once, at the end.
    """
    if not deg_target >= 0:  # NaN fails this test too
        raise ValueError(f"deg_target must be >= 0, got {deg_target}")
    if g.node_count == 0:
        return g
    if deg_target > g.avg_degree:
        raise ValueError(
            f"deg_target {deg_target} above current average degree {g.avg_degree}"
        )
    if g.avg_degree == deg_target:
        return g
    rng = np.random.default_rng(0 if rng is None else rng)
    edges, nodes = g.edges, g.node_count
    lengths = [g.edge_length(*e) for e in edges]
    weights = None
    if strategy.mode == "length-weighted-random":
        try:
            weights = np.array([length**strategy.exponent for length in lengths])
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(
                f"edge weights length**{strategy.exponent} cannot be computed: {exc}"
            ) from None
    # paths to count: 2 tells "no path", "one path" and "more" apart
    limit = 2 if strategy.forbid_new_bridges else int(strategy.forbid_disconnect)
    adj = [set(g.neighbours(v)) for v in range(nodes)]
    alive = np.ones(len(edges), dtype=bool)
    count = len(edges)
    while 2.0 * count / nodes > deg_target:
        candidate = alive.copy()
        while True:
            pool = np.flatnonzero(candidate)
            if not len(pool):
                raise TargetUnreachableError(
                    f"average degree {2.0 * count / nodes:.3f} still above {deg_target} "
                    "with no removable edge left"
                )
            k = _pick_edge(pool, edges, lengths, weights, strategy, rng)
            u, v = edges[k]
            adj[u].remove(v)
            adj[v].remove(u)
            paths = _edge_connectivity(adj, u, v, limit)
            if (strategy.forbid_disconnect and paths == 0) or (
                strategy.forbid_new_bridges and paths == 1
            ):
                adj[u].add(v)
                adj[v].add(u)
                candidate[k] = False
                continue
            alive[k] = False
            count -= 1
            break
    kept = np.flatnonzero(alive)
    return GeometricGraph(
        positions=g.positions,
        edges=tuple(edges[k] for k in kept),
        r_tr=g.r_tr,
        lam=g.lam,
        edge_tags=tuple(g.edge_tags[k] for k in kept),
    )


def _pick_edge(pool, edges, lengths, weights, strategy, rng):
    """Index of the edge drawn from ``pool``, an index array in edge order."""
    if strategy.mode == "longest-first":
        return max(pool, key=lambda k: (lengths[k], (-edges[k][0], -edges[k][1])))
    if strategy.mode == "uniform-random":
        return pool[int(rng.integers(len(pool)))]
    drawn = weights[pool]
    total = drawn.sum()
    if total <= 0:
        return pool[int(rng.integers(len(pool)))]
    return pool[int(rng.choice(len(pool), p=drawn / total))]


def _edge_connectivity(adj, u, v, limit):
    """The number of edge-disjoint u-v paths in ``adj``, counted up to ``limit`` <= 2.

    Unit-capacity max flow: one augmenting-path search per path.  The first
    path's arcs carry flow, so the second search may cross its edges only
    backwards; no third search runs, so the second path's flow is not kept.
    """
    flow = set()  # arcs (a, b) of the first path, directed from u to v
    for found in range(limit):
        path, _ = _augmenting_path(adj, flow, u, v)
        if path is None:
            return found
        flow.update(path)
    return limit


def _augmenting_path(adj, flow, u, v):
    """``(arcs, None)`` for a u-v path that uses no arc in ``flow``, else ``(None, side)``.

    One search tree grows from u and one from v, a node of each in turn,
    until they share a node.  A short path is found next to u and v, and a
    failed search stops when the smaller side of the cut is used up: ``side``
    holds the nodes of that tree, all that its root reaches.
    """
    trees = ({u: None}, {v: None})
    queues = (deque([u]), deque([v]))
    side = 0
    while queues[0] and queues[1]:
        tree, other = trees[side], trees[1 - side]
        a = queues[side].popleft()
        for b in adj[a]:
            if b in tree or ((a, b) if side == 0 else (b, a)) in flow:
                continue
            tree[b] = a
            if b in other:
                return _tree_path(trees, b), None
            queues[side].append(b)
        side = 1 - side
    return None, trees[0 if not queues[0] else 1].keys()


def _tree_path(trees, meet):
    """Arcs of the path u -> meet -> v through the two search trees."""
    from_u, to_v = trees
    arcs = []
    b = meet
    while from_u[b] is not None:
        arcs.append((from_u[b], b))
        b = from_u[b]
    a = meet
    while to_v[a] is not None:
        arcs.append((a, to_v[a]))
        a = to_v[a]
    return arcs
