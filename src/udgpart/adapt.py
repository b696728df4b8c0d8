"""Post-processing of generated graphs: joining, debridging, degree thinning.

All three adaptations keep node positions fixed and return new graph values.
Edges they introduce may exceed the transmission radius; they model
deliberately engineered long links and carry a provenance tag so downstream
consumers can tell them from plain unit-disk edges.
"""

import heapq
import math
from dataclasses import dataclass

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
    globally shortest candidate is added first, candidates between now-merged
    components lapse, and the loop runs until one component remains.  Added
    edges are tagged ``joined``.
    """
    comps = g.connected_components
    if len(comps) <= 1:
        return g
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    heap = []
    for a in range(len(comps)):
        for b in range(a + 1, len(comps)):
            best = min(
                (g.edge_length(u, v), u, v)
                for u in sorted(comps[a])
                for v in sorted(comps[b])
            )
            heapq.heappush(heap, best)
    parent = list(range(len(comps)))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    added = []
    merges_left = len(comps) - 1
    while merges_left:
        _, u, v = heapq.heappop(heap)
        cu, cv = find(comp_of[u]), find(comp_of[v])
        if cu == cv:
            continue
        parent[cu] = cv
        added.append((u, v))
        merges_left -= 1
    return g.with_edges(added, tag=TAG_JOINED)


def eliminate_bridge_paths(g: GeometricGraph) -> GeometricGraph:
    """Chord every bridge chain so that none of its edges stays a bridge.

    Along a chain v_0..v_k each node up to v_{k-2} gets an edge to the node
    two positions further, turning the chain into a strip of triangles.
    Chains of a single bridge have no interior and are left to the general
    bridge elimination.
    """
    chords = set()
    for chain in g.bridge_paths():
        for a, b in zip(chain, chain[2:]):
            chords.add((min(a, b), max(a, b)))
    if not chords:
        return g
    return g.with_edges(sorted(chords), tag=TAG_DEBRIDGED)


def eliminate_bridges(g: GeometricGraph) -> GeometricGraph:
    """Add edges until the graph is bridge-free, starting with chain chords.

    For a remaining bridge {u, v} the two components of the graph without
    that edge are joined a second time through their geometrically closest
    pair avoiding u and v themselves.  When one side consists of u alone the
    chord falls back to u and the next-nearest node across, and a lone edge
    on two nodes cannot be repaired at all.
    """
    g = eliminate_bridge_paths(g)
    while True:
        bridges = g.bridges
        if not bridges:
            return g
        u, v = bridges[0]
        cut = g.without_edge(u, v)
        side_u = next(c for c in cut.connected_components if u in c)
        side_v = next(c for c in cut.connected_components if v in c)
        a_side = sorted(side_u - {u})
        b_side = sorted(side_v - {v})
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
        g = g.with_edges([(a, b)], tag=TAG_DEBRIDGED)


def thin_to_degree(
    g: GeometricGraph,
    deg_target: float,
    strategy: ThinningStrategy,
    rng=None,
) -> GeometricGraph:
    """Remove edges one at a time until the average degree first drops to target.

    Edge choice follows the strategy: longest edge first (ties broken on the
    smaller endpoint pair), by random draw weighted with length^exponent, or
    uniformly at random.  Edges whose removal would disconnect the graph or
    create a new bridge are only skipped for the round in which they would;
    they stay candidates for later rounds.
    """
    if deg_target < 0:
        raise ValueError("deg_target must be >= 0")
    if g.node_count and deg_target > g.avg_degree:
        raise ValueError(
            f"deg_target {deg_target} above current average degree {g.avg_degree}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    while g.avg_degree > deg_target:
        bridges = set(g.bridges)
        banned = set()
        while True:
            pool = [e for e in g.edges if e not in banned]
            if not pool:
                raise TargetUnreachableError(
                    f"average degree {g.avg_degree:.3f} still above {deg_target} "
                    "with no removable edge left"
                )
            edge = _pick_edge(g, pool, strategy, rng)
            if strategy.forbid_disconnect and edge in bridges:
                banned.add(edge)
                continue
            reduced = g.without_edge(*edge)
            if strategy.forbid_new_bridges and not bridges.issuperset(reduced.bridges):
                banned.add(edge)
                continue
            g = reduced
            break
    return g


def _pick_edge(g, pool, strategy, rng):
    if strategy.mode == "longest-first":
        return max(pool, key=lambda e: (g.edge_length(*e), (-e[0], -e[1])))
    if strategy.mode == "uniform-random":
        return pool[int(rng.integers(len(pool)))]
    weights = np.array([g.edge_length(*e) ** strategy.exponent for e in pool])
    total = weights.sum()
    if total <= 0:
        return pool[int(rng.integers(len(pool)))]
    return pool[int(rng.choice(len(pool), p=weights / total))]
