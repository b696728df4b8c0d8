"""Immutable geometric graphs on the unit square and their structural queries.

A graph value holds node coordinates, an explicit edge set, the transmission
radius ``r_tr`` used for adjacency and the minimum pairwise node distance
``lam`` (0 when unconstrained).  All adaptations elsewhere in the package
return new graph values, so components/bridges may be cached safely.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

Point = tuple[float, float]
Edge = tuple[int, int]

TAG_UDG = "udg"
TAG_JOINED = "joined"
TAG_DEBRIDGED = "debridged"

_TAGS = (TAG_UDG, TAG_JOINED, TAG_DEBRIDGED)


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GeometricGraph:
    """Undirected irreflexive graph with fixed node positions in [0,1)^2.

    ``edges`` are stored explicitly as (i, j) pairs with i < j, so graphs
    whose edge set deviates from the pure distance rule (after adaptation)
    round-trip exactly.  ``edge_tags`` is aligned with ``edges`` and records
    the provenance of each edge.
    """

    positions: tuple[Point, ...]
    edges: tuple[Edge, ...]
    r_tr: float
    lam: float = 0.0
    edge_tags: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.positions)
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise ValueError(f"bad edge ({u}, {v}) for {n} nodes")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.edge_tags:
            if len(self.edge_tags) != len(self.edges):
                raise ValueError("edge_tags length does not match edges")
            for tag in self.edge_tags:
                if tag not in _TAGS:
                    raise ValueError(f"unknown edge tag {tag!r}")
        else:
            object.__setattr__(self, "edge_tags", (TAG_UDG,) * len(self.edges))
        if self.lam and self.r_tr and not (0.0 < self.lam < self.r_tr):
            raise ValueError("need 0 < lam < r_tr when both are set")

    # -- basic accessors -------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.positions)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in self.positions]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def _check_node(self, v: int) -> None:
        if not (0 <= v < self.node_count):
            raise ValueError(f"node {v} not in graph with {self.node_count} nodes")

    def neighbours(self, v: int) -> tuple[int, ...]:
        self._check_node(v)
        return self._adjacency[v]

    def closed_neighbourhood(self, v: int) -> frozenset[int]:
        """The node itself together with its adjacent nodes."""
        self._check_node(v)
        return frozenset(self._adjacency[v]) | {v}

    def degree(self, v: int) -> int:
        self._check_node(v)
        return len(self._adjacency[v])

    def edge_length(self, u: int, v: int) -> float:
        return math.dist(self.positions[u], self.positions[v])

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def _tag_by_edge(self) -> dict[Edge, str]:
        return dict(zip(self.edges, self.edge_tags))

    def tag_of(self, u: int, v: int) -> str:
        return self._tag_by_edge[_norm_edge(u, v)]

    # -- statistics -------------------------------------------------------

    @property
    def avg_degree(self) -> float:
        if self.node_count == 0:
            raise ValueError("empty graph has no degree statistics")
        return 2.0 * self.edge_count / self.node_count

    def degree_stats(self) -> tuple[float, float]:
        """Arithmetic mean and population variance of the node degrees."""
        if self.node_count == 0:
            raise ValueError("empty graph has no degree statistics")
        degs = [len(a) for a in self._adjacency]
        avg = sum(degs) / len(degs)
        var = sum((d - avg) ** 2 for d in degs) / len(degs)
        return avg, var

    def local_cluster_coefficient(self, v: int) -> float:
        """Fraction of realised edges among the neighbours of ``v``.

        Nodes of degree < 2 have an undefined coefficient by the dividing
        formula; they report 0 so that variance aggregates stay total.
        """
        self._check_node(v)
        nbrs = self._adjacency[v]
        d = len(nbrs)
        if d < 2:
            return 0.0
        links = 0
        nbr_set = set(nbrs)
        for w in nbrs:
            links += sum(1 for u in self._adjacency[w] if u > w and u in nbr_set)
        return 2.0 * links / (d * (d - 1))

    def cluster_variance(self) -> float:
        """Population variance of the local cluster coefficient over all nodes."""
        if self.node_count == 0:
            raise ValueError("empty graph")
        cs = [self.local_cluster_coefficient(v) for v in range(self.node_count)]
        avg = sum(cs) / len(cs)
        return sum((c - avg) ** 2 for c in cs) / len(cs)

    def min_pairwise_distance(self) -> float:
        if self.node_count < 2:
            return math.inf
        return min(
            math.dist(self.positions[u], self.positions[v])
            for u in range(self.node_count)
            for v in range(u + 1, self.node_count)
        )

    # -- connectivity -----------------------------------------------------

    @cached_property
    def connected_components(self) -> tuple[frozenset[int], ...]:
        """Partition of the nodes into maximal connected subgraph node sets."""
        seen = [False] * self.node_count
        comps = []
        for start in range(self.node_count):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = [start]
            while queue:
                v = queue.pop()
                for w in self._adjacency[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(frozenset(comp))
        return tuple(comps)

    def is_connected(self) -> bool:
        return self.node_count >= 1 and len(self.connected_components) == 1

    @cached_property
    def bridges(self) -> tuple[Edge, ...]:
        """All edges whose removal increases the component count.

        Iterative lowpoint DFS, O(|V| + |E|).
        """
        n = self.node_count
        disc = [-1] * n
        low = [0] * n
        out: list[Edge] = []
        timer = 0
        for root in range(n):
            if disc[root] != -1:
                continue
            disc[root] = low[root] = timer
            timer += 1
            stack = [(root, -1, iter(self._adjacency[root]))]
            while stack:
                v, parent, it = stack[-1]
                descended = False
                for w in it:
                    if w == parent:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, v, iter(self._adjacency[w])))
                        descended = True
                        break
                    low[v] = min(low[v], disc[w])
                if descended:
                    continue
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.append(_norm_edge(parent, v))
        return tuple(sorted(out))

    def bridge_paths(self) -> tuple[tuple[int, ...], ...]:
        """Maximal chains of at least two bridges through degree-2 interior nodes.

        Each returned sequence lists the path's nodes in order; interior nodes
        all have degree 2 in the graph, so both of their incident edges belong
        to the chain.  Chains cannot close into cycles because cycle edges are
        never bridges.
        """
        bridge_set = set(self.bridges)
        deg = [len(a) for a in self._adjacency]
        used: set[Edge] = set()
        paths = []
        for u0, v0 in sorted(bridge_set):
            if (u0, v0) in used:
                continue
            used.add((u0, v0))
            chain = [u0, v0]
            for grow_front in (False, True):
                while True:
                    end = chain[0] if grow_front else chain[-1]
                    prev = chain[1] if grow_front else chain[-2]
                    if deg[end] != 2:
                        break
                    nxt = next(w for w in self._adjacency[end] if w != prev)
                    e = _norm_edge(end, nxt)
                    if e not in bridge_set or e in used:
                        break
                    used.add(e)
                    if grow_front:
                        chain.insert(0, nxt)
                    else:
                        chain.append(nxt)
            if len(chain) < 3:
                continue
            if chain[0] > chain[-1]:
                chain.reverse()
            paths.append(tuple(chain))
        return tuple(sorted(paths))

    # -- derivation -------------------------------------------------------

    def with_edges(self, new_edges: list[Edge], tag: str) -> "GeometricGraph":
        """New graph value with ``new_edges`` added, each carrying ``tag``."""
        extra = [(_norm_edge(u, v)) for u, v in new_edges]
        for e in extra:
            if e in self._edge_set:
                raise ValueError(f"edge {e} already present")
        merged = sorted(
            list(zip(self.edges, self.edge_tags)) + [(e, tag) for e in sorted(set(extra))]
        )
        return GeometricGraph(
            positions=self.positions,
            edges=tuple(e for e, _ in merged),
            r_tr=self.r_tr,
            lam=self.lam,
            edge_tags=tuple(t for _, t in merged),
        )

    def without_edge(self, u: int, v: int) -> "GeometricGraph":
        e = _norm_edge(u, v)
        if e not in self._edge_set:
            raise ValueError(f"edge {e} not present")
        kept = [(f, t) for f, t in zip(self.edges, self.edge_tags) if f != e]
        return GeometricGraph(
            positions=self.positions,
            edges=tuple(f for f, _ in kept),
            r_tr=self.r_tr,
            lam=self.lam,
            edge_tags=tuple(t for _, t in kept),
        )

    # -- interchange format ------------------------------------------------

    def to_json_dict(self) -> dict:
        edges = []
        for (u, v), tag in zip(self.edges, self.edge_tags):
            edges.append([u, v] if tag == TAG_UDG else [u, v, tag])
        return {
            "lambda": self.lam,
            "r_tr": self.r_tr,
            "nodes": [[x, y] for x, y in self.positions],
            "edges": edges,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(", ", ": "))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GeometricGraph":
        positions = tuple((float(x), float(y)) for x, y in doc["nodes"])
        edges = []
        tags = []
        for entry in doc["edges"]:
            u, v = int(entry[0]), int(entry[1])
            edges.append((u, v))
            tags.append(str(entry[2]) if len(entry) > 2 else TAG_UDG)
        order = sorted(range(len(edges)), key=lambda k: edges[k])
        return cls(
            positions=positions,
            edges=tuple(edges[k] for k in order),
            r_tr=float(doc["r_tr"]),
            lam=float(doc.get("lambda", 0.0)),
            edge_tags=tuple(tags[k] for k in order),
        )

    @classmethod
    def from_json(cls, text: str) -> "GeometricGraph":
        return cls.from_json_dict(json.loads(text))


def build_udg(positions, r_tr: float, lam: float = 0.0) -> GeometricGraph:
    """Unit disk graph over ``positions``: edges exactly the pairs within ``r_tr``.

    Rejects coordinates outside [0,1)^2 and duplicate coordinates (any
    duplicate breaks lambda-precision for every positive lambda).  When
    ``lam`` > 0 the positions must be pairwise at least ``lam`` apart.
    """
    pts = tuple((float(x), float(y)) for x, y in positions)
    if r_tr <= 0:
        raise ValueError("r_tr must be positive")
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
