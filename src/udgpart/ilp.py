"""0-1 linear programs for domatic and soft domatic partitions of a graph.

Six formulations share the binary variables x_v_i ("node v holds mean i").
The feasibility family constrains every closed neighbourhood to contain every
mean; the soft family drops those constraints and instead maximises coverage
through auxiliary variables: y_v_i flags mean i as reachable from v, z_v
flags v as completely covered.  The per-node capacity rule is one of
exactly-one, exactly-k, or cost-weighted (unit budget).
"""

import io
import itertools
import numbers
from dataclasses import dataclass, field

from .graphs import GeometricGraph

KIND_FEASIBILITY = "feasibility"
KIND_OPTIMAL_SOFT = "optimal-soft"
KIND_MAXIMAL_SOFT = "maximal-soft"
KINDS = (KIND_FEASIBILITY, KIND_OPTIMAL_SOFT, KIND_MAXIMAL_SOFT)

CAP_EXACTLY_ONE = "exactly-one"
CAP_FIXED_K = "fixed-k"
CAP_COST = "cost"


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple[tuple[int, float], ...]  # (variable index, coefficient)
    relation: str  # "<=", "=" or ">="
    bound: float


@dataclass(frozen=True)
class PartitionAssignment:
    """Which partition sets (means, 1-based) each node holds."""

    assign: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self):
        for v, means in enumerate(self.assign):
            if not means:
                raise ValueError(f"node {v} holds no mean")
            if not all(1 <= i <= self.n for i in means):
                raise ValueError(f"node {v} holds a mean outside 1..{self.n}")

    @classmethod
    def from_labels(cls, labels, n):
        return cls(tuple(frozenset((int(i),)) for i in labels), n)


@dataclass(frozen=True)
class IlpModel:
    """A 0-1 program declared by its kind, capacity rule and neighbourhoods.

    The declaration is checked when the model is made: an unknown kind or
    capacity rule, ``n`` not an integer >= 1, no nodes, a closed
    neighbourhood that is not a set of node indices holding its own node,
    or a missing or invalid ``k`` (fixed-k) or ``costs`` (cost rule) raise
    :class:`ValueError`.
    ``variables``, ``constraints`` and ``objective`` (maximisation sense)
    are then derived from it, so a model built directly or through
    :func:`dataclasses.replace` always has the rows its neighbourhoods and
    capacity rule call for.
    """

    kind: str
    capacity: str
    n: int
    closed_neighbourhoods: tuple[tuple[int, ...], ...]
    k: int | None = None
    costs: tuple[float, ...] | None = None
    variables: tuple[str, ...] = field(init=False)
    constraints: tuple[Constraint, ...] = field(init=False)
    objective: tuple[tuple[int, float], ...] | None = field(init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown program kind {self.kind!r}")
        if self.capacity not in (CAP_EXACTLY_ONE, CAP_FIXED_K, CAP_COST):
            raise ValueError(f"unknown capacity mode {self.capacity!r}")
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not self.closed_neighbourhoods:
            raise ValueError("graph must have at least one node")
        _validate_neighbourhoods(self.closed_neighbourhoods)
        if self.capacity == CAP_FIXED_K:
            object.__setattr__(self, "k", _validate_k(self.k, self.n))
        if self.capacity == CAP_COST:
            object.__setattr__(self, "costs", _validate_costs(self.costs, self.n))
        n, nbrs = self.n, self.closed_neighbourhoods
        nodes, means = range(len(nbrs)), range(1, n + 1)
        x, y, z = self.x_index, self.y_index, self.z_index
        # one assign_v row per node: costs (or ones) summing to 1 (or k)
        coefs = self.costs if self.capacity == CAP_COST else (1.0,) * n
        bound = float(self.k) if self.capacity == CAP_FIXED_K else 1.0
        variables = [f"x_{v}_{i}" for v in nodes for i in means]
        constraints = [
            Constraint(
                f"assign_{v}", tuple((x(v, i), coefs[i - 1]) for i in means), "=", bound
            )
            for v in nodes
        ]
        objective = None
        if self.kind == KIND_FEASIBILITY:
            constraints += [
                Constraint(
                    f"cover_{v}_{i}", tuple((x(w, i), 1.0) for w in nbrs[v]), ">=", 1.0
                )
                for v in nodes
                for i in means
            ]
        else:
            variables += [f"y_{v}_{i}" for v in nodes for i in means]
            constraints += [
                Constraint(
                    f"cover_{v}_{i}",
                    ((y(v, i), 1.0),) + tuple((x(w, i), -1.0) for w in nbrs[v]),
                    "<=",
                    0.0,
                )
                for v in nodes
                for i in means
            ]
            if self.kind == KIND_OPTIMAL_SOFT:
                objective = tuple((y(v, i), 1.0) for v in nodes for i in means)
            else:
                variables += [f"z_{v}" for v in nodes]
                constraints += [
                    Constraint(f"full_{v}_{i}", ((z(v), 1.0), (y(v, i), -1.0)), "<=", 0.0)
                    for v in nodes
                    for i in means
                ]
                objective = tuple((z(v), 1.0) for v in nodes)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "objective", objective)

    @property
    def node_count(self) -> int:
        return len(self.closed_neighbourhoods)

    # -- variable index layout: x block, then y block, then z block --------

    def x_index(self, v: int, i: int) -> int:
        return v * self.n + (i - 1)

    def y_index(self, v: int, i: int) -> int:
        return self.node_count * self.n + v * self.n + (i - 1)

    def z_index(self, v: int) -> int:
        return 2 * self.node_count * self.n + v

    def assignment_to_values(self, assignment: PartitionAssignment) -> dict[int, int]:
        """Binary values for all variables, auxiliaries at their maximal setting."""
        means, held = range(1, self.n + 1), assignment.assign
        values = {
            self.x_index(v, i): int(i in ms) for v, ms in enumerate(held) for i in means
        }
        if self.kind != KIND_FEASIBILITY:
            for v, nv in enumerate(self.closed_neighbourhoods):
                seen = set().union(*(held[w] for w in nv))
                values.update((self.y_index(v, i), int(i in seen)) for i in means)
                if self.kind == KIND_MAXIMAL_SOFT:
                    values[self.z_index(v)] = int(seen.issuperset(means))
        return values

    def violated_constraints(self, values: dict[int, int]) -> list[str]:
        """Names of constraints the given variable values break."""
        bad = []
        for c in self.constraints:
            total = sum(coef * values[idx] for idx, coef in c.terms)
            ok = (
                total <= c.bound + 1e-9
                if c.relation == "<="
                else total >= c.bound - 1e-9
                if c.relation == ">="
                else abs(total - c.bound) <= 1e-9
            )
            if not ok:
                bad.append(c.name)
        return bad

    def objective_value(self, values: dict[int, int]) -> float:
        if self.objective is None:
            return 0.0
        return float(sum(coef * values[idx] for idx, coef in self.objective))


def _validate_neighbourhoods(nbrs):
    """Each N[v] lists distinct node indices 0..|V|-1, v among them; O(sum |N[v]|)."""
    count = len(nbrs)
    for v, nv in enumerate(nbrs):
        seen = set()
        for w in nv:
            if isinstance(w, bool) or not isinstance(w, int):
                raise ValueError(f"N[{v}] holds {w!r}, not a node index")
            if not 0 <= w < count:
                raise ValueError(f"N[{v}] holds {w}, outside 0..{count - 1}")
            if w in seen:
                raise ValueError(f"N[{v}] holds {w} twice")
            seen.add(w)
        if v not in seen:
            raise ValueError(f"N[{v}] lacks node {v}")


def _validate_costs(costs, n):
    try:
        costs = tuple(float(c) for c in costs)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"costs must be a list of numbers that fit a float, got {costs!r}"
        ) from None
    if len(costs) != n:
        raise ValueError(f"need {n} cost components, got {len(costs)}")
    if not all(0.0 < c <= 1.0 for c in costs):
        raise ValueError("cost components must lie in (0, 1]")
    return costs


def _validate_k(k, n):
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not (1 <= k <= n):
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return int(k)


def portfolio_domain(n, capacity, k=None, costs=None) -> tuple[frozenset[int], ...]:
    """Admissible per-node mean portfolios, identical for every node.

    A single mean under exactly-one, every k-subset under fixed-k, and every
    subset whose costs sum to 1 (within 1e-9) under the cost rule.  ``k``
    and ``costs`` are taken as validated.

    Under the cost rule a depth-first walk adds the means in ascending
    order, summing costs left to right, and drops a branch once its sum
    passes 1 + 1e-9: costs are positive, so no superset comes back.  It
    visits only the subsets that fit the budget, which is still exponential
    in n when many costs are tiny (n costs of 1/n fit every subset).  The
    subsets come out in the order of their bitmask, mean i at bit i - 1.
    """
    means = range(1, n + 1)
    if capacity == CAP_EXACTLY_ONE:
        return tuple(frozenset((i,)) for i in means)
    if capacity == CAP_FIXED_K:
        return tuple(frozenset(c) for c in itertools.combinations(means, k))
    if capacity != CAP_COST:
        raise ValueError(f"unknown capacity mode {capacity!r}")
    masks = []
    stack = [(1, 0, 0.0)]  # (next mean, subset mask, its cost sum)
    while stack:
        start, mask, partial = stack.pop()
        for i in range(start, n + 1):
            total = partial + costs[i - 1]
            if total - 1.0 > 1e-9:
                continue
            grown = mask | 1 << (i - 1)
            if abs(total - 1.0) <= 1e-9:
                masks.append(grown)
            stack.append((i + 1, grown, total))
    return tuple(
        frozenset(i for i in means if mask >> (i - 1) & 1) for mask in sorted(masks)
    )


def build_model(g: GeometricGraph, n, kind, capacity, k=None, costs=None) -> IlpModel:
    """The ``kind`` program on ``g`` under ``capacity``, checked by :class:`IlpModel`."""
    nbrs = tuple(tuple(sorted(g.closed_neighbourhood(v))) for v in range(g.node_count))
    return IlpModel(kind, capacity, n, nbrs, k=k, costs=costs)


def build_domatic_feasibility(g: GeometricGraph, n: int) -> IlpModel:
    """Satisfiability program: is there a domatic partition of size n?"""
    return build_model(g, n, KIND_FEASIBILITY, CAP_EXACTLY_ONE)


def build_fixed_k(g: GeometricGraph, n: int, k: int) -> IlpModel:
    """Feasibility variant with exactly k means implemented per node."""
    return build_model(g, n, KIND_FEASIBILITY, CAP_FIXED_K, k=k)


def build_cost_based(g: GeometricGraph, n: int, costs) -> IlpModel:
    """Feasibility variant where each node spends its unit budget exactly."""
    return build_model(g, n, KIND_FEASIBILITY, CAP_COST, costs=costs)


def build_optimal_soft(g: GeometricGraph, n: int) -> IlpModel:
    """Maximise reachable (node, mean) pairs; |V|*n - optimum = missing coverages."""
    return build_model(g, n, KIND_OPTIMAL_SOFT, CAP_EXACTLY_ONE)


def build_maximal_soft(g: GeometricGraph, n: int) -> IlpModel:
    """Maximise completely covered nodes; |V| - optimum = incompletely covered."""
    return build_model(g, n, KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE)


# -- LP text export ---------------------------------------------------------


def _fmt_coef(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _fmt_expr(terms, variables) -> str:
    parts = []
    for idx, coef in terms:
        name = variables[idx]
        sign = "-" if coef < 0 else "+"
        mag = abs(coef)
        body = name if mag == 1.0 else f"{_fmt_coef(mag)} {name}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = (first_sign + " " if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def export_lp(model: IlpModel) -> str:
    """Model as LP-format text with a stable variable and constraint order.

    Feasibility programs get a constant-zero objective so any LP consumer
    accepts the file.
    """
    out = io.StringIO()
    out.write("Maximize\n")
    if model.objective:
        out.write(f" obj: {_fmt_expr(model.objective, model.variables)}\n")
    else:
        out.write(f" obj: 0 {model.variables[0]}\n")
    out.write("Subject To\n")
    for c in model.constraints:
        out.write(f" {c.name}: {_fmt_expr(c.terms, model.variables)} {c.relation} {_fmt_coef(c.bound)}\n")
    out.write("Binary\n")
    for name in model.variables:
        out.write(f" {name}\n")
    out.write("End\n")
    return out.getvalue()
