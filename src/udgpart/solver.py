"""Solvers for the partition programs: exact enumeration and branch and bound.

Both solvers exploit the shared shape of the programs: every node picks one
admissible portfolio of means (a single mean, a k-subset, or a cost-exact
subset), and coverage auxiliaries follow from the picks.  The oracle
enumerates whole assignments; the branch-and-bound search fixes nodes one at
a time and prunes with a combinatorial per-node coverage cap that is exact on
leaves, so its bound never undercuts a completion of the current partial
assignment.  Every program starts from one warm start: a greedy portfolio
labelling improved by local search on incrementally kept cover counts, with
feasibility programs scored as maximal-soft.  When that labelling meets the
root bound it is optimal (for a feasibility program: satisfying) without any
branching; otherwise the search runs with the time that is left.
"""

import itertools
import random
import time
from dataclasses import dataclass

import numpy as np

from .graphs import GeometricGraph
from .ilp import (
    CAP_EXACTLY_ONE,
    CAP_FIXED_K,
    KIND_FEASIBILITY,
    KIND_MAXIMAL_SOFT,
    KIND_OPTIMAL_SOFT,
    IlpModel,
    PartitionAssignment,
    _closed_neighbourhoods,
    portfolio_domain,
)

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMIT = "feasible-time-limit"
STATUS_INFEASIBLE = "infeasible"
STATUS_ERROR = "error"


class OracleCapError(RuntimeError):
    """The enumeration space exceeds what the oracle is allowed to walk."""


@dataclass(frozen=True)
class SolveLimits:
    time_limit: float = 1200.0
    node_limit: int | None = None

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class SolveReport:
    status: str
    assignment: PartitionAssignment | None
    objective: float | None
    best_bound: float | None
    wall_time: float
    explored_nodes: int


def _assignment_from_rows(domain, row, n):
    return PartitionAssignment(tuple(domain[int(i)] for i in row), n)


def brute_force(model: IlpModel, cap: int = 10_000_000) -> SolveReport:
    """True optimum by chunked enumeration of all admissible assignments.

    Ties resolve to the first optimum in enumeration order (nodes ascending,
    portfolio index ascending).  Raises :class:`OracleCapError` when the
    space exceeds ``cap``.
    """
    start = time.perf_counter()
    domain = portfolio_domain(model.n, model.capacity, model.k, model.costs)
    nc, n = model.node_count, model.n
    if not domain:
        return SolveReport(
            STATUS_INFEASIBLE, None, None, None, time.perf_counter() - start, 0
        )
    total = len(domain) ** nc
    if total > cap:
        raise OracleCapError(
            f"{len(domain)}^{nc} = {total} assignments exceed the oracle cap {cap}"
        )
    has_table = np.array(
        [[(i in p) for i in range(1, n + 1)] for p in domain], dtype=bool
    )
    nbrs = [np.array(ws, dtype=np.intp) for ws in model.closed_neighbourhoods]

    best_val = None
    best_row = None
    feasible_found = False
    chunk_size = 1 << 14
    combos = itertools.product(range(len(domain)), repeat=nc)
    explored = 0
    while True:
        rows = list(itertools.islice(combos, chunk_size))
        if not rows:
            break
        labels = np.array(rows, dtype=np.intp)
        holds = has_table[labels]  # (C, nc, n)
        covered = np.empty_like(holds)
        for v in range(nc):
            covered[:, v, :] = holds[:, nbrs[v], :].any(axis=1)
        if model.kind == KIND_FEASIBILITY:
            ok = covered.all(axis=(1, 2))
            hits = np.flatnonzero(ok)
            if hits.size:
                best_row = labels[hits[0]]
                best_val = 0.0
                feasible_found = True
                explored += int(hits[0]) + 1
                break
            explored += len(rows)
        else:
            vals = (
                covered.sum(axis=(1, 2))
                if model.kind == KIND_OPTIMAL_SOFT
                else covered.all(axis=2).sum(axis=1)
            )
            top = int(vals.argmax())
            if best_val is None or vals[top] > best_val:
                best_val = float(vals[top])
                best_row = labels[top]
            explored += len(rows)
    wall = time.perf_counter() - start
    if model.kind == KIND_FEASIBILITY and not feasible_found:
        return SolveReport(STATUS_INFEASIBLE, None, None, None, wall, explored)
    assignment = _assignment_from_rows(domain, best_row, n)
    return SolveReport(
        STATUS_OPTIMAL,
        assignment,
        float(best_val),
        float(best_val),
        wall,
        explored,
    )


def greedy_incumbent(g: GeometricGraph, n: int) -> PartitionAssignment:
    """Valid one-mean-per-node start: highest degree first, rarest mean locally.

    The policy is identical for both soft objectives.
    """
    domain = portfolio_domain(n, CAP_EXACTLY_ONE)
    labels = _greedy(_closed_neighbourhoods(g), domain, n)
    return PartitionAssignment(tuple(domain[p] for p in labels), n)


def _mean_indices(domain):
    """Each portfolio's means as sorted 0-based indices."""
    return [tuple(i - 1 for i in sorted(p)) for p in domain]


def _greedy(nbrs, domain, n):
    """Portfolio indices, highest degree first, locally rarest means first.

    Each node takes the portfolio whose means its labelled closed
    neighbourhood holds least often (sum of counts, then portfolio index).
    """
    means = _mean_indices(domain)
    order = sorted(range(len(nbrs)), key=lambda v: (-len(nbrs[v]), v))
    label = [-1] * len(nbrs)
    for v in order:
        counts = [0] * n
        for w in nbrs[v]:
            if label[w] >= 0:
                for i in means[label[w]]:
                    counts[i] += 1
        label[v] = min(
            range(len(means)),
            key=lambda p: (sum(counts[i] for i in means[p]), p),
        )
    return label


class _Search:
    """Depth-first branch and bound over per-node portfolio choices."""

    def __init__(self, model, domain, limits):
        self.model = model
        self.domain = domain
        self.limits = limits
        self.n = model.n
        self.nc = model.node_count
        self.nbrs = model.closed_neighbourhoods
        self.smax = max(len(p) for p in domain)
        self.possible = [
            any(i in p for p in domain) for i in range(1, self.n + 1)
        ]
        self.order = self._branch_order()
        self.fixed = [-1] * self.nc
        self.cover_cnt = [[0] * self.n for _ in range(self.nc)]
        self.distinct = [0] * self.nc
        self.unfixed_cnt = [len(self.nbrs[v]) for v in range(self.nc)]
        self.contrib = [0] * self.nc
        self.bound = 0
        for v in range(self.nc):
            c = self._node_contrib(v)
            self.contrib[v] = c
            self.bound += c
        self.root_bound = self.bound
        self.incumbent_row = None
        self.incumbent_val = None
        self.explored = 0
        self.deadline = None
        self.timed_out = False
        self.node_limited = False

    def _branch_order(self):
        """Fix nodes in a connectivity-clustered order.

        Starting from the tightest closed neighbourhood, always branch next
        on the node with the most already-branched neighbours.  Completing
        neighbourhoods early makes the coverage cap bite near the top of the
        tree; a degree-sorted order leaves it slack until the very bottom
        and can be slower by orders of magnitude.
        """
        fixed_adj = [0] * self.nc
        out = []
        remaining = set(range(self.nc))
        while remaining:
            v = min(
                remaining,
                key=lambda w: (-fixed_adj[w], len(self.nbrs[w]), w),
            )
            out.append(v)
            remaining.discard(v)
            for w in self.nbrs[v]:
                fixed_adj[w] += 1
        return out

    def _node_contrib(self, v):
        u = self.unfixed_cnt[v]
        cc = self.cover_cnt[v]
        d = self.distinct[v]
        kind = self.model.kind
        if kind == KIND_OPTIMAL_SOFT:
            if u == 0:
                return d
            ach = sum(
                1
                for i in range(self.n)
                if cc[i] > 0 or self.possible[i]
            )
            return min(self.n, ach, d + self.smax * u)
        reachable = all(
            cc[i] > 0 or (u > 0 and self.possible[i]) for i in range(self.n)
        )
        full = reachable and (d + self.smax * u >= self.n)
        return 1 if full else 0

    def _apply(self, v, portfolio, sign):
        # sign +1 fixes, -1 unfixes; refresh the cap of every neighbourhood
        # the node participates in
        for w in self.nbrs[v]:
            cc = self.cover_cnt[w]
            for i in portfolio:
                before = cc[i - 1]
                cc[i - 1] = before + sign
                if sign > 0 and before == 0:
                    self.distinct[w] += 1
                elif sign < 0 and before == 1:
                    self.distinct[w] -= 1
            self.unfixed_cnt[w] -= sign
            c = self._node_contrib(w)
            self.bound += c - self.contrib[w]
            self.contrib[w] = c

    def _check_limits(self):
        if self.limits.node_limit is not None and self.explored >= self.limits.node_limit:
            self.node_limited = True
            return True
        if (self.explored & 0xFF) == 0 and time.perf_counter() >= self.deadline:
            self.timed_out = True
            return True
        return False

    def run(self, time_budget):
        self.deadline = time.perf_counter() + time_budget
        kind = self.model.kind
        # permuting mean labels maps solutions to solutions unless costs
        # break the symmetry, so the first branched node needs one child only
        first_domain = (
            self.domain[:1]
            if self.model.capacity in (CAP_EXACTLY_ONE, CAP_FIXED_K)
            else self.domain
        )

        def dfs(depth):
            if self.timed_out or self.node_limited:
                return False
            if depth == self.nc:
                val = self.bound
                if kind == KIND_FEASIBILITY:
                    self.incumbent_row = list(self.fixed)
                    self.incumbent_val = 0.0
                    return True  # first satisfying leaf ends the search
                if self.incumbent_val is None or val > self.incumbent_val:
                    self.incumbent_val = val
                    self.incumbent_row = list(self.fixed)
                return False
            v = self.order[depth]
            children = first_domain if depth == 0 else self.domain
            for idx, portfolio in enumerate(children):
                self.explored += 1
                if self._check_limits():
                    return False
                self.fixed[v] = idx
                self._apply(v, portfolio, +1)
                if kind == KIND_FEASIBILITY:
                    keep = self.bound >= self.nc
                else:
                    keep = (
                        self.incumbent_val is None
                        or self.bound > self.incumbent_val
                    )
                if keep and dfs(depth + 1):
                    self._apply(v, portfolio, -1)
                    self.fixed[v] = -1
                    return True
                self._apply(v, portfolio, -1)
                self.fixed[v] = -1
            return False

        dfs(0)


def solve(model: IlpModel, limits: SolveLimits = SolveLimits()) -> SolveReport:
    """Branch and bound with warm start, time limit and proof of optimality.

    Returns status ``optimal`` with objective == best bound when the search
    space is exhausted or the warm start already meets the root bound,
    ``feasible-time-limit`` with the incumbent and the root bound when
    interrupted, and ``infeasible`` when no admissible assignment exists.
    """
    start = time.perf_counter()
    if model.kind not in (KIND_FEASIBILITY, KIND_OPTIMAL_SOFT, KIND_MAXIMAL_SOFT):
        return SolveReport(STATUS_ERROR, None, None, None, 0.0, 0)
    domain = portfolio_domain(model.n, model.capacity, model.k, model.costs)
    if not domain:
        return SolveReport(
            STATUS_INFEASIBLE, None, None, None, time.perf_counter() - start, 0
        )
    deadline = start + limits.time_limit
    search = _Search(model, domain, limits)
    feasibility = model.kind == KIND_FEASIBILITY

    # a feasibility program whose root bound is below |V| goes straight to
    # the search, which refutes it at the first node
    interrupted = solved = False
    if not feasibility or search.root_bound == search.nc:
        labels, value, interrupted = _warm_start(
            model, domain, search.contrib, deadline
        )
        # a warm start at the root bound is optimal (for a feasibility
        # program: satisfies every constraint); one cut by the clock
        # otherwise ends the solve, so the clock never decides what a
        # proven result looks like
        solved = value == search.root_bound
        interrupted = interrupted and not solved
        if solved or not feasibility:
            search.incumbent_row = labels
            search.incumbent_val = 0.0 if feasibility else value

    if not interrupted and not solved:
        search.run(max(deadline - time.perf_counter(), 1e-3))
        interrupted = search.timed_out or search.node_limited
    wall = time.perf_counter() - start

    if search.incumbent_row is None:
        if interrupted:
            return SolveReport(
                STATUS_TIME_LIMIT, None, None, float(search.root_bound), wall,
                search.explored,
            )
        return SolveReport(
            STATUS_INFEASIBLE, None, None, None, wall, search.explored
        )

    assignment = PartitionAssignment(
        tuple(domain[k] for k in search.incumbent_row), model.n
    )
    values = model.assignment_to_values(assignment)
    if model.violated_constraints(values):
        return SolveReport(STATUS_ERROR, None, None, None, wall, search.explored)
    objective = float(search.incumbent_val)
    if interrupted:
        return SolveReport(
            STATUS_TIME_LIMIT,
            assignment,
            objective,
            float(max(search.root_bound, objective)),
            wall,
            search.explored,
        )
    return SolveReport(
        STATUS_OPTIMAL, assignment, objective, objective, wall, search.explored
    )


def _diff(a, b):
    return tuple(i for i in a if i not in b), tuple(i for i in b if i not in a)


class _Cover:
    """Cover counts of a complete one-portfolio-per-node labelling.

    ``labels[u]`` is node u's index into the portfolio domain,
    ``cc[v][i]`` counts the nodes of N[v] holding mean i+1 and
    ``distinct[v]`` the means N[v] sees, so relabelling a node is evaluated
    and applied in O(deg) per changed mean.  ``value`` is the model's soft
    objective throughout; a feasibility program is scored as maximal-soft,
    so a value of |V| means every cover constraint holds.  ``cap[v]`` is
    the most node v can contribute, the search's root contribution of v
    (``_Search.contrib`` before branching), so the caps sum to the root
    bound.
    """

    def __init__(self, model, domain, labels, cap):
        self.n = n = model.n
        self.nbrs = model.closed_neighbourhoods
        self.maximal = model.kind != KIND_OPTIMAL_SOFT
        self.means = means = _mean_indices(domain)
        # (lost means, gained means) of relabelling portfolio a with b, and
        # the lost and the gained mean if that is a one-for-one swap (every
        # exactly-one move), (-1, -1) otherwise
        self.diff = [[_diff(a, b) for b in means] for a in means]
        self.swap = [
            [(lost[0], gained[0]) if len(lost) == len(gained) == 1 else (-1, -1)
             for lost, gained in row]
            for row in self.diff
        ]
        self.labels = list(labels)
        self.cc = [[0] * n for _ in self.nbrs]
        for row, nb in zip(self.cc, self.nbrs):
            for w in nb:
                for i in means[self.labels[w]]:
                    row[i] += 1
        self.distinct = [n - row.count(0) for row in self.cc]
        self.cap = cap
        self.value = self.distinct.count(n) if self.maximal else sum(self.distinct)

    def deficient(self, v):
        """Whether node v contributes less than its cap."""
        if self.maximal:
            return self.cap[v] == 1 and self.distinct[v] < self.n
        return self.distinct[v] < self.cap[v]

    def delta(self, u, p):
        """Objective change of relabelling node u with portfolio ``p``."""
        a = self.labels[u]
        if a == p:
            return 0
        x, y = self.swap[a][p]
        n, cc, distinct, maximal = self.n, self.cc, self.distinct, self.maximal
        d = 0
        if x < 0:
            lost, gained = self.diff[a][p]
            for w in self.nbrs[u]:
                row = cc[w]
                change = sum(row[j] == 0 for j in gained) - sum(row[i] == 1 for i in lost)
                if not maximal:
                    d += change
                elif change:
                    d += (distinct[w] + change == n) - (distinct[w] == n)
            return d
        for w in self.nbrs[u]:
            row = cc[w]
            change = (row[y] == 0) - (row[x] == 1)
            if not maximal:
                d += change
            elif change:
                d += (distinct[w] + change == n) - (distinct[w] == n)
        return d

    def move(self, u, p, delta):
        """Relabel node u with portfolio ``p``; ``delta`` is ``self.delta(u, p)``."""
        lost, gained = self.diff[self.labels[u]][p]
        cc, distinct = self.cc, self.distinct
        for w in self.nbrs[u]:
            row = cc[w]
            for x in lost:
                row[x] -= 1
                if row[x] == 0:
                    distinct[w] -= 1
            for y in gained:
                if row[y] == 0:
                    distinct[w] += 1
                row[y] += 1
        self.labels[u] = p
        self.value += delta


def _warm_start(model, domain, cap, deadline):
    """Greedy labelling, delta polish, then tabu search up to the root bound.

    ``cap`` holds the per-node root contributions (see :class:`_Cover`).

    Returns the best portfolio indices, their objective and whether the
    clock cut the work short.  Everything but the cut is decided by the
    model alone: the tabu phase draws from an RNG seeded by the model's size
    and stops after a fixed number of moves that do not improve on the best
    labelling.
    """
    labels = _greedy(model.closed_neighbourhoods, domain, model.n)
    cover = _Cover(model, domain, labels, cap)
    if not _polish(cover, deadline):
        return cover.labels, cover.value, True
    rng = random.Random(model.node_count * 7919 + model.n)
    return _tabu(cover, deadline, rng, 100 * model.node_count)


def _polish(cover, deadline, max_rounds=20):
    """Single-node relabellings until no move improves the objective.

    Moves are tried node by node, portfolio by portfolio in domain order,
    and the first improving one is kept.  Returns False when the deadline
    passed first.
    """
    portfolios = range(len(cover.means))
    for _ in range(max_rounds):
        improved = False
        for v in range(len(cover.labels)):
            if time.perf_counter() >= deadline:
                return False
            for p in portfolios:
                d = cover.delta(v, p)
                if d > 0:
                    cover.move(v, p, d)
                    improved = True
        if not improved:
            break
    return True


def _tabu(cover, deadline, rng, patience):
    """Tabu search over single relabellings that repair deficient nodes.

    Each step picks a node below its cap at random and applies the best
    move that gives a node of its closed neighbourhood a portfolio holding
    one of its missing means (portfolios in domain order), ties broken at
    random.  A moved node stays fixed for a few steps unless moving it again
    beats the best labelling seen.  Stops at the sum of the caps (the root
    bound), after ``patience`` steps without a new best, or at the deadline.
    Returns the best labels, their objective and whether the deadline was
    the reason to stop.
    """
    n, nbrs, cc = cover.n, cover.nbrs, cover.cc
    # candidate portfolios per set of missing means, filled as met
    holding = {}
    nc = len(cover.labels)
    target = sum(cover.cap)
    deficient = [v for v in range(nc) if cover.deficient(v)]
    slot = [-1] * nc
    for k, v in enumerate(deficient):
        slot[v] = k
    tabu_until = [0] * nc
    best_labels, best = list(cover.labels), cover.value
    step = stall = 0
    while deficient and best < target and stall < patience:
        if (step & 0x3F) == 0 and time.perf_counter() >= deadline:
            return best_labels, best, True
        step += 1
        stall += 1
        v = deficient[rng.randrange(len(deficient))]
        row = cc[v]
        missing = tuple([i for i in range(n) if row[i] == 0])
        candidates = holding.get(missing)
        if candidates is None:
            candidates = holding[missing] = [
                p for p, ms in enumerate(cover.means) if not set(ms).isdisjoint(missing)
            ]
        moves, top = [], None
        for w in nbrs[v]:
            for p in candidates:
                d = cover.delta(w, p)
                if tabu_until[w] >= step and cover.value + d <= best:
                    continue
                if top is None or d > top:
                    moves, top = [(w, p)], d
                elif d == top:
                    moves.append((w, p))
        if not moves:
            continue
        w, p = moves[rng.randrange(len(moves))]
        cover.move(w, p, top)
        tabu_until[w] = step + 2 + rng.randrange(8)
        for x in nbrs[w]:
            bad = cover.deficient(x)
            if bad and slot[x] < 0:
                slot[x] = len(deficient)
                deficient.append(x)
            elif not bad and slot[x] >= 0:
                last = deficient.pop()
                if last != x:
                    deficient[slot[x]] = last
                    slot[last] = slot[x]
                slot[x] = -1
        if cover.value > best:
            best_labels, best, stall = list(cover.labels), cover.value, 0
    return best_labels, best, False
