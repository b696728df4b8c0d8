"""Branch and bound for the partition programs.

The solver exploits the shared shape of the programs: every node picks one
admissible portfolio of means (a single mean, a k-subset, or a cost-exact
subset), and coverage auxiliaries follow from the picks.  The search fixes
nodes one at a time and prunes with a combinatorial per-node coverage cap
that is exact on leaves, so its bound never undercuts a completion of the
current partial assignment.  All six programs take one path, a
feasibility program as maximal-soft that must reach |V|.  Every program
whose root bound is above its floor starts from one warm start: a tabu
search from a round-robin portfolio labelling, on incrementally kept cover
counts (the counts the search fixes nodes on).  When its best labelling
meets the root bound it is optimal (for a feasibility program: satisfying)
without any branching; otherwise the search runs with the time that is
left.
"""

import math
import random
import time
from dataclasses import dataclass

from .ilp import (
    CAP_EXACTLY_ONE,
    CAP_FIXED_K,
    KIND_FEASIBILITY,
    KIND_OPTIMAL_SOFT,
    IlpModel,
    PartitionAssignment,
    portfolio_domain,
)

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMIT = "feasible-time-limit"
STATUS_INFEASIBLE = "infeasible"
STATUS_ERROR = "error"
# the statuses that answer a solve, on which ``partition`` exits 0; a
# feasibility search cut before any satisfying labelling answers
# feasible-time-limit with the root bound alone, without an assignment
ANSWERED = (STATUS_OPTIMAL, STATUS_TIME_LIMIT)


@dataclass(frozen=True)
class SolveLimits:
    time_limit: float = 1200.0
    node_limit: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.time_limit) and self.time_limit > 0):
            raise ValueError(f"time_limit must be finite and > 0, got {self.time_limit}")
        if self.node_limit is not None and (
            isinstance(self.node_limit, bool)
            or not isinstance(self.node_limit, int)
            or self.node_limit < 1
        ):
            raise ValueError(f"node_limit must be None or an int >= 1, got {self.node_limit!r}")


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


def _branch_order(nbrs):
    """Fix nodes in a connectivity-clustered order.

    Starting from the tightest closed neighbourhood, always branch next on
    the node with the most already-branched neighbours.  Completing
    neighbourhoods early makes the coverage cap bite near the top of the
    tree; a degree-sorted order leaves it slack until the very bottom and
    can be slower by orders of magnitude.
    """
    fixed_adj = [0] * len(nbrs)
    out = []
    remaining = set(range(len(nbrs)))
    while remaining:
        v = min(remaining, key=lambda w: (-fixed_adj[w], len(nbrs[w]), w))
        out.append(v)
        remaining.discard(v)
        for w in nbrs[v]:
            fixed_adj[w] += 1
    return out


def _search(cover, symmetric, floor, stop, limits, deadline):
    """Depth-first branch and bound over per-node portfolio choices.

    Nodes are fixed on ``cover``, which must start unlabelled, in
    :func:`_branch_order`.  A child is kept iff the cover's ``bound``, the
    sum of the per-node caps and exact on leaves, is above ``floor``.  A
    leaf raises the floor to its value; a leaf at ``stop`` or above ends the
    search.  If ``symmetric``, permuting mean labels maps solutions to
    solutions, so the first branched node needs one child only.  Returns
    the labels of the last leaf (None if none was reached), the floor, the
    explored nodes and whether the node limit or the deadline cut the
    search.
    """
    labels, unlabelled = cover.labels, cover.unlabelled
    nc = len(labels)
    order = _branch_order(cover.nbrs)
    node_limit = math.inf if limits.node_limit is None else limits.node_limit
    first_children = range(1 if symmetric else unlabelled)
    children = range(unlabelled)
    best = None
    explored = 0
    cut = False

    def dfs(depth):
        nonlocal best, floor, explored, cut
        if depth == nc:
            # the last fix kept this leaf only because its bound, exact
            # here, is above the floor
            best, floor = list(labels), cover.bound
            return floor >= stop
        v = order[depth]
        done = False
        # siblings relabel v in place; it is unfixed once they are done
        for p in first_children if depth == 0 else children:
            # a cut below ends every loop on the way up, before it counts
            if cut:
                break
            explored += 1
            if explored >= node_limit or (
                (explored & 0xFF) == 0 and time.perf_counter() >= deadline
            ):
                cut = True
                break
            cover.move(v, p)
            if cover.bound > floor and dfs(depth + 1):
                done = True
                break
        if labels[v] != unlabelled:
            cover.move(v, unlabelled)
        return done

    dfs(0)
    return best, floor, explored, cut


def solve(model: IlpModel, limits: SolveLimits = SolveLimits()) -> SolveReport:
    """Branch and bound with warm start, time limit and proof of optimality.

    Returns status ``optimal`` with objective == best bound when the search
    space is exhausted or the warm start already meets the root bound,
    ``feasible-time-limit`` with the incumbent and the root bound when
    interrupted, and ``infeasible`` when no admissible assignment exists.
    A feasibility program is solved as maximal-soft that must reach |V|:
    its floor is |V| - 1, a labelling at |V| ends the search, and its
    objective is reported as 0.
    """
    start = time.perf_counter()
    domain = portfolio_domain(model.n, model.capacity, model.k, model.costs)
    if not domain:
        return SolveReport(
            STATUS_INFEASIBLE, None, None, None, time.perf_counter() - start, 0
        )
    deadline = start + limits.time_limit
    nc = model.node_count
    feasibility = model.kind == KIND_FEASIBILITY
    cover = _Cover(
        model.closed_neighbourhoods, model.n, model.kind != KIND_OPTIMAL_SOFT, domain
    )
    root_bound = cover.bound
    floor, stop = (nc - 1, nc) if feasibility else (-1, math.inf)
    row = None
    explored = 0
    proven = cut = False
    # a root bound at the floor leaves the warm start nothing to find: the
    # search's first node refutes the program
    if root_bound > floor:
        labels, warm, cut = _warm_start(cover, deadline)
        # a warm start at the root bound is optimal; the clock cuts one only
        # below it, and a cut ends the solve, so the clock never decides
        # what a proven result looks like
        proven = warm == root_bound
        if warm > floor:
            row, floor = labels, warm
    if not (proven or cut):
        # the search fixes nodes on the same cover, from the empty labelling
        for u in range(nc):
            cover.move(u, cover.unlabelled)
        symmetric = model.capacity in (CAP_EXACTLY_ONE, CAP_FIXED_K)
        found, value, explored, cut = _search(
            cover, symmetric, floor, stop, limits, deadline
        )
        if found is not None:
            row, floor = found, value
    wall = time.perf_counter() - start

    if row is None:
        if cut:
            return SolveReport(STATUS_TIME_LIMIT, None, None, float(root_bound), wall, explored)
        return SolveReport(STATUS_INFEASIBLE, None, None, None, wall, explored)

    assignment = _assignment_from_rows(domain, row, model.n)
    values = model.assignment_to_values(assignment)
    objective = 0.0 if feasibility else float(floor)
    # the soft auxiliaries take their largest values, so the rows alone
    # cannot catch a misreported objective
    if model.violated_constraints(values) or model.objective_value(values) != objective:
        return SolveReport(STATUS_ERROR, None, None, None, wall, explored)
    if cut:
        status, bound = STATUS_TIME_LIMIT, float(max(root_bound, objective))
    else:
        status, bound = STATUS_OPTIMAL, objective
    return SolveReport(status, assignment, objective, bound, wall, explored)


class _Rows(dict):
    """A table of rows, each made by ``fill(a)`` on its first lookup."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, a):
        row = self[a] = self.fill(a)
        return row


class _Cover:
    """Cover counts of a portfolio labelling in which nodes may be unlabelled.

    ``labels[u]`` is node u's index into the portfolio domain, or
    ``unlabelled``: one past the domain, an empty portfolio.  ``cc[v][i]``
    counts the nodes of N[v] holding mean i+1, ``distinct[v]`` the means
    N[v] sees and ``unfixed[v]`` its unlabelled nodes, so fixing, unfixing
    or relabelling a node is evaluated and applied in O(deg) per changed
    mean.  ``value()`` is the soft objective over the closed neighbourhoods
    ``nbrs``: the nodes that see all n means if ``maximal``, else the means
    seen summed over nodes.  A feasibility program is scored as
    maximal-soft, so a value of |V| means every cover constraint holds.
    ``caps[v]`` is ``cap(v)`` and ``bound`` their sum, kept by ``move``.  A
    new cover has every node unlabelled; its caps, copied to ``root_cap``,
    sum to the root bound.
    """

    def __init__(self, nbrs, n, maximal, domain):
        self.n = n
        self.nbrs = nbrs
        self.maximal = maximal
        # each portfolio's means as sorted 0-based indices
        self.means = means = [tuple(i - 1 for i in sorted(p)) for p in domain] + [()]
        self.unlabelled = len(domain)
        # diff[a][b] relabels portfolio a with b: the lost means, the gained
        # means, and the lost and the gained mean if it is a one-for-one swap
        # (every exactly-one relabelling), else -1, -1.  holding[missing]
        # lists the portfolios holding one of the missing means, the tabu
        # search's candidates.  A row is filled on its first use, so a solve
        # pays only for the labels and the sets of missing means it meets
        self.diff = _Rows(self._relabellings)
        self.holding = _Rows(
            lambda missing: [p for p, ms in enumerate(means) if not set(ms).isdisjoint(missing)]
        )
        self.smax = max(map(len, means))
        # the means some portfolio holds: a node can see no other
        self.reach = len({i for ms in means for i in ms})
        self.labels = [self.unlabelled] * len(self.nbrs)
        self.cc = [[0] * n for _ in self.nbrs]
        self.distinct = [0] * len(self.nbrs)
        self.unfixed = [len(nb) for nb in self.nbrs]
        self.caps = [self.cap(v) for v in range(len(self.nbrs))]
        self.bound = sum(self.caps)
        self.root_cap = list(self.caps)

    def _relabellings(self, a):
        row, held = [], self.means[a]
        for b in self.means:
            lost = tuple(i for i in held if i not in b)
            gained = tuple(i for i in b if i not in held)
            swap = (lost[0], gained[0]) if len(lost) == len(gained) == 1 else (-1, -1)
            row.append((lost, gained, *swap))
        return row

    def value(self):
        return self.distinct.count(self.n) if self.maximal else sum(self.distinct)

    def cap(self, v):
        """The most node v can contribute once N[v] is labelled.

        Exact on a labelled N[v]: its contribution to ``value()``.
        """
        d, u = self.distinct[v], self.unfixed[v]
        if not u:
            return int(d == self.n) if self.maximal else d
        if self.maximal:
            return int(self.reach == self.n and d + self.smax * u >= self.n)
        return min(self.reach, d + self.smax * u)

    def delta(self, u, p):
        """Change of ``value()`` by relabelling node u with portfolio ``p``."""
        a = self.labels[u]
        if a == p:
            return 0
        lost, gained, x, y = self.diff[a][p]
        n, cc, distinct, maximal = self.n, self.cc, self.distinct, self.maximal
        d = 0
        if x < 0:
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

    def move(self, u, p):
        """Relabel node u with portfolio ``p``; ``unlabelled`` unfixes it."""
        a = self.labels[u]
        lost, gained, _, _ = self.diff[a][p]
        fixed = (a == self.unlabelled) - (p == self.unlabelled)
        cc, distinct, unfixed, caps, cap = (
            self.cc, self.distinct, self.unfixed, self.caps, self.cap
        )
        change = 0
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
            unfixed[w] -= fixed
            c = cap(w)
            change += c - caps[w]
            caps[w] = c
        self.bound += change
        self.labels[u] = p


def _warm_start(cover, deadline):
    """Round-robin labelling, then tabu search up to the root bound.

    Labels node v of the unlabelled ``cover`` with portfolio v mod the
    domain size.  Returns the best portfolio indices, their objective and
    whether the clock cut the search short.  Everything but the cut is
    decided by the model alone: the tabu search draws from an RNG seeded by
    the model's size and stops after a fixed number of moves that do not
    improve on the best labelling.
    """
    nc = len(cover.labels)
    for v in range(nc):
        cover.move(v, v % cover.unlabelled)
    rng = random.Random(nc * 7919 + cover.n)
    return _tabu(cover, deadline, rng, 100 * nc)


def _tabu(cover, deadline, rng, patience):
    """Tabu search over single relabellings that repair deficient nodes.

    Each step picks a node below its root cap at random and applies the
    best move that gives a node of its closed neighbourhood a portfolio
    holding one of its missing means (portfolios in domain order), ties
    broken at random.  A moved node stays fixed for a few steps unless
    moving it again beats the best labelling seen.  Stops at the sum of the
    root caps (the root bound), after ``patience`` steps without a new best,
    or at the deadline.  Returns the best labels, their objective and
    whether the deadline, which only a search below the root bound meets,
    was the reason to stop.
    """
    n, nbrs, cc, holding = cover.n, cover.nbrs, cover.cc, cover.holding
    # a node is deficient while it contributes less than its root cap
    caps, root_cap, delta = cover.caps, cover.root_cap, cover.delta
    nc = len(cover.labels)
    target = sum(root_cap)
    deficient = [v for v in range(nc) if caps[v] < root_cap[v]]
    slot = [-1] * nc
    for k, v in enumerate(deficient):
        slot[v] = k
    tabu_until = [0] * nc
    value = best = cover.value()
    best_labels = list(cover.labels)
    step = stall = 0
    while deficient and best < target and stall < patience:
        if (step & 0x3F) == 0 and time.perf_counter() >= deadline:
            return best_labels, best, True
        step += 1
        stall += 1
        v = deficient[rng.randrange(len(deficient))]
        row = cc[v]
        candidates = holding[tuple([i for i in range(n) if row[i] == 0])]
        moves, top = [], None
        for w in nbrs[v]:
            tabu = tabu_until[w] >= step
            for p in candidates:
                d = delta(w, p)
                if tabu and value + d <= best:
                    continue
                if top is None or d > top:
                    moves, top = [(w, p)], d
                elif d == top:
                    moves.append((w, p))
        if not moves:
            continue
        w, p = moves[rng.randrange(len(moves))]
        cover.move(w, p)
        value += top
        tabu_until[w] = step + 2 + rng.randrange(8)
        for x in nbrs[w]:
            bad = caps[x] < root_cap[x]
            if bad and slot[x] < 0:
                slot[x] = len(deficient)
                deficient.append(x)
            elif not bad and slot[x] >= 0:
                last = deficient.pop()
                if last != x:
                    deficient[slot[x]] = last
                    slot[last] = slot[x]
                slot[x] = -1
        if value > best:
            best_labels, best, stall = list(cover.labels), value, 0
    return best_labels, best, False
