"""Reference implementations the tests check the package against.

``brute_force`` enumerates every admissible assignment of a program and so
knows its true optimum; ``admissible`` decides one node's mean set by the
capacity rule alone.  Neither shares code with the branch-and-bound search
or with ``ilp.portfolio_domain``, which makes them independent oracles for
small instances.  ``highs`` hands a program's rows to scipy's HiGHS MILP
solver, an exact solver past the enumeration's reach.  Import them as
``from oracles import ...``.
"""

import itertools
import time

import numpy as np

from udgpart.ilp import (
    CAP_COST,
    CAP_EXACTLY_ONE,
    CAP_FIXED_K,
    KIND_FEASIBILITY,
    KIND_OPTIMAL_SOFT,
    IlpModel,
    portfolio_domain,
)
from udgpart.solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    SolveReport,
    _assignment_from_rows,
)


class OracleCapError(RuntimeError):
    """The enumeration space exceeds what the oracle is allowed to walk."""


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
    # a feasibility program keeps no row unless one satisfies it
    if best_row is None:
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


def admissible(means, n, capacity, k=None, costs=None) -> bool:
    """Whether a node may hold the 1-based mean set ``means``, in O(|means|).

    ``k`` and ``costs`` are taken as validated.
    """
    if not all(1 <= i <= n for i in means):
        return False
    if capacity == CAP_EXACTLY_ONE:
        return len(means) == 1
    if capacity == CAP_FIXED_K:
        return len(means) == k
    if capacity != CAP_COST:
        raise ValueError(f"unknown capacity mode {capacity!r}")
    # summed in ascending order, as the domain's subsets are
    return abs(sum(costs[i - 1] for i in sorted(means)) - 1.0) <= 1e-9


def highs(model, time_limit=60):
    """Optimum of ``model`` over its 0-1 points as scipy's HiGHS proves it.

    ``model`` needs ``variables``, ``constraints`` (rows with ``terms``,
    ``relation`` and ``bound``) and ``objective`` ((index, coefficient)
    pairs to maximise, or None for a feasibility program, whose optimum is
    0).  None when HiGHS proves the program infeasible; a result it does not
    prove within ``time_limit`` seconds fails the calling test.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    nv = len(model.variables)
    cost = np.zeros(nv)
    for idx, coef in model.objective or ():
        cost[idx] -= coef  # milp minimises
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, con in enumerate(model.constraints):
        for idx, coef in con.terms:
            rows.append(r)
            cols.append(idx)
            vals.append(coef)
        lo.append(con.bound if con.relation in (">=", "=") else -np.inf)
        hi.append(con.bound if con.relation in ("<=", "=") else np.inf)
    matrix = coo_array((vals, (rows, cols)), shape=(len(model.constraints), nv)).tocsr()
    res = milp(
        cost,
        constraints=LinearConstraint(matrix, lo, hi),
        integrality=np.ones(nv),
        bounds=Bounds(0, 1),
        options={"time_limit": time_limit},
    )
    assert res.status in (0, 2), res.message  # 0: solved, 2: infeasible
    return 0.0 - res.fun if res.status == 0 else None
