"""Reference implementations the tests check the package against.

``brute_force`` enumerates every admissible assignment of a program and so
knows its true optimum; ``admissible`` decides one node's mean set by the
capacity rule alone.  Neither shares code with the branch-and-bound search
or with ``ilp.portfolio_domain``, which makes them independent oracles for
small instances.  Import them as ``from oracles import ...``.
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
