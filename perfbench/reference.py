"""Independent optimum of a soft program by scipy's HiGHS MILP solver.

Used by the benchmark's tests to cross-check every optimum the package's
branch and bound claims to have proven.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array


def highs_optimum(model, time_limit=60.0):
    """Maximum of ``model``'s objective over its 0-1 points, or None if unproven."""
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
    if res.status != 0:
        return None
    return -res.fun
