"""Full-size HiGHS cross-check of the soft-budget workload, on the default seed.

    python -m pytest -q perfbench/reference_check.py

Every soft-budget cell that the branch and bound reports ``optimal`` must
have the objective scipy's HiGHS MILP solver proves on the same model.  It
takes about two minutes, so it is not named like the quick
self-tests and a plain ``pytest`` run does not collect it.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from reference import highs_optimum  # noqa: E402


def test_proven_soft_budget_optima_match_highs(tmp_path):
    wl = workloads.SoftBudget(run.DEFAULT_SEED, False, str(tmp_path))
    setups = [wl.setup(i) for i in range(run.SETUP_REPEATS)]
    proven, mismatches = 0, []
    for kind in wl.cells_by_kind(setups):
        for graph_id, _, g, n, objective in kind:
            model = workloads.SOFT_BUILDERS[objective](g, n)
            report = workloads.solve(model, wl.limits)
            if report.status != "optimal":
                continue
            proven += 1
            reference = highs_optimum(model)
            if reference is None or abs(reference - report.objective) > 1e-6:
                mismatches.append((graph_id, n, objective, report.objective, reference))
    assert proven
    assert not mismatches
