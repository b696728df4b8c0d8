"""Output checks.  Each returns a list of problems; an empty list passes.

A cell with any problem counts as failed.  The checks use only the
package's public functions, and recount every assignment with
``coverage_errors`` rather than trusting a solver objective.
"""

import os

from udgpart.metrics import read_results_csv

AGGREGATE_FILES = (
    "agg_median_time.csv",
    "agg_mean_inc_nodes.csv",
    "agg_opt_split.csv",
    "agg_relative.csv",
)
ANSWERED = ("optimal", "feasible-time-limit")


def check_soft_record(rec) -> list[str]:
    """Status, objective identity and bound of one soft-objective record.

    |V|*n - objective = miss_cov (optimal-soft) and |V| - objective =
    inc_nodes (maximal-soft) hold for any assignment, not only optima.
    """
    where = f"{rec.graph_id} n={rec.n} {rec.objective}"
    if rec.status not in ANSWERED:
        return [f"{where}: status {rec.status}"]
    if rec.objective_value is None:
        return []
    if rec.miss_cov is None or rec.inc_nodes is None:
        return [f"{where}: assignment was not scored"]
    problems = []
    if rec.objective == "optimal":
        if rec.n_nodes * rec.n - rec.objective_value != rec.miss_cov:
            problems.append(f"{where}: |V|*n - objective != miss_cov {rec.miss_cov}")
    elif rec.n_nodes - rec.objective_value != rec.inc_nodes:
        problems.append(f"{where}: |V| - objective != inc_nodes {rec.inc_nodes}")
    if rec.best_bound is None or rec.objective_value > rec.best_bound + 1e-9:
        problems.append(f"{where}: objective above best bound {rec.best_bound}")
    if rec.status == "optimal" and rec.objective_value != rec.best_bound:
        problems.append(f"{where}: proven optimum differs from its bound")
    return problems


def check_results_dir(out_dir, records) -> list[str]:
    """results.csv reads back as exactly ``records``; all aggregates exist."""
    problems = []
    path = os.path.join(out_dir, "results.csv")
    if not os.path.isfile(path):
        return [f"{path} missing"]
    if read_results_csv(path) != list(records):
        problems.append(f"{path} does not read back as the returned records")
    for name in AGGREGATE_FILES:
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name} missing in {out_dir}")
    return problems


def check_partition_report(where, code, report) -> list[str]:
    """Exit code and content of a ``partition --objective feasible`` report."""
    status = report.get("status")
    expected = 0 if status in ANSWERED else 1
    problems = []
    if status not in ANSWERED + ("infeasible",):
        problems.append(f"{where}: status {status}")
    if code != expected:
        problems.append(f"{where}: partition exited {code} on status {status}")
    if status == "optimal":
        errors = report.get("errors") or {}
        if report.get("assignment") is None:
            problems.append(f"{where}: optimal without an assignment")
        elif errors.get("miss_cov") != 0 or errors.get("inc_nodes") != 0:
            problems.append(f"{where}: feasible partition leaves coverage missing")
    if status == "infeasible" and report.get("assignment") is not None:
        problems.append(f"{where}: infeasible with an assignment")
    return problems


def check_lp(where, code, summary, lp_path) -> list[str]:
    """export-lp exited 0 and wrote as many constraint rows as it reported."""
    if code != 0:
        return [f"{where}: export-lp exited {code}"]
    with open(lp_path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "Maximize" or lines[-1] != "End":
        return [f"{where}: LP file is not framed by Maximize/End"]
    rows = lines.index("Binary") - lines.index("Subject To") - 1
    if rows != summary.get("constraints"):
        return [f"{where}: LP has {rows} rows, export-lp reported {summary.get('constraints')}"]
    return []


def check_check(where, code, summary, report) -> list[str]:
    """``check`` accepts every report that carries an assignment."""
    if report.get("assignment") is None:
        if code != 1 or summary.get("problems") != ["report carries no assignment"]:
            return [f"{where}: check on an empty report gave {code} {summary}"]
        return []
    if code != 0 or summary.get("valid") is not True:
        return [f"{where}: check rejected the report: {summary.get('problems')}"]
    return []
