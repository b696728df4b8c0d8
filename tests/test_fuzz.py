"""Property tests: mutated inputs never crash the command line.

A mutated ``partition`` report, graph document or experiment config must
end in exit code 0, 1 or 2, never in a traceback, and a report that claims
an objective its assignment does not reach never passes ``check``.
"""

import contextlib
import io
import json
import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from udgpart import cli  # noqa: E402
from udgpart.cli import main  # noqa: E402

from test_graphs import complete_graph  # noqa: E402

NODES = 3

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=2), inner, max_size=4),
    max_leaves=8,
)
# any float, with NaN, the infinities (json writes them as NaN/Infinity) and
# a huge value drawn often
numbers = (
    st.integers(-3, 12) | st.sampled_from([math.nan, math.inf, -math.inf, 1e300]) | st.floats()
)
# per node: means drawn around the valid range, or any JSON value
node_means = st.lists(st.integers(-1, 6), max_size=4) | json_values
assignments = json_values | st.dictionaries(
    st.sampled_from([str(v) for v in range(NODES + 1)]), node_means, max_size=NODES + 1
)
# cost entries in and around (0, 1], integers on both sides of the largest
# float, and numeric strings
cost_entries = st.floats(0, 1.5) | st.integers(2**1023, 10**400) | st.floats(0, 1.5).map(str)
# cost lists holding an entry past the largest float, which float() refuses
past_float_costs = st.tuples(
    st.lists(cost_entries, max_size=3),
    st.integers(2**1024, 10**400),
    st.lists(cost_entries, max_size=2),
).map(lambda parts: [*parts[0], parts[1], *parts[2]])
capacities = (
    json_values
    | st.fixed_dictionaries(
        {"mode": st.sampled_from(["exactly-one", "fixed-k", "cost", "other"]) | json_values},
        optional={"k": json_values, "costs": st.lists(cost_entries, max_size=6) | json_values},
    )
    | st.fixed_dictionaries({"mode": st.just("cost"), "costs": past_float_costs})
)
errors = json_values | st.fixed_dictionaries(
    {}, optional={"miss_cov": json_values, "inc_nodes": json_values}
)
# field -> what may replace it; absent from the draw means left as written
MUTATIONS = {
    "n": st.integers(-3, 12) | json_values,
    "kind": st.sampled_from(["feasibility", "optimal-soft", "maximal-soft", "bogus"])
    | json_values,
    "capacity": capacities,
    "assignment": assignments,
    "errors": errors,
    "objective_value": numbers | json_values,
}


@pytest.fixture(scope="module")
def written_report(tmp_path_factory):
    """A real report of a 3-node graph, its graph file and a scratch report path."""
    workdir = tmp_path_factory.mktemp("fuzz")
    graph, report = str(workdir / "g.json"), str(workdir / "r.json")
    with open(graph, "w") as fh:
        fh.write(complete_graph(NODES).to_json())
    _run(["partition", "--graph", graph, "--n", "3", "--objective", "optimal", "--out", report])
    with open(report) as fh:
        return graph, report, json.load(fh)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional=MUTATIONS), st.sampled_from(list(MUTATIONS)))
def test_check_of_mutated_report_exits_cleanly(written_report, changes, dropped):
    graph, report, doc = written_report
    doc = {**doc, **changes}
    if dropped not in changes:
        doc.pop(dropped)
    with open(report, "w") as fh:
        json.dump(doc, fh)
    assert _run(["check", "--graph", graph, "--report", report]) in (0, 1, 2)


OBJECTIVES = ("feasible", "optimal", "maximal")


@pytest.fixture(scope="module")
def written_reports(tmp_path_factory):
    """A report of each objective on a 3-node graph, its graph file and a scratch path."""
    workdir = tmp_path_factory.mktemp("fuzz-objective")
    graph = str(workdir / "g.json")
    with open(graph, "w") as fh:
        fh.write(complete_graph(NODES).to_json())
    docs = {}
    for objective in OBJECTIVES:
        report = str(workdir / f"{objective}.json")
        _run(["partition", "--graph", graph, "--n", "3", "--objective", objective, "--out", report])
        with open(report) as fh:
            docs[objective] = json.load(fh)
    return graph, str(workdir / "r.json"), docs


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    st.sampled_from(OBJECTIVES),
    numbers,
    st.sampled_from(["optimal", "feasible-time-limit"]),
)
def test_check_rejects_any_other_objective(written_reports, objective, value, status):
    graph, report, docs = written_reports
    doc = docs[objective]
    assume(value != doc["objective_value"])  # NaN differs from every value
    # the bound moves with the claim, so only the objective rule can catch it
    with open(report, "w") as fh:
        json.dump({**doc, "status": status, "objective_value": value, "best_bound": value}, fh)
    assert _run(["check", "--graph", graph, "--report", report]) != 0
DROP = object()


def mutations(fields):
    """Up to two fields of a document, each replaced by a drawn value or dropped."""
    one = st.sampled_from(sorted(fields)).flatmap(
        lambda key: st.tuples(st.just(key), fields[key] | st.just(DROP))
    )
    return st.lists(one, max_size=2)


def _mutated(base, changes):
    doc = dict(base)
    for key, value in changes:
        if value is DROP:
            doc.pop(key, None)
        else:
            doc[key] = value
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-loaders")


points = st.lists(st.floats(-0.5, 1.5) | numbers, min_size=2, max_size=2) | json_values
endpoints = st.integers(-1, 4) | numbers
edge_entries = (
    st.lists(endpoints, min_size=2, max_size=2)
    | st.tuples(
        endpoints, endpoints, st.sampled_from(["udg", "joined", "debridged"]) | json_values
    ).map(list)
    | json_values
)
GRAPH = {
    "lambda": 0.1,
    "r_tr": 0.5,
    "nodes": [[0.1, 0.1], [0.5, 0.1], [0.5, 0.5], [0.1, 0.5]],
    "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2, "joined"]],
}
GRAPH_FIELDS = {
    "nodes": st.lists(points, max_size=5) | json_values,
    "edges": st.lists(edge_entries, max_size=6) | json_values,
    "r_tr": numbers | json_values,
    "lambda": numbers | json_values,
}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutations(GRAPH_FIELDS), st.sampled_from(["0", "1.5", "2.5", "4"]))
def test_adapt_and_partition_of_mutated_graph_exit_cleanly(workdir, changes, thin_to):
    graph, out = str(workdir / "g.json"), str(workdir / "adapted.json")
    with open(graph, "w") as fh:
        json.dump(_mutated(GRAPH, changes), fh)
    adapt = ["adapt", "--graph", graph, "--connect", "--debridge", "--thin-to", thin_to]
    assert _run([*adapt, "--out", out]) in (0, 1, 2)
    partition = ["partition", "--graph", graph, "--n", "2", "--objective", "optimal"]
    assert _run([*partition, "--time-limit", "5"]) in (0, 1, 2)


rows = st.fixed_dictionaries(
    {"n_nodes": st.sampled_from([20, 40]) | numbers | json_values, "deg_exp": numbers | json_values},
    optional={"lambda": numbers | json_values, "r_tr": numbers | json_values},
)
CONFIG = {
    "rows": [{"n_nodes": 20, "deg_exp": 4}, {"n_nodes": 15, "deg_exp": 4, "lambda": 0.12, "r_tr": 0.3}],
    "graphs_per_row": 1,
    "partition_sizes": [3],
    "objectives": ["optimal"],
    "time_limit": 1,
    "variant": "SG2",
    "seed": 0,
    "max_attempts": 5,
    "threads": 1,
}
CONFIG_FIELDS = {
    "rows": st.lists(rows | json_values, max_size=3) | json_values,
    "graphs_per_row": numbers | json_values,
    "partition_sizes": st.lists(numbers, max_size=3) | json_values,
    "objectives": st.lists(st.sampled_from(["optimal", "maximal"]) | json_values, max_size=3)
    | json_values,
    "time_limit": numbers | json_values,
    "variant": st.sampled_from(["SG1", "SG2"]) | json_values,
    "seed": numbers | json_values,
    "max_attempts": numbers | json_values,
    "threads": numbers | json_values,
}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutations(CONFIG_FIELDS))
def test_experiment_with_mutated_config_exits_cleanly(workdir, changes):
    """The config loader alone: an accepted config reaches a stub batch runner."""
    config = str(workdir / "config.json")
    with open(config, "w") as fh:
        json.dump(_mutated(CONFIG, changes), fh)
    with mock.patch.object(cli, "run_experiment", return_value=[]):
        code = _run(["experiment", "--config", config, "--out-dir", str(workdir / "out")])
    assert code in (0, 1, 2)
