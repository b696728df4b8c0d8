"""Property tests: a mutated ``partition`` report never crashes ``udgpart check``."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
# per node: means drawn around the valid range, or any JSON value
node_means = st.lists(st.integers(-1, 6), max_size=4) | json_values
assignments = json_values | st.dictionaries(
    st.sampled_from([str(v) for v in range(NODES + 1)]), node_means, max_size=NODES + 1
)
capacities = json_values | st.fixed_dictionaries(
    {"mode": st.sampled_from(["exactly-one", "fixed-k", "cost", "other"]) | json_values},
    optional={"k": json_values, "costs": st.lists(st.floats(0, 1.5), max_size=6) | json_values},
)
errors = json_values | st.fixed_dictionaries(
    {}, optional={"miss_cov": json_values, "inc_nodes": json_values}
)
# field -> what may replace it; absent from the draw means left as written
MUTATIONS = {
    "n": st.integers(-3, 12) | json_values,
    "capacity": capacities,
    "assignment": assignments,
    "errors": errors,
    "objective_value": json_values,
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
