"""Self-tests of the benchmark, on smoke-sized grids so they run in seconds.

    python -m pytest -q perfbench/test_perfbench.py

They cover the result format against BENCHMARK.json, the output checks,
determinism from the seed, the traced run and a HiGHS cross-check of proven
optima.  ``reference_check.py`` repeats the cross-check at full size.
"""

import contextlib
import dataclasses
import functools
import io
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from reference import highs_optimum  # noqa: E402
from udgpart.metrics import ResultRecord  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SPEC = run.load_spec()
# The layers each workload calls in its timed phase (see workloads.py).
LOADS = {
    "pipeline": {"generator", "adapt", "ilp", "solver", "metrics"},
    "soft-budget": {"ilp", "solver", "metrics"},
    "feasibility-cli": {"graphs", "ilp", "solver", "metrics", "cli"},
}


def bench(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main([*argv, "--smoke"])
    detail, result = (json.loads(line) for line in buf.getvalue().splitlines()[-2:])
    return code, detail, result


@functools.cache
def smoke(name, trace):
    return bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))


def cells(name, seed, workdir, units):
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](seed, True, str(workdir))
    setups = [wl.setup(i) for i in range(run.SETUP_REPEATS)]
    out = [o for unit in itertools.islice(wl.units(setups), units) for o in unit(workloads.NULL)]
    return out, setups


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_passes_its_checks_and_reports_every_metric(name, trace):
    code, detail, result = smoke(name, trace)
    assert code == 0, detail["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert set(detail["end_to_end"]) == set(harness.END_TO_END_UNITS)
    assert all(detail["end_to_end"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_spans_every_layer_it_loads(name):
    code, detail, _ = smoke(name, 1)
    assert code == 0, detail["failures"]
    layers = detail["per_layer"]
    loaded = {
        n.split(".")[0] for n, v in layers.items()
        if n.endswith("_s") and v and n.split(".")[0] != "trace"
    }
    assert loaded == LOADS[name]
    assert layers["solver.root_s"] > 0
    # Spans nest inside the traced units, so the traced wall splits into
    # layer self time and the benchmark's own.  The latter (checks, glue,
    # tracing) stays small: no layer call of note is left without a span.
    traced = layers["trace.untraced_wall_s"] + layers["trace.overhead_s"]
    own = layers["trace.bench_self_s"]
    assert own + layers["trace.layer_self_s"] == pytest.approx(traced, rel=0.01)
    assert own < 0.1 * traced
    assert os.path.isfile(os.path.join(run.ROOT, detail["trace_file"]))


def test_every_listed_layer_metric_is_recorded_somewhere():
    spans, counters = set(), set()
    for name in NAMES:
        _, detail, _ = smoke(name, 1)
        counters |= set(detail["counters"])
        with open(os.path.join(run.ROOT, detail["trace_file"])) as fh:
            spans |= {json.loads(line)["name"] + "_s" for line in fh}
    derived = set(run.per_layer(harness.Tracer(), []))
    missing = {m["name"] for m in SPEC["per_layer"]} - spans - counters - derived
    assert not missing


def test_a_unit_that_raises_is_one_failed_cell_and_the_loop_goes_on():
    def boom():
        raise ValueError("bad LP")

    def fine():
        return [harness.Outcome("ok", 0.1)]

    outcomes, _, ran = harness.run_loop(iter([boom, fine]), seconds=60)
    assert ran == 2
    assert [o.failed for o in outcomes] == [True, False]
    assert "ValueError" in outcomes[0].problems[0]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_records_other_seed_other_instances(name, tmp_path):
    first, setups = cells(name, 5, tmp_path / "a", 6)
    again, _ = cells(name, 5, tmp_path / "b", 6)
    other, other_setups = cells(name, 6, tmp_path / "c", 6)
    assert [o.cell_id for o in first] == [o.cell_id for o in again]
    for a, b in zip(first, again):
        assert not a.problems and not b.problems
        if not (a.time_limited or b.time_limited):
            assert a.record == b.record, a.cell_id
    if name == "pipeline":
        assert [o.record for o in first] != [o.record for o in other]
    elif name == "soft-budget":
        graphs = [g.to_json() for s in setups for *_, g in s]
        assert graphs != [g.to_json() for s in other_setups for *_, g in s]
    else:
        def text(graph_sets):
            return [open(path).read() for s in graph_sets for _, path in s]

        assert text(setups) != text(other_setups)


def test_checks_reject_wrong_outputs(tmp_path):
    good = ResultRecord("g", 10, 4.0, 4.0, "SG1", 3, "optimal", "optimal",
                        28.0, 28.0, 0.1, 2, 1)
    assert checks.check_soft_record(good) == []
    assert checks.check_soft_record(dataclasses.replace(good, miss_cov=3))
    assert checks.check_soft_record(dataclasses.replace(good, best_bound=27.0))
    assert checks.check_soft_record(dataclasses.replace(good, status="error"))
    maximal = dataclasses.replace(good, objective="maximal", objective_value=9.0,
                                  best_bound=9.0)
    assert checks.check_soft_record(maximal) == []
    assert checks.check_soft_record(dataclasses.replace(maximal, inc_nodes=2))
    assert checks.check_results_dir(str(tmp_path), [good])
    report = {"status": "optimal", "assignment": {"0": [1]},
              "errors": {"miss_cov": 0, "inc_nodes": 0}}
    assert checks.check_partition_report("c", 0, report) == []
    assert checks.check_partition_report("c", 1, report)
    assert checks.check_partition_report("c", 0, {**report, "errors": {"miss_cov": 1}})
    assert checks.check_check("c", 0, {"valid": True, "problems": []}, report) == []
    assert checks.check_check("c", 1, {"valid": False, "problems": ["x"]}, report)


def test_proven_smoke_optima_match_highs(tmp_path):
    wl = workloads.SoftBudget(run.DEFAULT_SEED, True, str(tmp_path))
    proven = 0
    for kind in wl.cells_by_kind([wl.setup(0)]):
        graph_id, _, g, n, objective = kind[0]
        model = workloads.SOFT_BUILDERS[objective](g, n)
        report = workloads.solve(model, wl.limits)
        if report.status == "optimal":
            proven += 1
            reference = highs_optimum(model)
            assert reference == pytest.approx(report.objective, abs=1e-6), (graph_id, n, objective)
    assert proven


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
