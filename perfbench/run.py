"""udgpart benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed``.  The timed phase runs cells back to
back for ``--seconds`` and checks every output.  Standard output ends with
two JSON lines: a detail line with every end-to-end metric (name, value,
unit, sample count, failures), then the result line with the metrics listed
in ``BENCHMARK.json``: the end-to-end ones when ``--trace 0``, the per-layer
ones when ``--trace 1``.  The exit code is 0 only if every check passed.

``--trace 1`` runs each unit untraced and then traced, records spans around
every call into a layer, and writes them as JSON lines to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  ``--smoke`` shrinks every
grid so the benchmark's own tests can run it in seconds.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 0
SETUP_REPEATS = 5

def import_package():
    """Put this checkout's ``src`` first on the path; refuse any other udgpart."""
    if not os.path.isfile(os.path.join(SRC, "udgpart", "__init__.py")):
        raise SystemExit(f"perfbench: no udgpart sources under {SRC}")
    sys.path.insert(0, SRC)
    import udgpart

    if not os.path.abspath(udgpart.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: udgpart imported from {udgpart.__file__}, not {SRC}")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def per_layer(tr, names):
    """Per-layer metrics: the counter ``X``, or ``X_s``, the self time of span ``X``.

    A layer the workload never calls reports 0.  The sums at the end show how
    the traced wall time divides between layer calls and the benchmark's own
    code (``bench.unit``: checks, glue and tracing).
    """
    self_s = tr.self_times()
    counts = tr.counts
    out = {name: counts.get(name, self_s.get(name.removesuffix("_s"), 0)) for name in names}
    solve_s = self_s.get("solver.solve", 0.0)
    out["solver.nodes_per_s"] = counts.get("solver.explored_nodes", 0) / solve_s if solve_s else 0.0
    # the root replay runs outside the accounted units
    out["trace.layer_self_s"] = sum(
        t for name, t in self_s.items() if name not in ("bench.unit", "solver.root")
    )
    out["trace.bench_self_s"] = self_s.get("bench.unit", 0.0)
    untraced = counts.get("trace.untraced_wall_s", 0.0)
    out["trace.overhead_s"] = counts.get("trace.traced_wall_s", 0.0) - untraced
    return out


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny grids, for self-tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args, tmp):
    import harness
    from workloads import WORKLOADS, traced_unit

    workload = WORKLOADS[args.workload](args.seed, args.smoke, tmp)
    setup_s, setups = harness.timed_setup(workload.setup, SETUP_REPEATS)
    tr = harness.Tracer() if args.trace else harness.NullTracer()
    units = workload.units(setups)
    if args.trace:
        units = (traced_unit(unit, tr) for unit in units)
    else:
        units = (lambda unit=unit: unit(tr) for unit in units)
    outcomes, wall, ran = harness.run_loop(units, args.seconds)
    e2e = harness.end_to_end(outcomes, wall, setup_s)
    failures = [p for o in outcomes for p in o.problems]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "units": ran,
        "cells": len(outcomes),
        "end_to_end": {
            name: {"value": value, "unit": harness.END_TO_END_UNITS[name]}
            for name, value in e2e.items()
        },
        "failures": failures[:20],
    }
    spec = load_spec()
    if args.trace:
        layers = per_layer(tr, [m["name"] for m in spec["per_layer"]])
        detail["per_layer"] = layers
        detail["counters"] = tr.counts
        os.makedirs(WORKDIR, exist_ok=True)
        trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tr.write_jsonl(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    listed, values = (spec["per_layer"], layers) if args.trace else (spec["end_to_end"], e2e)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None):
    import_package()
    args = parse_args(argv)
    os.makedirs(WORKDIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        detail, result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
