"""The three workloads: what each runs, and why it is in the benchmark.

Every workload is a closed loop with one caller: the next cell starts when
the previous one returns.  Inputs derive from the workload seed only; the
package sees nothing but the generated graphs and configs.

``pipeline``
    The whole batch path through ``metrics.run_experiment`` (SG2 variant,
    degree 5/6 rows, n=3, both soft objectives).  Generator, adapt and the
    warm start do almost all the work; the B&B search is bypassed because
    every cell is proven at or near the root.  Degree-6 rows stop at 120
    nodes and degree 5 keeps only the 20-node row: from 60 nodes up, a few
    in a hundred degree-5 graphs (two of four sampled at 200 nodes) need
    the full search and run to the time limit, which would turn this workload into
    a search benchmark and make its throughput swing from run to run.
``soft-budget``
    The paper's headline measurement: soft objectives under a fixed 1 s
    budget.  Graphs are prepared in setup, so generator and adapt do no
    timed work and the B&B search does most of it.  At 100 nodes and
    n >= 4 the warm start alone runs past the budget, which is where the
    time-limit contract (``overrun_s``) shows.
``feasibility-cli``
    The same ``ilp`` and ``solver`` layers used another way, through
    ``udgpart.cli.main`` in-process: satisfiability search with no warm
    start, first-leaf stop, infeasibility proofs and multi-mean
    portfolios, plus LP export, graph JSON loading and the report check.
    Some 200/300-node cells (n=3, and k=2 of 5) time out with no answer;
    they stay in, so later solver work can show them fixed.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import time

from harness import NullTracer, Outcome, soft_gap
from checks import (
    check_check,
    check_lp,
    check_partition_report,
    check_results_dir,
    check_soft_record,
)
from udgpart import cli, metrics
from udgpart.adapt import (
    IrreducibleBridgeError,
    TargetUnreachableError,
    eliminate_bridges,
    thin_to_degree,
)
from udgpart.generator import UnreachableTargetError, generate_connected
from udgpart.graphs import GeometricGraph
from udgpart.ilp import (
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_maximal_soft,
    build_optimal_soft,
    export_lp,
)
from udgpart.metrics import (
    ExperimentConfig,
    ResultRecord,
    coverage_errors,
    prepare_graph,
    run_experiment,
    write_aggregates,
)
from udgpart.seeds import degree_seed
from udgpart.solver import SolveLimits, solve

NULL = NullTracer()
GRAPH_ERRORS = (UnreachableTargetError, IrreducibleBridgeError, TargetUnreachableError)
SOFT_BUILDERS = {"optimal": build_optimal_soft, "maximal": build_maximal_soft}
# The public functions each traced module calls, by the names it looks them up.
METRICS_CALLS = ("generate_connected", "eliminate_bridges", "thin_to_degree",
                 "build_optimal_soft", "build_maximal_soft", "solve", "coverage_errors",
                 "write_aggregates")
CLI_CALLS = ("build_domatic_feasibility", "build_fixed_k", "build_cost_based",
             "coverage_errors", "export_lp", "solve")


def solve_counted(tr, solve_fn, model, limits):
    """Solve inside a ``solver.solve`` span and keep the model for the root replay."""
    report = tr.call("solver.solve", solve_fn, model, limits)
    if tr.enabled:
        tr.count("solver.explored_nodes", report.explored_nodes)
        tr.count("solver.timeouts", int(report.status == "feasible-time-limit"))
        tr.solved.append((model, limits))
    return report


def replay_roots(tr):
    """solver.root: each traced cell again with ``node_limit=1`` (warm start + root)."""
    for model, limits in tr.solved:
        tr.call(
            "solver.root",
            solve,
            model,
            SolveLimits(time_limit=limits.time_limit, node_limit=1),
        )
    tr.solved.clear()


def traced_unit(unit, tr):
    """Trace mode: run a unit untraced, then traced, and compare the two.

    Records of cells that no time limit cut must be identical.  The root
    replay runs after both and outside the accounted spans.
    """

    def run():
        t0 = time.perf_counter()
        base = unit(NULL)
        t1 = time.perf_counter()
        with tr.span("bench.unit"):
            traced = unit(tr)
        t2 = time.perf_counter()
        tr.count("trace.untraced_wall_s", t1 - t0)
        tr.count("trace.traced_wall_s", t2 - t1)
        tr.count("trace.cells", len(traced))
        if len(base) != len(traced):
            traced[0].problems.append("traced run produced a different cell count")
        for b, t in zip(base, traced):
            t.problems.extend(b.problems)
            if not (b.time_limited or t.time_limited) and b.record != t.record:
                t.problems.append(f"{t.cell_id}: traced record differs from untraced")
        replay_roots(tr)
        return traced

    return run


def _prepare(seed, rep, variant, size, deg):
    """One adapted graph for a grid point, or None if generation failed."""
    graph_seed = seed * 1_000_000 + rep * 10_000 + size * 10 + deg
    try:
        return prepare_graph(degree_seed(size, deg), variant, graph_seed, 100)
    except GRAPH_ERRORS:
        return None


def _rounds(cells_by_kind, rng):
    """Endless rounds with one cell of every kind, in shuffled order.

    Round r takes instance (r + k) mod reps of kind k, so every round has
    the same mix of kinds and spreads them over all prepared graph sets:
    however many cells a run reaches, its mix stays close to the grid's.
    """
    for r in itertools.count():
        order = [cells[(r + k) % len(cells)] for k, cells in enumerate(cells_by_kind)]
        rng.shuffle(order)
        yield from order


# -- pipeline ---------------------------------------------------------------


class Pipeline:
    # as many cells below the 60-node row as above it, so the median cell
    # falls inside a size class rather than on the gap between two
    ROWS = ((20, 5), (20, 6), (40, 6), (60, 6), (80, 6), (100, 6), (120, 6))
    WARMUP_ROWS = 3
    SMOKE_ROWS = ((20, 5), (20, 6))
    # Over three times the slowest cell that closes (about 0.6 s at 120
    # nodes).  A rare degree-6 graph still needs the full search; the limit
    # keeps what that costs small next to the 30 s run.
    TIME_LIMIT = 2.0

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.workdir = workdir
        rows = self.SMOKE_ROWS if smoke else self.ROWS
        self.rows = tuple(degree_seed(size, deg) for size, deg in rows)
        self.limits = SolveLimits(time_limit=self.TIME_LIMIT)

    def _config(self, rows, rng_seed):
        return ExperimentConfig(
            seed_rows=rows,
            graphs_per_row=1,
            partition_sizes=(3,),
            objectives=("optimal", "maximal"),
            limits=self.limits,
            variant="SG2",
            rng_seed=rng_seed,
            threads=1,
        )

    def setup(self, rep):
        """Warm-up batch on the first rows, so first-call costs stay out of timing."""
        out = os.path.join(self.workdir, f"warmup{rep}")
        rows = self.rows[: self.WARMUP_ROWS]
        run_experiment(self._config(rows, self.seed * 10**10 + 97 * rep), out)
        return None

    def units(self, setups):
        for k in itertools.count():
            config = self._config(self.rows, self.seed * 10**10 + (k + 1) * 10**7)
            out_dir = os.path.join(self.workdir, f"call{k}")
            yield lambda tr, c=config, o=out_dir: self.run_call(tr, c, o)

    def run_call(self, tr, config, out_dir):
        out_dir += "-traced" if tr.enabled else ""
        with instrument(tr, metrics, METRICS_CALLS):
            records = run_experiment(config, out_dir=out_dir)
        if tr.enabled:
            tr.count(
                "metrics.csv_bytes",
                sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)),
            )
        outcomes = [self._outcome(rec) for rec in records]
        if not outcomes:
            return [Outcome("empty-batch", 0.0, problems=["batch returned no records"])]
        outcomes[0].problems.extend(check_results_dir(out_dir, records))
        return outcomes

    def _outcome(self, rec):
        cell_id = f"{rec.graph_id}/n{rec.n}/{rec.objective}"
        if rec.status == "skipped":
            return Outcome(cell_id, 0.0, problems=[f"{cell_id}: skipped, generation failed"])
        proven = rec.status == "optimal"
        return Outcome(
            cell_id,
            rec.wall_time_s,
            proven=proven,
            time_limited=rec.status == "feasible-time-limit",
            soft=True,
            gap=soft_gap(rec.objective_value, rec.best_bound, proven),
            overrun_s=max(0.0, rec.wall_time_s - self.TIME_LIMIT),
            problems=check_soft_record(rec),
            record=dataclasses.replace(rec, wall_time_s=0.0),
        )


# -- soft-budget ------------------------------------------------------------


class SoftBudget:
    SIZES, DEGREES, PARTS, TIME_LIMIT = (40, 60, 100), (4, 6), (3, 4, 5), 1.0
    SMOKE = (20, 40), (4,), (3, 4), 0.5

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        sizes, degrees, parts, limit = self.SMOKE if smoke else (
            self.SIZES, self.DEGREES, self.PARTS, self.TIME_LIMIT
        )
        self.grid = [(s, d) for s in sizes for d in degrees]
        self.parts = parts
        self.limits = SolveLimits(time_limit=limit)

    def setup(self, rep):
        """One SG1 graph per (size, degree); each setup repetition draws a new set."""
        return [
            (f"SG1-{s}-{d}-r{rep}", s, d, _prepare(self.seed, rep, "SG1", s, d))
            for s, d in self.grid
        ]

    def cells_by_kind(self, setups):
        """Per (size, degree, n, objective): its cell on every prepared graph set."""
        return [
            [(graph_set[i][0], deg, graph_set[i][3], n, objective) for graph_set in setups]
            for i, (_, deg) in enumerate(self.grid)
            for n in self.parts
            for objective in ("optimal", "maximal")
        ]

    def units(self, setups):
        for cell in _rounds(self.cells_by_kind(setups), random.Random(self.seed)):
            yield lambda tr, c=cell: [self.run_cell(tr, *c)]

    def run_cell(self, tr, graph_id, deg, g, n, objective):
        cell_id = f"{graph_id}/n{n}/{objective}"
        if g is None:
            return Outcome(cell_id, 0.0, problems=[f"{cell_id}: skipped, generation failed"])
        tr.cell = cell_id
        t0 = time.perf_counter()
        model = tr.call("ilp.build", SOFT_BUILDERS[objective], g, n)
        s0 = time.perf_counter()
        report = solve_counted(tr, solve, model, self.limits)
        s1 = time.perf_counter()
        errors = None
        if report.assignment is not None:
            errors = tr.call("metrics.score", coverage_errors, g, report.assignment, n)
        t1 = time.perf_counter()
        tr.count("ilp.rows", len(model.constraints))
        rec = ResultRecord(
            graph_id=graph_id,
            n_nodes=g.node_count,
            deg_exp=float(deg),
            avg_degree=g.avg_degree,
            variant="SG1",
            n=n,
            objective=objective,
            status=report.status,
            objective_value=report.objective,
            best_bound=report.best_bound,
            wall_time_s=0.0,
            miss_cov=errors.miss_cov if errors else None,
            inc_nodes=errors.inc_nodes if errors else None,
        )
        proven = report.status == "optimal"
        return Outcome(
            cell_id,
            t1 - t0,
            proven=proven,
            time_limited=report.status == "feasible-time-limit",
            soft=True,
            gap=soft_gap(report.objective, report.best_bound, proven),
            overrun_s=max(0.0, (s1 - s0) - self.limits.time_limit),
            problems=check_soft_record(rec),
            record=rec,
        )


# -- feasibility-cli --------------------------------------------------------


class FeasibilityCli:
    # Cells that answer do so well inside 0.25 s.  The ones that cannot (about
    # 8 %, the same as at 2 s) would otherwise set the throughput by how many
    # of them a seed happens to draw.
    SIZES, DEGREES, TIME_LIMIT = (100, 200, 300), (4, 6), 0.25
    SMOKE = (40,), (4,), 0.25
    PROGRAMS = (
        ("e3", ["--n", "3"]),
        ("e4", ["--n", "4"]),
        ("k42", ["--n", "4", "--k", "2"]),
        ("k52", ["--n", "5", "--k", "2"]),
        ("c3", ["--n", "3", "--costs", "0.5,0.5,1.0"]),
    )

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.workdir = workdir
        sizes, degrees, self.time_limit = self.SMOKE if smoke else (
            self.SIZES, self.DEGREES, self.TIME_LIMIT
        )
        self.grid = [(s, d) for s in sizes for d in degrees]

    def setup(self, rep):
        """SG2 graph JSON files, one per (size, degree); a new set per repetition."""
        out = []
        for s, d in self.grid:
            graph_id = f"SG2-{s}-{d}-r{rep}"
            g = _prepare(self.seed, rep, "SG2", s, d)
            path = None
            if g is not None:
                path = os.path.join(self.workdir, graph_id + ".json")
                with open(path, "w") as fh:
                    fh.write(g.to_json())
            out.append((graph_id, path))
        return out

    def cells_by_kind(self, setups):
        """Per (size, degree, program): its cell on every prepared graph set."""
        return [
            [(*graph_set[i], name, args) for graph_set in setups]
            for i in range(len(self.grid))
            for name, args in self.PROGRAMS
        ]

    def units(self, setups):
        for cell in _rounds(self.cells_by_kind(setups), random.Random(self.seed)):
            yield lambda tr, c=cell: [self.run_cell(tr, *c)]

    def run_cell(self, tr, graph_id, path, name, args):
        cell_id = f"{graph_id}/{name}"
        if path is None:
            return Outcome(cell_id, 0.0, problems=[f"{cell_id}: skipped, generation failed"])
        tr.cell = cell_id
        stem = os.path.join(self.workdir, f"{graph_id}-{name}" + ("-t" if tr.enabled else ""))
        common = ["--graph", path, "--objective", "feasible", *args]
        t0 = time.perf_counter()
        with instrument(tr, cli, CLI_CALLS), instrument(tr, GeometricGraph, ("from_json",)):
            code_p, _ = run_cli(tr, "cli.partition", [
                "partition", *common, "--time-limit", str(self.time_limit),
                "--out", stem + ".report.json",
            ])
            code_e, lp_summary = run_cli(tr, "cli.export_lp", [
                "export-lp", *common, "--out", stem + ".lp",
            ])
            code_c, check_summary = run_cli(tr, "cli.check", [
                "check", "--graph", path, "--report", stem + ".report.json",
            ])
        wall = time.perf_counter() - t0
        try:
            with open(stem + ".report.json") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return Outcome(cell_id, wall, problems=[f"{cell_id}: no report: {exc}"])
        problems = (
            check_partition_report(cell_id, code_p, report)
            + check_lp(cell_id, code_e, lp_summary, stem + ".lp")
            + check_check(cell_id, code_c, check_summary, report)
        )
        status = report.get("status")
        errors = report.get("errors") or {}
        return Outcome(
            cell_id,
            wall,
            proven=status in ("optimal", "infeasible"),
            time_limited=status == "feasible-time-limit",
            overrun_s=max(0.0, (report.get("wall_time_s") or 0.0) - self.time_limit),
            problems=problems,
            record=(
                status, report.get("objective_value"), errors.get("miss_cov"),
                report.get("assignment"), code_p, code_e, code_c,
                lp_summary.get("constraints"),
            ),
        )


def run_cli(tr, name, argv):
    """``udgpart.cli.main(argv)`` in-process; returns (exit code, parsed JSON line)."""
    buf = io.StringIO()
    with tr.span(name), contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = buf.getvalue().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else {}
    except ValueError:
        summary = {}
    return code, summary


def layer_wrappers(tr):
    """Span-recording stand-ins for the public functions the package calls.

    Each runs the original inside a span named after its layer and counts
    the work it did.  A graph keeps the cell id it was generated under, so
    the spans of the cells solved on it carry that id too.
    """
    graph_cell = {}

    def generate(params, **kwargs):
        tr.cell = f"graph-{params.node_count}-seed{params.rng_seed}"
        out = tr.call("generator.generate", generate_connected, params, **kwargs)
        tr.count("generator.graphs", 1)
        graph_cell[id(out.graph)] = tr.cell
        return out

    def adapter(span, fn, counter, sign):
        def adapt(g, *args, **kwargs):
            out = tr.call(span, fn, g, *args, **kwargs)
            tr.count(counter, sign * (out.edge_count - g.edge_count))
            graph_cell[id(out)] = tr.cell
            return out

        return adapt

    def builder(fn, kind):
        def build(g, n, *args, **kwargs):
            if id(g) in graph_cell:
                tr.cell = f"{graph_cell[id(g)]}/n{n}/{kind}"
            model = tr.call("ilp.build", fn, g, n, *args, **kwargs)
            tr.count("ilp.rows", len(model.constraints))
            return model

        return build

    def export(model):
        text = tr.call("ilp.export", export_lp, model)
        tr.count("ilp.export_bytes", len(text))
        return text

    def aggregate(records, out_dir):
        tr.cell = None
        return tr.call("metrics.aggregate", write_aggregates, records, out_dir)

    from_json = vars(GeometricGraph)["from_json"].__func__
    return {
        "generate_connected": generate,
        "eliminate_bridges": adapter("adapt.debridge", eliminate_bridges, "adapt.edges_added", 1),
        "thin_to_degree": adapter("adapt.thin", thin_to_degree, "adapt.edges_removed", -1),
        "build_optimal_soft": builder(build_optimal_soft, "optimal"),
        "build_maximal_soft": builder(build_maximal_soft, "maximal"),
        "build_domatic_feasibility": builder(build_domatic_feasibility, "feasible"),
        "build_fixed_k": builder(build_fixed_k, "fixed-k"),
        "build_cost_based": builder(build_cost_based, "cost"),
        "solve": lambda model, limits: solve_counted(tr, solve, model, limits),
        "coverage_errors": lambda *args: tr.call("metrics.score", coverage_errors, *args),
        "export_lp": export,
        "write_aggregates": aggregate,
        "from_json": classmethod(
            lambda cls, text: tr.call("graphs.json_load", from_json, cls, text)
        ),
    }


@contextlib.contextmanager
def instrument(tr, target, names):
    """While tracing, rebind ``names`` in ``target`` (a module or class) to span wrappers.

    The package looks these names up at call time, so its own code runs
    unchanged and records spans.  The originals are restored on exit;
    untraced runs leave the package untouched.
    """
    if not tr.enabled:
        yield
        return
    wrappers = layer_wrappers(tr)
    saved = {name: vars(target)[name] for name in names}
    try:
        for name in names:
            setattr(target, name, wrappers[name])
        yield
    finally:
        for name, original in saved.items():
            setattr(target, name, original)


WORKLOADS = {
    "pipeline": Pipeline,
    "soft-budget": SoftBudget,
    "feasibility-cli": FeasibilityCli,
}
