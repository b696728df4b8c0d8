"""Partition quality metrics and the batch experiment pipeline.

The two error counts are always recomputed from the assignment itself, never
taken from a solver objective, so a bug anywhere in the model/solver chain
shows up as a metric identity violation instead of propagating silently.
"""

import contextlib
import csv
import numbers
import os
import typing
from dataclasses import dataclass, fields

from .adapt import ThinningStrategy, eliminate_bridges, thin_to_degree
from .generator import GeneratorParams, UnreachableTargetError, generate_connected
from .graphs import GeometricGraph
from .ilp import PartitionAssignment, build_maximal_soft, build_optimal_soft
from .seeds import SeedTableRow
from .solver import ANSWERED, SolveLimits, solve

VARIANT_THIN = "SG1"
VARIANT_DEBRIDGE_THIN = "SG2"

@dataclass(frozen=True)
class CoverageErrors:
    miss_cov: int
    inc_nodes: int
    per_node_missing: dict


def coverage_errors(g: GeometricGraph, assignment: PartitionAssignment, n: int) -> CoverageErrors:
    """Count missing (node, mean) coverages and incompletely covered nodes.

    A node's neighbourhood supplies every mean held by any member, itself
    included; multi-mean nodes contribute each mean they hold.
    """
    if len(assignment.assign) != g.node_count:
        raise ValueError("assignment does not cover the node set")
    if assignment.n != n:
        raise ValueError(f"assignment is over {assignment.n} means, not n={n}")
    missing = {}
    total = 0
    for v in range(g.node_count):
        present = set()
        for w in g.closed_neighbourhood(v):
            present |= assignment.assign[w]
        lack = n - len(present)
        if lack > 0:
            missing[v] = lack
            total += lack
    return CoverageErrors(
        miss_cov=total, inc_nodes=len(missing), per_node_missing=missing
    )


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    seed_rows: tuple[SeedTableRow, ...]
    graphs_per_row: int = 20
    partition_sizes: tuple[int, ...] = (3, 4, 5)
    objectives: tuple[str, ...] = ("optimal", "maximal")
    limits: SolveLimits = SolveLimits()
    variant: str = VARIANT_THIN
    rng_seed: int = 0
    max_attempts: int = 100
    threads: int = 1

    def __post_init__(self):
        for name, least in (
            ("graphs_per_row", 1), ("rng_seed", 0), ("max_attempts", 1), ("threads", 1)
        ):
            value = getattr(self, name)
            if not _is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if not self.seed_rows:
            raise ValueError("seed_rows must not be empty")
        for row in self.seed_rows:
            # the generator's and the thinning's own checks, before any graph
            GeneratorParams(node_count=row.node_count, lam=row.lam, r_tr=row.r_tr)
            if not row.deg_exp >= 0:
                raise ValueError(f"deg_exp must be >= 0, got {row.deg_exp}")
        if not self.partition_sizes:
            raise ValueError("partition_sizes must not be empty")
        if not self.objectives:
            raise ValueError("objectives must not be empty")
        if self.variant not in (VARIANT_THIN, VARIANT_DEBRIDGE_THIN):
            raise ValueError(f"unknown variant {self.variant!r}")
        bad = [o for o in self.objectives if o not in ("optimal", "maximal")]
        if bad:
            raise ValueError(f"unknown objectives {bad}")
        bad = [n for n in self.partition_sizes if not _is_integer(n) or n < 1]
        if bad:
            raise ValueError(f"partition sizes must be positive integers, got {bad}")


@dataclass(frozen=True)
class ResultRecord:
    graph_id: str
    n_nodes: int
    deg_exp: float
    avg_degree: float
    variant: str
    n: int
    objective: str
    status: str
    objective_value: float | None
    best_bound: float | None
    wall_time_s: float
    miss_cov: int | None
    inc_nodes: int | None

    def to_row(self):
        return [_cell(getattr(self, name)) for name in RESULT_COLUMNS]

    @classmethod
    def from_row(cls, row):
        return cls(
            **{
                name: None if optional and row[name] == "" else parse(row[name])
                for name, parse, optional in _RESULT_PARSERS
            }
        )


def _cell(value):
    """A CSV cell: ``None`` is written as an empty cell."""
    return "" if value is None else value


def _number(cell):
    """A float field's cell; one without a point or an exponent was an int."""
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def _field_parser(annotation):
    """(parse, optional) for a field annotated ``T`` or ``T | None``."""
    types = [t for t in typing.get_args(annotation) if t is not type(None)]
    parse, optional = (types[0], True) if types else (annotation, False)
    return (_number if parse is float else parse), optional


# results.csv: one column per ResultRecord field, in declaration order
RESULT_COLUMNS = tuple(f.name for f in fields(ResultRecord))
_RESULT_PARSERS = tuple(
    (f.name, *_field_parser(f.type)) for f in fields(ResultRecord)
)


_SG1_THINNING = ThinningStrategy(
    mode="length-weighted-random", exponent=2.0, forbid_disconnect=True
)
_SG2_THINNING = ThinningStrategy(
    mode="length-weighted-random",
    exponent=2.0,
    forbid_disconnect=True,
    forbid_new_bridges=True,
)


def prepare_graph(row: SeedTableRow, variant: str, seed: int, max_attempts: int) -> GeometricGraph:
    """Generate one connected graph for a seed row and adapt it per variant.

    SG1 thins straight down to the expected degree with squared-length
    weighting; SG2 removes all bridges first and forbids creating new ones
    while thinning.
    """
    params = GeneratorParams(
        node_count=row.node_count, lam=row.lam, r_tr=row.r_tr, rng_seed=seed
    )
    g = generate_connected(params, max_attempts=max_attempts).graph
    strategy = _SG1_THINNING
    if variant == VARIANT_DEBRIDGE_THIN:
        g = eliminate_bridges(g)
        strategy = _SG2_THINNING
    if g.avg_degree > row.deg_exp:
        g = thin_to_degree(g, row.deg_exp, strategy, seed + 1)
    return g


def solve_task(graph: GeometricGraph, n: int, objective: str, limits: SolveLimits, meta: dict) -> ResultRecord:
    """Build, solve and independently score one (graph, n, objective) cell."""
    build = build_optimal_soft if objective == "optimal" else build_maximal_soft
    model = build(graph, n)
    report = solve(model, limits)
    miss = inc = None
    if report.assignment is not None:
        errors = coverage_errors(graph, report.assignment, n)
        miss, inc = errors.miss_cov, errors.inc_nodes
    return ResultRecord(
        graph_id=meta["graph_id"],
        n_nodes=graph.node_count,
        deg_exp=meta["deg_exp"],
        avg_degree=graph.avg_degree,
        variant=meta["variant"],
        n=n,
        objective=objective,
        status=report.status,
        objective_value=report.objective,
        best_bound=report.best_bound,
        wall_time_s=report.wall_time,
        miss_cov=miss,
        inc_nodes=inc,
    )


def _solve_packed(task):
    return solve_task(*task)


def _skipped_record(row, variant, graph_id):
    return ResultRecord(
        graph_id=graph_id,
        n_nodes=row.node_count,
        deg_exp=row.deg_exp,
        avg_degree=0.0,
        variant=variant,
        n=0,
        objective="",
        status="skipped",
        objective_value=None,
        best_bound=None,
        wall_time_s=0.0,
        miss_cov=None,
        inc_nodes=None,
    )


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> list[ResultRecord]:
    """Generate, adapt, solve and score the full batch; optionally stream CSVs.

    Generation failures become ``skipped`` records instead of aborting.
    Records stream to ``results.csv`` as they are produced, in the same order
    for any ``threads``: each skipped record when its graph fails, then the
    solved cells in row, graph, n and objective order.  The aggregate files
    are written in a second pass over the finished record list.  An
    ``out_dir`` that cannot hold ``results.csv`` raises ``ValueError`` before
    any graph is generated.
    """
    writer = None
    handle = None
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            handle = open(os.path.join(out_dir, "results.csv"), "w", newline="")
        except OSError as exc:
            raise ValueError(f"cannot write results to {out_dir}: {exc}") from exc
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)

    def emit(record):
        records.append(record)
        if writer is not None:
            writer.writerow(record.to_row())
            handle.flush()

    records: list[ResultRecord] = []
    tasks = []
    for r_idx, row in enumerate(config.seed_rows):
        for g_idx in range(config.graphs_per_row):
            seed = config.rng_seed + 100_000 * r_idx + 97 * g_idx
            graph_id = f"{config.variant}-{row.node_count}-{row.deg_exp:g}-{g_idx:03d}"
            try:
                graph = prepare_graph(row, config.variant, seed, config.max_attempts)
            except UnreachableTargetError:
                emit(_skipped_record(row, config.variant, graph_id))
                continue
            meta = {
                "graph_id": graph_id,
                "deg_exp": row.deg_exp,
                "variant": config.variant,
            }
            for n in config.partition_sizes:
                for objective in config.objectives:
                    tasks.append((graph, n, objective, config.limits, meta))

    # both maps keep submission order, so the records do not depend on threads;
    # the CPU count is read, and the pool's modules are loaded, only when a
    # pool may start
    pool = None
    workers = min(config.threads, len(tasks))
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or contextlib.nullcontext():
        for record in (pool.map if pool else map)(_solve_packed, tasks):
            emit(record)

    if handle is not None:
        handle.close()
    if out_dir is not None:
        write_aggregates(records, out_dir)
    return records


# -- aggregation ------------------------------------------------------------


GROUP_COLUMNS = ("variant", "objective", "n", "deg_exp", "n_nodes")


def _mean(vals):
    return sum(vals) / len(vals) if vals else None


def write_aggregates(records, out_dir):
    """Write the four aggregate tables of the answered records to ``out_dir``.

    One grouping by GROUP_COLUMNS, sorted by key and keeping (graph_id, n,
    objective) order in a group, feeds the per-group median solve time, mean
    inc_nodes and mean errors split by proven-optimal versus time-limited.
    ``agg_relative.csv`` holds, in percent over the instances where both
    objectives were proven optimal, how much lower the optimal partition's
    missing coverages are than the maximal partition's (relative to the
    worst case), and vice versa for incompletely covered nodes.
    """
    answered = sorted(
        (r for r in records if r.status in ANSWERED and r.miss_cov is not None),
        key=lambda r: (r.graph_id, r.n, r.objective),
    )
    groups = {}
    pairs = {}
    for rec in answered:
        groups.setdefault(tuple(getattr(rec, c) for c in GROUP_COLUMNS), []).append(rec)
        if rec.status == "optimal":
            pairs.setdefault((rec.graph_id, rec.n), {})[rec.objective] = rec
    median, inc, split = [], [], []
    for key, recs in sorted(groups.items()):
        times = sorted(r.wall_time_s for r in recs)
        median.append(key + (times[(len(times) - 1) // 2], len(recs)))
        inc.append(key + (_mean([r.inc_nodes for r in recs]), len(recs)))
        opt = [r for r in recs if r.status == "optimal"]
        non = [r for r in recs if r.status != "optimal"]
        split.append(key + (
            _mean([r.miss_cov for r in non]), _mean([r.miss_cov for r in opt]),
            _mean([r.inc_nodes for r in non]), _mean([r.inc_nodes for r in opt]),
            len(opt), len(non),
        ))
    # pairs fill in (graph_id, n) order, the order the gains are summed in
    miss_gains = []
    inc_gains = []
    for (graph_id, n), pair in pairs.items():
        if "optimal" not in pair or "maximal" not in pair or n < 2:
            continue
        opt, mx = pair["optimal"], pair["maximal"]
        max_miss = (n - 1) * opt.n_nodes
        miss_gains.append((mx.miss_cov - opt.miss_cov) / max_miss)
        inc_gains.append((opt.inc_nodes - mx.inc_nodes) / opt.n_nodes)
    relative = (None, None, 0)
    if miss_gains:
        relative = (
            100.0 * sum(miss_gains) / len(miss_gains),
            100.0 * sum(inc_gains) / len(inc_gains),
            len(miss_gains),
        )
    split_columns = (
        "mean_miss_cov_nonopt", "mean_miss_cov_opt",
        "mean_inc_nodes_nonopt", "mean_inc_nodes_opt",
        "n_opt", "n_nonopt",
    )
    relative_columns = ("p_miss_cov_percent", "p_inc_nodes_percent", "instances")
    for name, header, rows in (
        ("agg_median_time.csv", GROUP_COLUMNS + ("median_wall_time_s", "records"), median),
        ("agg_mean_inc_nodes.csv", GROUP_COLUMNS + ("mean_inc_nodes", "records"), inc),
        ("agg_opt_split.csv", GROUP_COLUMNS + split_columns, split),
        ("agg_relative.csv", relative_columns, [relative]),
    ):
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([_cell(x) for x in row] for row in rows)


def read_results_csv(path) -> list[ResultRecord]:
    with open(path, newline="") as fh:
        return [ResultRecord.from_row(row) for row in csv.DictReader(fh)]
