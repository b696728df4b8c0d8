"""Command-line interface: generate, adapt, model, solve and batch-run.

Every subcommand prints a single JSON line to standard output so runs can be
scripted.  Exit codes: 0 success, 1 domain failure (infeasible model, failed
search, irreducible graph), 2 usage error.
"""

import argparse
import json
import sys

import numpy as np

from .adapt import (
    IrreducibleBridgeError,
    TargetUnreachableError,
    ThinningStrategy,
    connect_components,
    eliminate_bridges,
    thin_to_degree,
)
from .generator import (
    GeneratorParams,
    SeedSearchError,
    SeedSearchTargets,
    UnreachableTargetError,
    generate_connected,
    place_nodes,
    seed_search,
)
from .graphs import GeometricGraph
from .ilp import (
    CAP_COST,
    CAP_EXACTLY_ONE,
    CAP_FIXED_K,
    KIND_MAXIMAL_SOFT,
    KIND_OPTIMAL_SOFT,
    PartitionAssignment,
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_model,
    export_lp,
)
from .metrics import ExperimentConfig, coverage_errors, run_experiment
from .seeds import CSV_FIELDS, SeedTableRow, degree_seed, rows_to_csv
from .solver import ANSWERED, STATUS_OPTIMAL, SolveLimits, solve

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit(payload):
    print(json.dumps(payload, separators=(", ", ": ")))


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(path, what, parser):
    """The JSON object in ``path``; unreadable text, NaN or ±Infinity exits 2."""
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read {what} {path}: {exc}")
    if not isinstance(doc, dict):
        parser.error(f"{what} {path} is not a JSON object")
    return doc


def _write_out(path, text, parser):
    """Write ``text`` to the ``--out`` file; a path that cannot be written exits 2."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")


def _load_graph(path, parser):
    try:
        with open(path) as fh:
            return GeometricGraph.from_json(fh.read())
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load graph {path}: {exc}")


def _cmd_generate(args, parser):
    try:
        params = GeneratorParams(
            node_count=args.nodes,
            lam=args.lam,
            r_tr=args.rtr,
            grid_resolution=args.grid,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.require_connected:
        try:
            result = generate_connected(params, max_attempts=args.max_attempts)
        except ValueError as exc:  # max_attempts < 1, before any placement
            parser.error(str(exc))
        except UnreachableTargetError as exc:
            _emit(
                {
                    "error": "unreachable-target",
                    "attempts": exc.attempts,
                    "short_placements": exc.short_placements,
                    "disconnected_placements": exc.disconnected_placements,
                }
            )
            return EXIT_DOMAIN
    else:
        result = place_nodes(params)
    g = result.graph
    _write_out(args.out, g.to_json(), parser)
    _emit(
        {
            "coverage": result.coverage,
            "unavailable_fraction": result.unavailable_fraction,
            "placed": result.placed,
            "avg_degree": g.avg_degree,
            "connected": g.is_connected(),
            "out": args.out,
        }
    )
    return EXIT_OK


def _cmd_seed_search(args, parser):
    try:
        targets = SeedSearchTargets(
            node_count=args.nodes,
            deg_target=args.deg,
            coverage_band=(args.coverage_lo, args.coverage_hi),
            sample_size=args.samples,
            max_probes=args.max_probes,
            grid_resolution=args.grid,
        )
    except ValueError as exc:
        parser.error(str(exc))
    if args.seed < 0:
        parser.error("seed must be >= 0")
    try:
        row = seed_search(targets, rng_seed=args.seed)
    except SeedSearchError as exc:
        _emit({"error": "search-failed", "best_probe": list(exc.best_probe)})
        return EXIT_DOMAIN
    if args.out:
        _write_out(args.out, rows_to_csv([row]), parser)
    _emit({column: getattr(row, attr) for column, attr in CSV_FIELDS})
    return EXIT_OK


def _cmd_adapt(args, parser):
    g = _load_graph(args.graph, parser)
    applied = []
    try:
        if args.connect:
            g = connect_components(g)
            applied.append("connect")
        if args.debridge:
            g = eliminate_bridges(g)
            applied.append("debridge")
        if args.thin_to is not None:
            try:
                strategy = ThinningStrategy(
                    mode=args.strategy,
                    exponent=args.exponent,
                    forbid_disconnect=not args.allow_disconnect,
                    forbid_new_bridges=args.forbid_new_bridges,
                )
                g = thin_to_degree(
                    g, args.thin_to, strategy, np.random.default_rng(args.seed)
                )
            except ValueError as exc:
                parser.error(f"cannot thin: {exc}")
            applied.append("thin")
    except (IrreducibleBridgeError, TargetUnreachableError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_DOMAIN
    _write_out(args.out, g.to_json(), parser)
    _emit(
        {
            "applied": applied,
            "avg_degree": g.avg_degree if g.node_count else 0.0,
            "edges": g.edge_count,
            "bridges": len(g.bridges),
            "connected": g.is_connected(),
            "out": args.out,
        }
    )
    return EXIT_OK


def _parse_costs(text, parser):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        parser.error(f"bad --costs value {text!r}")


def _build_model(args, g, parser):
    if args.k is not None and args.costs is not None:
        parser.error("--k and --costs are mutually exclusive")
    costs = _parse_costs(args.costs, parser) if args.costs is not None else None
    try:
        if args.objective == "feasible":
            if args.k is not None:
                return build_fixed_k(g, args.n, args.k)
            if costs is not None:
                return build_cost_based(g, args.n, costs)
            return build_domatic_feasibility(g, args.n)
        kind = KIND_OPTIMAL_SOFT if args.objective == "optimal" else KIND_MAXIMAL_SOFT
        capacity = (
            CAP_FIXED_K
            if args.k is not None
            else CAP_COST if costs is not None else CAP_EXACTLY_ONE
        )
        return build_model(g, args.n, kind, capacity, k=args.k, costs=costs)
    except ValueError as exc:
        parser.error(str(exc))


def _report_payload(g, model, report):
    payload = {
        "status": report.status,
        "objective_value": report.objective,
        "best_bound": report.best_bound,
        "wall_time_s": report.wall_time,
        "explored_nodes": report.explored_nodes,
        "kind": model.kind,
        "n": model.n,
        "capacity": {
            "mode": model.capacity,
            "k": model.k,
            "costs": list(model.costs) if model.costs else None,
        },
        "assignment": None,
        "errors": None,
    }
    if report.assignment is not None:
        payload["assignment"] = {
            str(v): sorted(means)
            for v, means in enumerate(report.assignment.assign)
        }
        errors = coverage_errors(g, report.assignment, model.n)
        payload["errors"] = {
            "miss_cov": errors.miss_cov,
            "inc_nodes": errors.inc_nodes,
            "per_node_missing": {
                str(v): c for v, c in sorted(errors.per_node_missing.items())
            },
        }
    return payload


def _cmd_partition(args, parser):
    g = _load_graph(args.graph, parser)
    try:
        limits = SolveLimits(time_limit=args.time_limit)
    except ValueError as exc:
        parser.error(str(exc))
    model = _build_model(args, g, parser)
    if args.out:  # claim the path now, not after a solve of up to --time-limit
        _write_out(args.out, "", parser)
    report = solve(model, limits)
    payload = _report_payload(g, model, report)
    if args.out:
        _write_out(args.out, json.dumps(payload, indent=2) + "\n", parser)
    _emit(
        {
            "status": report.status,
            "objective_value": report.objective,
            "best_bound": report.best_bound,
            "miss_cov": payload["errors"]["miss_cov"] if payload["errors"] else None,
            "inc_nodes": payload["errors"]["inc_nodes"] if payload["errors"] else None,
            "out": args.out,
        }
    )
    return EXIT_OK if report.status in ANSWERED else EXIT_DOMAIN


def _cmd_export_lp(args, parser):
    g = _load_graph(args.graph, parser)
    model = _build_model(args, g, parser)
    _write_out(args.out, export_lp(model), parser)
    _emit(
        {
            "variables": len(model.variables),
            "constraints": len(model.constraints),
            "out": args.out,
        }
    )
    return EXIT_OK


# config key -> (ExperimentConfig field, conversion or None to pass the value
# as read); absent keys keep the ExperimentConfig defaults, and ExperimentConfig
# checks every value
_CONFIG_FIELDS = {
    "graphs_per_row": ("graphs_per_row", None),
    "partition_sizes": ("partition_sizes", tuple),
    "objectives": ("objectives", tuple),
    "time_limit": ("limits", lambda t: SolveLimits(time_limit=float(t))),
    "variant": ("variant", str),
    "seed": ("rng_seed", None),
    "max_attempts": ("max_attempts", None),
    "threads": ("threads", None),
}


def _check_json_types(doc, integers, numbers):
    """Reject a value that int() or float() would coerce from another JSON type."""
    for key in integers:
        if key in doc and not _is_int(doc[key]):
            raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    for key in numbers:
        if key in doc and not _is_number(doc[key]):
            raise ValueError(f"{key} must be a number, got {doc[key]!r}")


def _seed_row(raw):
    _check_json_types(raw, ("n_nodes",), ("deg_exp", "lambda", "r_tr"))
    if ("lambda" in raw) != ("r_tr" in raw):
        given, missing = ("lambda", "r_tr") if "lambda" in raw else ("r_tr", "lambda")
        raise ValueError(f"row gives {given} without {missing}")
    if "lambda" in raw:
        return SeedTableRow(
            node_count=int(raw["n_nodes"]),
            deg_exp=float(raw["deg_exp"]),
            lam=float(raw["lambda"]),
            r_tr=float(raw["r_tr"]),
            mean_coverage=0.0,
            mean_avg_degree=0.0,
            p_connected=0.0,
        )
    return degree_seed(int(raw["n_nodes"]), float(raw["deg_exp"]))


def _experiment_config(path, threads, parser):
    doc = _load_json(path, "config", parser)
    if not doc.get("rows"):
        parser.error("config contains no rows")
    if threads is not None:
        doc["threads"] = threads
    try:
        _check_json_types(doc, (), ("time_limit",))
        return ExperimentConfig(
            seed_rows=tuple(_seed_row(raw) for raw in doc["rows"]),
            **{
                name: convert(doc[key]) if convert else doc[key]
                for key, (name, convert) in _CONFIG_FIELDS.items()
                if key in doc
            },
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        parser.error(f"bad config {path}: {exc}")


def _cmd_experiment(args, parser):
    config = _experiment_config(args.config, args.threads, parser)
    try:
        records = run_experiment(config, out_dir=args.out_dir)
    except ValueError as exc:  # an --out-dir that cannot hold the results
        parser.error(str(exc))
    solved = [r for r in records if r.status in ANSWERED]
    _emit(
        {
            "records": len(records),
            "solved": len(solved),
            "skipped": sum(1 for r in records if r.status == "skipped"),
            "out_dir": args.out_dir,
        }
    )
    return EXIT_OK if solved else EXIT_DOMAIN


def _report_model(doc, g, parser, path):
    """The program the report declares by kind, n and capacity; a bad one exits 2.

    The capacity defaults to exactly-one. :class:`IlpModel` checks the
    declaration; here only costs that are not JSON numbers are refused,
    since a float() of a string or a bool would pass.
    """
    cap = doc.get("capacity", {"mode": CAP_EXACTLY_ONE})
    if not isinstance(cap, dict):
        parser.error(f"report {path}: capacity must be an object, got {cap!r}")
    mode, costs = cap.get("mode", CAP_EXACTLY_ONE), cap.get("costs")
    if mode == CAP_COST and not (isinstance(costs, list) and all(map(_is_number, costs))):
        parser.error(f"report {path}: costs must be a list of numbers, got {costs!r}")
    try:
        return build_model(g, doc.get("n"), doc.get("kind"), mode, cap.get("k"), costs)
    except ValueError as exc:
        parser.error(f"report {path}: {exc}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """A JSON number: an int or a float, never a bool or a string."""
    return _is_int(value) or isinstance(value, float)


def _report_number(doc, key, parser, path):
    """The report's number under ``key``, or None; any other value exits 2."""
    value = doc.get(key)
    if value is not None and not _is_number(value):
        parser.error(f"report {path}: {key} must be a number, got {value!r}")
    return value


def _report_assignment(doc, g, n, parser, path):
    """The report's assignment, None if it carries none; a malformed one exits 2.

    A well-formed assignment that misses a node, names one the graph lacks
    (its keys must be exactly "0" to "|V|-1"), gives one no mean or names a
    mean outside 1..n is returned as the problem it is, not an error.
    """
    raw = doc.get("assignment")
    if raw is None:
        return None, "report carries no assignment"
    if not isinstance(raw, dict) or not all(
        isinstance(means, list) and all(_is_int(i) for i in means)
        for means in raw.values()
    ):
        parser.error(
            f"report {path}: assignment must map node ids to lists of integer means"
        )
    strangers = sorted(set(raw) - {str(v) for v in range(g.node_count)})
    if strangers:
        return None, f"assignment names nodes the graph lacks: {strangers}"
    try:
        return PartitionAssignment(
            tuple(frozenset(raw[str(v)]) for v in range(g.node_count)), n
        ), None
    except (KeyError, ValueError) as exc:
        return None, f"assignment invalid: {exc}"


def _cmd_check(args, parser):
    g = _load_graph(args.graph, parser)
    doc = _load_json(args.report, "report", parser)
    model = _report_model(doc, g, parser, args.report)
    claimed = doc.get("errors") or {}
    if not isinstance(claimed, dict):
        parser.error(f"report {args.report}: errors must be an object, got {claimed!r}")
    obj = _report_number(doc, "objective_value", parser, args.report)
    bound = _report_number(doc, "best_bound", parser, args.report)
    assignment, problem = _report_assignment(doc, g, model.n, parser, args.report)
    problems = [problem] if problem else []
    # solve never reports a bound below its objective, and proves optimality
    # only by meeting the bound
    if obj is not None and bound is not None:
        if bound < obj:
            problems.append(f"best_bound {bound} below objective_value {obj}")
        elif doc.get("status") == STATUS_OPTIMAL and bound != obj:
            problems.append(f"optimal with best_bound {bound} != objective_value {obj}")
    if assignment is not None:
        # solve's last test of every assignment it returns, whatever the status
        values = model.assignment_to_values(assignment)
        broken = model.violated_constraints(values)
        if broken:
            names = ", ".join(broken[:3]) + (", ..." if len(broken) > 3 else "")
            problems.append(f"rows broken: {len(broken)} ({names})")
        value = model.objective_value(values)
        if obj != value:
            problems.append(f"objective_value {obj} is not the program's {value}")
        errors = coverage_errors(g, assignment, model.n)
        if claimed.get("miss_cov") != errors.miss_cov:
            problems.append(
                f"miss_cov mismatch: report {claimed.get('miss_cov')}, "
                f"recomputed {errors.miss_cov}"
            )
        if claimed.get("inc_nodes") != errors.inc_nodes:
            problems.append(
                f"inc_nodes mismatch: report {claimed.get('inc_nodes')}, "
                f"recomputed {errors.inc_nodes}"
            )
    _emit({"valid": not problems, "problems": problems})
    return EXIT_OK if not problems else EXIT_DOMAIN


def build_parser():
    parser = argparse.ArgumentParser(
        prog="udgpart",
        description=(
            "Generate lambda-precision unit disk graphs and compute exact or "
            "soft domatic partitions. All randomness derives from --seed, so "
            "every invocation is reproducible from its flags."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random lambda-precision UDG")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--rtr", type=float, required=True)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--require-connected", action="store_true")
    p.add_argument("--max-attempts", type=int, default=100)
    p.add_argument("--out", required=True)

    p = sub.add_parser("seed-search", help="search (lambda, r_tr) for target bands")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--deg", type=float, required=True)
    p.add_argument("--coverage-lo", type=float, default=0.75)
    p.add_argument("--coverage-hi", type=float, default=0.80)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--max-probes", type=int, default=40)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("adapt", help="connect, debridge and thin a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--connect", action="store_true")
    p.add_argument("--debridge", action="store_true")
    p.add_argument("--thin-to", type=float)
    p.add_argument(
        "--strategy",
        choices=("longest-first", "length-weighted-random", "uniform-random"),
        default="length-weighted-random",
    )
    p.add_argument("--exponent", type=float, default=2.0)
    p.add_argument("--allow-disconnect", action="store_true")
    p.add_argument("--forbid-new-bridges", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    for name, helptext in (
        ("partition", "solve a partition program on a graph"),
        ("export-lp", "write a partition program in LP format"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--graph", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--objective", choices=("feasible", "optimal", "maximal"), required=True
        )
        p.add_argument("--k", type=int)
        p.add_argument("--costs")
        if name == "partition":
            p.add_argument("--time-limit", type=float, default=1200.0)
            p.add_argument("--out")
        else:
            p.add_argument("--out", required=True)

    p = sub.add_parser("experiment", help="run a batch experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int)

    p = sub.add_parser("check", help="re-validate a (graph, report) pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--report", required=True)

    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "seed-search": _cmd_seed_search,
    "adapt": _cmd_adapt,
    "partition": _cmd_partition,
    "export-lp": _cmd_export_lp,
    "experiment": _cmd_experiment,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return _HANDLERS[args.command](args, parser)


if __name__ == "__main__":
    sys.exit(main())
