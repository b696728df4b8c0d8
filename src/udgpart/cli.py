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
    PartitionAssignment,
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_maximal_soft,
    build_optimal_soft,
    build_soft_variant,
    export_lp,
)
from .metrics import ExperimentConfig, coverage_errors, run_experiment
from .seeds import SeedTableRow, degree_seed, rows_to_csv
from .solver import SolveLimits, solve

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit(payload):
    print(json.dumps(payload, separators=(", ", ": ")))


def _load_graph(path, parser):
    try:
        with open(path) as fh:
            return GeometricGraph.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot load graph {path}: {exc}")


def _cmd_generate(args, parser):
    if args.lam >= args.rtr:
        parser.error("--lambda must be smaller than --rtr")
    params = GeneratorParams(
        node_count=args.nodes,
        lam=args.lam,
        r_tr=args.rtr,
        grid_resolution=args.grid,
        rng_seed=args.seed,
    )
    if args.require_connected:
        try:
            result = generate_connected(params, max_attempts=args.max_attempts)
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
    with open(args.out, "w") as fh:
        fh.write(g.to_json())
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
    targets = SeedSearchTargets(
        node_count=args.nodes,
        deg_target=args.deg,
        coverage_band=(args.coverage_lo, args.coverage_hi),
        sample_size=args.samples,
        max_probes=args.max_probes,
        grid_resolution=args.grid,
    )
    try:
        row = seed_search(targets, rng_seed=args.seed)
    except SeedSearchError as exc:
        _emit({"error": "search-failed", "best_probe": list(exc.best_probe)})
        return EXIT_DOMAIN
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rows_to_csv([row]))
    _emit(
        {
            "n_nodes": row.node_count,
            "deg_exp": row.deg_exp,
            "lambda": row.lam,
            "r_tr": row.r_tr,
            "mean_coverage": row.mean_coverage,
            "mean_avg_degree": row.mean_avg_degree,
            "p_connected": row.p_connected,
        }
    )
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
            strategy = ThinningStrategy(
                mode=args.strategy,
                exponent=args.exponent,
                forbid_disconnect=not args.allow_disconnect,
                forbid_new_bridges=args.forbid_new_bridges,
            )
            g = thin_to_degree(
                g, args.thin_to, strategy, np.random.default_rng(args.seed)
            )
            applied.append("thin")
    except (IrreducibleBridgeError, TargetUnreachableError) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return EXIT_DOMAIN
    with open(args.out, "w") as fh:
        fh.write(g.to_json())
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
        base = args.objective
        if args.k is not None:
            return build_soft_variant(g, args.n, base, k=args.k)
        if costs is not None:
            return build_soft_variant(g, args.n, base, costs=costs)
        build = build_optimal_soft if base == "optimal" else build_maximal_soft
        return build(g, args.n)
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
    model = _build_model(args, g, parser)
    report = solve(model, SolveLimits(time_limit=args.time_limit))
    payload = _report_payload(g, model, report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
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
    return EXIT_OK if report.status in ("optimal", "feasible-time-limit") else EXIT_DOMAIN


def _cmd_export_lp(args, parser):
    g = _load_graph(args.graph, parser)
    model = _build_model(args, g, parser)
    text = export_lp(model)
    with open(args.out, "w") as fh:
        fh.write(text)
    _emit(
        {
            "variables": len(model.variables),
            "constraints": len(model.constraints),
            "out": args.out,
        }
    )
    return EXIT_OK


def _experiment_config(path, threads, parser):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    raw_rows = doc.get("rows", [])
    if not raw_rows:
        parser.error("config contains no rows")
    rows = []
    for raw in raw_rows:
        if "lambda" in raw and "r_tr" in raw:
            rows.append(
                SeedTableRow(
                    node_count=int(raw["n_nodes"]),
                    deg_exp=float(raw["deg_exp"]),
                    lam=float(raw["lambda"]),
                    r_tr=float(raw["r_tr"]),
                    mean_coverage=0.0,
                    mean_avg_degree=0.0,
                    p_connected=0.0,
                )
            )
        else:
            try:
                rows.append(degree_seed(int(raw["n_nodes"]), float(raw["deg_exp"])))
            except KeyError as exc:
                parser.error(str(exc))
    try:
        return ExperimentConfig(
            seed_rows=tuple(rows),
            graphs_per_row=int(doc.get("graphs_per_row", 20)),
            partition_sizes=tuple(doc.get("partition_sizes", [3, 4, 5])),
            objectives=tuple(doc.get("objectives", ["optimal", "maximal"])),
            limits=SolveLimits(time_limit=float(doc.get("time_limit", 1200.0))),
            variant=doc.get("variant", "SG1"),
            rng_seed=int(doc.get("seed", 0)),
            max_attempts=int(doc.get("max_attempts", 100)),
            threads=threads if threads is not None else int(doc.get("threads", 1)),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_experiment(args, parser):
    config = _experiment_config(args.config, args.threads, parser)
    records = run_experiment(config, out_dir=args.out_dir)
    solved = [r for r in records if r.status in ("optimal", "feasible-time-limit")]
    _emit(
        {
            "records": len(records),
            "solved": len(solved),
            "skipped": sum(1 for r in records if r.status == "skipped"),
            "out_dir": args.out_dir,
        }
    )
    return EXIT_OK if solved else EXIT_DOMAIN


def _cmd_check(args, parser):
    g = _load_graph(args.graph, parser)
    try:
        with open(args.report) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read report {args.report}: {exc}")
    problems = []
    n = int(doc["n"])
    raw_assign = doc.get("assignment")
    if raw_assign is None:
        problems.append("report carries no assignment")
    else:
        try:
            assignment = PartitionAssignment(
                tuple(
                    frozenset(raw_assign[str(v)]) for v in range(g.node_count)
                ),
                n,
            )
        except (KeyError, ValueError) as exc:
            problems.append(f"assignment invalid: {exc}")
            assignment = None
        if assignment is not None:
            cap = doc.get("capacity", {"mode": "exactly-one"})
            mode = cap.get("mode", "exactly-one")
            for v, means in enumerate(assignment.assign):
                if mode == "exactly-one" and len(means) != 1:
                    problems.append(f"node {v} holds {len(means)} means")
                elif mode == "fixed-k" and len(means) != cap.get("k"):
                    problems.append(f"node {v} holds {len(means)} means, not k")
                elif mode == "cost":
                    total = sum(cap["costs"][i - 1] for i in means)
                    if abs(total - 1.0) > 1e-9:
                        problems.append(f"node {v} spends {total}, not 1")
            errors = coverage_errors(g, assignment, n)
            claimed = doc.get("errors") or {}
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
            if doc.get("status") == "optimal" and doc.get("objective_value") is not None:
                obj = doc["objective_value"]
                if doc.get("kind") == "optimal-soft":
                    if g.node_count * n - obj != errors.miss_cov:
                        problems.append("objective does not match recomputed miss_cov")
                elif doc.get("kind") == "maximal-soft":
                    if g.node_count - obj != errors.inc_nodes:
                        problems.append("objective does not match recomputed inc_nodes")
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
