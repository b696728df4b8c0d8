"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
the measured quantities they are based on.
"""

import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from udgpart.adapt import ThinningStrategy, connect_components, eliminate_bridges, thin_to_degree
from udgpart.generator import GeneratorParams, SeedSearchTargets, place_nodes, seed_search
from udgpart.graphs import build_udg
from udgpart.ilp import (
    Constraint,
    PartitionAssignment,
    build_domatic_feasibility,
    build_maximal_soft,
    build_optimal_soft,
    export_lp,
)
from udgpart.metrics import coverage_errors, prepare_graph
from udgpart.seeds import coverage_seed, degree_seed
from udgpart.solver import SolveLimits, solve

from oracles import OracleCapError, brute_force, highs
from test_graphs import complete_graph, cycle_graph, graph_from_edges, star_graph
from test_ilp import GOLDEN_LP_SHA256, _golden_graph


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS  {detail}")


def small_lambda_udg(trial, lo=5, hi=10):
    nv = random.Random(trial).randint(lo, hi)
    params = GeneratorParams(node_count=nv, lam=0.13, r_tr=0.34, rng_seed=trial)
    return place_nodes(params).graph


def full_placements(row, count, seed0, cap_factor=60):
    out = []
    seed = seed0
    while len(out) < count:
        seed += 1
        assert seed - seed0 < cap_factor * count, "placement fit rate collapsed"
        r = place_nodes(
            GeneratorParams(
                node_count=row.node_count, lam=row.lam, r_tr=row.r_tr, rng_seed=seed
            )
        )
        if r.placed == row.node_count:
            out.append(r)
    return out


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for trial in range(50):
        g = small_lambda_udg(trial)
        for build in (build_optimal_soft, build_maximal_soft):
            model = build(g, 3)
            exact = brute_force(model)
            bnb = solve(model, SolveLimits(time_limit=60))
            assert bnb.status == "optimal"
            assert bnb.objective == exact.objective
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(1, f"{checked} solves matched the oracle exactly in {elapsed:.1f}s")


def test_criterion_02_feasibility_analytic_suite():
    for m in range(1, 7):
        for n in range(1, m + 1):
            r = solve(build_domatic_feasibility(complete_graph(m), n))
            assert r.status == "optimal", f"K_{m} must be {n}-domatic"
    for leaves in range(2, 7):
        r = solve(build_domatic_feasibility(star_graph(leaves), 3))
        assert r.status == "infeasible", f"star K_1,{leaves} must be infeasible"
    for k in range(1, 6):
        r = solve(build_domatic_feasibility(cycle_graph(3 * k), 3))
        assert r.status == "optimal", f"C_{3*k} must be 3-domatic"
    report(2, "K_m, star and C_3k families all classified correctly")


def test_criterion_03_error_metric_identities():
    checked = 0
    for trial in range(50):
        g = small_lambda_udg(trial)
        nv = g.node_count
        opt = solve(build_optimal_soft(g, 3), SolveLimits(time_limit=60))
        assert opt.status == "optimal"
        errors = coverage_errors(g, opt.assignment, 3)
        assert nv * 3 - opt.objective == errors.miss_cov
        mx = solve(build_maximal_soft(g, 3), SolveLimits(time_limit=60))
        assert mx.status == "optimal"
        errors = coverage_errors(g, mx.assignment, 3)
        assert nv - mx.objective == errors.inc_nodes
        checked += 1
    report(3, f"identities exact on {checked} instances, both objectives")


def test_criterion_04_metric_bounds_fuzzed():
    rng = random.Random(4242)
    for _ in range(1000):
        nv = rng.randint(1, 15)
        n = rng.randint(2, 5)
        edges = {
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < rng.random()
        }
        g = graph_from_edges(nv, edges)
        if rng.random() < 0.3:
            assign = PartitionAssignment(
                tuple(
                    frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    for _ in range(nv)
                ),
                n,
            )
        else:
            assign = PartitionAssignment.from_labels(
                [rng.randint(1, n) for _ in range(nv)], n
            )
        e = coverage_errors(g, assign, n)
        max_inc, max_miss = g.node_count, (n - 1) * g.node_count
        assert 0 <= e.inc_nodes <= max_inc
        assert e.inc_nodes <= e.miss_cov <= (n - 1) * e.inc_nodes <= max_miss
    report(4, "bound chain held on 1000 fuzzed assignments")


def test_criterion_05_seed_table_reproduction():
    start = time.perf_counter()
    details = []
    for nv, deg, seed0 in ((20, 4, 51000), (40, 4, 52000), (60, 5, 53000)):
        row = degree_seed(nv, deg)
        sample = full_placements(row, 20, seed0)
        cov = sum(r.coverage for r in sample) / len(sample)
        degree = sum(r.graph.avg_degree for r in sample) / len(sample)
        connected = sum(r.graph.is_connected() for r in sample) / len(sample)
        assert abs(cov - row.mean_coverage) <= 0.05, (nv, deg, cov, row.mean_coverage)
        assert deg - 0.3 <= degree <= deg + 0.6, (nv, deg, degree)
        if row.p_connected == 1.0:
            assert connected >= 0.8, (nv, deg, connected)
        details.append(f"({nv},{deg}): cov {cov:.3f}/{row.mean_coverage} deg {degree:.2f} conn {connected:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "; ".join(details) + f"  [{elapsed:.1f}s]")


def test_criterion_06_seed_search_convergence():
    start = time.perf_counter()
    targets = SeedSearchTargets(node_count=20, deg_target=4.0, max_probes=40)
    row = seed_search(targets, rng_seed=77)
    elapsed = time.perf_counter() - start
    assert 0.15 <= row.lam <= 0.27, row.lam
    assert 0.30 <= row.r_tr <= 0.45, row.r_tr
    assert 0.75 <= row.mean_coverage <= 0.80
    assert 4.0 <= row.mean_avg_degree <= 4.25
    assert elapsed < 300.0
    report(
        6,
        f"lam {row.lam:.4f}, r_tr {row.r_tr:.4f}, cov {row.mean_coverage:.3f}, "
        f"deg {row.mean_avg_degree:.3f} in {elapsed:.1f}s",
    )


def test_criterion_07_variance_trends():
    from scipy.stats import spearmanr

    start = time.perf_counter()
    buckets = (0.45, 0.55, 0.65, 0.75)
    cluster_means = []
    degree_means = []
    for b_idx, lo in enumerate(buckets):
        row = coverage_seed(100, 5, lo)
        sample = full_placements(row, 10, 70000 + 1000 * b_idx)
        cvars = [r.graph.cluster_variance() for r in sample]
        dvars = [r.graph.degree_stats()[1] for r in sample]
        cluster_means.append(sum(cvars) / len(cvars))
        degree_means.append(sum(dvars) / len(dvars))
    rho_cluster = spearmanr(range(len(buckets)), cluster_means).statistic
    rho_degree = spearmanr(range(len(buckets)), degree_means).statistic
    elapsed = time.perf_counter() - start
    assert rho_cluster <= 0.0, (cluster_means, rho_cluster)
    assert rho_degree <= 0.0, (degree_means, rho_degree)
    assert elapsed < 180.0
    report(
        7,
        f"cluster variances {['%.4f' % v for v in cluster_means]} (rho {rho_cluster:.2f}), "
        f"degree variances {['%.3f' % v for v in degree_means]} (rho {rho_degree:.2f}) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_08_adaptation_postconditions():
    rng = random.Random(88)
    connected_checked = 0
    while connected_checked < 100:
        nv = rng.randint(5, 30)
        pts = [(rng.random(), rng.random()) for _ in range(nv)]
        g = build_udg(pts, r_tr=rng.uniform(0.08, 0.25))
        if g.is_connected():
            continue
        joined = connect_components(g)
        assert joined.is_connected()
        connected_checked += 1

    bridged_checked = 0
    while bridged_checked < 100:
        nv = rng.randint(3, 25)
        pts = [(rng.random(), rng.random()) for _ in range(nv)]
        g = connect_components(build_udg(pts, r_tr=rng.uniform(0.15, 0.4)))
        if not g.bridges:
            continue
        fixed = eliminate_bridges(g)
        assert fixed.bridges == ()
        bridged_checked += 1

    thinned_checked = 0
    while thinned_checked < 50:
        nv = rng.randint(8, 30)
        pts = [(rng.random(), rng.random()) for _ in range(nv)]
        g = build_udg(pts, r_tr=rng.uniform(0.3, 0.5))
        if not g.is_connected() or g.avg_degree < 2.5:
            continue
        target = rng.uniform(2.0, g.avg_degree - 0.2)
        out = thin_to_degree(
            g,
            target,
            ThinningStrategy(
                mode="length-weighted-random", exponent=2.0, forbid_disconnect=True
            ),
            np.random.default_rng(thinned_checked),
        )
        assert out.is_connected()
        assert out.avg_degree <= target
        assert out.avg_degree >= target - 2.0 / nv - 1e-12
        thinned_checked += 1
    report(
        8,
        f"{connected_checked} joins, {bridged_checked} debridges, "
        f"{thinned_checked} thinnings all met their post-conditions",
    )


def test_criterion_09_optimal_vs_maximal_dominance():
    proven_pairs = []
    for nv, deg, seeds in ((20, 4, range(12)), (40, 4, range(12)), (60, 5, range(12))):
        row = degree_seed(nv, deg)
        for s in seeds:
            g = prepare_graph(row, "SG1", seed=91000 + 100 * nv + s, max_attempts=60)
            opt = solve(build_optimal_soft(g, 3), SolveLimits(time_limit=20))
            mx = solve(build_maximal_soft(g, 3), SolveLimits(time_limit=20))
            if opt.status == "optimal" and mx.status == "optimal":
                e_opt = coverage_errors(g, opt.assignment, 3)
                e_max = coverage_errors(g, mx.assignment, 3)
                proven_pairs.append((e_opt, e_max))
    assert len(proven_pairs) >= 30, f"only {len(proven_pairs)} instances proved"
    for e_opt, e_max in proven_pairs:
        assert e_max.inc_nodes <= e_opt.inc_nodes
        assert e_opt.miss_cov <= e_max.miss_cov
    report(9, f"dominance held instance-wise on {len(proven_pairs)} proven pairs")


def test_criterion_10_time_limit_contract():
    row = degree_seed(120, 4)
    g = prepare_graph(row, "SG1", seed=10100, max_attempts=60)
    model = build_maximal_soft(g, 5)
    t0 = time.perf_counter()
    r = solve(model, SolveLimits(time_limit=5.0))
    wall = time.perf_counter() - t0
    assert wall <= 5.0 + 0.5
    assert r.status == "feasible-time-limit"
    assert r.assignment is not None
    values = model.assignment_to_values(r.assignment)
    assert model.violated_constraints(values) == []
    assert r.objective <= r.best_bound
    # whatever the status, a solve returns within its limit plus a small
    # slack, also where the warm start alone is more work than the limit
    big = prepare_graph(degree_seed(300, 6), "SG1", seed=10300, max_attempts=60)
    big_walls = []
    for build in (build_optimal_soft, build_maximal_soft):
        t0 = time.perf_counter()
        solve(build(big, 5), SolveLimits(time_limit=0.1))
        big_walls.append(time.perf_counter() - t0)
    assert max(big_walls) <= 0.1 + 0.5
    report(
        10,
        f"incumbent {r.objective} <= bound {r.best_bound} after "
        f"{r.explored_nodes} nodes in {wall:.2f}s under a 5s limit; "
        f"300 nodes, n=5 under a 0.1s limit: {max(big_walls):.2f}s",
    )


def _parse_lp(text):
    """Minimal parser for the exported LP subset, as an external consumer would read it.

    The program comes back as the oracle reads one: binaries in name order,
    the rows and the objective over their indices.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    section = None
    objective = {}
    constraints = []
    binaries = []

    def parse_terms(expr):
        tokens = expr.replace("+", " + ").replace("-", " - ").split()
        terms = {}
        sign, coef = 1.0, None
        for tok in tokens:
            if tok == "+":
                sign, coef = 1.0, None
            elif tok == "-":
                sign, coef = -1.0, None
            else:
                try:
                    coef = float(tok)
                except ValueError:
                    terms[tok] = terms.get(tok, 0.0) + sign * (
                        coef if coef is not None else 1.0
                    )
                    sign, coef = 1.0, None
        return terms

    for line in lines:
        if line in ("Maximize", "Subject To", "Binary", "End"):
            section = line
            continue
        if section == "Maximize":
            objective = parse_terms(line.split(":", 1)[1])
        elif section == "Subject To":
            name, body = line.split(":", 1)
            for rel in ("<=", ">=", "="):
                if f" {rel} " in body:
                    expr, bound = body.split(f" {rel} ")
                    constraints.append((name, parse_terms(expr), rel, float(bound)))
                    break
        elif section == "Binary":
            binaries.append(line)
    names = sorted(binaries)
    idx = {name: i for i, name in enumerate(names)}
    return SimpleNamespace(
        variables=names,
        constraints=[
            Constraint(name, tuple((idx[v], c) for v, c in terms.items()), rel, bound)
            for name, terms, rel, bound in constraints
        ],
        objective=tuple((idx[v], c) for v, c in objective.items()),
    )


@pytest.mark.parametrize("program", sorted(GOLDEN_LP_SHA256))
def test_criterion_11_lp_export_round_trip(program):
    build = GOLDEN_LP_SHA256[program][1]
    g = _golden_graph()
    model = build(g)
    text = export_lp(model)
    assert text == export_lp(build(g)), "export not byte-stable"
    try:
        reference, by = brute_force(model), "oracle"
    except OracleCapError:
        reference, by = solve(model, SolveLimits(time_limit=60)), "solve"
    assert reference.status in ("optimal", "infeasible")
    optimum = highs(_parse_lp(text))
    assert (optimum is None) == (reference.objective is None)
    if optimum is not None:
        assert optimum == pytest.approx(reference.objective)
    report(
        11,
        f"{program}: byte-stable LP text; HiGHS on the parsed file reports "
        f"{optimum}, {by} {reference.status} at {reference.objective}",
    )
