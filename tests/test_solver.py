import functools
import hashlib
import json
import math
import random
import time

import pytest

from udgpart import solver
from udgpart.generator import GeneratorParams, place_nodes
from udgpart.ilp import (
    CAP_COST,
    CAP_FIXED_K,
    KIND_MAXIMAL_SOFT,
    KIND_OPTIMAL_SOFT,
    PartitionAssignment,
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_maximal_soft,
    build_model,
    build_optimal_soft,
    portfolio_domain,
)
from udgpart.metrics import coverage_errors, prepare_graph
from udgpart.seeds import degree_seed
from udgpart.solver import SolveLimits, _Cover, _search, _tabu, solve

from oracles import OracleCapError, brute_force, highs
from test_graphs import complete_graph, cycle_graph, graph_from_edges, star_graph

P2 = graph_from_edges(2, [(0, 1)])


def domain_of(m):
    return portfolio_domain(m.n, m.capacity, m.k, m.costs)


def cover_args(m):
    """What a cover of model ``m`` is built from, as ``solve`` builds it."""
    return m.closed_neighbourhoods, m.n, m.kind != "optimal-soft", domain_of(m)


def root_caps(m):
    """Per-node caps of the empty labelling, the search's root contributions."""
    return _Cover(*cover_args(m)).root_cap


def search_alone(m, limits=SolveLimits()):
    """The search by itself on a fresh cover of ``m``, without an incumbent.

    Floor, stop and symmetry are those ``solve`` gives the program.  Returns
    the cover, the labels found, their objective as ``solve`` reports it
    (None if no leaf was reached), the explored nodes and whether a limit
    cut the search.
    """
    cover = _Cover(*cover_args(m))
    nc, feasibility = m.node_count, m.kind == "feasibility"
    floor, stop = (nc - 1, nc) if feasibility else (-1, math.inf)
    symmetric = m.capacity in ("exactly-one", "fixed-k")
    labels, value, explored, cut = _search(
        cover, symmetric, floor, stop, limits, time.perf_counter() + limits.time_limit
    )
    objective = None if labels is None else 0.0 if feasibility else value
    return cover, labels, objective, explored, cut


def labelled(cover, labels):
    """``cover`` with node u fixed to portfolio index ``labels[u]``."""
    for u, p in enumerate(labels):
        _Cover.move(cover, u, p)
    return cover


class TestPortfolioDomain:
    def test_exactly_one(self):
        m = build_optimal_soft(P2, 3)
        assert domain_of(m) == (
            frozenset((1,)),
            frozenset((2,)),
            frozenset((3,)),
        )

    def test_fixed_k_combinations(self):
        m = build_fixed_k(complete_graph(3), 3, 2)
        assert set(domain_of(m)) == {
            frozenset((1, 2)),
            frozenset((1, 3)),
            frozenset((2, 3)),
        }

    def test_cost_subset_sums(self):
        m = build_cost_based(P2, 3, (0.5, 0.5, 1.0))
        assert set(domain_of(m)) == {frozenset((1, 2)), frozenset((3,))}

    def test_cost_no_subset(self):
        m = build_cost_based(P2, 3, (0.6, 0.7, 0.9))
        assert domain_of(m) == ()


class TestBruteForce:
    def test_p2_optimal_soft(self):
        r = brute_force(build_optimal_soft(P2, 3))
        assert r.status == "optimal"
        assert r.objective == 4.0

    def test_star_maximal_soft(self):
        r = brute_force(build_maximal_soft(star_graph(4), 3))
        assert r.objective == 1.0

    def test_star_optimal_soft(self):
        r = brute_force(build_optimal_soft(star_graph(4), 3))
        assert r.objective == 11.0

    def test_k3_feasibility_finds_permutation(self):
        r = brute_force(build_domatic_feasibility(complete_graph(3), 3))
        assert r.status == "optimal"
        assert set(r.assignment.assign) == {frozenset((i,)) for i in (1, 2, 3)}

    def test_star_feasibility_infeasible(self):
        r = brute_force(build_domatic_feasibility(star_graph(4), 3))
        assert r.status == "infeasible"
        assert r.assignment is None

    def test_star_fixed_k2_feasible(self):
        r = brute_force(build_fixed_k(star_graph(4), 3, 2))
        assert r.status == "optimal"

    def test_soft_variant_k2_fully_covers_star(self):
        r = brute_force(build_model(star_graph(4), 3, KIND_OPTIMAL_SOFT, CAP_FIXED_K, k=2))
        assert r.objective == 15.0  # |V| * n, i.e. zero missing coverages

    def test_p2_cost_maximal_covers_both_nodes(self):
        # portfolios {1,2} and {3}; mixed picks expose all three means to both
        r = brute_force(build_model(P2, 3, KIND_MAXIMAL_SOFT, CAP_COST, costs=(0.5, 0.5, 1.0)))
        assert r.objective == 2.0

    def test_infeasible_cost_vector(self):
        r = brute_force(build_cost_based(P2, 3, (0.6, 0.7, 0.9)))
        assert r.status == "infeasible"

    def test_cap_enforced(self):
        g = cycle_graph(30)
        with pytest.raises(OracleCapError):
            brute_force(build_optimal_soft(g, 3))

    def test_deterministic_tie_break(self):
        m = build_optimal_soft(complete_graph(3), 3)
        a = brute_force(m)
        b = brute_force(m)
        assert a.assignment == b.assignment


def _random_lambda_udg(trial, lo=5, hi=10):
    rng = random.Random(trial)
    nv = rng.randint(lo, hi)
    params = GeneratorParams(node_count=nv, lam=0.13, r_tr=0.34, rng_seed=trial)
    return place_nodes(params).graph


class TestSolve:
    def test_matches_oracle_on_small_random_graphs(self):
        for trial in range(15):
            g = _random_lambda_udg(trial)
            for build in (build_optimal_soft, build_maximal_soft):
                m = build(g, 3)
                a = brute_force(m)
                b = solve(m, SolveLimits(time_limit=30))
                assert b.status == "optimal"
                assert b.objective == a.objective
                assert b.best_bound == b.objective

    def test_star_feasibility_proven_infeasible(self):
        r = solve(build_domatic_feasibility(star_graph(4), 3))
        assert r.status == "infeasible"

    def test_solution_respects_all_constraints(self):
        for trial in range(8):
            g = _random_lambda_udg(trial + 100)
            m = build_maximal_soft(g, 3)
            r = solve(m, SolveLimits(time_limit=30))
            values = m.assignment_to_values(r.assignment)
            assert m.violated_constraints(values) == []
            assert m.objective_value(values) == r.objective

    def test_single_worker_determinism(self):
        g = _random_lambda_udg(7)
        m = build_optimal_soft(g, 3)
        a = solve(m, SolveLimits(time_limit=30))
        b = solve(m, SolveLimits(time_limit=30))
        assert a.assignment == b.assignment
        assert a.explored_nodes == b.explored_nodes

    def test_node_limit_returns_incumbent_with_bound(self):
        # no labelling of C_5 makes every 3-window a permutation, so the
        # optimum (13, by enumeration) sits strictly below the root bound
        # (15) and the search cannot finish within five explored nodes
        m = build_optimal_soft(cycle_graph(5), 3)
        assert brute_force(m).objective == 13.0
        r = solve(m, SolveLimits(time_limit=30, node_limit=5))
        assert r.status == "feasible-time-limit"
        assert r.assignment is not None
        assert r.objective <= r.best_bound

    @pytest.mark.parametrize("node_limit", [0, -3, 2.5, True, False, "5"])
    def test_bad_node_limit_is_rejected(self, node_limit):
        # a node-limit cut reports exactly node_limit explored nodes, which
        # only an integer of at least 1 can be
        with pytest.raises(ValueError, match="node_limit"):
            SolveLimits(node_limit=node_limit)

    def test_deadline_inside_warm_start_returns_incumbent(self):
        # the tabu search reads the clock before its first move, so the
        # round-robin labelling is returned; none of these is at its root bound
        g = _random_lambda_udg(12, lo=30, hi=40)
        for m in (
            build_optimal_soft(g, 4),
            build_maximal_soft(g, 4),
            build_model(g, 4, KIND_OPTIMAL_SOFT, CAP_FIXED_K, k=2),
            build_model(g, 5, KIND_MAXIMAL_SOFT, CAP_COST, costs=(0.5, 0.5, 0.5, 0.5, 1.0)),
        ):
            r = solve(m, SolveLimits(time_limit=1e-9))
            assert r.status == "feasible-time-limit"
            assert r.explored_nodes == 0
            values = m.assignment_to_values(r.assignment)
            assert m.violated_constraints(values) == []
            assert m.objective_value(values) == r.objective <= r.best_bound

    def test_anytime_never_beats_optimal(self):
        g = _random_lambda_udg(11)
        m = build_optimal_soft(g, 3)
        full = solve(m, SolveLimits(time_limit=30))
        short = solve(m, SolveLimits(time_limit=30, node_limit=3))
        assert short.objective <= full.objective
        values = m.assignment_to_values(short.assignment)
        assert m.violated_constraints(values) == []

    def test_cost_capacity_solved(self):
        m = build_model(P2, 3, KIND_MAXIMAL_SOFT, CAP_COST, costs=(0.5, 0.5, 1.0))
        r = solve(m)
        assert r.status == "optimal"
        assert r.objective == 2.0

    def test_empty_cost_domain_infeasible(self):
        m = build_cost_based(P2, 3, (0.6, 0.7, 0.9))
        r = solve(m)
        assert r.status == "infeasible"

    @pytest.mark.parametrize(
        "costs, reach", [((0.5, 0.5, 0.7), 2), ((0.25, 0.75, 0.5, 0.5, 0.9), 4)]
    )
    def test_mean_in_no_portfolio_caps_the_bound(self, costs, reach):
        # the last mean is in no admissible portfolio, so no node can see it:
        # maximal-soft and feasibility caps are 0, optimal-soft ones at most
        # the means some portfolio holds
        n = len(costs)
        for trial in range(3):
            g = _random_lambda_udg(trial + 700, lo=4, hi=7)
            for m in (
                build_model(g, n, KIND_OPTIMAL_SOFT, CAP_COST, costs=costs),
                build_model(g, n, KIND_MAXIMAL_SOFT, CAP_COST, costs=costs),
                build_cost_based(g, n, costs),
            ):
                caps = root_caps(m)
                assert caps == (
                    [min(reach, 2 * len(nb)) for nb in m.closed_neighbourhoods]
                    if m.kind == "optimal-soft" else [0] * g.node_count
                )
                oracle = brute_force(m)
                r = solve(m, SolveLimits(time_limit=30))
                assert (r.status, r.objective) == (oracle.status, oracle.objective)
                _, _, objective, _, _ = search_alone(m, SolveLimits(time_limit=30))
                assert objective == oracle.objective
                assert oracle.objective is None or oracle.objective <= sum(caps)

    def test_fixed_k_equals_n_perfect(self):
        g = cycle_graph(6)
        m = build_model(g, 3, KIND_MAXIMAL_SOFT, CAP_FIXED_K, k=3)
        r = solve(m)
        assert r.status == "optimal"
        assert r.objective == 6.0

    def test_warm_start_at_root_bound_is_optimal(self):
        # the warm start reaches the root bound (180 and 60), so the solve is
        # proven before the search explores a node
        g = prepare_graph(degree_seed(60, 4), "SG1", 604, 100)
        for build, bound in ((build_optimal_soft, 180.0), (build_maximal_soft, 60.0)):
            r = solve(build(g, 3), SolveLimits(time_limit=30, node_limit=1))
            assert r.status == "optimal"
            assert r.objective == r.best_bound == bound
            assert r.explored_nodes == 0

    def test_relabel_tables_fill_only_rows_in_use(self, monkeypatch):
        # 924 portfolios of 6 of 12 means: a full relabel table would hold
        # 925**2 pairs; one node only ever leaves the unlabelled row and the
        # row of its one label
        covers = []

        class Recorded(_Cover):
            def __init__(self, *args):
                super().__init__(*args)
                covers.append(self)

        monkeypatch.setattr(solver, "_Cover", Recorded)
        m = build_model(graph_from_edges(1, []), 12, KIND_MAXIMAL_SOFT, CAP_FIXED_K, k=6)
        r = solve(m, SolveLimits(time_limit=30))
        assert (r.status, r.objective) == ("optimal", 0.0)
        [cover] = covers
        assert cover.unlabelled == 924
        assert len(cover.diff) <= 2

    @pytest.mark.parametrize("build", [build_optimal_soft, build_maximal_soft])
    def test_misreported_objective_is_an_error(self, build, monkeypatch):
        # a warm start that claims the root bound for a labelling below it
        # (every node on mean 1) satisfies every row, since the auxiliaries
        # take their largest values; only the objective check catches it
        def claims_root_bound(cover, deadline):
            for u in range(len(cover.labels)):
                cover.move(u, 0)
            return cover.labels, sum(cover.root_cap), False

        monkeypatch.setattr(solver, "_warm_start", claims_root_bound)
        assert solve(build(cycle_graph(6), 3)).status == "error"


@functools.lru_cache(maxsize=None)
def _prepared(size, deg, variant, seed):
    return prepare_graph(degree_seed(size, deg), variant, seed, 100)


class TestSearchCut:
    @pytest.mark.parametrize("node_limit", [300, 5000])
    def test_node_limit_cut_counts_exactly_the_limit(self, node_limit):
        # the warm start leaves this cell open, so the search runs into the
        # limit; no ancestor of the cut node takes another child
        m = build_optimal_soft(_prepared(40, 6, "SG1", 406), 4)
        r = solve(m, SolveLimits(time_limit=60, node_limit=node_limit))
        assert (r.status, r.explored_nodes) == ("feasible-time-limit", node_limit)

    def test_no_relabel_after_the_clock_cut(self, monkeypatch):
        # the clock jumps past the deadline after 1000 moves; once the
        # search has read it, nodes are only unfixed on the way up
        now, seen_late, late = [0.0], [False], []

        class Clock:
            @staticmethod
            def perf_counter():
                seen_late[0] = seen_late[0] or now[0] >= 1.0
                return now[0]

        class Watched(_Cover):
            moves = 0

            def move(self, u, p):
                Watched.moves += 1
                if Watched.moves == 1000:
                    now[0] = 2.0
                if seen_late[0] and p != self.unlabelled:
                    late.append((u, p))
                super().move(u, p)

        monkeypatch.setattr(solver, "time", Clock)
        m = build_optimal_soft(_prepared(40, 6, "SG1", 406), 4)
        cover = Watched(*cover_args(m))
        _, _, explored, cut = _search(cover, True, -1, math.inf, SolveLimits(), 1.0)
        assert cut and seen_late[0]
        assert late == []
        assert explored % 256 == 0
        assert cover.labels == [cover.unlabelled] * m.node_count


_COSTS = (0.5, 0.5, 1.0)


class TestFeasibilityWarmStart:
    @pytest.mark.parametrize("size, seed", [(100, 3001004), (300, 3013004)])
    @pytest.mark.parametrize("program", ["e3", "k52"])
    def test_satisfiable_program_is_proven_without_branching(self, size, seed, program):
        # the depth-first search alone finds no satisfying leaf on these
        # programs within seconds; the warm start meets the root bound |V|
        g = _prepared(size, 4, "SG2", seed)
        m = build_domatic_feasibility(g, 3) if program == "e3" else build_fixed_k(g, 5, 2)
        r = solve(m, SolveLimits(time_limit=5))
        assert r.status == "optimal"
        assert r.explored_nodes == 0
        errors = coverage_errors(g, r.assignment, m.n)
        assert errors.miss_cov == errors.inc_nodes == 0

    @pytest.mark.parametrize("copies", [1, 20])
    def test_unsatisfiable_program_admitted_by_root_bound_is_refuted(self, copies):
        # C_5 has no domatic 3-partition, yet every closed neighbourhood
        # holds three nodes: the root bound admits the program, the warm
        # start runs out of patience and the search refutes it
        edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(copies) for i in range(5)]
        g = graph_from_edges(5 * copies, edges)
        m = build_domatic_feasibility(g, 3)
        assert root_caps(m) == [1] * g.node_count
        r = solve(m, SolveLimits(time_limit=30))
        assert r.status == "infeasible"
        assert r.assignment is None

    def test_cut_before_any_satisfying_labelling_has_no_assignment(self):
        # four disjoint 5-cycles: the root bound admits a domatic
        # 3-partition that does not exist, and one explored node reaches no
        # leaf, so the cut solve answers with the root bound alone
        edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(4) for i in range(5)]
        m = build_domatic_feasibility(graph_from_edges(20, edges), 3)
        r = solve(m, SolveLimits(time_limit=30, node_limit=1))
        assert (r.status, r.assignment, r.objective, r.best_bound, r.explored_nodes) == (
            "feasible-time-limit", None, None, 20.0, 1
        )

    @pytest.mark.parametrize(
        "build, explored",
        [
            (lambda g: build_domatic_feasibility(g, 3), 1),
            (lambda g: build_fixed_k(g, 5, 2), 1),
            (lambda g: build_cost_based(g, 4, (1.0,) * 4), 4),
        ],
        ids=["e3", "k2-of-5", "unit-costs"],
    )
    def test_root_bound_below_node_count_is_refuted_at_the_first_node(
        self, build, explored
    ):
        # no node of P2 can see n means, so the root bound 0 is below |V|:
        # the warm start is skipped and the search refutes the program on
        # the first branched node's children (one when the means are
        # interchangeable, every portfolio otherwise)
        m = build(P2)
        assert sum(root_caps(m)) == 0
        r = solve(m, SolveLimits(time_limit=30))
        assert (r.status, r.assignment, r.explored_nodes) == ("infeasible", None, explored)

    def test_feasibility_statuses_match_oracle(self):
        statuses = set()
        for trial in range(20):
            g = _random_lambda_udg(trial + 400, lo=4, hi=8)
            for m in (
                build_domatic_feasibility(g, 3),
                build_fixed_k(g, 3, 2),
                build_cost_based(g, 3, _COSTS),
            ):
                r = solve(m, SolveLimits(time_limit=30))
                assert r.status == brute_force(m).status
                statuses.add(r.status)
                if r.status == "optimal":
                    values = m.assignment_to_values(r.assignment)
                    assert m.violated_constraints(values) == []
        assert statuses == {"optimal", "infeasible"}

    def test_soft_portfolio_variants_match_oracle(self):
        for trial in range(8):
            g = _random_lambda_udg(trial + 500, lo=4, hi=8)
            for kind in (KIND_OPTIMAL_SOFT, KIND_MAXIMAL_SOFT):
                for m in (
                    build_model(g, 3, kind, CAP_FIXED_K, k=2),
                    build_model(g, 3, kind, CAP_COST, costs=_COSTS),
                ):
                    r = solve(m, SolveLimits(time_limit=30))
                    assert r.status == "optimal"
                    assert r.objective == r.best_bound == brute_force(m).objective


@pytest.mark.parametrize(
    "size, deg, rep",
    [(40, 3, 1), (40, 6, 3), (60, 5, 3), (60, 6, 2), (80, 4, 1), (80, 6, 3)],
)
def test_feasibility_statuses_match_highs(size, deg, rep):
    pytest.importorskip("scipy")
    g = _prepared(size, deg, "SG2", 1000 * size + 10 * deg + rep)
    for m in (
        build_domatic_feasibility(g, 3),
        build_domatic_feasibility(g, 4),
        build_fixed_k(g, 4, 2),
        build_fixed_k(g, 5, 2),
        build_cost_based(g, 3, _COSTS),
    ):
        r = solve(m, SolveLimits(time_limit=30))
        assert r.status in ("optimal", "infeasible")
        assert (r.status == "optimal") == (highs(m) is not None)


# The 36 exactly-one soft cells of one benchmark graph set, (|V|, degree, n,
# objective) -> status, objective, best bound, explored nodes and the first
# 16 hex digits of the SHA-256 of the assignment's JSON.  Statuses,
# objectives and bounds date from before the feasibility programs shared the
# warm start; digests and explored counts from the round-robin start.
_EXACTLY_ONE_GOLDEN = [
    (40, 4, 3, "optimal", "optimal", 119, 119, 0, "05d0409e8ed053ff"),
    (40, 4, 3, "maximal", "optimal", 39, 39, 0, "8ec35a6077e77c4f"),
    (40, 4, 4, "optimal", "optimal", 151, 151, 0, "26388b80e08b7ba1"),
    (40, 4, 4, "maximal", "optimal", 32, 32, 0, "20d5ebfa92cbbd95"),
    (40, 4, 5, "optimal", "optimal", 177, 177, 0, "7b30fedc301a7ebb"),
    (40, 4, 5, "maximal", "optimal", 26, 26, 0, "dc5db77df0607297"),
    (40, 6, 3, "optimal", "optimal", 120, 120, 0, "eaa453d209d1854b"),
    (40, 6, 3, "maximal", "optimal", 40, 40, 0, "eaa453d209d1854b"),
    (40, 6, 4, "optimal", "feasible-time-limit", 157, 158, 20000, "1e781b612a86930f"),
    (40, 6, 4, "maximal", "feasible-time-limit", 37, 38, 20000, "5954332a75fd5a44"),
    (40, 6, 5, "optimal", "optimal", 192, 192, 0, "b87d4088c053c5d9"),
    (40, 6, 5, "maximal", "optimal", 34, 34, 0, "d8d23037918b9fba"),
    (60, 4, 3, "optimal", "optimal", 180, 180, 0, "f25843495387c09a"),
    (60, 4, 3, "maximal", "optimal", 60, 60, 0, "304f933267adefec"),
    (60, 4, 4, "optimal", "optimal", 233, 233, 0, "aca93a58932459a7"),
    (60, 4, 4, "maximal", "optimal", 53, 53, 0, "6292cee22d321a25"),
    (60, 4, 5, "optimal", "optimal", 271, 271, 4316, "eb59fa1653e7a1bb"),
    (60, 4, 5, "maximal", "optimal", 38, 38, 0, "88558d4b131e5f22"),
    (60, 6, 3, "optimal", "optimal", 180, 180, 0, "29c3e07db3e97c9f"),
    (60, 6, 3, "maximal", "optimal", 60, 60, 0, "2da108304a750ca5"),
    (60, 6, 4, "optimal", "optimal", 239, 239, 0, "f709dcde718fb908"),
    (60, 6, 4, "maximal", "optimal", 59, 59, 0, "cf386fe100f0e1fc"),
    (60, 6, 5, "optimal", "optimal", 295, 295, 0, "f491a1909c7bae9b"),
    (60, 6, 5, "maximal", "optimal", 56, 56, 0, "0aa0962a5b7aa04f"),
    (100, 4, 3, "optimal", "optimal", 300, 300, 0, "414922ac994d6159"),
    (100, 4, 3, "maximal", "optimal", 100, 100, 0, "c09b02688674b02e"),
    (100, 4, 4, "optimal", "feasible-time-limit", 386, 387, 20000, "309dcc9b9e4d30ef"),
    (100, 4, 4, "maximal", "feasible-time-limit", 86, 87, 20000, "bba2b68fdf443724"),
    (100, 4, 5, "optimal", "optimal", 447, 447, 0, "659e65f43931f261"),
    (100, 4, 5, "maximal", "optimal", 60, 60, 0, "535462a99fbc5a83"),
    (100, 6, 3, "optimal", "optimal", 300, 300, 0, "c50687cdfb052876"),
    (100, 6, 3, "maximal", "optimal", 100, 100, 0, "c50687cdfb052876"),
    (100, 6, 4, "optimal", "optimal", 400, 400, 0, "dd16eb02d0190867"),
    (100, 6, 4, "maximal", "optimal", 100, 100, 0, "7526bfa37a23436f"),
    (100, 6, 5, "optimal", "optimal", 494, 494, 0, "1297ef742b0a7e75"),
    (100, 6, 5, "maximal", "optimal", 94, 94, 0, "ae2c060f6a60a7ee"),
]


@pytest.mark.parametrize(
    "size, deg, n, objective, status, value, bound, explored, digest",
    _EXACTLY_ONE_GOLDEN,
    ids=[f"{s}-{d}-n{n}-{o}" for s, d, n, o, *_ in _EXACTLY_ONE_GOLDEN],
)
def test_exactly_one_solves_match_recorded(
    size, deg, n, objective, status, value, bound, explored, digest
):
    g = _prepared(size, deg, "SG1", size * 10 + deg)
    build = build_optimal_soft if objective == "optimal" else build_maximal_soft
    r = solve(build(g, n), SolveLimits(time_limit=60, node_limit=20000))
    assignment = json.dumps([sorted(m) for m in r.assignment.assign])
    assert (r.status, r.objective, r.best_bound, r.explored_nodes) == (
        status, value, bound, explored,
    )
    assert hashlib.sha256(assignment.encode()).hexdigest()[:16] == digest


# Explored nodes of the search alone, recorded before the search shared the
# warm start's cover counts: one row per graph, in the program order of
# test_search_alone_matches_oracle_and_recorded_path.
_DFS_EXPLORED = [
    (10, 10, 10, 117, 25, 61, 42),
    (1, 1, 2, 29, 21, 22, 16),
    (10, 10, 10, 89, 33, 58, 40),
    (8, 8, 8, 81, 41, 40, 28),
    (1, 1, 2, 53, 41, 28, 20),
    (1, 1, 2, 25, 21, 16, 12),
    (1, 1, 2, 73, 29, 49, 34),
    (1, 1, 2, 85, 53, 40, 28),
]


@pytest.mark.parametrize("trial", range(len(_DFS_EXPLORED)))
def test_search_alone_matches_oracle_and_recorded_path(trial):
    # the warm start proves almost every instance before a node is branched
    # on, so the search runs here by itself, without an incumbent
    g = _random_lambda_udg(trial + 600, lo=6, hi=8)
    programs = (
        build_domatic_feasibility(g, 2),
        build_fixed_k(g, 3, 2),
        build_cost_based(g, 3, _COSTS),
        build_optimal_soft(g, 4),
        build_maximal_soft(g, 4),
        build_model(g, 3, KIND_OPTIMAL_SOFT, CAP_FIXED_K, k=2),
        build_model(g, 3, KIND_MAXIMAL_SOFT, CAP_COST, costs=_COSTS),
    )
    explored = []
    for m in programs:
        cover, labels, objective, nodes, cut = search_alone(m, SolveLimits(time_limit=60))
        assert not cut
        # the search unfixes every node it fixed, back to the root bound
        assert cover.caps == cover.root_cap
        assert cover.bound == sum(cover.root_cap)
        oracle = brute_force(m)
        if labels is None:
            assert oracle.status == "infeasible"
        else:
            assert oracle.status == "optimal"
            assert objective == oracle.objective
            assignment = PartitionAssignment(
                tuple(domain_of(m)[p] for p in labels), m.n
            )
            values = m.assignment_to_values(assignment)
            assert m.violated_constraints(values) == []
            assert m.objective_value(values) == oracle.objective
        explored.append(nodes)
    assert tuple(explored) == _DFS_EXPLORED[trial]


class _CheckedCover(_Cover):
    """Cover whose every applied move is recounted from scratch."""

    def __init__(self, model):
        self.model = model
        self.domain = domain_of(model)
        super().__init__(*cover_args(model))
        self.moves = self.wide_moves = 0

    def move(self, u, p):
        swap = self.diff[self.labels[u]][p][2] >= 0
        super().move(u, p)
        self.moves += 1
        self.wide_moves += not swap
        assert self.value() == _recount(self.model, self.domain, self.labels)
        assert self.caps == [self.cap(v) for v in range(len(self.labels))]
        assert self.bound == sum(self.caps)


def _recount(model, domain, labels):
    """Objective of a portfolio labelling, from the model's own rows.

    A feasibility program is scored as maximal-soft: the nodes none of
    whose cover rows is violated.
    """
    values = model.assignment_to_values(
        PartitionAssignment(tuple(domain[p] for p in labels), model.n)
    )
    if model.kind != "feasibility":
        return model.objective_value(values)
    broken = {name.split("_")[1] for name in model.violated_constraints(values)}
    return model.node_count - len(broken)


def _cover_programs(g):
    """Every kind on every domain shape: single means, k-subsets, cost subsets."""
    for n in (3, 4, 5):
        yield build_optimal_soft(g, n)
        yield build_maximal_soft(g, n)
        yield build_domatic_feasibility(g, n)
    for n, k in ((4, 2), (5, 2)):
        yield build_model(g, n, KIND_OPTIMAL_SOFT, CAP_FIXED_K, k=k)
        yield build_model(g, n, KIND_MAXIMAL_SOFT, CAP_FIXED_K, k=k)
        yield build_fixed_k(g, n, k)
    costs = (0.5, 0.5, 1.0)
    yield build_model(g, 3, KIND_OPTIMAL_SOFT, CAP_COST, costs=costs)
    yield build_model(g, 3, KIND_MAXIMAL_SOFT, CAP_COST, costs=costs)
    yield build_cost_based(g, 3, costs)


class TestCoverDeltas:
    def test_tabu_moves_match_recount(self):
        tabu_moves = wide_moves = 0
        for trial in range(6):
            g = _random_lambda_udg(trial + 200, lo=12, hi=30)
            for m in _cover_programs(g):
                domain, caps = domain_of(m), root_caps(m)
                target = sum(caps)
                cover = labelled(_CheckedCover(m), [0] * g.node_count)
                assert cover.value() == _recount(m, domain, cover.labels)
                labels, best, cut = _tabu(
                    cover, float("inf"), random.Random(trial), 20 * g.node_count
                )
                assert not cut
                assert best == _recount(m, domain, labels) <= target
                tabu_moves += cover.moves
                wide_moves += cover.wide_moves
        # the tabu search moved, and some of its moves were not swaps
        assert tabu_moves and wide_moves

    def test_every_delta_matches_recount(self):
        rng = random.Random(5)
        for trial in range(4):
            g = _random_lambda_udg(trial + 300)
            for m in _cover_programs(g):
                domain = domain_of(m)
                start = [rng.randrange(len(domain)) for _ in range(g.node_count)]
                cover = labelled(_Cover(*cover_args(m)), start)
                for _ in range(40):
                    u, p = rng.randrange(g.node_count), rng.randrange(len(domain))
                    d = cover.delta(u, p)
                    labels = list(cover.labels)
                    labels[u] = p
                    assert cover.value() + d == _recount(m, domain, labels)
                    cover.move(u, p)
                    assert cover.value() == _recount(m, domain, cover.labels)
                # unfixing every node returns the cover to the empty labelling
                for u in range(g.node_count):
                    cover.move(u, cover.unlabelled)
                assert cover.cc == [[0] * m.n for _ in range(g.node_count)]
                assert [cover.cap(v) for v in range(g.node_count)] == cover.root_cap
                assert cover.caps == cover.root_cap
                assert cover.bound == sum(cover.root_cap)
