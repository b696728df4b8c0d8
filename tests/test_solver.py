import random

import pytest

from udgpart.generator import GeneratorParams, place_nodes
from udgpart.ilp import (
    PartitionAssignment,
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_maximal_soft,
    build_optimal_soft,
    build_soft_variant,
    portfolio_domain,
)
from udgpart.metrics import prepare_graph
from udgpart.seeds import degree_seed
from udgpart.solver import (
    OracleCapError,
    SolveLimits,
    _Cover,
    _polish,
    _Search,
    _tabu,
    brute_force,
    greedy_incumbent,
    solve,
)

from test_graphs import complete_graph, cycle_graph, graph_from_edges, star_graph

P2 = graph_from_edges(2, [(0, 1)])


def domain_of(m):
    return portfolio_domain(m.n, m.capacity, m.k, m.costs)


def root_caps(m):
    """Per-node root contributions of the search, the warm start's caps."""
    return _Search(m, domain_of(m), SolveLimits()).contrib


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
        labels = r.assignment.labels()
        assert sorted(labels) == [1, 2, 3]

    def test_star_feasibility_infeasible(self):
        r = brute_force(build_domatic_feasibility(star_graph(4), 3))
        assert r.status == "infeasible"
        assert r.assignment is None

    def test_star_fixed_k2_feasible(self):
        r = brute_force(build_fixed_k(star_graph(4), 3, 2))
        assert r.status == "optimal"

    def test_soft_variant_k2_fully_covers_star(self):
        r = brute_force(build_soft_variant(star_graph(4), 3, "optimal", k=2))
        assert r.objective == 15.0  # |V| * n, i.e. zero missing coverages

    def test_p2_cost_maximal_covers_both_nodes(self):
        # portfolios {1,2} and {3}; mixed picks expose all three means to both
        r = brute_force(build_soft_variant(P2, 3, "maximal", costs=(0.5, 0.5, 1.0)))
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


class TestGreedyIncumbent:
    def test_k3_gets_all_three_means(self):
        a = greedy_incumbent(complete_graph(3), 3)
        assert sorted(a.labels()) == [1, 2, 3]

    def test_single_mean_trivially_valid(self):
        a = greedy_incumbent(cycle_graph(5), 1)
        assert a.labels() == (1,) * 5

    def test_always_one_mean_per_node(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 12)
            edges = {
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            }
            a = greedy_incumbent(graph_from_edges(n, edges), 4)
            assert len(a.labels()) == n

    def test_cycle_objective_never_beats_oracle(self):
        g = cycle_graph(6)
        m = build_optimal_soft(g, 3)
        greedy_val = m.objective_value(
            m.assignment_to_values(greedy_incumbent(g, 3))
        )
        assert greedy_val <= brute_force(m).objective


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

    def test_deadline_inside_warm_start_returns_incumbent(self):
        g = _random_lambda_udg(12, lo=30, hi=40)
        for build in (build_optimal_soft, build_maximal_soft):
            m = build(g, 4)
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
        m = build_soft_variant(P2, 3, "maximal", costs=(0.5, 0.5, 1.0))
        r = solve(m)
        assert r.status == "optimal"
        assert r.objective == 2.0

    def test_empty_cost_domain_infeasible(self):
        m = build_cost_based(P2, 3, (0.6, 0.7, 0.9))
        r = solve(m)
        assert r.status == "infeasible"

    def test_fixed_k_equals_n_perfect(self):
        g = cycle_graph(6)
        m = build_soft_variant(g, 3, "maximal", k=3)
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


class _CheckedCover(_Cover):
    """Cover whose every applied move is recounted from scratch."""

    def __init__(self, model, labels, cap):
        super().__init__(model, labels, cap)
        self.model = model
        self.moves = 0

    def move(self, u, mean, delta):
        super().move(u, mean, delta)
        self.moves += 1
        assert self.value == _recount(self.model, self.labels)


def _recount(model, labels):
    values = model.assignment_to_values(
        PartitionAssignment.from_labels(labels, model.n)
    )
    return model.objective_value(values)


class TestCoverDeltas:
    def test_polish_and_tabu_moves_match_recount(self):
        polish_moves = tabu_moves = 0
        for trial in range(6):
            g = _random_lambda_udg(trial + 200, lo=12, hi=30)
            for build in (build_optimal_soft, build_maximal_soft):
                for n in (3, 4, 5):
                    m = build(g, n)
                    caps = root_caps(m)
                    target = sum(caps)
                    cover = _CheckedCover(m, [1] * g.node_count, caps)
                    assert cover.value == _recount(m, cover.labels)
                    assert _polish(cover, float("inf"))
                    polish_moves += cover.moves
                    cover.moves = 0
                    labels, best, cut = _tabu(
                        cover, float("inf"), random.Random(trial), 20 * g.node_count
                    )
                    assert not cut
                    assert best == _recount(m, labels) <= target
                    tabu_moves += cover.moves
        assert polish_moves and tabu_moves  # both phases were exercised

    def test_every_delta_matches_recount(self):
        rng = random.Random(5)
        for trial in range(4):
            g = _random_lambda_udg(trial + 300)
            for build in (build_optimal_soft, build_maximal_soft):
                for n in (3, 4, 5):
                    m = build(g, n)
                    start = [rng.randint(1, n) for _ in range(g.node_count)]
                    cover = _Cover(m, start, root_caps(m))
                    for _ in range(40):
                        u, mean = rng.randrange(g.node_count), rng.randint(1, n)
                        d = cover.delta(u, mean)
                        labels = list(cover.labels)
                        labels[u] = mean
                        assert cover.value + d == _recount(m, labels)
                        cover.move(u, mean, d)
                        assert cover.value == _recount(m, cover.labels)
