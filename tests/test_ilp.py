import dataclasses
import hashlib
import itertools
import random

import pytest

from udgpart.ilp import (
    CAP_COST,
    CAP_EXACTLY_ONE,
    CAP_FIXED_K,
    KIND_FEASIBILITY,
    KIND_MAXIMAL_SOFT,
    KIND_OPTIMAL_SOFT,
    IlpModel,
    PartitionAssignment,
    build_cost_based,
    build_domatic_feasibility,
    build_fixed_k,
    build_maximal_soft,
    build_model,
    build_optimal_soft,
    export_lp,
    portfolio_domain,
)
from udgpart.metrics import prepare_graph
from udgpart.seeds import degree_seed

from oracles import admissible
from test_graphs import complete_graph, cycle_graph, graph_from_edges, star_graph


class TestAssignment:
    def test_rejects_empty_mean_set(self):
        with pytest.raises(ValueError):
            PartitionAssignment((frozenset(),), 3)

    def test_rejects_out_of_range_mean(self):
        with pytest.raises(ValueError):
            PartitionAssignment((frozenset((4,)),), 3)

    def test_from_labels_gives_each_node_its_mean(self):
        a = PartitionAssignment.from_labels([1, 3, 2], 3)
        assert a.assign == (frozenset((1,)), frozenset((3,)), frozenset((2,)))


def _cost_vectors(n):
    """Cost vectors with many, few and no admissible subsets."""
    rng = random.Random(n)
    steps = (0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.7, 0.75, 1.0)
    yield (1.0 / n,) * n
    yield (0.5,) * n
    yield (0.9,) * n
    for _ in range(6):
        yield tuple(rng.choice(steps) for _ in range(n))


class TestAdmissible:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_admits_exactly_the_domain(self, n):
        means = range(1, n + 1)
        subsets = [
            frozenset(c) for r in range(n + 1) for c in itertools.combinations(means, r)
        ]
        rules = [(CAP_EXACTLY_ONE, None, None)]
        rules += [(CAP_FIXED_K, k, None) for k in means]
        rules += [(CAP_COST, None, costs) for costs in _cost_vectors(n)]
        for capacity, k, costs in rules:
            domain = portfolio_domain(n, capacity, k, costs)
            assert len(set(domain)) == len(domain)
            admitted = {s for s in subsets if admissible(s, n, capacity, k, costs)}
            assert admitted == set(domain)
            assert not admissible(frozenset((0,)), n, capacity, k, costs)
            assert not admissible(frozenset((n + 1,)), n, capacity, k, costs)

    def test_unknown_capacity_mode_raises(self):
        with pytest.raises(ValueError):
            admissible(frozenset((1,)), 3, "all-of-them")


def all_subsets_domain(n, costs):
    """Reference for the cost-rule domain: every nonempty subset, in bitmask
    order, that :func:`admissible` accepts."""
    subsets = ([i for i in range(1, n + 1) if mask >> (i - 1) & 1] for mask in range(1, 2**n))
    return tuple(frozenset(s) for s in subsets if admissible(s, n, CAP_COST, costs=costs))


# costs whose sums land just inside, on and just past the 1e-9 tolerance,
# tiny ones that keep a full budget admissible, and ones that never add up
# to 1 exactly (0.1, 1/3)
EDGE_COSTS = (
    0.5, 0.5 + 4e-10, 0.5 + 5e-10, 0.5 + 6e-10, 0.5 - 5e-10, 0.5 + 1e-9,
    1.0 - 1e-9, 1.0 - 1.1e-9, 1.0, 0.25, 0.25 + 2.5e-10, 1e-10, 0.1, 1 / 3, 0.75,
)


class TestCostDomain:
    @pytest.mark.parametrize(
        "costs",
        [
            (0.5, 0.5 + 1e-9),
            (0.5, 0.5 + 1.1e-9),
            (0.5 - 6e-10, 0.5 - 6e-10),
            (1.0 - 1e-9, 1e-10, 1e-10),
            (1.0, 1e-10, 1.0 - 1e-10),
            (0.1,) * 10,
            (1 / 3,) * 4,
        ],
    )
    def test_edge_sums_match_all_subsets(self, costs):
        assert portfolio_domain(len(costs), CAP_COST, costs=costs) == all_subsets_domain(
            len(costs), costs
        )

    def test_random_costs_match_all_subsets(self):
        rng = random.Random(15)
        admitted_near_edge = 0
        for _ in range(400):
            n = rng.randint(1, 10)
            costs = tuple(rng.choice(EDGE_COSTS) for _ in range(n))
            want = all_subsets_domain(n, costs)
            assert portfolio_domain(n, CAP_COST, costs=costs) == want
            admitted_near_edge += sum(
                sum(costs[i - 1] for i in sorted(s)) != 1.0 for s in want
            )
        assert admitted_near_edge > 0

    def test_walks_only_the_subsets_within_budget(self):
        # 2^40 subsets, of which the C(40, 2) pairs fit the budget
        domain = portfolio_domain(40, CAP_COST, costs=(0.5,) * 40)
        assert domain == tuple(
            frozenset(p) for p in sorted(
                itertools.combinations(range(1, 41), 2),
                key=lambda p: (1 << (p[0] - 1)) | (1 << (p[1] - 1)),
            )
        )


class TestFeasibilityModel:
    def test_constraint_families(self):
        g = complete_graph(3)
        m = build_domatic_feasibility(g, 3)
        assert len(m.variables) == 9
        assign = [c for c in m.constraints if c.name.startswith("assign")]
        cover = [c for c in m.constraints if c.name.startswith("cover")]
        assert len(assign) == 3 and all(c.relation == "=" and c.bound == 1 for c in assign)
        assert len(cover) == 9 and all(c.relation == ">=" and c.bound == 1 for c in cover)

    def test_k3_permutation_satisfies(self):
        g = complete_graph(3)
        m = build_domatic_feasibility(g, 3)
        values = m.assignment_to_values(PartitionAssignment.from_labels([1, 2, 3], 3))
        assert m.violated_constraints(values) == []

    def test_c6_repeating_pattern_satisfies(self):
        g = cycle_graph(6)
        m = build_domatic_feasibility(g, 3)
        values = m.assignment_to_values(
            PartitionAssignment.from_labels([1, 2, 3, 1, 2, 3], 3)
        )
        assert m.violated_constraints(values) == []

    def test_star_leaf_cover_violated(self):
        g = star_graph(4)
        m = build_domatic_feasibility(g, 3)
        values = m.assignment_to_values(
            PartitionAssignment.from_labels([1, 2, 3, 2, 3], 3)
        )
        assert any(v.startswith("cover_") for v in m.violated_constraints(values))


class TestFixedKAndCosts:
    def test_k_bounds_checked(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            build_fixed_k(g, 3, 0)
        with pytest.raises(ValueError):
            build_fixed_k(g, 3, 4)

    def test_k_equals_n_always_satisfiable(self):
        g = star_graph(4)
        m = build_fixed_k(g, 3, 3)
        full = PartitionAssignment(tuple(frozenset((1, 2, 3)) for _ in range(5)), 3)
        assert m.violated_constraints(m.assignment_to_values(full)) == []

    def test_cost_vector_validated(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            build_cost_based(g, 3, (0.5, 0.5))
        with pytest.raises(ValueError):
            build_cost_based(g, 3, (0.5, 0.5, 1.5))
        with pytest.raises(ValueError):
            build_cost_based(g, 3, (0.5, 0.5, 0.0))

    def test_unit_costs_match_exactly_one(self):
        g = complete_graph(3)
        m = build_cost_based(g, 3, (1.0, 1.0, 1.0))
        ok = PartitionAssignment.from_labels([1, 2, 3], 3)
        assert m.violated_constraints(m.assignment_to_values(ok)) == []
        double = PartitionAssignment(
            (frozenset((1, 2)), frozenset((2,)), frozenset((3,))), 3
        )
        assert m.violated_constraints(m.assignment_to_values(double)) != []

    def test_half_half_one_portfolios(self):
        g = graph_from_edges(2, [(0, 1)])
        m = build_cost_based(g, 3, (0.5, 0.5, 1.0))
        pair = PartitionAssignment((frozenset((1, 2)), frozenset((3,))), 3)
        bad = PartitionAssignment((frozenset((1,)), frozenset((3,))), 3)
        assert not any(
            c.startswith("assign") for c in m.violated_constraints(m.assignment_to_values(pair))
        )
        assert any(
            c.startswith("assign") for c in m.violated_constraints(m.assignment_to_values(bad))
        )


class TestSoftModels:
    def test_optimal_soft_sizes(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        n = 3
        m = build_optimal_soft(g, n)
        assert len(m.variables) == 2 * 4 * n
        eq = [c for c in m.constraints if c.relation == "="]
        ineq = [c for c in m.constraints if c.relation == "<="]
        assert len(eq) == 4
        assert len(ineq) == 4 * n
        assert len(m.objective) == 4 * n

    def test_maximal_soft_adds_z_block(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        n = 3
        m = build_maximal_soft(g, n)
        assert len(m.variables) == 2 * 4 * n + 4
        link = [c for c in m.constraints if c.name.startswith("full_")]
        assert len(link) == 4 * n
        assert len(m.objective) == 4

    def test_auxiliaries_track_coverage(self):
        g = graph_from_edges(2, [(0, 1)])
        m = build_maximal_soft(g, 3)
        a = PartitionAssignment.from_labels([1, 2], 3)
        values = m.assignment_to_values(a)
        # both nodes see means 1 and 2, neither sees 3
        assert values[m.y_index(0, 1)] == 1
        assert values[m.y_index(0, 3)] == 0
        assert values[m.z_index(0)] == 0
        assert m.violated_constraints(values) == []
        assert m.objective_value(values) == 0.0

    def test_every_variable_appears_somewhere(self):
        g = star_graph(3)
        for m in (
            build_domatic_feasibility(g, 2),
            build_optimal_soft(g, 2),
            build_maximal_soft(g, 2),
            build_model(g, 2, KIND_MAXIMAL_SOFT, CAP_FIXED_K, k=2),
        ):
            used = set()
            for c in m.constraints:
                used |= {i for i, _ in c.terms}
            if m.objective:
                used |= {i for i, _ in m.objective}
            assert used == set(range(len(m.variables)))


# each program as its builder makes it and as its declaration reads:
# (build, kind, capacity, k, costs)
PROGRAMS = [
    (build_domatic_feasibility, KIND_FEASIBILITY, CAP_EXACTLY_ONE, None, None),
    (lambda g, n: build_fixed_k(g, n, 2), KIND_FEASIBILITY, CAP_FIXED_K, 2, None),
    (
        lambda g, n: build_cost_based(g, n, (0.5,) * n),
        KIND_FEASIBILITY, CAP_COST, None, (0.5,) * 3,
    ),
    (build_optimal_soft, KIND_OPTIMAL_SOFT, CAP_EXACTLY_ONE, None, None),
    (build_maximal_soft, KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, None, None),
    (
        lambda g, n: build_model(g, n, KIND_OPTIMAL_SOFT, CAP_FIXED_K, k=2),
        KIND_OPTIMAL_SOFT, CAP_FIXED_K, 2, None,
    ),
    (
        lambda g, n: build_model(g, n, KIND_MAXIMAL_SOFT, CAP_COST, costs=(0.5,) * n),
        KIND_MAXIMAL_SOFT, CAP_COST, None, (0.5,) * 3,
    ),
]
PROGRAM_IDS = [
    "feasibility", "fixed-k", "cost", "optimal-soft", "maximal-soft",
    "optimal-soft-fixed-k", "maximal-soft-cost",
]


class TestDeclaration:
    @pytest.mark.parametrize("program", PROGRAMS, ids=PROGRAM_IDS)
    def test_direct_model_equals_built_model(self, program):
        build, kind, capacity, k, costs = program
        g = cycle_graph(5)
        nbrs = tuple(tuple(sorted(g.closed_neighbourhood(v))) for v in range(5))
        m = IlpModel(kind, capacity, 3, nbrs, k=k, costs=costs)
        assert m == build(g, 3)
        assert m.node_count == 5
        assert export_lp(m) == export_lp(build(g, 3))

    @pytest.mark.parametrize("program", PROGRAMS, ids=PROGRAM_IDS)
    def test_replace_rederives_rows(self, program):
        build, _, capacity, _, _ = program
        small, large = star_graph(3), cycle_graph(5)
        m = build(small, 3)
        # a cost vector is as long as n
        grown = {"n": 4, "costs": (0.5,) * 4} if capacity == CAP_COST else {"n": 4}
        assert dataclasses.replace(m, **grown) == build(small, 4)
        moved = dataclasses.replace(
            m, closed_neighbourhoods=build(large, 3).closed_neighbourhoods
        )
        assert moved == build(large, 3)
        assert moved.constraints == build(large, 3).constraints

    @pytest.mark.parametrize(
        "declare",
        [
            lambda nbrs: IlpModel("bogus", CAP_EXACTLY_ONE, 2, nbrs),
            lambda nbrs: IlpModel(KIND_OPTIMAL_SOFT, "bogus", 2, nbrs),
            lambda nbrs: IlpModel(KIND_FEASIBILITY, CAP_FIXED_K, 2, nbrs),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_FIXED_K, 2, nbrs, k=3),
            lambda nbrs: IlpModel(KIND_FEASIBILITY, CAP_COST, 2, nbrs),
            lambda nbrs: IlpModel(KIND_FEASIBILITY, CAP_COST, 2, nbrs, costs=(10**400, 1)),
            lambda nbrs: dataclasses.replace(
                IlpModel(KIND_FEASIBILITY, CAP_COST, 3, nbrs, costs=(0.5, 0.5, 1.0)), n=4
            ),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 0, nbrs),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, True, nbrs),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 2.0, nbrs),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, "2", nbrs),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, None, nbrs),
            lambda nbrs: IlpModel(KIND_OPTIMAL_SOFT, CAP_EXACTLY_ONE, 2, ()),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 2, ((0, 1.0), (0, 1))),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 2, ((0, True), (0, 1))),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 2, ((0, 5), (1,))),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 2, ((0, -1), (0, 1))),
            lambda nbrs: IlpModel(KIND_MAXIMAL_SOFT, CAP_EXACTLY_ONE, 2, ((0, 1, 1), (0, 1))),
            lambda nbrs: IlpModel(KIND_FEASIBILITY, CAP_EXACTLY_ONE, 2, ((1,), (0,))),
            lambda nbrs: dataclasses.replace(
                IlpModel(KIND_OPTIMAL_SOFT, CAP_EXACTLY_ONE, 2, nbrs),
                closed_neighbourhoods=((0, 1), (0, 2)),
            ),
        ],
        ids=[
            "unknown-kind", "unknown-capacity", "fixed-k-without-k", "k-above-n",
            "cost-without-costs", "cost-past-float", "replace-n-past-costs", "n-zero", "n-bool",
            "n-float", "n-string", "n-none", "no-nodes",
            "float-index", "bool-index", "index-past-last-node", "negative-index",
            "repeated-index", "node-outside-own-neighbourhood",
            "replace-index-past-last-node",
        ],
    )
    def test_bad_declaration_raises_when_made(self, declare):
        with pytest.raises(ValueError):
            declare(((0, 1), (0, 1)))

    @pytest.mark.parametrize(
        "derived", [{"constraints": ()}, {"node_count": 3}, {"variables": ()}]
    )
    def test_derived_values_are_not_constructor_arguments(self, derived):
        with pytest.raises(TypeError):
            IlpModel(KIND_FEASIBILITY, CAP_EXACTLY_ONE, 2, ((0, 1), (0, 1)), **derived)


class TestLpExport:
    def test_k3_n2_optimal_soft_counts(self):
        m = build_optimal_soft(complete_graph(3), 2)
        text = export_lp(m)
        assert text.count("x_") >= 6
        lines = text.splitlines()
        assert lines[0] == "Maximize"
        assert "Subject To" in lines
        assert "Binary" in lines
        assert lines[-1] == "End"
        subject = lines.index("Subject To")
        binary = lines.index("Binary")
        assert binary - subject - 1 == 3 + 6  # assign rows + cover rows
        assert len(lines) - binary - 2 == 12  # 6 x vars + 6 y vars

    def test_feasibility_gets_constant_zero_objective(self):
        m = build_domatic_feasibility(complete_graph(3), 2)
        text = export_lp(m)
        assert " obj: 0 x_0_1" in text

    def test_byte_stable(self):
        m = build_optimal_soft(graph_from_edges(2, [(0, 1)]), 3)
        assert export_lp(m) == export_lp(m)

    def test_cost_coefficients_rendered(self):
        m = build_cost_based(graph_from_edges(2, [(0, 1)]), 2, (0.5, 1.0))
        text = export_lp(m)
        assert "0.5 x_0_1 + x_0_2 = 1" in text


def _golden_graph():
    return prepare_graph(degree_seed(40, 4), "SG1", 7, 100)


# SHA-256 of export_lp for seven programs on _golden_graph(): the LP text is
# byte-stable, so a change here must be a deliberate change of the format
GOLDEN_LP_SHA256 = {
    "feasibility": (
        "3d0ce19455d3958e53822783631f28702785603bd18de37931a9a0b0fe6c9030",
        lambda g: build_domatic_feasibility(g, 3),
    ),
    "fixed-k": (
        "e66803f53a7d8508e596586980c1a393d295e498311478d0f95acac26cfd17ca",
        lambda g: build_fixed_k(g, 3, 2),
    ),
    "cost": (
        "e5eba1c8ecf89870453824ec4b8313b2178dff56e19fb3f499a1afc7d91e14e9",
        lambda g: build_cost_based(g, 3, (0.5, 0.5, 1.0)),
    ),
    "optimal-soft": (
        "ffd29dcd86075496586a99346bea1f5e446dadd886f505ac391071af40e68264",
        lambda g: build_optimal_soft(g, 4),
    ),
    "maximal-soft": (
        "56d374555980c280b19d2d57ff82fb10c3d25b36e3df98c1b5057c7f74944589",
        lambda g: build_maximal_soft(g, 4),
    ),
    "optimal-soft-fixed-k": (
        "180f126e4ce16c0af50c6f1d27bea3a5374a54827c876f480d69e6352188c981",
        lambda g: build_model(g, 4, KIND_OPTIMAL_SOFT, CAP_FIXED_K, k=2),
    ),
    "maximal-soft-cost": (
        "e5ade2e45ff15cca3748e741ca3e4e9b98cd1073a647896994e1d27caa47802e",
        lambda g: build_model(g, 4, KIND_MAXIMAL_SOFT, CAP_COST, costs=(0.25, 0.75, 0.5, 0.5)),
    ),
}


@pytest.mark.parametrize("program", sorted(GOLDEN_LP_SHA256))
def test_lp_export_matches_recorded_hash(program):
    digest, build = GOLDEN_LP_SHA256[program]
    text = export_lp(build(_golden_graph()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
