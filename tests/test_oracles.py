"""Brute-force optima: frozen small answers, feasibility errors, size caps,
the search against a plain enumeration, and weak-duality relations on
random instances.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hypercover import (
    Graph,
    Hypergraph,
    check,
    check_graph,
    dual,
    ExactResult,
    exact,
    gap_family,
    greedy_cover,
    greedy_transversal,
    path_graph,
    random_hypergraph,
)
from hypercover.errors import InfeasibleError, ParameterError, TooLargeError
from hypercover.oracles import GRAPH_PROBLEMS, HYPERGRAPH_PROBLEMS

from conftest import covering_hypergraphs, exact_ref, graphs, sparse_covering_hypergraphs


# Candidates tried before the first feasible one, kept outside the
# parametrizations so the test ids stay as they were.
EXPLORED = {
    "min-edge-cover": 7,
    "max-independent-set": 27,
    "min-transversal": 7,
    "max-matching": 27,
    "min-dominating": 7,
    "min-total-dominating": 9,
    "max-2-packing": 8,
    "max-open-2-packing": 6,
}


class TestFrozenAnswers:
    @pytest.mark.parametrize(
        "problem, value, witness",
        [
            ("min-edge-cover", 2, (0, 1)),
            ("max-independent-set", 1, (0,)),
            ("min-transversal", 2, (0, 1)),
            ("max-matching", 1, (0,)),
        ],
    )
    def test_gap5(self, problem, value, witness):
        result = exact(gap_family(5), problem)
        assert result.problem == problem
        assert result.value == value
        assert result.witness == witness
        assert result.explored == EXPLORED[problem]

    @pytest.mark.parametrize(
        "problem, value, witness",
        [
            ("min-dominating", 2, (0, 2)),
            ("min-total-dominating", 2, (1, 2)),
            ("max-2-packing", 2, (0, 3)),
            ("max-open-2-packing", 2, (0, 1)),
        ],
    )
    def test_path4(self, problem, value, witness):
        result = exact(path_graph(4), problem)
        assert result.value == value
        assert result.witness == witness
        assert result.explored == EXPLORED[problem]

    def test_witness_is_lexicographically_least(self):
        # (0, 2) dominates the path before (1, 2) is ever tried
        assert exact(path_graph(4), "min-dominating").witness == (0, 2)


    def test_answers_at_the_caps(self):
        # 16 vertices and 22 edges; the plain enumeration takes seconds on
        # the matching, which is the 3,894,666th set it would try.
        h = random_hypergraph(16, 22, 3, 0, cover_feasible=True)
        assert exact(h, "max-matching") == ExactResult("max-matching", 8, (5, 7, 8, 9, 11, 16, 17, 19), 3_894_666)
        assert exact(h, "min-edge-cover") == ExactResult("min-edge-cover", 6, (0, 1, 2, 3, 4, 5), 35_444)


# The empty instances, vertices in no edge (masks 0), a graph vertex with no
# neighbor, two smallest edge covers of which (0, 1) comes first, and the
# gap family.
EXACT_EXAMPLES = {
    "empty-hypergraph": Hypergraph(0, ()),
    "empty-graph": Graph(0, ()),
    "vertices-in-no-edge": Hypergraph(3, ((0,),)),
    "vertex-with-no-neighbor": Graph(3, ((1,), (0,), ())),
    "tied-covers": Hypergraph(5, ((0, 1, 3, 4), (2,), (3,), (0, 1, 2))),
    **{f"gap{n}": gap_family(n) for n in range(3, 10)},
}


def check_exact_matches_enumeration(instance):
    """Every problem of ``instance``: ``exact`` equals the plain enumeration
    in value, witness and ``explored``, and is infeasible where it is."""
    for problem in HYPERGRAPH_PROBLEMS if isinstance(instance, Hypergraph) else GRAPH_PROBLEMS:
        try:
            result = exact(instance, problem)
        except InfeasibleError:
            result = None
        found = None if result is None else (result.value, result.witness, result.explored)
        assert found == exact_ref(instance, problem), problem


class TestSearchMatchesEnumeration:
    @pytest.mark.parametrize("instance", EXACT_EXAMPLES.values(), ids=EXACT_EXAMPLES)
    def test_pinned_cases(self, instance):
        check_exact_matches_enumeration(instance)

    @given(st.one_of(sparse_covering_hypergraphs(), covering_hypergraphs(), graphs()))
    def test_random_instances(self, instance):
        check_exact_matches_enumeration(instance)


class TestErrors:
    def test_cover_infeasible_with_isolated_vertex(self):
        with pytest.raises(InfeasibleError):
            exact(Hypergraph.from_edges(3, [(0, 1)]), "min-edge-cover")

    def test_total_domination_infeasible_with_isolated_vertex(self):
        with pytest.raises(InfeasibleError):
            exact(Graph(2, ((), ())), "min-total-dominating")

    def test_vertex_caps(self):
        with pytest.raises(TooLargeError):
            exact(Hypergraph(17, ()), "min-transversal")
        with pytest.raises(TooLargeError):
            exact(Graph(19, ((),) * 19), "min-dominating")

    def test_edge_ground_cap(self):
        h = Hypergraph.from_edges(8, [(a, b) for a in range(8) for b in range(a + 1, 8)])
        assert h.m == 28
        with pytest.raises(TooLargeError):
            exact(h, "max-matching")
        # vertex-ground problems are unaffected by the edge count
        assert exact(h, "min-transversal").value == 7

    def test_type_mismatch(self):
        with pytest.raises(ParameterError):
            exact(path_graph(3), "min-edge-cover")
        with pytest.raises(ParameterError):
            exact(gap_family(4), "min-dominating")

    def test_unknown_problem(self):
        with pytest.raises(ParameterError):
            exact(gap_family(4), "min-cut")


class TestRelations:
    @given(covering_hypergraphs(max_n=7, max_extra=5))
    @settings(max_examples=40)
    def test_weak_duality_and_greedy_sandwich(self, h):
        cover = exact(h, "min-edge-cover")
        independent = exact(h, "max-independent-set")
        transversal = exact(h, "min-transversal")
        matching = exact(h, "max-matching")
        assert check(h, "edge-cover", cover.witness)
        assert check(h, "independent-set", independent.witness)
        assert check(h, "transversal", transversal.witness)
        assert check(h, "matching", matching.witness)
        # an edge meets at most one independent vertex / one selected vertex
        assert independent.value <= cover.value
        assert matching.value <= transversal.value
        greedy = greedy_cover(h)
        assert cover.value <= len(greedy.cover)
        assert len(greedy.independent) <= independent.value
        dual_greedy = greedy_transversal(h)
        assert transversal.value <= len(dual_greedy.transversal)
        assert len(dual_greedy.matching) <= matching.value

    @given(covering_hypergraphs(max_n=7, max_extra=12))
    @settings(max_examples=40)
    def test_transversal_and_independent_set_are_the_duals_cover_and_packing(self, h):
        # The dual's edges are the vertices' incidence sets, merged when equal;
        # at most 4 blocks and 12 extra edges keep its m <= 16 vertices in the cap.
        assert h.m <= 16
        d = dual(h)
        assert exact(h, "min-transversal").value == exact(d, "min-edge-cover").value
        assert exact(h, "max-independent-set").value == exact(d, "max-matching").value

    @given(graphs(max_n=7))
    @settings(max_examples=40)
    def test_packing_never_beats_domination(self, g):
        dominating = exact(g, "min-dominating")
        packing = exact(g, "max-2-packing")
        assert check_graph(g, "dominating", dominating.witness)
        assert check_graph(g, "2-packing", packing.witness)
        assert packing.value <= dominating.value
