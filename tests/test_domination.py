"""Graphs, neighborhood hypergraphs, tree domination, and the randomized
equivalence audit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercover import (
    Graph,
    check,
    check_graph,
    complete_graph,
    cycle_graph,
    exact,
    format_graph,
    greedy_cover,
    neighborhood_equivalence_audit,
    neighborhood_hypergraph,
    parse_graph,
    path_graph,
    star_graph,
    strong_degeneracy,
    tree_domination,
)
from hypercover.errors import (
    FormatError,
    FormatWarning,
    IdOutOfRangeError,
    IsolatedVertexForOpenError,
    NotATreeError,
    ParameterError,
    SingleVertexOpenError,
    VertexOutOfRangeError,
)

from conftest import graphs, trees


def assert_generic_agrees(t, kind, cert):
    """The tree solver's certificate is the generic greedy's on the
    neighborhood hypergraph: the same packing in the same order, and the
    dominators are the cover edges' smallest generators (the first name in
    each edge label)."""
    h = neighborhood_hypergraph(t, kind)
    generic = greedy_cover(h)
    assert cert.packing == generic.independent
    smallest = sorted(int(h.edge_labels[i].split(",")[0][3:-1]) - 1 for i in generic.cover)
    assert sorted(cert.dominating) == smallest


class TestGraph:
    def test_from_edges(self):
        g = Graph.from_edges(3, [(2, 0), (0, 1)])
        assert g.adj == ((1, 2), (0,), (0,))
        assert g.m == 2
        assert g.edges == ((0, 1), (0, 2))
        assert g.degree(0) == 2

    def test_duplicate_edges_merge_with_warning(self):
        with pytest.warns(FormatWarning):
            g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            Graph.from_edges(2, [(0, 2)])

    def test_asymmetry_rejected(self):
        with pytest.raises(ParameterError):
            Graph(2, ((1,), ()))


class TestGraphFormat:
    P4 = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"

    def test_parse_and_format_frozen(self):
        g = parse_graph(self.P4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert format_graph(g) == self.P4

    def test_header_errors(self):
        with pytest.raises(FormatError):
            parse_graph("p hg 2 1\ne 1 2\n")
        with pytest.raises(FormatError):
            parse_graph("e 1 2\n")

    def test_edge_line_errors(self):
        with pytest.raises(FormatError):
            parse_graph("p edge 3 1\ne 1 2 3\n")
        with pytest.raises(FormatError):
            parse_graph("p edge 2 1\ne 1 1\n")
        with pytest.raises(VertexOutOfRangeError):
            parse_graph("p edge 2 1\ne 1 3\n")
        with pytest.raises(FormatError):
            parse_graph("p edge 2 0\ne 1 2\n")

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph(format_graph(g)) == g


class TestNeighborhoodHypergraph:
    def test_closed_path(self):
        h = neighborhood_hypergraph(path_graph(4))
        assert h.edges == ((0, 1), (0, 1, 2), (1, 2, 3), (2, 3))
        assert h.edge_labels == ("N[v1]", "N[v2]", "N[v3]", "N[v4]")

    def test_open_path(self):
        h = neighborhood_hypergraph(path_graph(4), kind="open")
        assert h.edges == ((1,), (0, 2), (1, 3), (2,))
        assert h.edge_labels == ("N(v1)", "N(v2)", "N(v3)", "N(v4)")

    def test_open_star_merges_leaf_hoods(self):
        h = neighborhood_hypergraph(star_graph(3, center=1), kind="open")
        assert h.edges == ((1,), (0, 2, 3))
        assert h.edge_labels == ("N(v1),N(v3),N(v4)", "N(v2)")

    def test_closed_twins_merge(self):
        h = neighborhood_hypergraph(complete_graph(3))
        assert h.edges == ((0, 1, 2),)
        assert h.edge_labels == ("N[v1],N[v2],N[v3]",)

    def test_open_rejects_isolated_vertex(self):
        with pytest.raises(IsolatedVertexForOpenError):
            neighborhood_hypergraph(Graph(2, ((), ())), kind="open")

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            neighborhood_hypergraph(path_graph(2), kind="semi")

    @given(graphs())
    def test_domination_is_cover_and_packing_is_independence(self, g):
        """The graph notions coincide with their hypergraph counterparts."""
        h = neighborhood_hypergraph(g, "closed")
        lookup = {eset: i for i, eset in enumerate(h.edge_sets)}
        for subset_seed in range(3):
            subset = [v for v in range(g.n) if (v * 7 + subset_seed) % 3 == 0]
            ids = {lookup[frozenset((v, *g.adj[v]))] for v in subset}
            assert check_graph(g, "dominating", subset) == check(h, "edge-cover", ids)
            assert check_graph(g, "2-packing", subset) == check(
                h, "independent-set", subset
            )


class TestCheckGraph:
    @pytest.fixture()
    def p5(self):
        return path_graph(5)

    def test_dominating(self, p5):
        assert check_graph(p5, "dominating", [1, 3])
        assert not check_graph(p5, "dominating", [0, 4])

    def test_total_dominating(self, p5):
        assert check_graph(p5, "total-dominating", [1, 2, 3])
        # vertex 2 has no chosen neighbor
        assert not check_graph(p5, "total-dominating", [1, 3])

    def test_packings(self, p5):
        assert check_graph(p5, "2-packing", [0, 3])
        assert not check_graph(p5, "2-packing", [0, 2])
        assert check_graph(p5, "open-2-packing", [0, 1])
        assert not check_graph(p5, "open-2-packing", [1, 3])

    def test_errors(self, p5):
        with pytest.raises(IdOutOfRangeError):
            check_graph(p5, "dominating", [9])
        with pytest.raises(ParameterError):
            check_graph(p5, "vertex-cover", [0])


class TestTreeDomination:
    def test_path4_closed(self):
        cert = tree_domination(path_graph(4))
        assert_generic_agrees(path_graph(4), "closed", cert)
        assert cert.dominating == (1, 2)
        assert cert.packing == (0, 3)
        assert cert.equal

    def test_path4_open(self):
        cert = tree_domination(path_graph(4), kind="open")
        assert_generic_agrees(path_graph(4), "open", cert)
        assert cert.dominating == (1, 2)
        assert cert.packing == (0, 1)

    def test_path2_open(self):
        cert = tree_domination(path_graph(2), kind="open")
        assert cert.dominating == (1, 0)
        assert cert.packing == (0, 1)

    def test_star_picks_the_hub(self):
        cert = tree_domination(star_graph(3, center=1))
        assert cert.dominating == (1,)
        assert cert.packing == (0,)

    def test_star_open(self):
        cert = tree_domination(star_graph(3, center=1), kind="open")
        assert cert.dominating == (1, 0)
        assert cert.packing == (0, 1)

    def test_single_vertex(self):
        cert = tree_domination(path_graph(1))
        assert_generic_agrees(path_graph(1), "closed", cert)
        assert cert.dominating == (0,)
        assert cert.packing == (0,)

    def test_single_vertex_open_rejected(self):
        with pytest.raises(SingleVertexOpenError):
            tree_domination(path_graph(1), kind="open")

    def test_non_trees_rejected(self):
        with pytest.raises(NotATreeError):
            tree_domination(cycle_graph(4))
        with pytest.raises(NotATreeError):
            tree_domination(Graph(3, ((1,), (0,), ())))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            tree_domination(path_graph(3), kind="semi")

    @given(trees())
    @settings(max_examples=60)
    def test_closed_certificates(self, t):
        cert = tree_domination(t)
        assert_generic_agrees(t, "closed", cert)
        assert check_graph(t, "dominating", cert.dominating)
        assert check_graph(t, "2-packing", cert.packing)
        assert len(cert.dominating) == len(cert.packing)
        assert len(set(cert.dominating)) == len(cert.dominating)

    @given(trees(min_n=2))
    @settings(max_examples=60)
    def test_open_certificates(self, t):
        cert = tree_domination(t, kind="open")
        assert_generic_agrees(t, "open", cert)
        assert check_graph(t, "total-dominating", cert.dominating)
        assert check_graph(t, "open-2-packing", cert.packing)
        assert len(cert.dominating) == len(cert.packing)

    @given(trees(max_n=9))
    @settings(max_examples=30)
    def test_sizes_are_optimal(self, t):
        """Equal-size certificates squeeze both optima to the same value."""
        cert = tree_domination(t)
        assert len(cert.dominating) == exact(t, "min-dominating").value
        assert len(cert.packing) == exact(t, "max-2-packing").value

    @given(trees(max_n=30))
    @settings(max_examples=30)
    def test_closed_neighborhoods_of_trees_peel_at_one(self, t):
        assert strong_degeneracy(neighborhood_hypergraph(t)).value == 1


class TestAudit:
    def test_counts(self):
        report = neighborhood_equivalence_audit(cycle_graph(6), trials=20, seed=1)
        assert report.trials == 20
        assert report.checks_run == 80
        assert report.failures == 0
        assert report.open_included
        assert report.degree_bound_failures == 0

    def test_isolated_vertex_skips_open_kind(self):
        g = Graph(3, ((1,), (0,), ()))
        report = neighborhood_equivalence_audit(g, trials=5)
        assert not report.open_included
        assert report.checks_run == 10
        assert report.failures == 0

    def test_deterministic(self):
        g = cycle_graph(5)
        assert neighborhood_equivalence_audit(g, seed=9) == neighborhood_equivalence_audit(g, seed=9)

    @given(graphs())
    @settings(max_examples=40)
    def test_never_fails_on_random_graphs(self, g):
        report = neighborhood_equivalence_audit(g, trials=10, seed=0)
        assert report.failures == 0
        assert report.degree_bound_failures == 0
