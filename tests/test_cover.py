"""Greedy edge cover certificates and the dual transversal/matching run."""

from __future__ import annotations

import pytest
from hypothesis import given

from hypercover import (
    Hypergraph,
    check,
    gap_family,
    greedy_cover,
    greedy_transversal,
    neighborhood_hypergraph,
    path_graph,
)
from hypercover.errors import IsolatedVertexError

from conftest import covering_hypergraphs


class TestGreedyCover:
    def test_gap5_certificate(self):
        cert = greedy_cover(gap_family(5), mighty=True)
        assert cert.cover == (0, 1)
        assert cert.independent == (0,)
        assert cert.per_step_edges == (2,)
        assert cert.bound_factor == 3
        assert cert.mighty_factor == 2
        assert cert.checks.cover_valid
        assert cert.checks.independent_valid
        assert cert.checks.inequality_holds

    def test_path_neighborhoods(self):
        cert = greedy_cover(neighborhood_hypergraph(path_graph(4)))
        assert cert.cover == (1, 2)
        assert cert.independent == (0, 3)
        assert cert.per_step_edges == (1, 1)
        assert cert.bound_factor == 1

    def test_single_vertex(self):
        cert = greedy_cover(Hypergraph.from_edges(1, [(0,)]))
        assert cert.cover == (0,)
        assert cert.independent == (0,)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            greedy_cover(Hypergraph.from_edges(3, [(0, 1)]))

    def test_mighty_skipped_by_default(self):
        assert greedy_cover(gap_family(5)).mighty_factor is None

    @given(covering_hypergraphs())
    def test_certificate_invariants(self, h):
        cert = greedy_cover(h, mighty=True)
        assert check(h, "edge-cover", cert.cover)
        assert check(h, "independent-set", cert.independent)
        assert cert.cover == tuple(sorted(set(cert.cover)))
        assert len(cert.per_step_edges) == len(cert.independent)
        total = sum(cert.per_step_edges)
        assert len(cert.cover) <= total
        assert total <= cert.bound_factor * len(cert.independent)
        assert cert.mighty_factor is not None
        assert cert.mighty_factor <= cert.bound_factor
        assert total <= cert.mighty_factor * len(cert.independent)

    @given(covering_hypergraphs())
    def test_deterministic(self, h):
        assert greedy_cover(h) == greedy_cover(h)


class TestGreedyTransversal:
    def test_two_edge_path(self):
        cert = greedy_transversal(Hypergraph.from_edges(3, [(0, 1), (1, 2)]))
        assert cert.transversal == (1,)
        assert cert.matching == (0,)
        assert cert.per_step_edges == (1,)
        assert cert.bound_factor == 1

    def test_gap5(self):
        cert = greedy_transversal(gap_family(5))
        assert cert.transversal == (0, 1)
        assert cert.matching == (0,)
        assert cert.bound_factor == 3

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError):
            greedy_transversal(Hypergraph.from_edges(2, [(0,)]))

    @given(covering_hypergraphs())
    def test_certificate_invariants(self, h):
        cert = greedy_transversal(h)
        assert check(h, "transversal", cert.transversal)
        assert check(h, "matching", cert.matching)
        assert cert.transversal == tuple(sorted(set(cert.transversal)))
        total = sum(cert.per_step_edges)
        assert len(cert.transversal) <= total
        assert total <= cert.bound_factor * len(cert.matching)

    @given(covering_hypergraphs())
    def test_matching_never_larger_than_transversal(self, h):
        # each matched edge needs its own hitting vertex
        cert = greedy_transversal(h)
        assert len(cert.matching) <= len(cert.transversal)
