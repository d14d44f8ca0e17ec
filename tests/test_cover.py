"""Greedy edge cover certificates and the dual transversal/matching run."""

from __future__ import annotations

import weakref

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypercover import (
    Hypergraph,
    check,
    dual,
    gap_family,
    greedy_cover,
    greedy_transversal,
    maximal_edges,
    neighborhood_hypergraph,
    path_graph,
    restrict,
    strong_degeneracy,
)
from hypercover._trace_index import TraceIndex
from hypercover.degeneracy import _peel, _strong_degeneracy
from hypercover.errors import CertificateError, IsolatedVertexError

from conftest import covering_hypergraphs, covering_instances, gap_family_slices, mighty_degeneracy_ref

# The largest step is 2 and the strong degeneracy 10.
GAP12 = gap_family(12)
# Each batch of the bound's core peel frees the next.
PATH6 = Hypergraph.from_edges(6, [(v, v + 1) for v in range(5)])
# The mighty search starts above the largest step, 1, and must reach the
# bound, 2.
MIGHTY_EXAMPLES = (
    Hypergraph.from_edges(6, [(0, 3), (1, 2, 4), (1, 5), (2, 3), (4, 5)]),
    Hypergraph.from_edges(6, [(0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3,), (3, 5)]),
)


# GAP12's one step takes all; each step of PATH6 takes two vertices; the
# first step of the sunflower takes its kernel, leaving each other petal a
# trace of its own, and the last step takes one vertex.
GREEDY_EXAMPLES = (GAP12, PATH6, Hypergraph(6, tuple((0, 1, p) for p in range(2, 6))))


def check_greedy_steps(h):
    """The greedy as ``greedy_cover`` runs it, from the bound's seed, step
    by step against the restriction recomputed from scratch: it pops the
    smallest vertex of minimum strong degree, takes the representatives of
    the maximal traces through it in ascending order, and strongly removes
    it, until no vertex is left."""
    _, seed = _strong_degeneracy(h)
    steps, taken = _peel(h, strong=True, strong_removal=True, seed=seed)
    live = set(range(h.n))
    order, sizes, reps = [], [], []
    while live:
        sub = restrict(h, live)
        maximal = [(sub.representatives[i], sub.edge_sets[i]) for i in maximal_edges(sub)]
        x = min(live, key=lambda v: (sum(v in t for _, t in maximal), v))
        through = [(rep, t) for rep, t in maximal if x in t]
        order.append(x)
        sizes.append(len(through))
        reps += sorted(rep for rep, _ in through)
        live -= {x}.union(*(t for _, t in through))
    assert (steps.order, steps.step_values, taken) == (tuple(order), tuple(sizes), reps)


def check_mighty_value(h):
    assert greedy_cover(h, mighty=True).mighty_factor == mighty_degeneracy_ref(h)


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

    def test_a_trace_dropped_at_build_keeps_its_edge_as_representative(self):
        # Edge 0, {1, 2}, lies inside edge 1 at build, so the strong index
        # never keeps it; after the first step removes {0, 3}, edge 1 shrinks
        # to {1, 2}, whose smallest generating edge is 0.
        cert = greedy_cover(Hypergraph(5, ((1, 2), (1, 2, 3), (3, 4), (0, 3))))
        assert cert.cover == (0, 2, 3)
        assert cert.independent == (0, 1, 4)

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

    def test_mighty_skipped_above_the_cap_even_when_the_bounds_meet(self):
        # The largest step and the bound are both 1, so a cap checked after
        # the search's floor == ceiling shortcut would attach 1.
        path = Hypergraph.from_edges(15, [(v, v + 1) for v in range(14)])
        cert = greedy_cover(path, mighty=True)
        assert max(cert.per_step_edges) == cert.bound_factor == 1
        assert cert.mighty_factor is None

    @given(st.one_of(covering_instances(), gap_family_slices()))
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
        assert max(cert.per_step_edges) <= cert.mighty_factor
        assert total <= cert.mighty_factor * len(cert.independent)

    @given(covering_hypergraphs())
    def test_deterministic(self, h):
        assert greedy_cover(h) == greedy_cover(h)

    @given(covering_instances())
    @example(GAP12)
    @example(PATH6)
    def test_bound_is_the_strong_degeneracy(self, h):
        assert greedy_cover(h).bound_factor == strong_degeneracy(h).value

    @given(covering_instances())
    @example(GREEDY_EXAMPLES[0])
    @example(GREEDY_EXAMPLES[1])
    @example(GREEDY_EXAMPLES[2])
    def test_each_step_recomputed_from_scratch(self, h):
        check_greedy_steps(h)

    def test_bound_checks_the_steps(self, monkeypatch):
        """The bound is computed apart from the greedy, so a step above it
        fails the self-check: on a 5-cycle of pairs the steps are 2 and 1,
        and a bound of 1 cannot hold 3 edges for 2 vertices."""
        cycle = Hypergraph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
        assert greedy_cover(cycle).bound_factor == 2
        _, seed = _strong_degeneracy(cycle)
        monkeypatch.setattr("hypercover.cover._strong_degeneracy", lambda h: (1, seed))
        with pytest.raises(CertificateError):
            greedy_cover(cycle)

    def test_one_index_at_a_time(self, monkeypatch):
        """The bound's index is gone before the greedy's is built; only its
        seed, taken before its first deletion, reaches it: the ids of the
        maximal edges, their hashes and the witness pairs of its build."""
        built = []
        build = TraceIndex.__init__

        def spy(index, h, strong=True, seed=None):
            assert all(ref() is None for ref, *_ in built)
            build(index, h, strong, seed)
            built.append((weakref.ref(index), strong, seed, index._hash[:], index._wit[:]))

        monkeypatch.setattr(TraceIndex, "__init__", spy)
        greedy_cover(GAP12)
        (_, strong, seed, hashes, pairs), (_, handed_strong, handed, _, _) = built
        assert (strong, seed, handed_strong) == (True, None, True)
        assert handed == (list(maximal_edges(GAP12)), hashes, pairs)

    @pytest.mark.parametrize(
        "h, largest_step, mighty, bound",
        [
            # The bounds meet: nothing is searched.
            (neighborhood_hypergraph(path_graph(4)), 1, 1, 1),
            # The largest step is the mighty value, below the bound.
            (gap_family(5), 2, 2, 3),
            (Hypergraph.from_edges(4, [(0, 1), (2, 3), (0, 3), (1, 3)]), 1, 1, 2),
            # The search rises above the largest step.
            (Hypergraph.from_edges(6, [(1, 2), (0, 3), (4, 5), (1, 3), (0, 4), (0, 5)]), 1, 2, 2),
        ],
    )
    def test_mighty_value_within_its_sandwich(self, h, largest_step, mighty, bound):
        cert = greedy_cover(h, mighty=True)
        assert (max(cert.per_step_edges), cert.mighty_factor, cert.bound_factor) == (largest_step, mighty, bound)

    @given(covering_instances())
    @example(MIGHTY_EXAMPLES[0])
    @example(MIGHTY_EXAMPLES[1])
    def test_mighty_value_matches_its_definition(self, h):
        check_mighty_value(h)


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

    @given(covering_instances())
    @example(GAP12)
    @example(PATH6)
    def test_bound_is_the_strong_degeneracy_of_the_dual(self, h):
        assert greedy_transversal(h).bound_factor == strong_degeneracy(dual(h)).value

    @given(covering_hypergraphs())
    def test_matching_never_larger_than_transversal(self, h):
        # each matched edge needs its own hitting vertex
        cert = greedy_transversal(h)
        assert len(cert.matching) <= len(cert.transversal)
