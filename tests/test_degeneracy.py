"""Peeling orders and the three degeneracy-style parameters.

The incremental peeling engine is checked two ways: its elimination
orders are recomputed step by step through plain restrictions, and its
final values are compared against the independent subset-enumeration
brute force.
"""

from __future__ import annotations

import contextlib
import random
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercover import (
    Graph,
    Hypergraph,
    degeneracy,
    degree,
    gap_family,
    greedy_cover,
    greedy_transversal,
    maximal_edges,
    mighty_degeneracy_bf,
    neighborhood_hypergraph,
    path_graph,
    restrict,
    strong_degeneracy,
    strong_degeneracy_bf,
    strong_degree,
)
from hypercover import _trace_index
from hypercover._trace_index import TraceIndex
from hypercover.degeneracy import EliminationOrder, _best_restriction, _strong_core, _strong_degeneracy
from hypercover.errors import CertificateError, TooLargeError

from conftest import (
    covering_hypergraphs,
    covering_instances,
    gap_family_slices,
    hypergraphs,
    mighty_degeneracy_ref,
    plain_degeneracy_bf,
    sparse_corpus,
    sparse_instances,
    strong_degeneracy_ref,
)


def colliding_keys():
    """Patch every Zobrist key to zero, so all traces share one hash and
    only the exact member-set compare tells them apart."""
    return mock.patch.object(_trace_index, "_zobrist_keys", lambda n: [0] * n)


class TestEliminationOrder:
    def test_value_is_max_step(self):
        eo = EliminationOrder((2, 0, 1), (1, 3, 1))
        assert eo.value == 3

    def test_empty_order(self):
        assert EliminationOrder((), ()).value == 0


class TestFrozenValues:
    def test_gap5(self):
        eo = strong_degeneracy(gap_family(5))
        assert eo.order == (0, 1, 2, 3, 4)
        assert eo.step_values == (2, 3, 1, 1, 1)
        assert eo.value == 3

    @pytest.mark.parametrize(
        "n, strong, mighty, plain",
        [(3, 1, 1, 2), (4, 2, 2, 2), (5, 3, 2, 3), (6, 4, 2, 4)],
    )
    def test_gap_parameters(self, n, strong, mighty, plain):
        g = gap_family(n)
        assert strong_degeneracy(g).value == strong
        assert strong_degeneracy_bf(g) == strong
        assert mighty_degeneracy_bf(g) == mighty
        assert degeneracy(g).value == plain

    def test_edgeless(self):
        eo = strong_degeneracy(Hypergraph(3, ()))
        assert eo.order == (0, 1, 2)
        assert eo.step_values == (0, 0, 0)
        assert eo.value == 0

    def test_vertices_in_no_edge_never_enter_the_index(self):
        sizes = []

        class Recording(TraceIndex):
            def __init__(self, h, strong=True, seed=None):
                sizes.append(h.n)
                super().__init__(h, strong, seed)

        h = Hypergraph.from_edges(100000, [(1, 3), (3, 7)])
        with mock.patch.object(sys.modules["hypercover.degeneracy"], "TraceIndex", Recording):
            eo = strong_degeneracy(h)
        assert sizes == [3]
        assert eo.order[:3] == (0, 2, 4) and eo.order[-3:] == (1, 3, 7)
        assert eo.step_values[-4:] == (0, 1, 1, 1)

    def test_single_edge(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        assert strong_degeneracy(h).value == 1
        assert degeneracy(h).value == 1


def gap_family_examples(test):
    """Pin ``gap_family(n)`` for n = 3..8 as examples of a one-argument test."""
    for n in range(3, 9):
        test = example(gap_family(n))(test)
    return test


# At k = 2 each round of a path's core peel frees the next; in the closed
# neighborhoods of a path the ends go first, then their neighbors.
CORE_EXAMPLES = (
    (Hypergraph.from_edges(6, [(v, v + 1) for v in range(5)]), 2),
    (neighborhood_hypergraph(path_graph(6)), 2),
)


def check_strong_core(h, k):
    """``_strong_core`` against the largest vertex set in which every vertex
    has strong degree at least ``k``, found by trying every subset."""
    largest: tuple[int, ...] = ()
    for mask in range(1, 1 << h.n):
        subset = [v for v in range(h.n) if mask >> v & 1]
        sub = restrict(h, subset)
        if len(subset) > len(largest) and all(strong_degree(sub, v) >= k for v in subset):
            largest = tuple(subset)
    masks = [sum(1 << v for v in e) for e in h.edges]
    assert _strong_core(masks, (1 << h.n) - 1, k) == sum(1 << v for v in largest)


def check_peeling_steps(h):
    """Every step of the strong and the plain peel removes the smallest
    vertex of minimum degree in the current restriction."""
    for strong, peel in ((True, strong_degeneracy), (False, degeneracy)):
        eo = peel(h)
        live = set(range(h.n))
        for x, value in zip(eo.order, eo.step_values):
            sub = restrict(h, live) if live != set(range(h.n)) else h
            local = degree if not strong else strong_degree
            degrees = {v: local(sub, v) for v in live}
            low = min(degrees.values())
            assert degrees[x] == low == value
            assert x == min(v for v in live if degrees[v] == low)
            live.remove(x)


class TestPeelingMatchesDefinitions:
    @given(hypergraphs())
    def test_order_is_permutation(self, h):
        eo = strong_degeneracy(h)
        assert sorted(eo.order) == list(range(h.n))
        assert len(eo.step_values) == h.n

    @given(hypergraphs())
    def test_each_step_recomputed_from_scratch(self, h):
        check_peeling_steps(h)

    @given(hypergraphs())
    def test_strong_value_matches_brute_force(self, h):
        assert strong_degeneracy(h).value == strong_degeneracy_bf(h)

    @given(hypergraphs(max_n=6, max_m=7))
    @settings(max_examples=40)
    def test_plain_value_matches_brute_force(self, h):
        assert degeneracy(h).value == plain_degeneracy_bf(h)

    @given(st.one_of(hypergraphs(max_n=8), sparse_instances(), gap_family_slices()))
    def test_mighty_value_matches_its_definition(self, h):
        assert mighty_degeneracy_bf(h) == mighty_degeneracy_ref(h)

    @given(st.one_of(hypergraphs(), sparse_instances(max_n=8), gap_family_slices()))
    def test_strong_search_matches_its_definition(self, h):
        assert strong_degeneracy_bf(h) == strong_degeneracy_ref(h)

    @given(hypergraphs())
    def test_parameter_chain(self, h):
        assert (
            mighty_degeneracy_bf(h)
            <= strong_degeneracy(h).value
            <= degeneracy(h).value
        )

    # The four peel tests above again, on sparse shapes, where strong degrees
    # cascade under deletion, and on the gap family.
    @given(sparse_instances())
    @gap_family_examples
    def test_order_is_permutation_on_sparse_shapes(self, h):
        self.test_order_is_permutation.hypothesis.inner_test(self, h)

    @given(sparse_instances())
    @gap_family_examples
    def test_each_step_recomputed_from_scratch_on_sparse_shapes(self, h):
        self.test_each_step_recomputed_from_scratch.hypothesis.inner_test(self, h)

    @given(sparse_instances())
    @gap_family_examples
    def test_strong_value_matches_brute_force_on_sparse_shapes(self, h):
        self.test_strong_value_matches_brute_force.hypothesis.inner_test(self, h)

    @given(sparse_instances())
    @gap_family_examples
    def test_parameter_chain_on_sparse_shapes(self, h):
        self.test_parameter_chain.hypothesis.inner_test(self, h)

    @given(
        st.one_of(hypergraphs(), sparse_instances(max_n=8), gap_family_slices()),
        st.integers(min_value=0, max_value=4),
    )
    @example(*CORE_EXAMPLES[0])
    @example(*CORE_EXAMPLES[1])
    def test_strong_core_matches_its_definition(self, h, k):
        check_strong_core(h, k)

    def test_size_caps(self, monkeypatch):
        big = Hypergraph.from_edges(15, [(v, v + 1) for v in range(14)])
        with pytest.raises(TooLargeError, match="^15 vertices exceed the cap of 12$"):
            strong_degeneracy_bf(big)
        with pytest.raises(TooLargeError, match="^15 vertices exceed the cap of 14$"):
            mighty_degeneracy_bf(Hypergraph(15, ()))
        # Each search reads its cap when called.  The package binds the name
        # ``hypercover.degeneracy`` to the function, so the module comes from
        # sys.modules.
        module = sys.modules["hypercover.degeneracy"]
        monkeypatch.setattr(module, "STRONG_BF_CAP", 15)
        monkeypatch.setattr(module, "MIGHTY_BF_CAP", 15)
        assert strong_degeneracy_bf(big) == strong_degeneracy(big).value == 1
        assert mighty_degeneracy_bf(big) == greedy_cover(big, mighty=True).mighty_factor == 1


PATH6 = Hypergraph.from_edges(6, [(v, v + 1) for v in range(5)])
# Strong degeneracy 2: four leaves of strong degree 1 around a triangle.
TRIANGLE_WITH_LEAVES = Hypergraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (0, 6)])
# Value 10 from a first batch of one vertex; each batch of PATH6 frees the
# next; the first batch of TRIANGLE_WITH_LEAVES takes four of seven vertices.
BATCH_EXAMPLES = (gap_family(12), PATH6, TRIANGLE_WITH_LEAVES)


def check_batched_strong_degeneracy(h):
    """The value is the one-vertex peel's, and the seed is a fresh strong
    build's, as it stood before the batched peel's first deletion."""
    value, seed = _strong_degeneracy(h)
    assert value == strong_degeneracy(h).value
    assert tuple(seed[0]) == maximal_edges(h)
    assert seed == TraceIndex(h, strong=True).seed()


class TestBatchedStrongDegeneracy:
    """The bound's batched core peel against the one-vertex peel."""

    @given(covering_instances())
    @example(BATCH_EXAMPLES[0])
    @example(BATCH_EXAMPLES[1])
    @example(BATCH_EXAMPLES[2])
    def test_matches_the_one_vertex_peel(self, h):
        check_batched_strong_degeneracy(h)

    @given(covering_instances())
    @example(BATCH_EXAMPLES[0])
    @example(BATCH_EXAMPLES[1])
    @example(BATCH_EXAMPLES[2])
    def test_matches_the_one_vertex_peel_when_every_hash_collides(self, h):
        with colliding_keys():
            check_batched_strong_degeneracy(h)


class TestSparseCorpus:
    """Seeded sparse instances, each searched value against its definition.
    On these shapes a branch that tries only one way to remove a vertex, or
    a search that stops below its ceiling, gives a wrong value."""

    def test_values_match_their_definitions(self):
        for h in sparse_corpus():
            mighty, strong = mighty_degeneracy_ref(h), strong_degeneracy_ref(h)
            assert mighty_degeneracy_bf(h) == mighty, h
            assert strong_degeneracy_bf(h) == strong, h
            # The tightest ceiling a caller may pass is the value itself.
            assert _best_restriction(h, 0, mighty) == mighty, h
            if len(set().union(*h.edge_sets)) == h.n:
                assert greedy_cover(h, mighty=True).mighty_factor == mighty, h


def hub_pair_shapes():
    """Hypergraphs whose first two vertices lie together in many traces: the
    closed neighborhoods of K_{2,24}, a sunflower with kernel {0, 1} and 30
    one-vertex petals, and one with kernel {0, 1, 2} and 40 two-vertex
    petals.  While two kernel vertices each lie in more than
    ``_PAIR_ROWS * |t|`` traces, a strong re-check of a trace t through both
    walks t for its shortest row; traces that meet a short row, and the
    kernel's rows once petals or leaves go, take the intersection of two
    rows instead.  Each shape runs both ways of the check."""
    k2 = Graph.from_edges(26, [(hub, leaf) for hub in (0, 1) for leaf in range(2, 26)])
    return (
        neighborhood_hypergraph(k2),
        Hypergraph(32, tuple((0, 1, p) for p in range(2, 32))),
        Hypergraph(83, tuple((0, 1, 2, p, p + 1) for p in range(3, 83, 2))),
    )


def hub_pair_deletions():
    """Each hub-pair shape with the disjoint sets it loses: its last eight
    vertices one at a time, leaves or petals whose loss shrinks traces
    through the kernel and leaves some inside others, then all but one of
    the rest in three seeded sets."""
    for h in hub_pair_shapes():
        rest = random.Random(h.n).sample(range(h.n - 8), h.n - 9)
        step = len(rest) // 3 + 1
        singles = [{v} for v in range(h.n - 1, h.n - 9, -1)]
        yield h, singles + [set(rest[i:i + step]) for i in range(0, len(rest), step)]


HUB_PAIR_IDS = ("k2-24-closed", "sunflower-kernel-2", "sunflower-kernel-3")
KEYS = pytest.mark.parametrize("collide", (False, True), ids=("real-keys", "colliding-keys"))


def seeded_parts(h):
    """Disjoint vertex sets that leave one vertex: half the vertices one at
    a time, in an order seeded by ``h.n``, then all but one of the rest."""
    order = random.Random(h.n).sample(range(h.n), h.n)[:-1]
    half = len(order) // 2
    return [*({x} for x in order[:half]), set(order[half:])]


def assert_witnesses_hold(index):
    """Every recorded witness (a, b) of a kept trace t of a strong index
    has a and b in t, and only t holds both: ``rows[a] & rows[b] == {t}``."""
    rows = index._vertex_traces
    for t, s in enumerate(index._members):
        pair = index._wit[t]
        if s is not None and pair is not None:
            a, b = pair
            assert a in s and b in s, (t, s, pair)
            assert rows[a] & rows[b] == {t}, (t, s, pair)


def check_witnesses(h):
    """The witness rule holds after a fresh build and after a build from
    the seed the bound's batched peel hands over, then after each of the
    same single and batched deletions."""
    _, seed = _strong_degeneracy(h)
    for index in (TraceIndex(h, strong=True), TraceIndex(h, strong=True, seed=seed)):
        for part in (set(), *seeded_parts(h)):
            index.delete_vertex(*part)
            assert_witnesses_hold(index)


class TestTraceIndex:
    """White-box checks of the incremental engine against restrictions."""

    @staticmethod
    def snapshot(h, live, strong):
        """The traces of the restriction to ``live``, only its maximal ones
        when ``strong``, each with its representative."""
        sub = restrict(h, live)
        kept = maximal_edges(sub) if strong else range(len(sub.traces))
        return {frozenset(sub.traces[i]): sub.representatives[i] for i in kept}

    def check_records(self, h, parts):
        """Delete each part with one call; after the build and after each
        call, the kept traces, their representatives and the degrees must
        match the recomputed restriction."""
        for strong in (True, False):
            index = TraceIndex(h, strong=strong)
            live = set(range(h.n))
            count = strong_degree if strong else degree
            # The empty first part deletes nothing, so the build is checked.
            for part in (set(), *parts):
                index.delete_vertex(*part)
                live -= part
                assert index.traces() == self.snapshot(h, live, strong)
                sub = restrict(h, live)
                assert {v: index.deg[v] for v in live} == {v: count(sub, v) for v in live}

    @staticmethod
    def singletons(h, data):
        return [{x} for x in data.draw(st.permutations(range(h.n)))[:-1]]

    @staticmethod
    def disjoint_sets(h, data):
        """Disjoint vertex sets whose deletion leaves at least one vertex."""
        order = data.draw(st.permutations(range(h.n)))[:-1]
        cuts = sorted(data.draw(st.sets(st.integers(min_value=1, max_value=max(1, len(order))), max_size=4)))
        bounds = [0, *cuts, len(order)]
        return [set(order[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]

    @given(hypergraphs(), st.data())
    def test_records_track_restrictions(self, h, data):
        self.check_records(h, self.singletons(h, data))

    @given(hypergraphs(), st.data())
    def test_records_track_restrictions_when_every_hash_collides(self, h, data):
        with colliding_keys():
            self.check_records(h, self.singletons(h, data))

    @given(hypergraphs(), st.data())
    def test_set_deletions_track_restrictions(self, h, data):
        self.check_records(h, self.disjoint_sets(h, data))

    @given(hypergraphs(), st.data())
    def test_set_deletions_track_restrictions_when_every_hash_collides(self, h, data):
        with colliding_keys():
            self.check_records(h, self.disjoint_sets(h, data))

    @given(sparse_instances(), st.data())
    def test_records_track_restrictions_on_sparse_shapes(self, h, data):
        self.check_records(h, self.singletons(h, data))

    @given(sparse_instances(), st.data())
    def test_records_track_restrictions_on_sparse_shapes_when_every_hash_collides(self, h, data):
        with colliding_keys():
            self.check_records(h, self.singletons(h, data))

    @given(sparse_instances(), st.data())
    def test_set_deletions_track_restrictions_on_sparse_shapes(self, h, data):
        self.check_records(h, self.disjoint_sets(h, data))

    @given(sparse_instances(), st.data())
    def test_set_deletions_track_restrictions_on_sparse_shapes_when_every_hash_collides(self, h, data):
        with colliding_keys():
            self.check_records(h, self.disjoint_sets(h, data))

    @KEYS
    @pytest.mark.parametrize("h, parts", tuple(hub_pair_deletions()), ids=HUB_PAIR_IDS)
    def test_set_deletions_track_restrictions_on_hub_pairs(self, h, parts, collide):
        with colliding_keys() if collide else contextlib.nullcontext():
            self.check_records(h, parts)

    @pytest.mark.parametrize("gone", [(1, 1), (0, 1, 0), (0, 4), (2, -1), (3,)])
    def test_a_bad_deletion_changes_nothing(self, gone):
        h = Hypergraph.from_edges(4, [(0, 1), (0, 2), (1, 2, 3)])
        index = TraceIndex(h, strong=True)
        index.delete_vertex(3)
        before = (index.traces(), list(index.deg), list(index.alive), list(index._hash), sorted(index._heap))
        with pytest.raises(ValueError, match="already deleted|out of range|repeated"):
            index.delete_vertex(*gone)
        after = (index.traces(), list(index.deg), list(index.alive), list(index._hash), sorted(index._heap))
        assert after == before
        # The index still follows its restrictions: {0, 1} and {1, 2}
        # shrink to {0} and {2}, both inside {0, 2}.
        index.delete_vertex(1)
        assert index.traces() == self.snapshot(h, {0, 2}, strong=True)
        sub = restrict(h, {0, 2})
        assert [index.deg[0], index.deg[2]] == [strong_degree(sub, 0), strong_degree(sub, 2)]

    @staticmethod
    def check_handed_over_build(h):
        """A strong build from the seed of a fresh strong build keeps the
        same traces, degrees, hashes and witness pairs, and both follow the
        same deletions alike: half the vertices one at a time, in a seeded
        order, then all but one of the rest at once."""
        fresh = TraceIndex(h, strong=True)
        handed = TraceIndex(h, strong=True, seed=fresh.seed())
        assert handed.trace_ids() == fresh.trace_ids() == list(maximal_edges(h))
        assert (handed._hash, handed._wit) == (fresh._hash, fresh._wit)
        for part in (set(), *seeded_parts(h)):
            fresh.delete_vertex(*part)
            handed.delete_vertex(*part)
            assert handed.traces() == fresh.traces()
            assert handed.deg == fresh.deg
            assert handed._wit == fresh._wit

    @given(sparse_instances())
    @gap_family_examples
    def test_a_build_from_handed_over_ids_matches_a_fresh_build(self, h):
        self.check_handed_over_build(h)

    @given(sparse_instances())
    @gap_family_examples
    def test_a_build_from_handed_over_ids_matches_a_fresh_build_when_every_hash_collides(self, h):
        with colliding_keys():
            self.check_handed_over_build(h)

    @KEYS
    @pytest.mark.parametrize("h", hub_pair_shapes(), ids=HUB_PAIR_IDS)
    def test_a_build_from_handed_over_ids_matches_a_fresh_build_on_hub_pairs(self, h, collide):
        with colliding_keys() if collide else contextlib.nullcontext():
            self.check_handed_over_build(h)

    @given(sparse_instances())
    @gap_family_examples
    def test_recorded_witnesses_hold(self, h):
        check_witnesses(h)

    @given(sparse_instances())
    @gap_family_examples
    def test_recorded_witnesses_hold_when_every_hash_collides(self, h):
        with colliding_keys():
            check_witnesses(h)

    @given(hypergraphs(), st.data())
    def test_degrees_track_restrictions(self, h, data):
        order = data.draw(st.permutations(range(h.n)))
        index = TraceIndex(h, strong=True)
        live = set(range(h.n))
        for x in order[:-1]:
            index.delete_vertex(x)
            live.remove(x)
            sub = restrict(h, live)
            for v in live:
                assert index.deg[v] == strong_degree(sub, v)

    def test_two_traces_that_shrink_to_one_merge(self):
        # {0, 1} and {0, 2} both shrink to {0}: neither was inside the other.
        index = TraceIndex(Hypergraph(3, ((0, 1), (0, 2))), strong=True)
        index.delete_vertex(1, 2)
        assert index.traces() == {frozenset({0}): 0}
        assert index.deg[0] == 1
        assert index.pop_min() == (1, 0)

    def test_a_shrunk_trace_merges_into_one_the_deletion_missed(self):
        # {0, 1} shrinks to {0}, filed by the build and untouched here.
        index = TraceIndex(Hypergraph(2, ((0,), (0, 1))), strong=False)
        index.delete_vertex(1)
        assert index.traces() == {frozenset({0}): 0}
        assert index.deg[0] == 1

    def test_a_trace_filed_first_under_its_hash_merges_when_it_shrinks(self):
        # With one hash for all, trace 0 heads the table and shrinks onto
        # trace 1, which only the list of that hash holds.
        with colliding_keys():
            index = TraceIndex(Hypergraph(2, ((0, 1), (0,))), strong=False)
        index.delete_vertex(1)
        assert index.traces() == {frozenset({0}): 0}
        assert index.deg[0] == 1

    def test_a_kept_trace_that_no_edge_generates_is_a_certificate_error(self):
        index = TraceIndex(Hypergraph(3, ((0, 1), (1, 2))), strong=True)
        index._members[0].add(2)  # {0, 1, 2}: no base edge generates it
        with pytest.raises(CertificateError, match="no edge generates"):
            index.traces()
        with pytest.raises(CertificateError, match="no edge generates"):
            index.maximal_traces_at(0)

    @given(hypergraphs())
    def test_pop_min_reports_current_minimum(self, h):
        index = TraceIndex(h, strong=True)
        entry = index.pop_min()
        assert entry is not None
        d, v = entry
        degrees = [strong_degree(h, u) for u in range(h.n)]
        assert d == min(degrees)
        assert v == degrees.index(d)

    def test_maximal_traces_at_hands_out_snapshots(self):
        index = TraceIndex(gap_family(5), strong=True)
        traces = [trace for _, trace in index.maximal_traces_at(1)]
        copies = [set(t) for t in traces]
        index.delete_vertex(4)
        assert all(isinstance(t, frozenset) for t in traces)
        assert traces == copies

    def test_maximal_traces_at_orders_by_representative(self):
        h = gap_family(5)
        index = TraceIndex(h, strong=True)
        pairs = index.maximal_traces_at(1)
        assert [rep for rep, _ in pairs] == sorted(rep for rep, _ in pairs)
        assert {rep for rep, _ in pairs} <= set(range(h.m))


class TestHashCollisions:
    """All-zero keys change no result, only the cost of finding merges."""

    @staticmethod
    def results(h, cover):
        out = (strong_degeneracy(h), degeneracy(h))
        return out + (greedy_cover(h), greedy_transversal(h)) if cover else out

    @given(hypergraphs())
    def test_peeling(self, h):
        expected = self.results(h, cover=False)
        with colliding_keys():
            assert self.results(h, cover=False) == expected

    @given(covering_hypergraphs())
    def test_cover(self, h):
        expected = self.results(h, cover=True)
        with colliding_keys():
            assert self.results(h, cover=True) == expected

    def test_gap12(self):
        g = gap_family(12)
        expected = self.results(g, cover=True)
        with colliding_keys():
            assert self.results(g, cover=True) == expected
