"""Set-system basics: construction, text format, restriction, strong
removal, duality, validity checks, and VC dimension.

Property tests compare the library against naive reimplementations of the
definitions; frozen cases pin down concrete outputs.
"""

from __future__ import annotations

import sys
import warnings
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercover import (
    CHECK_KINDS,
    Hypergraph,
    check,
    degree,
    dual,
    format_hypergraph,
    maximal_edges,
    neighborhood_hypergraph,
    parse_hypergraph,
    path_graph,
    restrict,
    shatter_check,
    strong_degree,
    strong_remove,
    vc_dimension,
)
from hypercover.degeneracy import _peel
from hypercover.errors import (
    DuplicateEdgeError,
    EmptyEdgeError,
    EmptySubsetError,
    FormatError,
    FormatWarning,
    IdOutOfRangeError,
    IsolatedVertexError,
    ParameterError,
    TooLargeError,
    VertexOutOfRangeError,
)

from conftest import (
    LONG_ID,
    MALFORMED_HEADERS,
    check_fully_checked,
    check_outcome,
    check_ref,
    covering_hypergraphs,
    hypergraphs,
    messy_inputs,
    sparse_instances,
    text_of,
)


def naive_maximal(edge_sets):
    return tuple(
        i
        for i, e in enumerate(edge_sets)
        if not any(e < f for f in edge_sets)
    )


class TestConstruction:
    def test_edge_ids_are_positions(self):
        h = Hypergraph.from_edges(3, [(2, 0), (1,)])
        assert h.edges == ((0, 2), (1,))
        assert h.m == 2
        assert h.vertices == (0, 1, 2)
        assert h.incidence == ((0,), (1,), (0,))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ParameterError) as info:
            Hypergraph(-1, ())
        assert str(info.value) == "vertex count must be nonnegative"

    def test_empty_edge_rejected(self):
        with pytest.raises(EmptyEdgeError):
            Hypergraph(2, ((),))

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            Hypergraph(2, ((0, 2),))

    def test_unsorted_edge_rejected(self):
        with pytest.raises(ParameterError):
            Hypergraph(3, ((2, 0),))

    def test_duplicate_edge_strict(self):
        with pytest.raises(DuplicateEdgeError):
            Hypergraph.from_edges(3, [(0, 1), (1, 0)])

    def test_duplicate_edge_lenient_merges(self):
        with pytest.warns(FormatWarning):
            h = Hypergraph.from_edges(3, [(0, 1), (1, 0), (2,)], strict=False)
        assert h.edges == ((0, 1), (2,))
        # Repeats after a distinct edge go too; first occurrences keep their order.
        with pytest.warns(FormatWarning, match="merged 2 "):
            h = Hypergraph.from_edges(3, [(2,), (0, 1), (1, 2), (1, 0), (2,)], strict=False)
        assert h.edges == ((2,), (0, 1), (1, 2))

    def test_labels_length_checked(self):
        with pytest.raises(ParameterError):
            Hypergraph(2, ((0,),), ("a", "b"))

    def test_labels_ignored_by_equality(self):
        a = Hypergraph(2, ((0, 1),), ("x",))
        b = Hypergraph(2, ((0, 1),))
        assert a == b


def first_copies(n, raw):
    """The hypergraph the lenient rule gives, from the definitions alone:
    each edge's vertex set, later copies of a set dropped."""
    return Hypergraph(n, tuple(dict.fromkeys(tuple(sorted(set(e))) for e in raw)))


class TestDirectBuilds:
    """The readers, ``from_edges``, ``dual`` and ``_peel``'s renumbering
    build their values without the constructor's checks; each value must
    pass them."""

    def test_readers_and_from_edges(self):
        for n, raw, _ in messy_inputs():
            expected = first_copies(n, raw)
            repeats = len(expected.edges) < len(raw)
            text = text_of("hg", n, raw)
            for strict in (True, False):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", FormatWarning)
                    for build in (partial(parse_hypergraph, text), partial(Hypergraph.from_edges, n, raw)):
                        if strict and repeats:
                            with pytest.raises(DuplicateEdgeError):
                                build(strict=strict)
                            continue
                        h = build(strict=strict)
                        check_fully_checked(h)
                        assert h == expected

    def test_dual(self):
        for n, raw, _ in messy_inputs():
            h = first_copies(n, raw)
            if len(h._covered) == n:
                check_fully_checked(dual(h))

    def test_peel_renumbering(self, monkeypatch):
        # The package binds the name ``degeneracy`` to the function.
        module = sys.modules["hypercover.degeneracy"]
        built = []

        class Recording(module.TraceIndex):
            def __init__(self, h, *args, **kwargs):
                built.append(h)
                super().__init__(h, *args, **kwargs)

        monkeypatch.setattr(module, "TraceIndex", Recording)
        renumbered = 0
        for n, raw, _ in messy_inputs():
            h = first_copies(n, raw)
            built.clear()
            _peel(h, strong=False)
            (index_input,) = built
            check_fully_checked(index_input)
            covered = sorted(h._covered)
            assert index_input.n == len(covered)
            assert [[covered[v] for v in e] for e in index_input.edges] == [list(e) for e in h.edges]
            renumbered += index_input is not h
        assert renumbered > 50


# Each call with its outcome (see conftest.outcome), recorded before the
# readers and from_edges built their values directly: the message and the
# warnings of each fault, and which fault wins when there are two.  Each
# call looks its function up when it runs, so a mutant test can swap it.
HYPERGRAPH_CONTRACT = {
    "id-past-n": (
        lambda: parse_hypergraph("p hg 3 1\ne 1 2 9\n"),
        ("VertexOutOfRangeError", "line 2: vertex 9 outside 1..3", []),
    ),
    "first-bad-id-in-line-order": (
        lambda: parse_hypergraph("p hg 3 1\ne 2 4 0\n"),
        ("VertexOutOfRangeError", "line 2: vertex 4 outside 1..3", []),
    ),
    "non-digit-id": (
        lambda: parse_hypergraph("p hg 3 1\ne 1 x\n"),
        ("FormatError", "line 2: vertex ids must be written with the digits 0-9", []),
    ),
    "empty-e-line": (
        lambda: parse_hypergraph("p hg 3 1\ne\n"),
        ("EmptyEdgeError", "line 2: edge with no vertices", []),
    ),
    "4301-digit-id": (
        lambda: parse_hypergraph(f"p hg 3 1\ne 1 {LONG_ID}\n"),
        ("VertexOutOfRangeError", "line 2: a vertex id of 4301 digits lies outside 1..3", []),
    ),
    "strict-duplicate": (
        lambda: parse_hypergraph("p hg 3 2\ne 1 2\ne 2 1\n"),
        ("DuplicateEdgeError", "edge (0, 1) occurs twice", []),
    ),
    "lenient-duplicate": (
        lambda: parse_hypergraph("p hg 3 2\ne 1 2\ne 2 1\n", strict=False),
        (None, ((0, 1),), ["merged 1 duplicate edge(s)"]),
    ),
    "repeated-id": (
        lambda: parse_hypergraph("p hg 3 2\ne 3 1 3\ne 2\n"),
        (None, ((0, 2), (1,)), ["line 2: repeated vertex inside an edge"]),
    ),
    "bad-line-after-duplicate": (
        lambda: parse_hypergraph("p hg 3 3\ne 1 2\ne 1 2\ne 1 9\n"),
        ("VertexOutOfRangeError", "line 4: vertex 9 outside 1..3", []),
    ),
    "count-after-duplicate": (
        lambda: parse_hypergraph("p hg 3 3\ne 1 2\ne 2 1\n", strict=False),
        ("FormatError", "header announced 3 edges but 2 appeared", []),
    ),
    "from-edges-negative-n": (
        lambda: Hypergraph.from_edges(-1, []),
        ("ParameterError", "vertex count must be nonnegative", []),
    ),
    "from-edges-negative-n-lenient": (
        lambda: Hypergraph.from_edges(-1, [(0,)], strict=False),
        ("ParameterError", "vertex count must be nonnegative", []),
    ),
    "from-edges-empty-edge": (
        lambda: Hypergraph.from_edges(3, [(0,), ()]),
        ("EmptyEdgeError", "edges must be nonempty", []),
    ),
    "from-edges-id-past-n": (
        lambda: Hypergraph.from_edges(3, [(3, 0)]),
        ("VertexOutOfRangeError", "edge (0, 3) leaves vertex range 0..2", []),
    ),
    "from-edges-negative-id": (
        lambda: Hypergraph.from_edges(3, [(-1, 0)], strict=False),
        ("VertexOutOfRangeError", "edge (-1, 0) leaves vertex range 0..2", []),
    ),
    "from-edges-duplicate-before-bad-id": (
        lambda: Hypergraph.from_edges(3, [(0, 1), (1, 0), (5,)]),
        ("DuplicateEdgeError", "edge (0, 1) occurs twice", []),
    ),
    "from-edges-lenient-duplicate-before-bad-id": (
        lambda: Hypergraph.from_edges(3, [(0, 1), (1, 0), (5,)], strict=False),
        ("VertexOutOfRangeError", "edge (5,) leaves vertex range 0..2", ["merged 1 duplicate edge(s)"]),
    ),
    "direct-list-of-edges": (
        lambda: Hypergraph(3, [(0, 1)]),
        ("ParameterError", "edges must be a tuple of edge tuples", []),
    ),
}


@pytest.mark.parametrize("call, pinned", HYPERGRAPH_CONTRACT.values(), ids=HYPERGRAPH_CONTRACT)
def test_error_contract(call, pinned):
    check_outcome(call, pinned)


class TestTextFormat:
    GAP5 = "p hg 5 5\ne 1 2\ne 1 3 4 5\ne 2 4 5\ne 2 3 5\ne 2 3 4\n"

    def test_parse_frozen(self):
        h = parse_hypergraph(self.GAP5)
        assert h.n == 5
        assert h.edges == ((0, 1), (0, 2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3))

    def test_format_frozen(self):
        assert format_hypergraph(parse_hypergraph(self.GAP5)) == self.GAP5

    def test_comments_and_blank_lines_skipped(self):
        text = "# intro\n\np hg 2 1\n  # indented comment\ne 1 2\n"
        assert parse_hypergraph(text).edges == ((0, 1),)

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_hypergraph("e 1 2\n")

    @pytest.mark.parametrize("text", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_malformed_header(self, text):
        with pytest.raises(FormatError, match="header"):
            parse_hypergraph(text.format(tag="hg", other="edge"))

    def test_count_mismatch(self):
        with pytest.raises(FormatError):
            parse_hypergraph("p hg 2 2\ne 1 2\n")

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0663"])
    def test_counts_and_ids_take_the_digits_0_to_9_only(self, token):
        # int() reads each of these: as 10, 1 and the Arabic-Indic digit 3.
        with pytest.raises(FormatError, match="header counts"):
            parse_hypergraph(f"p hg {token} 1\ne 1\n")
        with pytest.raises(FormatError, match="vertex ids"):
            parse_hypergraph(f"p hg 12 1\ne {token} 2\n")

    def test_edge_without_vertices(self):
        with pytest.raises(EmptyEdgeError):
            parse_hypergraph("p hg 2 1\ne\n")

    def test_vertex_outside_range(self):
        with pytest.raises(VertexOutOfRangeError):
            parse_hypergraph("p hg 2 1\ne 1 3\n")

    def test_zero_vertex_rejected(self):
        # ids are 1-based on disk
        with pytest.raises(VertexOutOfRangeError):
            parse_hypergraph("p hg 2 1\ne 0 1\n")

    def test_repeated_vertex_in_edge_warns_and_collapses(self):
        with pytest.warns(FormatWarning):
            h = parse_hypergraph("p hg 2 1\ne 1 1 2\n")
        assert h.edges == ((0, 1),)

    def test_duplicate_edges_strict_vs_lenient(self):
        text = "p hg 2 2\ne 1 2\ne 2 1\n"
        with pytest.raises(DuplicateEdgeError):
            parse_hypergraph(text)
        with pytest.warns(FormatWarning):
            h = parse_hypergraph(text, strict=False)
        assert h.m == 1

    @given(hypergraphs())
    def test_round_trip(self, h):
        """Formatting then parsing reproduces the structure exactly."""
        again = parse_hypergraph(format_hypergraph(h))
        assert again == h
        assert format_hypergraph(again) == format_hypergraph(h)


class TestDegreesAndMaximal:
    @given(hypergraphs())
    def test_against_naive(self, h):
        assert maximal_edges(h) == naive_maximal(h.edge_sets)
        for v in range(h.n):
            assert degree(h, v) == sum(1 for e in h.edge_sets if v in e)
            assert strong_degree(h, v) == sum(
                1 for i in naive_maximal(h.edge_sets) if v in h.edge_sets[i]
            )

    @given(hypergraphs())
    def test_strong_degree_at_most_degree(self, h):
        for v in range(h.n):
            assert strong_degree(h, v) <= degree(h, v)

    def test_vertex_out_of_range(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        with pytest.raises(VertexOutOfRangeError):
            degree(h, 2)
        with pytest.raises(VertexOutOfRangeError):
            strong_degree(h, -1)


class TestRestrict:
    def test_traces_deduplicate_to_smallest_representative(self):
        h = neighborhood_hypergraph(path_graph(4))
        sub = restrict(h, [1, 2])
        assert sub.vertices == (1, 2)
        # N[v2] and N[v3] trace to the same pair; the earlier edge wins.
        assert sub.traces == ((1,), (1, 2), (2,))
        assert sub.representatives == (0, 1, 3)
        assert maximal_edges(sub) == (1,)
        assert degree(sub, 1) == 2
        assert strong_degree(sub, 1) == 1

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptySubsetError):
            restrict(Hypergraph.from_edges(2, [(0, 1)]), [])

    def test_subset_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            restrict(Hypergraph.from_edges(2, [(0, 1)]), [0, 2])

    @given(hypergraphs(), st.data())
    def test_against_naive(self, h, data):
        subset = data.draw(
            st.sets(st.integers(min_value=0, max_value=h.n - 1), min_size=1)
        )
        sub = restrict(h, subset)
        expected = []
        seen = set()
        for i, e in enumerate(h.edge_sets):
            t = e & subset
            if t and t not in seen:
                seen.add(t)
                expected.append((tuple(sorted(t)), i))
        assert list(zip(sub.traces, sub.representatives)) == expected


class TestStrongRemove:
    def test_whole_instance_can_vanish(self):
        h = parse_hypergraph(TestTextFormat.GAP5)
        assert strong_remove(h, {2}) is None

    def test_empty_removal_keeps_everything(self):
        h = Hypergraph.from_edges(3, [(0, 1), (2,)])
        sub = strong_remove(h, set())
        assert sub is not None
        assert sub.vertices == (0, 1, 2)
        assert sub.traces == h.edges

    def test_removal_takes_whole_edges(self):
        h = Hypergraph.from_edges(4, [(0, 1), (2, 3)])
        sub = strong_remove(h, {0})
        assert sub is not None
        assert sub.vertices == (2, 3)

    def test_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            strong_remove(Hypergraph.from_edges(2, [(0, 1)]), {5})

    @staticmethod
    def naive_survivors(n, edge_sets, removed):
        gone = set(removed)
        for e in edge_sets:
            if e & removed:
                gone |= e
        return set(range(n)) - gone

    @given(hypergraphs(), st.data())
    def test_against_naive(self, h, data):
        removed = data.draw(st.sets(st.integers(min_value=0, max_value=h.n - 1)))
        sub = strong_remove(h, removed)
        survivors = self.naive_survivors(h.n, h.edge_sets, removed)
        if not survivors:
            assert sub is None
        else:
            assert sub is not None
            assert set(sub.vertices) == survivors

    @given(hypergraphs(), st.data())
    def test_two_removals_compose(self, h, data):
        """Removing R1 and then removing R2 from what survives lands on the
        same set as removing R1 | R2 at once (for R2 inside the survivors)."""
        vertex = st.integers(min_value=0, max_value=h.n - 1)
        r1 = data.draw(st.sets(vertex))
        first = self.naive_survivors(h.n, h.edge_sets, r1)
        if not first:
            assert strong_remove(h, r1) is None
            return
        r2 = data.draw(st.sets(st.sampled_from(sorted(first))))
        traces = {e & first for e in h.edge_sets} - {frozenset()}
        second = self.naive_survivors(h.n, traces, r2) & first
        combined = strong_remove(h, r1 | r2)
        if not second:
            assert combined is None
        else:
            assert combined is not None
            assert set(combined.vertices) == second


class TestDual:
    def test_frozen_example(self):
        h = Hypergraph.from_edges(3, [(0, 1), (1, 2)])
        d = dual(h)
        assert d.n == 2
        assert d.edges == ((0,), (0, 1), (1,))
        assert d.edge_labels == ("v1", "v2", "v3")

    def test_twin_vertices_merge(self):
        h = Hypergraph.from_edges(4, [(0, 1, 2), (2, 3), (0, 1, 3)])
        d = dual(h)
        assert d.edges == ((0, 2), (0, 1), (1, 2))
        assert d.edge_labels == ("v1,v2", "v3", "v4")

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertexError) as info:
            dual(Hypergraph.from_edges(3, [(0, 1)]))
        assert info.value.id == 2
        assert str(info.value) == "vertex 2 lies in no edge"

    @given(hypergraphs())
    def test_degree_swap(self, h):
        """A vertex of degree d generates a dual edge of d dual vertices."""
        incidences = {frozenset(row) for v, row in enumerate(h.incidence) if row}
        if len(incidences) < h.n or not all(h.incidence):
            return
        d = dual(h)
        assert d.n == h.m
        for v in range(h.n):
            assert len(d.edges[v]) == degree(h, v)

    @given(hypergraphs())
    def test_involution_on_twin_free_instances(self, h):
        if not all(h.incidence):
            return
        if len({frozenset(r) for r in h.incidence}) < h.n:
            return
        assert dual(dual(h)).edges == h.edges


class TestCheck:
    @pytest.fixture()
    def h(self):
        return Hypergraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3,)])

    def test_edge_cover(self, h):
        assert check(h, "edge-cover", [0, 1, 2])
        assert not check(h, "edge-cover", [0, 3])

    def test_independent_set(self, h):
        assert check(h, "independent-set", [0, 2])
        assert not check(h, "independent-set", [0, 1])
        assert check(h, "independent-set", [])

    def test_transversal(self, h):
        assert check(h, "transversal", [1, 3])
        assert not check(h, "transversal", [0, 3])

    def test_matching(self, h):
        assert check(h, "matching", [0, 2])
        assert not check(h, "matching", [0, 1])
        assert check(h, "matching", [])

    def test_unknown_kind(self, h):
        with pytest.raises(ParameterError):
            check(h, "clique", [])

    def test_bad_ids(self, h):
        with pytest.raises(IdOutOfRangeError):
            check(h, "edge-cover", [4])
        with pytest.raises(IdOutOfRangeError) as info:
            check(h, "transversal", [7])
        assert info.value.id == 7
        assert str(info.value) == "vertex id 7 not in the hypergraph"
        assert info.value.render(1) == "vertex id 8 not in the hypergraph"

    def test_works_on_restrictions(self, h):
        sub = restrict(h, [1, 2])
        assert check(sub, "transversal", [1, 2])
        assert not check(sub, "independent-set", [1, 2])

    @given(hypergraphs(), st.data())
    def test_against_naive(self, h, data):
        vertices = data.draw(st.sets(st.integers(min_value=0, max_value=h.n - 1)))
        edge_ids = data.draw(st.sets(st.integers(min_value=0, max_value=h.m - 1)))
        union = set().union(*(h.edge_sets[i] for i in edge_ids)) if edge_ids else set()
        assert check(h, "edge-cover", edge_ids) == (union == set(range(h.n)))
        assert check(h, "matching", edge_ids) == all(
            not (h.edge_sets[i] & h.edge_sets[j])
            for i, j in combinations(sorted(edge_ids), 2)
        )
        assert check(h, "independent-set", vertices) == all(
            len(e & vertices) <= 1 for e in h.edge_sets
        )
        assert check(h, "transversal", vertices) == all(
            e & vertices for e in h.edge_sets
        )

    @given(
        st.one_of(covering_hypergraphs(), sparse_instances()),
        st.data(),
    )
    def test_matches_the_per_edge_reference(self, h, data):
        """Every kind, and an unknown one, on the hypergraph and on a drawn
        restriction of it, with id lists that repeat ids and hold ids on
        both sides of the range: the same answer or the same error."""
        subset = data.draw(st.sets(st.integers(min_value=0, max_value=h.n - 1), min_size=1))
        for x in (h, restrict(h, subset)):
            top = max(h.n, len(x.edges if isinstance(x, Hypergraph) else x.traces))
            ids = data.draw(st.lists(st.integers(min_value=-2, max_value=top + 1), max_size=2 * top + 2))
            for kind in (*CHECK_KINDS, "clique"):
                answers = []
                for fn in (check, check_ref):
                    try:
                        answers.append(fn(x, kind, ids))
                    except (IdOutOfRangeError, ParameterError) as exc:
                        answers.append((type(exc), str(exc), exc.id if isinstance(exc, IdOutOfRangeError) else None))
                assert answers[0] == answers[1], (x, kind, ids)


class TestShatteringAndVC:
    def test_singletons_and_pair(self):
        h = Hypergraph.from_edges(2, [(0,), (1,), (0, 1)])
        value, witness = vc_dimension(h)
        assert value == 1
        assert witness.shattered and witness.missing_subset is None
        # {0,1} misses the empty trace: every edge intersects it.
        w = shatter_check(h, (0, 1))
        assert not w.shattered
        assert w.missing_subset == ()

    def test_pair_shattered_with_escape_edge(self):
        h = Hypergraph.from_edges(3, [(2,), (0,), (1,), (0, 1)])
        value, witness = vc_dimension(h)
        assert value == 2
        assert witness.set == (0, 1)

    def test_edgeless_instance(self):
        value, witness = vc_dimension(Hypergraph(3, ()))
        assert value == 0
        assert not witness.shattered
        assert witness.missing_subset == ()

    def test_cap(self, monkeypatch):
        h = Hypergraph.from_edges(25, [(v,) for v in range(25)])
        with pytest.raises(TooLargeError, match="^25 vertices exceed the cap of 20$"):
            vc_dimension(h)
        # The cap is read when called.
        monkeypatch.setattr(sys.modules["hypercover.core"], "VC_DEFAULT_CAP", 25)
        assert vc_dimension(h)[0] == 1

    @given(hypergraphs())
    def test_witness_is_shattered_and_bound_holds(self, h):
        value, witness = vc_dimension(h)
        assert value <= max(0, h.m.bit_length() - 1)
        if witness.shattered:
            assert len(witness.set) == value
            assert shatter_check(h, witness.set).shattered
        else:
            assert h.m == 0 and value == 0

    @given(hypergraphs(), st.data())
    def test_missing_subset_really_missing(self, h, data):
        subset = data.draw(
            st.sets(st.integers(min_value=0, max_value=h.n - 1), min_size=1, max_size=4)
        )
        w = shatter_check(h, subset)
        traces = {e & subset for e in h.edge_sets}
        if w.shattered:
            assert len(traces) == 1 << len(subset)
        else:
            assert frozenset(w.missing_subset) not in traces

    @given(hypergraphs(max_m=6), st.data())
    def test_monotone_under_edge_addition(self, h, data):
        """Adding an edge can only raise the VC dimension."""
        extra = data.draw(
            st.frozensets(st.integers(min_value=0, max_value=h.n - 1), min_size=1)
        )
        if extra in set(h.edge_sets):
            return
        bigger = Hypergraph(h.n, h.edges + (tuple(sorted(extra)),))
        assert vc_dimension(bigger)[0] >= vc_dimension(h)[0]
