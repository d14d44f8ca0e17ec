"""Graphs, neighborhood hypergraphs, tree domination, and the randomized
equivalence audit.
"""

from __future__ import annotations

import random
import warnings
from functools import partial

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
    neighborhood_equivalence_audit,
    neighborhood_hypergraph,
    parse_graph,
    path_graph,
    prufer_decode,
    star_graph,
    strong_degeneracy,
    tree_domination,
)
from hypercover.degeneracy import _peel
from hypercover.domination import GRAPH_CHECK_KINDS, NEIGHBORHOOD_KINDS, _neighborhoods
from hypercover.errors import (
    CertificateError,
    FormatError,
    FormatWarning,
    IdOutOfRangeError,
    IsolatedVertexForOpenError,
    NotATreeError,
    ParameterError,
    SingleVertexOpenError,
    VertexOutOfRangeError,
)

from conftest import (
    LONG_ID,
    MALFORMED_HEADERS,
    check_fully_checked,
    check_graph_ref,
    check_outcome,
    graphs,
    messy_inputs,
    text_of,
    trees,
)


def assert_generic_agrees(t, kind, cert):
    """The tree solver's certificate is the generic greedy's on the
    neighborhood hypergraph: the same packing, and as dominators the
    smallest generators of the cover edges, both in step order."""
    h, generators = _neighborhoods(t, kind)
    order, taken = _peel(h, strong=True, strong_removal=True)
    assert cert.packing == order.order
    assert cert.dominating == tuple(generators[i][0] for i in taken)


def check_tree_domination(t, kind):
    """The tree solver's certificate for ``t``, which must be the generic
    greedy's; a run that fails its own self-check fails here too."""
    try:
        cert = tree_domination(t, kind)
    except CertificateError as exc:
        raise AssertionError(f"{t.adj}, {kind}: {exc}") from None
    assert_generic_agrees(t, kind, cert)
    return cert


# Small trees for the counter test, whose cases turn on how many neighbours
# are big (have two or more live neighbours): leaves numbered below and above
# their neighbours, next to inner vertices of degree 2 and more.
TREE_EXAMPLES = {
    "P1": path_graph(1),
    "P2": path_graph(2),
    "P3": path_graph(3),
    "P4": path_graph(4),
    "star-hub-first": star_graph(4, center=0),
    "star-hub-last": star_graph(4, center=4),
    "double-star": Graph.from_edges(7, [(3, 5), (3, 0), (3, 6), (5, 1), (5, 4), (5, 2)]),
    "caterpillar": Graph.from_edges(10, [(1, 4), (4, 7), (7, 2), (1, 0), (1, 9), (4, 3), (7, 5), (7, 8), (2, 6)]),
}

EXAMPLE_KINDS = [(name, kind) for kind in NEIGHBORHOOD_KINDS for name in TREE_EXAMPLES if name != "P1" or kind == "closed"]


def tree_cases(count: int = 200, seed: int = 22):
    """(tree, kind) for each example tree in both kinds (one vertex has no
    open neighborhood), then ``count`` seeded random trees of 2 to 14
    vertices, every third with all but three vertices leaves."""
    cases = [(TREE_EXAMPLES[name], kind) for name, kind in EXAMPLE_KINDS]
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 14)
        names = min(3, n) if i % 3 == 0 else n
        t = prufer_decode(tuple(rng.randrange(names) for _ in range(n - 2)), n)
        cases.append((t, rng.choice(NEIGHBORHOOD_KINDS)))
    return cases


def equivalence_corpus(count: int = 1000, seed: int = 23):
    """``count`` seeded (tree, kind) cases of 2 to 300 vertices, most below
    60, in three shapes taken in turn: Pruefer trees, every other one over
    at most four hubs; caterpillars; and random recursive trees.  The last
    two get shuffled ids, so that id order and shape are independent."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 300 if i % 20 == 0 else 60)
        shape = i % 3
        if shape == 0:
            names = min(rng.randint(1, 4), n) if i % 2 else n
            t = prufer_decode(tuple(rng.randrange(names) for _ in range(n - 2)), n)
        else:
            # A caterpillar's spine 0..spine-1 is a path, and every later
            # vertex hangs off a spine vertex; a recursive tree hangs each
            # vertex off any earlier one.
            spine = rng.randint(1, n) if shape == 1 else 0
            parents = [j - 1 if j < spine else rng.randrange(spine or j) for j in range(1, n)]
            ids = rng.sample(range(n), n)
            t = Graph.from_edges(n, [(ids[p], ids[j]) for j, p in enumerate(parents, 1)])
        yield t, rng.choice(NEIGHBORHOOD_KINDS)


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

    # Built directly: ``from_edges`` rejects these inputs before they get here.
    @pytest.mark.parametrize(
        "n, adj, error, message",
        [
            (-1, (), ParameterError, "vertex count must be nonnegative"),
            (2, ((1,),), ParameterError, "adjacency table must have one row per vertex"),
            (3, ((2, 1), (0,), (0,)), ParameterError, "neighbor row of 0 is not sorted and duplicate-free"),
            (2, ((), (0, 0)), ParameterError, "neighbor row of 1 is not sorted and duplicate-free"),
            (2, ((2,), ()), VertexOutOfRangeError, "vertex 2 outside 0..1"),
            (2, ((0,), ()), ParameterError, "self-loop at 0"),
        ],
    )
    def test_direct_construction_rules(self, n, adj, error, message):
        with pytest.raises(error) as info:
            Graph(n, adj)
        assert str(info.value) == message


class TestDirectBuilds:
    """``parse_graph``, ``Graph.from_edges`` and the neighborhood
    hypergraphs build their values without the constructor's checks; each
    value must pass them."""

    def test_readers_and_from_edges(self):
        for n, _, raw in messy_inputs():
            pairs = {frozenset(e) for e in raw}
            expected = tuple(tuple(sorted(u for p in pairs if v in p for u in p if u != v)) for v in range(n))
            merged = [f"merged {len(raw) - len(pairs)} duplicate edge(s)"] if len(pairs) < len(raw) else []
            for build in (partial(parse_graph, text_of("edge", n, raw)), partial(Graph.from_edges, n, raw)):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    g = build()
                assert [str(w.message) for w in caught] == merged
                check_fully_checked(g)
                assert g.adj == expected

    def test_neighborhoods(self):
        for n, _, raw in messy_inputs():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FormatWarning)
                g = Graph.from_edges(n, raw)
            for kind in ("closed", "open") if all(g.adj) else ("closed",):
                check_fully_checked(neighborhood_hypergraph(g, kind))


# Each call with its outcome (see conftest.outcome), recorded before the
# reader and from_edges built their values directly.  Each call looks its
# function up when it runs, so a mutant test can swap it.
GRAPH_CONTRACT = {
    "self-loop": (
        lambda: parse_graph("p edge 3 1\ne 2 2\n"),
        ("FormatError", "line 2: self-loop at 2", []),
    ),
    "id-past-n": (
        lambda: parse_graph("p edge 3 1\ne 1 4\n"),
        ("VertexOutOfRangeError", "line 2: vertex 4 outside 1..3", []),
    ),
    "first-endpoint-past-n": (
        lambda: parse_graph("p edge 3 1\ne 4 1\n"),
        ("VertexOutOfRangeError", "line 2: vertex 4 outside 1..3", []),
    ),
    "both-endpoints-out": (
        lambda: parse_graph("p edge 3 1\ne 0 9\n"),
        ("VertexOutOfRangeError", "line 2: vertex 0 outside 1..3", []),
    ),
    "non-digit-id": (
        lambda: parse_graph("p edge 3 1\ne 1 x\n"),
        ("FormatError", "line 2: endpoints must be written with the digits 0-9", []),
    ),
    "empty-e-line": (
        lambda: parse_graph("p edge 3 1\ne\n"),
        ("FormatError", "line 2: expected 'e <u> <v>'", []),
    ),
    "4301-digit-id": (
        lambda: parse_graph(f"p edge 3 1\ne 1 {LONG_ID}\n"),
        ("VertexOutOfRangeError", "line 2: a vertex id of 4301 digits lies outside 1..3", []),
    ),
    "plus-sign-id": (
        lambda: parse_graph("p edge 3 1\ne +1 2\n"),
        ("FormatError", "line 2: endpoints must be written with the digits 0-9", []),
    ),
    "underscore-id": (
        lambda: parse_graph("p edge 12 1\ne 1 1_0\n"),
        ("FormatError", "line 2: endpoints must be written with the digits 0-9", []),
    ),
    "arabic-indic-digit-id": (
        lambda: parse_graph("p edge 3 1\ne \u0663 2\n"),
        ("FormatError", "line 2: endpoints must be written with the digits 0-9", []),
    ),
    "negative-id": (
        lambda: parse_graph("p edge 3 1\ne -1 2\n"),
        ("FormatError", "line 2: endpoints must be written with the digits 0-9", []),
    ),
    "leading-zeros": (
        lambda: parse_graph("p edge 7 1\ne 007 2\n"),
        (None, ((), (6,), (), (), (), (), (1,)), []),
    ),
    "5000-digit-first-endpoint": (
        lambda: parse_graph(f"p edge 3 1\ne {'1' * 5000} 1\n"),
        ("VertexOutOfRangeError", "line 2: a vertex id of 5000 digits lies outside 1..3", []),
    ),
    "5000-digit-second-endpoint": (
        lambda: parse_graph(f"p edge 3 1\ne 1 {'1' * 5000}\n"),
        ("VertexOutOfRangeError", "line 2: a vertex id of 5000 digits lies outside 1..3", []),
    ),
    # More digits than int() converts, but only one of them significant.
    "5000-zeros-then-1": (
        lambda: parse_graph(f"p edge 3 1\ne {'0' * 5000}1 2\n"),
        (None, ((1,), (0,), ()), []),
    ),
    "tab-separated": (
        lambda: parse_graph("p\tedge\t3\t2\ne\t1\t2\ne 2\t3\n"),
        (None, ((1,), (0, 2), (1,)), []),
    ),
    "crlf-lines": (
        lambda: parse_graph("p edge 3 2\r\ne 1 2\r\ne 2 3\r\n"),
        (None, ((1,), (0, 2), (1,)), []),
    ),
    # A vertical tab ends a line as well as a token.
    "vertical-tab-separator": (
        lambda: parse_graph("p edge 3 2\ne\x0b1\x0b2\ne 2 3\n"),
        ("FormatError", "line 2: expected 'e <u> <v>'", []),
    ),
    "repeated-edge": (
        lambda: parse_graph("p edge 3 2\ne 1 2\ne 2 1\n"),
        (None, ((1,), (0,), ()), ["merged 1 duplicate edge(s)"]),
    ),
    "from-edges-negative-n": (
        lambda: Graph.from_edges(-1, []),
        ("ParameterError", "vertex count must be nonnegative", []),
    ),
    "from-edges-negative-n-with-an-edge": (
        lambda: Graph.from_edges(-1, [(0, 1)]),
        ("VertexOutOfRangeError", "vertex 0 outside 0..-2", []),
    ),
    "from-edges-self-loop": (
        lambda: Graph.from_edges(2, [(1, 1)]),
        ("ParameterError", "self-loop at 1", []),
    ),
    "from-edges-id-past-n": (
        lambda: Graph.from_edges(3, [(0, 3)]),
        ("VertexOutOfRangeError", "vertex 3 outside 0..2", []),
    ),
    "from-edges-first-endpoint-past-n": (
        lambda: Graph.from_edges(3, [(3, 0)]),
        ("VertexOutOfRangeError", "vertex 3 outside 0..2", []),
    ),
    "from-edges-negative-id": (
        lambda: Graph.from_edges(3, [(0, -1)]),
        ("VertexOutOfRangeError", "vertex -1 outside 0..2", []),
    ),
    "from-edges-repeated-edges": (
        lambda: Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)]),
        (None, ((1,), (0, 2), (1,)), ["merged 2 duplicate edge(s)"]),
    ),
    "from-edges-self-loop-after-a-repeat": (
        lambda: Graph.from_edges(3, [(0, 1), (1, 0), (2, 2)]),
        ("ParameterError", "self-loop at 2", []),
    ),
    "direct-list-of-rows": (
        lambda: Graph(2, [(1,), (0,)]),
        ("ParameterError", "adjacency table must be a tuple of row tuples", []),
    ),
}


@pytest.mark.parametrize("call, pinned", GRAPH_CONTRACT.values(), ids=GRAPH_CONTRACT)
def test_error_contract(call, pinned):
    check_outcome(call, pinned)


class TestGraphFormat:
    P4 = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"

    def test_parse_and_format_frozen(self):
        g = parse_graph(self.P4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert format_graph(g) == self.P4

    @pytest.mark.parametrize("text", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS)
    def test_header_errors(self, text):
        with pytest.raises(FormatError, match="header"):
            parse_graph(text.format(tag="edge", other="hg"))

    def test_edge_line_errors(self):
        with pytest.raises(FormatError):
            parse_graph("p edge 3 1\ne 1 2 3\n")
        with pytest.raises(FormatError):
            parse_graph("p edge 2 1\ne 1 1\n")
        with pytest.raises(VertexOutOfRangeError):
            parse_graph("p edge 2 1\ne 1 3\n")
        with pytest.raises(FormatError):
            parse_graph("p edge 2 0\ne 1 2\n")

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0663"])
    def test_counts_and_endpoints_take_the_digits_0_to_9_only(self, token):
        with pytest.raises(FormatError, match="header counts"):
            parse_graph(f"p edge {token} 0\n")
        with pytest.raises(FormatError, match="endpoints"):
            parse_graph(f"p edge 12 1\ne {token} 2\n")

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

    @given(graphs(), st.data())
    def test_matches_the_per_vertex_reference(self, g, data):
        """Every kind, and an unknown one, on id lists with repeats and ids
        on both sides of ``0..n-1``: the same answer or the same error."""
        ids = data.draw(st.lists(st.integers(min_value=-2, max_value=g.n + 1), max_size=2 * g.n + 2))
        for kind in (*GRAPH_CHECK_KINDS, "vertex-cover"):
            answers = []
            for fn in (check_graph, check_graph_ref):
                try:
                    answers.append(fn(g, kind, ids))
                except (IdOutOfRangeError, ParameterError) as exc:
                    answers.append((type(exc), str(exc)))
            assert answers[0] == answers[1], (kind, ids)


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

    @pytest.mark.parametrize("name, kind", EXAMPLE_KINDS)
    def test_examples_agree_with_the_generic_greedy(self, name, kind):
        check_tree_domination(TREE_EXAMPLES[name], kind)

    def test_equivalence_corpus_agrees_with_the_generic_greedy(self):
        for t, kind in equivalence_corpus():
            check_tree_domination(t, kind)

    @given(trees())
    @settings(max_examples=60)
    def test_closed_certificates(self, t):
        cert = check_tree_domination(t, "closed")
        assert check_graph(t, "dominating", cert.dominating)
        assert check_graph(t, "2-packing", cert.packing)
        assert len(cert.dominating) == len(cert.packing)
        assert len(set(cert.dominating)) == len(cert.dominating)

    @given(trees(min_n=2))
    @settings(max_examples=60)
    def test_open_certificates(self, t):
        cert = check_tree_domination(t, "open")
        assert check_graph(t, "total-dominating", cert.dominating)
        assert check_graph(t, "open-2-packing", cert.packing)
        assert len(cert.dominating) == len(cert.packing)

    @pytest.mark.parametrize("kind", ["closed", "open"])
    @given(t=trees(min_n=2, max_n=60, hubs=4))
    @settings(max_examples=40)
    def test_hub_tree_certificates(self, kind, t):
        """Hubs share large neighborhoods, which uniform trees rarely build."""
        check_tree_domination(t, kind)

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
