"""Shared hypothesis strategies for random instances, and brute-force
references built from the definitions alone.

Sizes stay small so the brute-force oracles remain usable inside
property tests.
"""

from __future__ import annotations

import os
import random
import warnings
from itertools import combinations
from pathlib import Path

from hypothesis import strategies as st

from hypercover import (
    Graph,
    Hypergraph,
    gap_family,
    neighborhood_hypergraph,
    prufer_decode,
    restrict,
    strong_degree,
    strong_remove,
)
from hypercover.errors import HypercoverError, IdOutOfRangeError, ParameterError
from hypercover.oracles import _TABLE, _masks

# Subprocesses (``python -m hypercover``, the demos) import this checkout's
# package too, installed or not.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


# Files whose only fault is in the header or its edge count, for the tag
# ``tag`` of the format under test; ``other`` is the other format's tag.
MALFORMED_HEADERS = {
    "wrong-tag": "p {other} 2 1\ne 1 2\n",
    "three-tokens": "p {tag} 2\ne 1 2\n",
    "non-integer-count": "p {tag} 2 x\ne 1 2\n",
    "negative-count": "p {tag} -2 1\ne 1 2\n",
    "missing-header": "e 1 2\n",
    "count-off-by-one": "p {tag} 2 2\ne 1 2\n",
}


# A vertex id of 4,301 digits, one more than int() converts by default.
LONG_ID = "1" * 4301


def outcome(call):
    """``call()`` as (error class name, message, warning messages); a call
    that returns gives ``None`` and the value's edges or rows instead."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except HypercoverError as exc:
            return type(exc).__name__, str(exc), [str(w.message) for w in caught]
    rows = value.edges if isinstance(value, Hypergraph) else value.adj
    return None, rows, [str(w.message) for w in caught]


def check_outcome(call, pinned) -> None:
    assert outcome(call) == pinned


def check_fully_checked(x) -> None:
    """The hypergraph or graph ``x`` passes every rule of its constructor,
    and a fresh build from its fields equals it, labels included."""
    hypergraph = isinstance(x, Hypergraph)
    rows = x.edges if hypergraph else x.adj
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    try:
        again = Hypergraph(x.n, x.edges, x.edge_labels) if hypergraph else Graph(x.n, x.adj)
    except HypercoverError as exc:
        raise AssertionError(f"{x!r} breaks a rule: {exc}") from None
    assert again == x
    assert not hypergraph or again.edge_labels == x.edge_labels


def messy_inputs(count: int = 200, seed: int = 2020):
    """Seeded raw inputs for the readers and ``from_edges``: (n, hypergraph
    edges, graph edges), each edge a list of 0-based ids in random order.
    Vertices in no edge, ids repeated inside a hypergraph edge, and repeated
    edges (graph edges either way round) all occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        hg: list[list[int]] = []
        for _ in range(rng.randint(0, 2 * n)):
            edge = rng.sample(range(n), rng.randint(1, min(3, n)))
            if rng.random() < 0.3:
                edge.append(rng.choice(edge))
            rng.shuffle(edge)
            hg.append(edge)
            if rng.random() < 0.3:
                hg.append(rng.sample(edge, len(edge)))
        gr: list[list[int]] = []
        for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
            pair = rng.sample(range(n), 2)
            gr.append(pair)
            if rng.random() < 0.3:
                gr.append(rng.sample(pair, 2))
        yield n, hg, gr


def text_of(tag: str, n: int, edges) -> str:
    """``edges`` as a ``.hg`` (``tag="hg"``) or ``.gr`` (``"edge"``) text,
    lines in list order and ids in edge order, 1-based."""
    lines = [f"p {tag} {n} {len(edges)}", *("e " + " ".join(str(v + 1) for v in e) for e in edges)]
    return "\n".join(lines) + "\n"


def check_graph_ref(g, kind, ids):
    """``check_graph`` vertex by vertex, from the definitions: each vertex
    meets the chosen set in its closed (dominating) or open
    (total-dominating) neighborhood, or in at most one vertex of it
    (2-packing, open 2-packing).  The smallest id outside ``0..n-1`` is
    reported first, then an unknown kind."""
    outside = [x for x in ids if not 0 <= x < g.n]
    if outside:
        raise IdOutOfRangeError("vertex id {} outside {}..{}", min(outside), 0, g.n - 1)
    chosen = set(ids)
    closed = kind in ("dominating", "2-packing")
    met = [len(chosen & {*g.adj[v], *([v] if closed else [])}) for v in range(g.n)]
    if kind in ("dominating", "total-dominating"):
        return all(c >= 1 for c in met)
    if kind in ("2-packing", "open-2-packing"):
        return all(c <= 1 for c in met)
    raise ParameterError(f"unknown graph check kind {kind!r}")


def check_ref(h, kind, ids):
    """``check`` edge by edge, from the definitions, over one frozenset per
    edge (per trace of a restriction): the chosen edges cover every vertex
    (edge cover) or meet pairwise in nothing (matching); every edge meets
    the chosen vertices in at most one (independent set) or at least one
    (transversal).  The smallest id outside the edge ids or the vertices is
    reported first, then an unknown kind."""
    whole = isinstance(h, Hypergraph)
    sets = [frozenset(e) for e in (h.edges if whole else h.traces)]
    vertices = set(range(h.n)) if whole else set(h.vertices)
    if kind in ("edge-cover", "matching"):
        outside = [i for i in ids if not 0 <= i < len(sets)]
        if outside:
            raise IdOutOfRangeError("edge id {} outside {}..{}", min(outside), 0, len(sets) - 1)
        chosen = [sets[i] for i in set(ids)]
        if kind == "edge-cover":
            return set().union(*chosen) == vertices
        return all(not a & b for a, b in combinations(chosen, 2))
    if kind in ("independent-set", "transversal"):
        outside = [x for x in ids if x not in vertices]
        if outside:
            raise IdOutOfRangeError("vertex id {} not in the hypergraph", min(outside))
        picked = set(ids)
        if kind == "independent-set":
            return all(len(e & picked) <= 1 for e in sets)
        return all(e & picked for e in sets)
    raise ParameterError(f"unknown check kind {kind!r}")


def plain_degeneracy_bf(h):
    """Maximum over nonempty restrictions of the minimum plain degree."""
    best = 0
    for mask in range(1, 1 << h.n):
        subset = frozenset(v for v in range(h.n) if mask >> v & 1)
        traces = {e & subset for e in h.edge_sets} - {frozenset()}
        value = min(sum(1 for t in traces if v in t) for v in subset)
        best = max(best, value)
    return best


def strong_degeneracy_ref(h):
    """Maximum over nonempty restrictions of the minimum strong degree."""
    best = 0
    for mask in range(1, 1 << h.n):
        sub = restrict(h, [v for v in range(h.n) if mask >> v & 1])
        best = max(best, min(strong_degree(sub, v) for v in sub.vertices))
    return best


def mighty_degeneracy_ref(h):
    """The mighty degeneracy by its definition: the maximum, over every
    removal set R (the empty one too), of the minimum strong degree in what
    strongly removing R leaves."""
    best = 0
    for mask in range(1 << h.n):
        sub = strong_remove(h, [v for v in range(h.n) if mask >> v & 1])
        if sub is not None:
            best = max(best, min(strong_degree(sub, v) for v in sub.vertices))
    return best


def exact_ref(instance, problem):
    """``exact`` by plain enumeration: (value, witness, explored) of the
    first feasible id set in the order by size (ascending for a covering
    problem, descending for a packing one), then lexicographic, with
    ``explored`` the number of sets tried; ``None`` when none is feasible."""
    spec = _TABLE[problem]
    masks, bits = _masks(instance, spec.family)
    full = (1 << bits) - 1
    g = len(masks)

    def feasible(candidate):
        acc = 0
        for i in candidate:
            if not spec.covering and acc & masks[i]:
                return False
            acc |= masks[i]
        return not spec.covering or acc == full

    explored = 0
    for k in range(g + 1) if spec.covering else range(g, -1, -1):
        for candidate in combinations(range(g), k):
            explored += 1
            if feasible(candidate):
                return k, candidate, explored
    return None


@st.composite
def hypergraphs(draw, max_n: int = 8, max_m: int = 10, min_m: int = 1):
    """Random hypergraph with distinct nonempty edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edge = st.frozensets(vertex, min_size=1, max_size=n)
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    edges = draw(st.lists(edge, min_size=min_m, max_size=m, unique=True))
    return Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))


@st.composite
def covering_hypergraphs(draw, max_n: int = 8, max_extra: int = 6):
    """Random hypergraph with no isolated vertex, so edge covers exist."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edge = st.frozensets(vertex, min_size=1, max_size=n)
    extra = draw(st.lists(edge, max_size=max_extra, unique=True))
    # A random partition of the vertex range guarantees feasibility.
    cut = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1), max_size=3)) if n > 1 else [])
    blocks = []
    last = 0
    for c in cut + [n]:
        blocks.append(frozenset(range(last, c)))
        last = c
    seen: set[frozenset] = set()
    edges = []
    for e in blocks + extra:
        if e not in seen:
            seen.add(e)
            edges.append(tuple(sorted(e)))
    return Hypergraph(n, tuple(edges))


@st.composite
def graphs(draw, max_n: int = 9):
    """Random simple graph from an upper-triangle coin flip per pair."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, keep in zip(pairs, flips) if keep])


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 12, hubs: int | None = None):
    """Uniform-ish random labeled tree via a drawn Pruefer sequence.  With
    ``hubs`` the sequence names only vertices below it, so every other
    vertex is a leaf and the hubs share large neighborhoods."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 1:
        return Graph(1, ((),))
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = draw(
        st.lists(
            st.integers(min_value=0, max_value=min(hubs or n, n) - 1),
            min_size=n - 2,
            max_size=n - 2,
        )
    )
    return prufer_decode(tuple(seq), n)


# Sparse shapes: small edges and neighborhood systems, where strong degrees
# cascade under deletion and one strong removal leaves much behind.  The
# generic strategies above draw edges of any size and rarely produce them.


@st.composite
def sparse_hypergraphs(draw, max_n: int = 10, max_m: int = 12, max_size: int = 3):
    """Random hypergraph with distinct edges of at most ``max_size`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edge = st.frozensets(vertex, min_size=1, max_size=min(max_size, n))
    edges = draw(st.lists(edge, min_size=1, max_size=max_m, unique=True))
    return Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))


@st.composite
def sparse_covering_hypergraphs(draw, max_n: int = 10, max_m: int = 12):
    """A sparse hypergraph in which every vertex that no edge holds is
    paired with the next one (mod n), so edge covers exist."""
    h = draw(sparse_hypergraphs(max_n, max_m))
    covered = set().union(*h.edge_sets)
    pairs = (tuple(sorted({v, (v + 1) % h.n})) for v in range(h.n) if v not in covered)
    return Hypergraph(h.n, tuple(dict.fromkeys(h.edges + tuple(pairs))))


def covering_instances():
    """Dense, sparse and neighborhood hypergraphs with no vertex in no edge."""
    return st.one_of(covering_hypergraphs(), sparse_covering_hypergraphs(), neighborhood_hypergraphs())


@st.composite
def neighborhood_hypergraphs(draw, max_n: int = 9):
    """The closed or open neighborhood hypergraph of a random graph or tree.
    A graph with an isolated vertex has no open one and gives its closed
    one.  Either way every vertex lies in an edge."""
    g = draw(st.one_of(graphs(max_n=max_n), trees(max_n=max_n)))
    kind = draw(st.sampled_from(("closed", "open")))
    return neighborhood_hypergraph(g, kind if all(g.adj) else "closed")


@st.composite
def with_isolated_vertices(draw, base, max_extra: int = 3):
    """An instance drawn from ``base`` plus up to ``max_extra`` vertices in
    no edge, mixed among the others by a drawn relabeling."""
    h = draw(base)
    n = h.n + draw(st.integers(min_value=1, max_value=max_extra))
    label = draw(st.permutations(range(n)))
    return Hypergraph(n, tuple(tuple(sorted(label[v] for v in e)) for e in h.edges))


def sparse_instances(max_n: int = 10):
    """Sparse hypergraphs and neighborhood hypergraphs of at most ``max_n``
    vertices, with or without vertices in no edge."""
    def shapes(size):
        return st.one_of(sparse_hypergraphs(max_n=size), neighborhood_hypergraphs(max_n=size))

    return st.one_of(shapes(max_n), with_isolated_vertices(shapes(max_n - 3)))


@st.composite
def gap_family_slices(draw, max_n: int = 9):
    """The restriction of ``gap_family(n)``, n = 3..``max_n``, to a drawn
    nonempty vertex subset: its distinct nonempty traces, renumbered in id
    order.  Every vertex of the family lies in an edge, so every slice has
    an edge cover."""
    h = gap_family(draw(st.integers(min_value=3, max_value=max_n)))
    sub = restrict(h, draw(st.sets(st.integers(min_value=0, max_value=h.n - 1), min_size=1)))
    local = {v: i for i, v in enumerate(sub.vertices)}
    return Hypergraph(len(local), tuple(tuple(local[v] for v in t) for t in sub.traces))


def sparse_corpus(count: int = 300, seed: int = 2108):
    """``count`` seeded instances of at most 10 vertices: every fourth is the
    neighborhood hypergraph of a random graph, open when no vertex is
    isolated and the coin says so, the others have up to 2n random edges of
    at most three vertices, vertices in no edge included."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 10)
        if i % 4 == 3:
            p = rng.random()
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            yield neighborhood_hypergraph(g, "open" if all(g.adj) and rng.random() < 0.5 else "closed")
        else:
            size = range(1, min(3, n) + 1)
            edges = {tuple(sorted(rng.sample(range(n), rng.choice(size)))) for _ in range(rng.randint(1, 2 * n))}
            yield Hypergraph(n, tuple(sorted(edges)))
