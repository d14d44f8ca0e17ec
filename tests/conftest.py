"""Shared hypothesis strategies for random instances, and brute-force
references built from the definitions alone.

Sizes stay small so the brute-force oracles remain usable inside
property tests.
"""

from __future__ import annotations

import os
from pathlib import Path

from hypothesis import strategies as st

from hypercover import Graph, Hypergraph, prufer_decode, strong_degree, strong_remove

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


def plain_degeneracy_bf(h):
    """Maximum over nonempty restrictions of the minimum plain degree."""
    best = 0
    for mask in range(1, 1 << h.n):
        subset = frozenset(v for v in range(h.n) if mask >> v & 1)
        traces = {e & subset for e in h.edge_sets} - {frozenset()}
        value = min(sum(1 for t in traces if v in t) for v in subset)
        best = max(best, value)
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
