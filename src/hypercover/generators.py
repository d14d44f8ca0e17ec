"""Instance factories: the degeneracy gap family, uniform random trees,
random hypergraphs, and a few small named graphs.

All randomness flows through ``random.Random(seed)``, so equal parameters
and seed reproduce results byte for byte.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from math import comb

from .core import Hypergraph
from .domination import Graph
from .errors import InfeasibleEdgeCountError, NTooSmallError, ParameterError


def gap_family(n: int) -> Hypergraph:
    """Neighborhood system whose two degeneracy parameters drift apart.

    Take a clique on ``v2..vn`` with a pendant vertex ``v1`` attached to
    ``v2``; the edges are the closed neighborhood of ``v1`` followed by the
    open neighborhoods of ``v2..vn``.  Any nonempty strong removal wipes the
    instance out, which pins the mighty value at 2 (for ``n >= 4``), while
    dropping ``v1`` leaves every strong degree at ``n - 2``.

    Raises:
        NTooSmallError: ``n < 3``.
    """
    if n < 3:
        raise NTooSmallError("the gap family starts at n = 3")
    edges: list[tuple[int, ...]] = [(0, 1)]
    labels = ["N[v1]"]
    edges.append((0, *range(2, n)))
    labels.append("N(v2)")
    for i in range(2, n):
        edges.append(tuple(sorted({1, *range(2, n)} - {i})))
        labels.append(f"N(v{i + 1})")
    return Hypergraph(n, tuple(edges), tuple(labels))


def prufer_decode(sequence: tuple[int, ...], n: int) -> Graph:
    """Tree on ``n`` vertices from a length ``n - 2`` sequence over ``0..n-1``."""
    if n < 2:
        raise ParameterError("decoding needs at least two vertices")
    if len(sequence) != n - 2:
        raise ParameterError("sequence length must be n - 2")
    degree = [1] * n
    for v in sequence:
        if not 0 <= v < n:
            raise ParameterError(f"sequence entry {v} outside 0..{n - 1}")
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    edges: list[tuple[int, int]] = []
    for v in sequence:
        leaf = heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heappush(leaves, v)
    edges.append((heappop(leaves), heappop(leaves)))
    return Graph.from_edges(n, edges)


def prufer_encode(tree: Graph) -> tuple[int, ...]:
    """Inverse of :func:`prufer_decode`, used to audit the decoder."""
    n = tree.n
    if n < 2:
        raise ParameterError("encoding needs at least two vertices")
    degree = [tree.degree(v) for v in range(n)]
    leaves = [v for v in range(n) if degree[v] == 1]
    heapify(leaves)
    dead = [False] * n
    out: list[int] = []
    for _ in range(n - 2):
        leaf = heappop(leaves)
        dead[leaf] = True
        parent = next(u for u in tree.adj[leaf] if not dead[u])
        out.append(parent)
        degree[parent] -= 1
        if degree[parent] == 1:
            heappush(leaves, parent)
    return tuple(out)


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniformly random labeled tree via a random length ``n - 2`` sequence.

    Raises:
        NTooSmallError: ``n < 1``.
    """
    if n < 1:
        raise NTooSmallError("trees need at least one vertex")
    if n == 1:
        return Graph(1, ((),))
    rng = random.Random(seed)
    sequence = tuple(rng.randrange(n) for _ in range(n - 2))
    return prufer_decode(sequence, n)


def random_hypergraph(
    n: int,
    m: int,
    max_edge_size: int,
    seed: int = 0,
    cover_feasible: bool = False,
) -> Hypergraph:
    """``m`` distinct nonempty random edges of size at most ``max_edge_size``.

    With ``cover_feasible=True`` the first edges partition the vertex range,
    so every vertex lies in at least one edge; this needs
    ``m >= ceil(n / max_edge_size)``.

    Raises:
        InfeasibleEdgeCountError: more edges requested than distinct edges
            exist, or too few for the cover-feasible guarantee.
    """
    if n < 1 or max_edge_size < 1 or m < 0:
        raise ParameterError("need n >= 1, max_edge_size >= 1, m >= 0")
    # Stop counting once m edges fit: only the error needs the full count.
    available = 0
    for k in range(1, min(n, max_edge_size) + 1):
        available += comb(n, k)
        if available >= m:
            break
    if m > available:
        raise InfeasibleEdgeCountError(f"only {available} distinct edges exist")
    rng = random.Random(seed)
    edges: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    if cover_feasible:
        needed = -(-n // max_edge_size)
        if m < needed:
            raise InfeasibleEdgeCountError(f"covering {n} vertices needs at least {needed} edges")
        vertices = list(range(n))
        rng.shuffle(vertices)
        for i in range(0, n, max_edge_size):
            chunk = tuple(sorted(vertices[i : i + max_edge_size]))
            edges.append(chunk)
            seen.add(frozenset(chunk))
    while len(edges) < m:
        size = rng.randint(1, min(n, max_edge_size))
        edge = tuple(sorted(rng.sample(range(n), size)))
        key = frozenset(edge)
        if key in seen:
            continue
        seen.add(key)
        edges.append(edge)
    return Hypergraph(n, tuple(edges))


def random_graph(n: int, edge_probability: float = 0.3, seed: int = 0) -> Graph:
    """Independent coin flip per vertex pair."""
    if n < 0 or not 0.0 <= edge_probability <= 1.0:
        raise ParameterError("need n >= 0 and a probability in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_probability
    ]
    return Graph.from_edges(n, edges)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise NTooSmallError("cycles need at least three vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int, center: int = 0) -> Graph:
    """Star on ``leaves + 1`` vertices; ``center`` picks which id is the hub."""
    n = leaves + 1
    if not 0 <= center < n:
        raise ParameterError("center outside the vertex range")
    return Graph.from_edges(n, [(center, v) for v in range(n) if v != center])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
