"""Domination and 2-packing on graphs via neighborhood hypergraphs.

A set S dominates a graph exactly when the closed neighborhoods of S cover
every vertex, and S is a 2-packing exactly when S is independent in the
closed neighborhood hypergraph; the open variants correspond the same way
to total domination and open 2-packings.  On trees the greedy cover closes
the usual duality gap entirely: ``tree_domination`` produces a dominating
set and a 2-packing of equal size, so both are optimal.

External text form (``.gr``)::

    c comment (a line starting with ``#`` is one too)
    p edge <n> <m>
    e <u> <v>

with 1-based vertex ids in files and 0-based ids in the API.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable

from .core import Hypergraph, _data_lines, _merge_generated, check, strong_degree
from .errors import (
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


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adj`` holds one ascending neighbor tuple per vertex; symmetry and the
    absence of loops are enforced at construction time.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ParameterError("adjacency table must have one row per vertex")
        rows = [set(row) for row in self.adj]
        for v, row in enumerate(self.adj):
            if tuple(sorted(rows[v])) != row:
                raise ParameterError(f"neighbor row of {v} is not sorted and duplicate-free")
            for u in row:
                if not 0 <= u < self.n:
                    raise VertexOutOfRangeError(f"vertex {u} outside 0..{self.n - 1}")
                if u == v:
                    raise ParameterError(f"self-loop at {v}")
                if v not in rows[u]:
                    raise ParameterError(f"edge {v}-{u} is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from an edge list; repeated edges merge with a warning."""
        rows: list[set[int]] = [set() for _ in range(n)]
        dropped = 0
        for u, v in edges:
            for w in (u, v):
                if not 0 <= w < n:
                    raise VertexOutOfRangeError(f"vertex {w} outside 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at {u}")
            if v in rows[u]:
                dropped += 1
                continue
            rows[u].add(v)
            rows[v].add(u)
        if dropped:
            warnings.warn(f"merged {dropped} duplicate edge(s)", FormatWarning, stacklevel=2)
        return cls(n, tuple(tuple(sorted(row)) for row in rows))

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, u) for v in range(self.n) for u in self.adj[v] if v < u)

    def degree(self, v: int) -> int:
        return len(self.adj[v])


def parse_graph(text: str) -> Graph:
    """Read the ``.gr`` text format.

    Raises:
        FormatError: malformed header, line grammar, or a self-loop.
        VertexOutOfRangeError: an endpoint outside ``1..n``.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, tokens in _data_lines(text):
        if header is None:
            if tokens[0] != "p" or len(tokens) != 4 or tokens[1] != "edge":
                raise FormatError(f"line {lineno}: expected header 'p edge <n> <m>'")
            try:
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise FormatError(f"line {lineno}: header counts must be integers") from None
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: header counts must be nonnegative")
            header = (n, m)
            continue
        if tokens[0] != "e" or len(tokens) != 3:
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        try:
            u, v = int(tokens[1]), int(tokens[2])
        except ValueError:
            raise FormatError(f"line {lineno}: endpoints must be integers") from None
        for w in (u, v):
            if not 1 <= w <= header[0]:
                raise VertexOutOfRangeError(f"line {lineno}: vertex {w} outside 1..{header[0]}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        edges.append((u - 1, v - 1))
    if header is None:
        raise FormatError("missing header 'p edge <n> <m>'")
    if len(edges) != header[1]:
        raise FormatError(f"header announced {header[1]} edges but {len(edges)} appeared")
    return Graph.from_edges(header[0], edges)


def format_graph(g: Graph) -> str:
    """Write the ``.gr`` text format (1-based, byte-stable)."""
    lines = [f"p edge {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


NEIGHBORHOOD_KINDS = ("closed", "open")


def _neighborhoods(g: Graph, kind: str) -> tuple[Hypergraph, tuple[tuple[int, ...], ...]]:
    """The neighborhood hypergraph of ``g`` and each edge's generating
    vertices (see :func:`neighborhood_hypergraph`)."""
    if kind not in NEIGHBORHOOD_KINDS:
        raise ParameterError(f"unknown neighborhood kind {kind!r}")
    closed = kind == "closed"
    if not closed and () in g.adj:
        raise IsolatedVertexForOpenError(f"vertex {g.adj.index(())} has no neighbors")
    rows = [tuple(sorted((v, *g.adj[v]))) for v in range(g.n)] if closed else g.adj
    edges, generators = _merge_generated(rows)
    name = "N[v{}]" if closed else "N(v{})"
    labels = tuple(",".join(name.format(v + 1) for v in gen) for gen in generators)
    return Hypergraph(g.n, edges, labels), generators


def neighborhood_hypergraph(g: Graph, kind: str = "closed") -> Hypergraph:
    """Hypergraph whose edges are the (closed or open) neighborhoods of ``g``.

    Vertices with identical neighborhoods produce one merged edge whose
    label lists every generator, e.g. ``"N[v2],N[v5]"``.

    Raises:
        IsolatedVertexForOpenError: ``kind="open"`` and some vertex has
            degree zero, whose open neighborhood would be empty.
    """
    return _neighborhoods(g, kind)[0]


GRAPH_CHECK_KINDS = ("dominating", "total-dominating", "2-packing", "open-2-packing")


def check_graph(g: Graph, kind: str, ids: Iterable[int]) -> bool:
    """Validate a vertex set against the plain graph definition, without any
    hypergraph machinery."""
    chosen = sorted(set(ids))
    for x in chosen:
        if not 0 <= x < g.n:
            raise IdOutOfRangeError(f"vertex id {x} outside 0..{g.n - 1}")
    picked = set(chosen)
    if kind == "dominating":
        return all(v in picked or picked.intersection(g.adj[v]) for v in range(g.n))
    if kind == "total-dominating":
        return all(picked.intersection(g.adj[v]) for v in range(g.n))
    if kind in ("2-packing", "open-2-packing"):
        closed = kind == "2-packing"
        # Neighborhoods are pairwise disjoint iff no vertex lies in two of
        # them, so one membership count per vertex suffices.
        hit = [0] * g.n
        for x in chosen:
            for u in g.adj[x]:
                hit[u] += 1
            if closed:
                hit[x] += 1
        return all(c <= 1 for c in hit)
    raise ParameterError(f"unknown graph check kind {kind!r}")


@dataclass(frozen=True)
class DominationChecks:
    dominating_valid: bool
    packing_valid: bool


@dataclass(frozen=True)
class DominationCertificate:
    """Dominating set and 2-packing of matching size (open or closed kind).

    Matching sizes pin both down as optimal: no 2-packing can be larger
    than a dominating set of the same kind.
    """

    kind: str
    dominating: tuple[int, ...]
    packing: tuple[int, ...]
    equal: bool
    checks: DominationChecks


def _is_tree(g: Graph) -> bool:
    if g.n == 0 or g.m != g.n - 1:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def tree_domination(g: Graph, kind: str = "closed") -> DominationCertificate:
    """Minimum dominating set and maximum 2-packing of a tree, same size.

    This is the greedy cover of the neighborhood hypergraph specialized to
    trees: a vertex whose strong degree is 1 always exists, its unique
    maximal trace is read off local live-neighbor counts, and the trace's
    smallest-id generator becomes the dominator.  It yields the generic
    greedy's certificate (dominators are the cover edges' smallest
    generators) and stays for speed: ``greedy_cover(neighborhood_hypergraph(t))``
    is 4.3x (closed) and 2.7x (open) slower on ``random_tree(5000, 42)``, and
    31x and 22x on a 5000-vertex tree with 40 hubs (CPU time, best of 5,
    CPython 3.11 on an Intel Xeon VM).

    Raises:
        NotATreeError: the graph is not connected with ``n - 1`` edges.
        SingleVertexOpenError: ``kind="open"`` on a one-vertex tree.
        CertificateError: the run failed its own checks.
    """
    if kind not in NEIGHBORHOOD_KINDS:
        raise ParameterError(f"unknown neighborhood kind {kind!r}")
    if not _is_tree(g):
        raise NotATreeError("input graph is not a tree")
    if g.n == 1 and kind == "open":
        raise SingleVertexOpenError("a single vertex has no open neighborhood")

    adj = g.adj
    live = [True] * g.n
    lnc = [len(adj[v]) for v in range(g.n)]  # live-neighbor counts, ghosts too
    remaining = g.n
    dominating: list[int] = []
    packing: list[int] = []

    def live_hood(v: int) -> set[int]:
        hood = {u for u in adj[v] if live[u]}
        if kind == "closed" and live[v]:
            hood.add(v)
        return hood

    def strong_degree_local(x: int) -> int:
        # Closed kind: traces through x come from x itself, live neighbors,
        # and ghost neighbors; a tree has no 4-cycles, so two of them only
        # nest when the smaller one collapses onto x's side.
        if kind == "open":
            return max(1, sum(1 for u in adj[x] if lnc[u] >= 2))
        a = lnc[x]
        ghosts = sum(1 for u in adj[x] if not live[u] and lnc[u] >= 2)
        if a == 0:
            return max(1, ghosts)
        if a == 1:
            return 1 + ghosts
        bulky = sum(1 for u in adj[x] if live[u] and lnc[u] >= 2)
        return 1 + bulky + ghosts

    def unique_trace(x: int) -> set[int]:
        if kind == "open":
            wide = [u for u in adj[x] if lnc[u] >= 2]
            return live_hood(wide[0]) if wide else {x}
        a = lnc[x]
        if a == 0:
            wide = [u for u in adj[x] if not live[u] and lnc[u] >= 2]
            return live_hood(wide[0]) if wide else {x}
        if a == 1:
            z = next(u for u in adj[x] if live[u])
            return live_hood(z)
        return live_hood(x)

    # Lazy heap of candidate ids: every live vertex with local strong degree
    # 1 is present (stale entries are filtered on pop), so popping yields the
    # smallest such id.  A step only perturbs the degrees of vertices within
    # two hops of the removed trace, and only those are re-examined.
    ready = [v for v in range(g.n) if strong_degree_local(v) == 1]
    heapify(ready)
    while remaining:
        x = None
        while ready:
            v = heappop(ready)
            if live[v] and strong_degree_local(v) == 1:
                x = v
                break
        if x is None:
            raise CertificateError("no strong-degree-1 vertex in a tree restriction")
        trace = unique_trace(x)
        # Scanning candidate generators by ascending vertex id reproduces the
        # smallest-edge-id representative rule of the hypergraph greedy.
        candidates = sorted({x, *adj[x]}) if kind == "closed" else adj[x]
        dominator = next((v for v in candidates if live_hood(v) == trace), None)
        if dominator is None:
            raise CertificateError("trace without a generating neighborhood")
        packing.append(x)
        dominating.append(dominator)
        for w in trace:
            live[w] = False
            remaining -= 1
        touched = set()
        for w in trace:
            for u in adj[w]:
                lnc[u] -= 1
                touched.add(u)
        affected = set()
        for u in touched:
            if live[u]:
                affected.add(u)
            for y in adj[u]:
                if live[y]:
                    affected.add(y)
        for y in affected:
            if strong_degree_local(y) == 1:
                heappush(ready, y)

    if len(set(dominating)) != len(dominating):
        raise CertificateError("a dominator was selected twice")
    dom_kind = "dominating" if kind == "closed" else "total-dominating"
    pack_kind = "2-packing" if kind == "closed" else "open-2-packing"
    checks = DominationChecks(
        dominating_valid=check_graph(g, dom_kind, dominating),
        packing_valid=check_graph(g, pack_kind, packing),
    )
    equal = len(dominating) == len(packing)
    if not (checks.dominating_valid and checks.packing_valid and equal):
        raise CertificateError(f"tree solver failed its self-check: {checks}, equal={equal}")
    return DominationCertificate(kind, tuple(dominating), tuple(packing), equal, checks)


@dataclass(frozen=True)
class AuditReport:
    """Tally of randomized equivalence checks between graph-level and
    hypergraph-level definitions."""

    trials: int
    checks_run: int
    failures: int
    open_included: bool
    degree_bound_failures: int


def neighborhood_equivalence_audit(g: Graph, trials: int = 100, seed: int = 0) -> AuditReport:
    """Sample random vertex subsets and confirm, in both directions, that
    domination matches edge cover and 2-packing matches independence in the
    neighborhood hypergraphs; also verify the strong-degree bounds
    ``s(x) <= deg(x) + 1`` (closed) and ``s(x) <= deg(x)`` (open).

    Open-kind checks are skipped when the graph has an isolated vertex.
    """
    closed_h, closed_gens = _neighborhoods(g, "closed")
    include_open = all(g.adj[v] for v in range(g.n))
    open_h, open_gens = _neighborhoods(g, "open") if include_open else (None, ())

    degree_bound_failures = 0
    for v in range(g.n):
        if strong_degree(closed_h, v) > g.degree(v) + 1:
            degree_bound_failures += 1
        if open_h is not None and strong_degree(open_h, v) > g.degree(v):
            degree_bound_failures += 1

    rng = random.Random(seed)
    checks_run = 0
    failures = 0
    for _ in range(trials):
        subset = [v for v in range(g.n) if rng.random() < 0.5]
        picked = set(subset)
        # The edges generated by the subset: the neighborhoods it picks.
        closed_ids = [i for i, gen in enumerate(closed_gens) if not picked.isdisjoint(gen)]
        open_ids = [i for i, gen in enumerate(open_gens) if not picked.isdisjoint(gen)]
        pairs = [
            (check_graph(g, "dominating", subset), check(closed_h, "edge-cover", closed_ids)),
            (check_graph(g, "2-packing", subset), check(closed_h, "independent-set", subset)),
        ]
        if open_h is not None:
            pairs.append((check_graph(g, "total-dominating", subset), check(open_h, "edge-cover", open_ids)))
            pairs.append((check_graph(g, "open-2-packing", subset), check(open_h, "independent-set", subset)))
        for left, right in pairs:
            checks_run += 1
            if left != right:
                failures += 1
    return AuditReport(trials, checks_run, failures, include_open, degree_bound_failures)
