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
from heapq import heappop, heappush
from typing import Iterable

from .core import (
    Hypergraph,
    _check_edge_count,
    _data_lines,
    _decimals,
    _merge_generated,
    _read_header,
    check,
    maximal_edges,
)
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
        # As in Hypergraph: a list would leave the value unhashable.
        if not isinstance(self.adj, tuple):
            raise ParameterError("adjacency table must be a tuple of row tuples")
        if len(self.adj) != self.n:
            raise ParameterError("adjacency table must have one row per vertex")
        # A vertex with no neighbours keeps its shared empty row: no set.
        rows = [set(row) if row else () for row in self.adj]
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
    def _unchecked(cls, n: int, adj: tuple[tuple[int, ...], ...]) -> "Graph":
        """Build without ``__post_init__``, for rows that are valid by
        construction (see :meth:`from_edges`)."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, adj=adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from an edge list; repeated edges merge with a warning.

        Each edge is checked once, so the rows it builds are valid and skip
        the constructor's checks.
        """
        # A vertex gets a list at its first neighbour; until then it shares
        # the empty row, so edgeless vertices cost no list.
        rows: list[list[int] | tuple[()]] = [()] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRangeError(f"vertex {v if 0 <= u < n else u} outside 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at {u}")
            if rows[u]:
                rows[u].append(v)
            else:
                rows[u] = [v]
            if rows[v]:
                rows[v].append(u)
            else:
                rows[v] = [u]
        # No edge fits a negative n, so only an edgeless input gets here.
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        adj = [tuple(sorted(row)) for row in rows]
        # A repeated edge repeats a neighbour in both of its rows.
        extra = sum([len(row) - len(set(row)) for row in adj if len(row) > 1])
        if extra:
            warnings.warn(f"merged {extra // 2} duplicate edge(s)", FormatWarning, stacklevel=2)
            adj = [tuple(sorted(set(row))) for row in adj]
        return cls._unchecked(n, tuple(adj))

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
    return Graph.from_edges(*_read_graph(text))


def _read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and 0-based edge list of a ``.gr`` text, checked as
    :func:`parse_graph` documents.  Costs O(len(text)) whatever ``n`` the
    header declares, so callers can reject a huge ``n`` before building the
    one adjacency row per vertex that a :class:`Graph` holds.

    Endpoints are read as :func:`core._decimals` reads them, with the
    common case inline: two tokens of ASCII digits go to ``int`` directly,
    and only a token ``int`` refuses, past its digit limit, takes the slow
    path that strips leading zeros or names the digit count."""
    lines = _data_lines(text)
    n, m = _read_header(lines, "edge")
    edges: list[tuple[int, int]] = []
    for lineno, tokens in lines:
        if tokens[0] != "e" or len(tokens) != 3:
            raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
        _, a, b = tokens
        both = a + b
        if not (both.isascii() and both.isdigit()):
            raise FormatError(f"line {lineno}: endpoints must be written with the digits 0-9")
        try:
            u = int(a)
            v = int(b)
        except ValueError:
            try:
                u, v = _decimals([a, b])
            except OverflowError as exc:
                raise VertexOutOfRangeError(f"line {lineno}: a vertex id of {exc} digits lies outside 1..{n}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise VertexOutOfRangeError(f"line {lineno}: vertex {v if 1 <= u <= n else u} outside 1..{n}")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop at {u}")
        edges.append((u - 1, v - 1))
    _check_edge_count(m, len(edges))
    return n, edges


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
        raise IsolatedVertexForOpenError("vertex {} has no neighbors", g.adj.index(()))
    rows = [tuple(sorted((v, *g.adj[v]))) for v in range(g.n)] if closed else g.adj
    edges, generators = _merge_generated(rows)
    name = "N[v{}]" if closed else "N(v{})"
    labels = tuple(",".join(name.format(v + 1) for v in gen) for gen in generators)
    # The rows of a checked graph, nonempty and merged when equal.
    return Hypergraph._unchecked(g.n, edges, labels), generators


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
    hypergraph machinery.

    A set dominates when the closed neighborhoods of its vertices together
    hold every vertex, and totally dominates when the open ones do; each is
    checked by one union, so the cost is the chosen vertices' degrees, not
    a pass over all ``n`` rows.

    Raises:
        IdOutOfRangeError: the smallest id outside ``0..n-1``, before any
            other check.
        ParameterError: an unknown ``kind``.
    """
    chosen = sorted(set(ids))
    for x in chosen:
        if not 0 <= x < g.n:
            raise IdOutOfRangeError("vertex id {} outside {}..{}", x, 0, g.n - 1)
    if kind in ("dominating", "total-dominating"):
        # Every id and neighbour lies in 0..n-1, so a union of n ids is V.
        covered = set(chosen) if kind == "dominating" else set()
        for x in chosen:
            covered.update(g.adj[x])
        return len(covered) == g.n
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
    # With n - 1 edges, a graph is a tree exactly when it is connected; the
    # loop runs on over the vertices it appends.
    seen = [False] * g.n
    seen[0] = True
    reached = [0]
    for v in reached:
        for u in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                reached.append(u)
    return len(reached) == g.n


def tree_domination(g: Graph, kind: str = "closed") -> DominationCertificate:
    """Minimum dominating set and maximum 2-packing of a tree, same size.

    This is the greedy cover of the neighborhood hypergraph, run on live
    neighborhoods.  A live ``x`` lies in ``u``'s neighborhood exactly when
    ``u`` lies in ``x``'s, so the traces through ``x`` are the live parts of
    the neighborhoods of ``x``'s own generators.  Each step takes the
    smallest ``x`` of strong degree 1 into the packing, the smallest
    generator of its one maximal trace into the dominating set, and removes
    the trace.  The certificate is the generic greedy's (dominators are the
    cover edges' smallest generators, in step order).

    The test for strong degree 1 is three counters per vertex: ``ln[v]``,
    the live neighbours of ``v``, with ``v`` *big* when ``ln[v] >= 2``;
    ``bad[x]``, the big neighbours of ``x``, dead or live (a dead one still
    generates a trace); and ``lbad[x]``, the live big ones.  In a tree two
    distinct neighbours ``u``, ``u'`` of ``x`` share only ``x``, and
    ``N[x]`` meets ``N[u]`` in ``{x, u}``.  So the trace of a neighbour
    ``u`` lies inside another neighbour's only when it is ``{x}``, and
    inside ``x``'s own closed trace exactly when ``u`` is not big.  Hence a
    live ``x`` has strong degree 1 exactly when

    - open: ``bad[x] <= 1``, since a neighbour that is not big has the
      trace ``{x}``, which lies in every other;
    - closed: ``bad[x] == 0``, when ``x``'s own trace holds every other, or
      ``bad[x] == 1`` and every live neighbour of ``x`` is big: then the big
      neighbour's trace holds ``x``'s, and every other neighbour is dead
      with the trace ``{x}``.

    Every trace through ``x`` then nests inside the largest, so equal live
    size means equal set: the trace is the largest, and its dominator the
    smallest generator of that size.  A trace nested in another stays so as
    both shrink, so strong degrees never rise, and only a vertex whose
    counters changed needs a new test.  Each vertex stops being big once
    and generates at most one trace, so the run costs O(n).

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
    closed = kind == "closed"
    live = [True] * g.n
    ln = [len(row) for row in adj]
    # At the start every vertex is live, so the neighbours that are not big
    # are the leaves.
    bad = ln[:]
    for row in adj:
        if len(row) == 1:
            bad[row[0]] -= 1
    lbad = bad[:]
    remaining = g.n
    dominating: list[int] = []
    packing: list[int] = []

    # Lazy heap of candidate ids: every live vertex of strong degree 1 is
    # present (dead ones are skipped on pop), so popping yields the smallest
    # one.  Strong degrees never rise, so a queued vertex needs no second look.
    ready: list[int] = []
    queued = [False] * g.n
    touched: Iterable[int] = range(g.n)
    while True:
        for y in touched:
            if live[y] and not queued[y] and (
                (bad[y] == 0 or bad[y] == 1 and ln[y] == lbad[y]) if closed else bad[y] <= 1
            ):
                queued[y] = True
                heappush(ready, y)
        if not remaining:
            break
        while ready and not live[ready[0]]:
            heappop(ready)
        if not ready:
            raise CertificateError("no strong-degree-1 vertex in a tree restriction")
        x = heappop(ready)
        # The largest live neighborhood through x, and its smallest generator
        # (edge ids follow first-generator order, so it names the hypergraph
        # greedy's representative).
        dom, size = (x, ln[x] + 1) if closed else (-1, 0)
        for u in adj[x]:
            s = ln[u] + live[u] if closed else ln[u]
            if s > size or s == size and u < dom:
                dom, size = u, s
        packing.append(x)
        dominating.append(dom)
        trace = [v for v in adj[dom] if live[v]]
        if closed and live[dom]:
            trace.append(dom)
        touched = []
        for w in trace:
            live[w] = False
            remaining -= 1
            big = ln[w] >= 2
            for v in adj[w]:
                if big:
                    lbad[v] -= 1
                ln[v] -= 1
                if ln[v] == 1:
                    # v stops being big.
                    for y in adj[v]:
                        bad[y] -= 1
                        if live[v]:
                            lbad[y] -= 1
                    touched.extend(adj[v])
            touched.extend(adj[w])

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

    # Strong degrees in one pass over the reference maximal_edges, not the
    # peeling engine, so the audit stays independent of what it audits.
    bounds = [(closed_h, 1)] if open_h is None else [(closed_h, 1), (open_h, 0)]
    degree_bound_failures = 0
    for h, slack in bounds:
        strong = [0] * g.n
        for i in maximal_edges(h):
            for v in h.edges[i]:
                strong[v] += 1
        degree_bound_failures += sum(1 for v in range(g.n) if strong[v] > g.degree(v) + slack)

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
