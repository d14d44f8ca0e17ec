"""Hypergraph value types and the set-system operations everything else uses.

A hypergraph is a finite vertex range ``0..n-1`` plus a list of distinct
nonempty edges (vertex sets).  Edge ids are list positions, so the edge
order given at construction time is part of the value.  Restrictions,
strong removals, duals, maximality, degrees, validity checkers, and
VC dimension all live here.

External text form (``.hg``)::

    c comment (a line starting with ``#`` is one too)
    p hg <n> <m>
    e <v1> <v2> ... <vk>

with 1-based vertex ids in files and 0-based ids everywhere in the API.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Union

from .errors import (
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

VC_DEFAULT_CAP = 20


def _canonical_edge(edge: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(edge))


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph on vertices ``0..n-1``.

    ``edges`` holds each edge as an ascending vertex tuple; the position of
    an edge in the tuple is its id.  ``edge_labels`` is optional provenance
    (for instance the generating vertex of a neighborhood) and takes no part
    in equality.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    edge_labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("vertex count must be nonnegative")
        seen: set[frozenset[int]] = set()
        for edge in self.edges:
            if not edge:
                raise EmptyEdgeError("edges must be nonempty")
            if edge != _canonical_edge(edge) or len(set(edge)) != len(edge):
                raise ParameterError(f"edge {edge!r} is not a sorted duplicate-free tuple")
            if edge[0] < 0 or edge[-1] >= self.n:
                raise VertexOutOfRangeError(f"edge {edge!r} leaves vertex range 0..{self.n - 1}")
            key = frozenset(edge)
            if key in seen:
                raise DuplicateEdgeError(f"edge {edge!r} occurs twice")
            seen.add(key)
        if self.edge_labels is not None and len(self.edge_labels) != len(self.edges):
            raise ParameterError("edge_labels must match the edge list in length")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        labels: Iterable[str] | None = None,
        strict: bool = True,
    ) -> "Hypergraph":
        """Normalize ``edges`` (sorting each) and build a hypergraph.

        Duplicate edges raise :class:`DuplicateEdgeError` when ``strict``,
        otherwise later copies are dropped with a :class:`FormatWarning`.
        """
        label_list = None if labels is None else list(labels)
        out: list[tuple[int, ...]] = []
        out_labels: list[str] = []
        seen: dict[frozenset[int], int] = {}
        dropped = 0
        for pos, raw in enumerate(edges):
            edge = _canonical_edge(set(raw))
            key = frozenset(edge)
            if key in seen:
                if strict:
                    raise DuplicateEdgeError(f"edge {edge!r} occurs twice")
                dropped += 1
                continue
            seen[key] = len(out)
            out.append(edge)
            if label_list is not None:
                out_labels.append(label_list[pos])
        if dropped:
            warnings.warn(f"merged {dropped} duplicate edge(s)", FormatWarning, stacklevel=2)
        return cls(n, tuple(out), None if label_list is None else tuple(out_labels))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(e) for e in self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, the ascending list of edge ids containing it."""
        table: list[list[int]] = [[] for _ in range(self.n)]
        for i, edge in enumerate(self.edges):
            for v in edge:
                table[v].append(i)
        return tuple(tuple(row) for row in table)

    @cached_property
    def _incidence_classes(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Distinct incidence rows with their generating vertices: the dual's
        edges, and what maps a dual edge back to a vertex."""
        return _merge_generated(self.incidence)

    @cached_property
    def _maximal_ids(self) -> tuple[int, ...]:
        return _maximal_positions(self.edge_sets)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(self.n))


@dataclass(frozen=True)
class SubHypergraph:
    """Restriction of a base hypergraph to a vertex subset.

    ``traces`` are the distinct nonempty intersections of base edges with
    the subset, ordered by their representative: the smallest base edge id
    whose trace equals them.
    """

    base: Hypergraph = field(compare=False)
    vertices: tuple[int, ...]
    traces: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(t) for t in self.traces)

    @cached_property
    def _maximal_ids(self) -> tuple[int, ...]:
        return _maximal_positions(self.edge_sets)


@dataclass(frozen=True)
class ShatterWitness:
    """Outcome of testing one vertex set for shattering.

    When the set is not shattered, ``missing_subset`` holds the
    lexicographically least subset that occurs as no trace.
    """

    set: tuple[int, ...]
    shattered: bool
    missing_subset: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.shattered != (self.missing_subset is None):
            raise ParameterError("shattered witnesses carry no missing subset and vice versa")


HypergraphLike = Union[Hypergraph, SubHypergraph]


def _maximal_positions(edge_sets: tuple[frozenset[int], ...]) -> tuple[int, ...]:
    # Distinct sets: proper containment forces strictly smaller size, so each
    # edge only needs comparing against strictly larger ones.
    order = sorted(range(len(edge_sets)), key=lambda i: -len(edge_sets[i]))
    maximal: list[int] = []
    for i in order:
        e = edge_sets[i]
        if any(len(edge_sets[j]) > len(e) and e < edge_sets[j] for j in maximal):
            continue
        maximal.append(i)
    return tuple(sorted(maximal))


def maximal_edges(h: HypergraphLike) -> tuple[int, ...]:
    """Ids of edges (for a restriction: trace positions) that are properly
    contained in no other edge, in ascending order."""
    return h._maximal_ids


def _require_vertex(h: HypergraphLike, x: int) -> None:
    if isinstance(h, Hypergraph):
        if not 0 <= x < h.n:
            raise VertexOutOfRangeError(f"vertex {x} outside 0..{h.n - 1}")
    elif x not in h.vertices:
        raise VertexOutOfRangeError(f"vertex {x} not in the restricted set")


def degree(h: HypergraphLike, x: int) -> int:
    """Number of distinct edges (traces) containing ``x``."""
    _require_vertex(h, x)
    return sum(1 for e in h.edge_sets if x in e)


def strong_degree(h: HypergraphLike, x: int) -> int:
    """Number of distinct maximal edges (traces) containing ``x``."""
    _require_vertex(h, x)
    sets = h.edge_sets
    return sum(1 for i in h._maximal_ids if x in sets[i])


def restrict(h: Hypergraph, subset: Iterable[int]) -> SubHypergraph:
    """Induced subhypergraph on ``subset``: distinct nonempty traces only.

    Raises:
        EmptySubsetError: ``subset`` is empty.
        VertexOutOfRangeError: ``subset`` leaves the vertex range.
    """
    vertices = tuple(sorted(set(subset)))
    if not vertices:
        raise EmptySubsetError("cannot restrict to the empty vertex set")
    if vertices[0] < 0 or vertices[-1] >= h.n:
        raise VertexOutOfRangeError(f"subset leaves vertex range 0..{h.n - 1}")
    keep = frozenset(vertices)
    seen: dict[frozenset[int], int] = {}
    traces: list[tuple[int, ...]] = []
    reps: list[int] = []
    for i, eset in enumerate(h.edge_sets):
        t = eset & keep
        if not t or t in seen:
            continue
        seen[t] = i
        traces.append(tuple(sorted(t)))
        reps.append(i)
    return SubHypergraph(h, vertices, tuple(traces), tuple(reps))


def strong_remove(h: Hypergraph, removed: Iterable[int]) -> SubHypergraph | None:
    """Drop ``removed`` plus every vertex of every edge meeting it.

    Returns the restriction to the surviving vertices, or ``None`` when
    nothing survives.  An empty ``removed`` set keeps every vertex.
    """
    r = set(removed)
    for x in r:
        if not 0 <= x < h.n:
            raise VertexOutOfRangeError(f"vertex {x} outside 0..{h.n - 1}")
    gone = set(r)
    for eset in h.edge_sets:
        if eset & r:
            gone |= eset
    survivors = [v for v in range(h.n) if v not in gone]
    if not survivors:
        return None
    return restrict(h, survivors)


def _reject_isolated(h: Hypergraph) -> None:
    """Raise for the smallest vertex in no edge.  Reads only the edges, and
    the smallest missing vertex is at most the number seen, so the cost is
    O(sum of edge sizes) however large ``n`` is."""
    seen = set(chain.from_iterable(h.edges))
    if len(seen) < h.n:
        v = next(v for v in range(h.n) if v not in seen)
        raise IsolatedVertexError(f"vertex {v} lies in no edge")


def _merge_generated(rows: Iterable[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Merge the edges generated by vertices ``0, 1, ...`` (``rows[v]`` is the
    ascending edge of generator ``v``): identical rows become one edge.

    Edge ids follow first-generator order.  Returns the edges and, per edge,
    its generators in ascending order.
    """
    edge_id: dict[tuple[int, ...], int] = {}
    generators: list[list[int]] = []
    for v, row in enumerate(rows):
        i = edge_id.setdefault(row, len(generators))
        if i == len(generators):
            generators.append([])
        generators[i].append(v)
    return tuple(edge_id), tuple(map(tuple, generators))


def dual(h: Hypergraph) -> Hypergraph:
    """Swap the roles of vertices and edges.

    Dual vertices are the edge ids of ``h``; each original vertex generates
    the dual edge of all edges containing it.  Vertices with identical
    incidence yield one merged dual edge whose label lists every generator.

    Raises:
        IsolatedVertexError: some vertex lies in no edge, which would
            produce an empty dual edge.
    """
    _reject_isolated(h)
    edges, generators = h._incidence_classes
    labels = tuple(",".join(f"v{v + 1}" for v in gen) for gen in generators)
    return Hypergraph(h.m, edges, labels)


CHECK_KINDS = ("edge-cover", "independent-set", "transversal", "matching")


def check(h: HypergraphLike, kind: str, ids: Iterable[int]) -> bool:
    """Validate a candidate solution against the plain definition.

    ``ids`` are edge ids for ``edge-cover``/``matching`` and vertex ids for
    ``independent-set``/``transversal``.  Unknown ids raise
    :class:`IdOutOfRangeError`; an unknown ``kind`` raises
    :class:`ParameterError`.
    """
    chosen = sorted(set(ids))
    sets = h.edge_sets
    universe = frozenset(h.vertices)
    if kind in ("edge-cover", "matching"):
        for i in chosen:
            if not 0 <= i < len(sets):
                raise IdOutOfRangeError(f"edge id {i} outside 0..{len(sets) - 1}")
        if kind == "edge-cover":
            covered: set[int] = set()
            for i in chosen:
                covered |= sets[i]
            return covered == universe
        used: set[int] = set()
        for i in chosen:
            if used & sets[i]:
                return False
            used |= sets[i]
        return True
    if kind in ("independent-set", "transversal"):
        for x in chosen:
            if x not in universe:
                raise IdOutOfRangeError(f"vertex id {x} not in the hypergraph")
        picked = frozenset(chosen)
        if kind == "independent-set":
            return all(len(e & picked) <= 1 for e in sets)
        return all(e & picked for e in sets)
    raise ParameterError(f"unknown check kind {kind!r}")


def _lex_subsets(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
    # Prefix-extension DFS over an ascending tuple enumerates subsets in
    # lexicographic order of their sorted forms; the int pairs each subset
    # with its membership word.
    def rec(prefix: tuple[int, ...], word: int, start: int) -> Iterator[tuple[tuple[int, ...], int]]:
        yield prefix, word
        for i in range(start, len(items)):
            yield from rec(prefix + (items[i],), word | (1 << i), i + 1)

    return rec((), 0, 0)


def shatter_check(h: HypergraphLike, subset: Iterable[int]) -> ShatterWitness:
    """Is every subset of ``subset`` (including the empty set) a trace?"""
    s = tuple(sorted(set(subset)))
    for x in s:
        _require_vertex(h, x)
    bit = {v: i for i, v in enumerate(s)}
    words: set[int] = set()
    for eset in h.edge_sets:
        w = 0
        for v in eset:
            if v in bit:
                w |= 1 << bit[v]
        words.add(w)
    if len(words) == 1 << len(s):
        return ShatterWitness(s, True, None)
    for chosen, word in _lex_subsets(s):
        if word not in words:
            return ShatterWitness(s, False, chosen)
    raise AssertionError("unreachable: fewer words than subsets yet none missing")


def vc_dimension(h: HypergraphLike, max_vertices: int = VC_DEFAULT_CAP) -> tuple[int, ShatterWitness]:
    """Largest size of a shattered vertex set, with a witness.

    With no edges at all, nothing (not even the empty set) is shattered;
    the result is then ``0`` with a witness flagged ``shattered=False``.

    Raises:
        TooLargeError: more vertices than ``max_vertices``.
    """
    universe = h.vertices
    if len(universe) > max_vertices:
        raise TooLargeError(f"{len(universe)} vertices exceed the cap of {max_vertices}")
    sets = h.edge_sets
    if not sets:
        return 0, ShatterWitness((), False, ())
    # A shattered k-set needs 2^k distinct traces and m edges supply at most
    # m of them, so sizes above log2(m) cannot occur.
    top = min(len(universe), len(sets).bit_length() - 1)
    for k in range(top, -1, -1):
        target = 1 << k
        for cand in combinations(universe, k):
            bit = {v: i for i, v in enumerate(cand)}
            words: set[int] = set()
            for eset in sets:
                w = 0
                for v in eset:
                    if v in bit:
                        w |= 1 << bit[v]
                words.add(w)
                if len(words) == target:
                    break
            if len(words) == target:
                return k, ShatterWitness(cand, True, None)
    raise AssertionError("unreachable: the empty set is shattered whenever edges exist")


def _data_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and tokens of every line that is neither blank nor a
    comment (``#...`` or a DIMACS ``c`` line)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0] != "c" and tokens[0][0] != "#":
            yield lineno, tokens


def parse_hypergraph(text: str, strict: bool = True) -> Hypergraph:
    """Read the ``.hg`` text format.

    Raises:
        FormatError: malformed header or line grammar.
        EmptyEdgeError: an ``e`` line without vertices.
        VertexOutOfRangeError: a vertex id outside ``1..n``.
        DuplicateEdgeError: a repeated edge in strict mode; lenient mode
            merges repeats and emits a :class:`FormatWarning`.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, ...]] = []
    for lineno, tokens in _data_lines(text):
        if header is None:
            if tokens[0] != "p":
                raise FormatError(f"line {lineno}: expected header 'p hg <n> <m>'")
            if len(tokens) != 4 or tokens[1] != "hg":
                raise FormatError(f"line {lineno}: malformed header")
            try:
                n, m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise FormatError(f"line {lineno}: header counts must be integers") from None
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: header counts must be nonnegative")
            header = (n, m)
            continue
        if tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected an 'e' line")
        if len(tokens) == 1:
            raise EmptyEdgeError(f"line {lineno}: edge with no vertices")
        try:
            ids = [int(t) for t in tokens[1:]]
        except ValueError:
            raise FormatError(f"line {lineno}: vertex ids must be integers") from None
        for v in ids:
            if not 1 <= v <= header[0]:
                raise VertexOutOfRangeError(f"line {lineno}: vertex {v} outside 1..{header[0]}")
        if len(set(ids)) != len(ids):
            warnings.warn(f"line {lineno}: repeated vertex inside an edge", FormatWarning, stacklevel=2)
        edges.append(tuple(v - 1 for v in ids))
    if header is None:
        raise FormatError("missing header 'p hg <n> <m>'")
    if len(edges) != header[1]:
        raise FormatError(f"header announced {header[1]} edges but {len(edges)} appeared")
    return Hypergraph.from_edges(header[0], edges, strict=strict)


def format_hypergraph(h: Hypergraph) -> str:
    """Write the ``.hg`` text format (1-based, byte-stable)."""
    lines = [f"p hg {h.n} {h.m}"]
    for edge in h.edges:
        lines.append("e " + " ".join(str(v + 1) for v in edge))
    return "\n".join(lines) + "\n"
