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

import operator
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, groupby
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
        # A list would pass every rule below, yet leave the value unhashable
        # and unequal to its tuple form.
        if not isinstance(self.edges, tuple):
            raise ParameterError("edges must be a tuple of edge tuples")
        seen: set[tuple[int, ...]] = set()
        for edge in self.edges:
            if not edge:
                raise EmptyEdgeError("edges must be nonempty")
            if not (isinstance(edge, tuple) and all(map(operator.lt, edge, edge[1:]))):
                raise ParameterError(f"edge {edge!r} is not a sorted duplicate-free tuple")
            if edge[0] < 0 or edge[-1] >= self.n:
                raise VertexOutOfRangeError(f"edge {edge!r} leaves vertex range 0..{self.n - 1}")
            # A sorted tuple is the canonical form of its vertex set.
            if edge in seen:
                fields = ", ".join(["{}"] * len(edge)) + ("," if len(edge) == 1 else "")
                raise DuplicateEdgeError(f"edge ({fields}) occurs twice", *edge)
            seen.add(edge)
        if self.edge_labels is not None and len(self.edge_labels) != len(self.edges):
            raise ParameterError("edge_labels must match the edge list in length")

    @classmethod
    def _unchecked(
        cls, n: int, edges: tuple[tuple[int, ...], ...], edge_labels: tuple[str, ...] | None = None
    ) -> "Hypergraph":
        """Build without ``__post_init__``, for edges that are valid by
        construction: the readers and ``from_edges`` have checked each rule
        once, or the edges were derived from a value that was checked."""
        h = object.__new__(cls)
        h.__dict__.update(n=n, edges=edges, edge_labels=edge_labels)
        return h

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]], strict: bool = True) -> "Hypergraph":
        """Normalize ``edges`` (sorting each) and build a hypergraph.

        Duplicate edges raise :class:`DuplicateEdgeError` when ``strict``,
        otherwise later copies are dropped with a :class:`FormatWarning`.
        """
        out = tuple(tuple(sorted(set(raw))) for raw in edges)
        unique = _distinct(out, strict)
        # A sorted edge lies in range when its two ends do.
        if unique is not None and n >= 0 and all(e and not (e[0] < 0 or e[-1] >= n) for e in unique):
            return cls._unchecked(n, unique)
        # Some rule fails: the full check raises for the first fault.
        return cls(n, out if unique is None else unique)

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

    @cached_property
    def _covered(self) -> frozenset[int]:
        """The vertices that lie in some edge."""
        return frozenset(chain.from_iterable(self.edges))


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
    # edge only needs comparing against the maximal sets of larger size, the
    # ones found before its size group in descending order.
    order = sorted(range(len(edge_sets)), key=lambda i: -len(edge_sets[i]))
    maximal: list[int] = []
    larger: list[frozenset[int]] = []
    for _, group in groupby(order, key=lambda i: len(edge_sets[i])):
        found = [i for i in group if not any(edge_sets[i] < s for s in larger)]
        maximal += found
        larger += (edge_sets[i] for i in found)
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
    seen = h._covered
    if len(seen) < h.n:
        v = next(v for v in range(h.n) if v not in seen)
        raise IsolatedVertexError("vertex {} lies in no edge", v)


def _distinct(edges: tuple[tuple[int, ...], ...], strict: bool) -> tuple[tuple[int, ...], ...] | None:
    """``edges`` under the duplicate-edge rule: ``None`` when ``strict`` and
    some edge repeats, which the full check then names, otherwise the edges
    with later copies dropped (with a :class:`FormatWarning` to the caller's
    caller)."""
    unique = tuple(dict.fromkeys(edges))
    if len(unique) == len(edges):
        return edges
    if strict:
        return None
    warnings.warn(f"merged {len(edges) - len(unique)} duplicate edge(s)", FormatWarning, stacklevel=3)
    return unique


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
    # Incidence rows are ascending edge ids, nonempty and merged when equal.
    return Hypergraph._unchecked(h.m, edges, labels)


CHECK_KINDS = ("edge-cover", "independent-set", "transversal", "matching")


def check(h: HypergraphLike, kind: str, ids: Iterable[int]) -> bool:
    """Validate a candidate solution against the plain definition.

    ``ids`` are edge ids for ``edge-cover``/``matching`` and vertex ids for
    ``independent-set``/``transversal``.  Unknown ids raise
    :class:`IdOutOfRangeError`; an unknown ``kind`` raises
    :class:`ParameterError`.
    """
    chosen = sorted(set(ids))
    whole = isinstance(h, Hypergraph)
    # The edge tuples of a whole hypergraph, not a frozenset per edge; and a
    # range, not a set of n objects: a tiny file may declare a huge n.
    edges = h.edges if whole else h.traces
    universe = range(h.n) if whole else frozenset(h.vertices)
    if kind in ("edge-cover", "matching"):
        for i in chosen:
            if not 0 <= i < len(edges):
                raise IdOutOfRangeError("edge id {} outside {}..{}", i, 0, len(edges) - 1)
        taken = [edges[i] for i in chosen]
        covered = set().union(*taken)
        if kind == "edge-cover":
            # Every edge lies inside the vertex set, so equal sizes suffice.
            return len(covered) == len(universe)
        # Pairwise disjoint exactly when no vertex is counted twice.
        return len(covered) == sum(map(len, taken))
    if kind in ("independent-set", "transversal"):
        for x in chosen:
            if x not in universe:
                raise IdOutOfRangeError("vertex id {} not in the hypergraph", x)
        picked = frozenset(chosen)
        if kind == "independent-set":
            return all(len(picked.intersection(e)) <= 1 for e in edges)
        return not any(map(picked.isdisjoint, edges))
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


def _trace_words(sets: Iterable[frozenset[int]], cand: tuple[int, ...]) -> set[int]:
    """The traces of ``sets`` on ``cand`` as membership words (bit i for
    ``cand[i]``), gathered until all 2^|cand| of them are there."""
    bit = {v: i for i, v in enumerate(cand)}
    full = 1 << len(cand)
    words: set[int] = set()
    for eset in sets:
        w = 0
        for v in eset:
            if v in bit:
                w |= 1 << bit[v]
        words.add(w)
        if len(words) == full:
            break
    return words


def shatter_check(h: HypergraphLike, subset: Iterable[int]) -> ShatterWitness:
    """Is every subset of ``subset`` (including the empty set) a trace?"""
    s = tuple(sorted(set(subset)))
    for x in s:
        _require_vertex(h, x)
    words = _trace_words(h.edge_sets, s)
    if len(words) == 1 << len(s):
        return ShatterWitness(s, True, None)
    for chosen, word in _lex_subsets(s):
        if word not in words:
            return ShatterWitness(s, False, chosen)
    raise AssertionError("unreachable: fewer words than subsets yet none missing")


def vc_dimension(h: HypergraphLike) -> tuple[int, ShatterWitness]:
    """Largest size of a shattered vertex set, with a witness.

    With no edges at all, nothing (not even the empty set) is shattered;
    the result is then ``0`` with a witness flagged ``shattered=False``.

    Raises:
        TooLargeError: more vertices than ``VC_DEFAULT_CAP``.
    """
    universe = range(h.n) if isinstance(h, Hypergraph) else h.vertices
    if len(universe) > VC_DEFAULT_CAP:
        raise TooLargeError(f"{len(universe)} vertices exceed the cap of {VC_DEFAULT_CAP}")
    sets = h.edge_sets
    if not sets:
        return 0, ShatterWitness((), False, ())
    # A shattered k-set needs 2^k distinct traces and m edges supply at most
    # m of them, so sizes above log2(m) cannot occur.
    top = min(len(universe), len(sets).bit_length() - 1)
    for k in range(top, -1, -1):
        for cand in combinations(universe, k):
            if len(_trace_words(sets, cand)) == 1 << k:
                return k, ShatterWitness(cand, True, None)
    raise AssertionError("unreachable: the empty set is shattered whenever edges exist")


_FIRST = operator.itemgetter(0)
_LAST = operator.itemgetter(-1)


def _data_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """Line number and tokens of every line that is neither blank nor a
    comment (``#...`` or a DIMACS ``c`` line)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and tokens[0] != "c" and tokens[0][0] != "#":
            yield lineno, tokens


def _decimals(tokens: list[str]) -> list[int]:
    """The integers that ``tokens`` spell with the digits 0-9 alone.

    Raises:
        ValueError: some token holds anything else.  ``int`` alone would
            also take a sign, ``_`` separators and non-ASCII digits.
        OverflowError: some token has more significant digits than ``int``
            converts (CPython's limit, 4,300 by default), so it exceeds
            every count and id; its argument is that digit count.
    """
    joined = "".join(tokens)
    if not (joined.isascii() and joined.isdigit()):
        raise ValueError(f"not a decimal number: {tokens!r}")
    try:
        return list(map(int, tokens))
    except ValueError:
        # Only the limit fails here, and leading zeros count toward it.
        significant = [token.lstrip("0") or "0" for token in tokens]
        try:
            return list(map(int, significant))
        except ValueError:
            raise OverflowError(max(map(len, significant))) from None


def _read_header(lines: Iterator[tuple[int, list[str]]], tag: str) -> tuple[int, int]:
    """The vertex and edge counts of the ``p <tag> <n> <m>`` line that must
    open ``lines`` (from :func:`_data_lines`)."""
    grammar = f"'p {tag} <n> <m>'"
    lineno, tokens = next(lines, (0, []))
    if not tokens:
        raise FormatError(f"missing header {grammar}")
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != tag:
        raise FormatError(f"line {lineno}: expected header {grammar}")
    try:
        n, m = _decimals(tokens[2:])
    except ValueError:
        raise FormatError(f"line {lineno}: header counts must be written with the digits 0-9") from None
    except OverflowError:
        n = m = sys.maxsize + 1  # too many digits to convert, so past the bound
    if max(n, m) > sys.maxsize:
        raise FormatError(f"line {lineno}: header counts must not exceed {sys.maxsize}")
    return n, m


def _check_edge_count(announced: int, found: int) -> None:
    if found != announced:
        raise FormatError(f"header announced {announced} edges but {found} appeared")


def _read_bulk(text: str) -> tuple[int, tuple[tuple[int, ...], ...]] | None:
    """The vertex count and edges of ``text`` when it is the header line
    ``p hg <n> <m>`` and ``m`` lines ``e <v1> ... <vk>`` of ASCII digits
    and single spaces, each id in 1..n and none repeated in its line;
    ``None`` for any other text, which :func:`_read_lines` then reads: a
    comment, a tab, CRLF, a blank or empty line, an id too long to convert,
    out of range or repeated, a wrong count.  So every warning and error of
    that reader comes from it alone."""
    header, sep, body = text.partition("\ne ")
    tokens = header.split(" ")
    if len(tokens) != 4 or tokens[0] != "p" or tokens[1] != "hg" or not sep:
        return None
    # 1 to 18 digits each: below sys.maxsize, the bound of a count.
    if not all(count.isascii() and count.isdigit() and len(count) <= 18 for count in tokens[2:]):
        return None
    n, m = int(tokens[2]), int(tokens[3])
    if body.endswith("\n"):
        body = body[:-1]
    # Digits and single spaces alone, once the line breaks and tags are out:
    # deleting those bytes leaves nothing.
    flat = body.replace("\ne ", " ")
    if not (flat and flat.isascii()) or flat.encode().translate(None, b"0123456789 "):
        return None
    if "  " in flat or flat[0] == " " or flat[-1] == " ":
        return None
    lines = body.split("\ne ")
    if len(lines) != m:
        return None
    try:
        edges = tuple([tuple(sorted({int(v) - 1 for v in line.split(" ")})) for line in lines])
    except ValueError:
        return None  # an id past int's digit limit
    # Sorted edges: their ends bound the ids, and their sizes add up to the
    # number of ids only when no line repeats one.
    if sum(map(len, edges)) != flat.count(" ") + 1 or min(map(_FIRST, edges)) < 0 or max(map(_LAST, edges)) >= n:
        return None
    return n, edges


def _read_lines(text: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The vertex count and edges of any ``.hg`` text, read line by line.

    Raises and warns as :func:`parse_hypergraph` documents, naming the line.
    """
    lines = _data_lines(text)
    n, m = _read_header(lines, "hg")
    edges: list[tuple[int, ...]] = []
    for lineno, tokens in lines:
        if tokens[0] != "e":
            raise FormatError(f"line {lineno}: expected an 'e' line")
        if len(tokens) == 1:
            raise EmptyEdgeError(f"line {lineno}: edge with no vertices")
        try:
            ids = _decimals(tokens[1:])
        except ValueError:
            raise FormatError(f"line {lineno}: vertex ids must be written with the digits 0-9") from None
        except OverflowError as exc:
            raise VertexOutOfRangeError(f"line {lineno}: a vertex id of {exc} digits lies outside 1..{n}") from None
        # The canonical edge, whose two ends bound its range.
        edge = tuple(sorted({v - 1 for v in ids}))
        if edge[0] < 0 or edge[-1] >= n:
            v = next(v for v in ids if not 1 <= v <= n)
            raise VertexOutOfRangeError(f"line {lineno}: vertex {v} outside 1..{n}")
        if len(edge) != len(ids):
            warnings.warn(f"line {lineno}: repeated vertex inside an edge", FormatWarning, stacklevel=3)
        edges.append(edge)
    _check_edge_count(m, len(edges))
    return n, tuple(edges)


def parse_hypergraph(text: str, strict: bool = True) -> Hypergraph:
    """Read the ``.hg`` text format.

    A text of the header and ``e`` lines alone, as :func:`format_hypergraph`
    writes it, is read in bulk (:func:`_read_bulk`).  Any other text goes to
    the per-line reader, :func:`_read_lines`, which reports every fault of
    the header or a line, with its line number: the bulk reader raises and
    warns nothing.  The rule on duplicate edges, which names no line, is
    applied here after either reader.

    Raises:
        FormatError: malformed header or line grammar.
        EmptyEdgeError: an ``e`` line without vertices.
        VertexOutOfRangeError: a vertex id outside ``1..n``.
        DuplicateEdgeError: a repeated edge in strict mode; lenient mode
            merges repeats and emits a :class:`FormatWarning`.
    """
    n, found = _read_bulk(text) or _read_lines(text)
    unique = _distinct(found, strict)
    # Every edge passed its checks in the reader; the full check names a
    # strict repeat.
    return Hypergraph(n, found) if unique is None else Hypergraph._unchecked(n, unique)


def format_hypergraph(h: Hypergraph) -> str:
    """Write the ``.hg`` text format (1-based, byte-stable)."""
    lines = [f"p hg {h.n} {h.m}"]
    for edge in h.edges:
        lines.append("e " + " ".join(str(v + 1) for v in edge))
    return "\n".join(lines) + "\n"
