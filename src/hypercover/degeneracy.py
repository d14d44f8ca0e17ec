"""Degeneracy-style parameters, each given by a removal move: deleting a
vertex, or strong removal, deleting it with all vertices of its edges.

``_peel``, the one peeling engine, pops a vertex of minimum degree (smallest
id on ties) and applies the move until none is left: ``strong_degeneracy``
(maximal traces through the vertex) and ``degeneracy`` (distinct traces)
delete it, the greedy cover strongly removes it.  ``_best_restriction``,
the one exhaustive search, scores every restriction the move reaches: the
complements of the unions of singletons {v} (``strong_degeneracy_bf``) or
of closed neighborhoods N[v] = {v} plus every edge through v
(``mighty_degeneracy_bf``).  No subexponential algorithm is known for the
mighty value, hence the caps.

The greedy cover knows bounds on the mighty value before it needs it (see
:mod:`hypercover.cover`): its largest step below, the strong degeneracy
above.  It hands them to the search as a floor and a ceiling.  Strong degree
never rises under deletion (each maximal trace of a smaller restriction lies
in its own maximal trace of the larger one), so every restriction whose
minimum strong degree beats the floor lies inside the strong core one above
the floor (Matula and Beck's core argument), and the search scores only
those; it stops at the ceiling.  The public searches take neither bound and
score everything: they share nothing with the engine, so tests can use them
as references for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._trace_index import TraceIndex
from .core import Hypergraph
from .errors import CertificateError, TooLargeError

STRONG_BF_CAP = 12
MIGHTY_BF_CAP = 14


@dataclass(frozen=True)
class EliminationOrder:
    """A peeling order together with the minimum degree seen at each step."""

    order: tuple[int, ...]
    step_values: tuple[int, ...]

    @property
    def value(self) -> int:
        return max(self.step_values, default=0)


def _peel(h: Hypergraph, strong: bool, strong_removal: bool = False) -> tuple[EliminationOrder, list[int]]:
    """Pop a vertex of minimum strong (or plain) degree and delete it, or with
    ``strong_removal`` strongly remove it, until no vertex is left.  Returns
    the popped vertices with their degrees and the representatives of the
    maximal traces removed.  Vertices in no edge have degree 0 throughout,
    any other at least 1, so they come first and never enter the index."""
    seen = h._covered
    order = [v for v in range(h.n) if v not in seen] if len(seen) < h.n else []
    values = [0] * len(order)
    ids = sorted(seen) if order else range(h.n)
    if order:
        # Renumbering in id order keeps every tie; edge ids stay put.
        local = {v: i for i, v in enumerate(ids)}
        h = Hypergraph(len(ids), tuple(tuple(local[v] for v in e) for e in h.edges))
    index = TraceIndex(h, strong=strong)
    taken: list[int] = []
    while (entry := index.pop_min()) is not None:
        d, x = entry
        order.append(ids[x])
        values.append(d)
        gone: tuple[int] | set[int] = (x,)  # a tuple unpacks faster than a set
        if strong_removal:
            pairs = index.maximal_traces_at(x)
            if d < 1 or len(pairs) != d:
                raise CertificateError(f"vertex {ids[x]} has strong degree {d} but {len(pairs)} maximal traces")
            gone = {x}
            for rep, trace in pairs:
                taken.append(rep)
                gone |= trace
        index.delete_vertex(*gone)
    return EliminationOrder(tuple(order), tuple(values)), taken


def strong_degeneracy(h: Hypergraph) -> EliminationOrder:
    """Peel the minimum-strong-degree vertex (smallest id on ties) until no
    vertex remains."""
    return _peel(h, strong=True)[0]


def degeneracy(h: Hypergraph) -> EliminationOrder:
    """Plain-degree analog of :func:`strong_degeneracy`."""
    return _peel(h, strong=False)[0]


def _maximal_traces(traces: set[int]) -> list[int]:
    """The inclusion-maximal members of ``traces`` (nonempty masks), largest
    first: a trace inside another lies in a maximal one kept before it."""
    maximal: list[int] = []
    for t in sorted(traces, key=int.bit_count, reverse=True):
        if all(t | u != u for u in maximal):
            maximal.append(t)
    return maximal


def _min_strong_degree(edge_masks: list[int], subset_mask: int, floor: int) -> int:
    """Minimum, over the vertices of ``subset_mask``, of the number of
    maximal traces containing the vertex; any value up to ``floor`` once the
    minimum is known not to exceed it."""
    traces = {mask & subset_mask for mask in edge_masks} - {0}
    if len(traces) <= floor:
        return floor
    maximal = _maximal_traces(traces)
    best = len(maximal)
    rest = subset_mask
    while rest and best > floor:
        bit = rest & -rest
        rest ^= bit
        best = min(best, sum(1 for t in maximal if t & bit))
    return best


def _strong_core(edge_masks: list[int], subset_mask: int, k: int) -> int:
    """The strong ``k``-core of the restriction to ``subset_mask``: its
    largest subset in which every vertex has strong degree at least ``k``.
    Strong degree never rises under deletion, so a vertex below ``k`` lies
    in no such subset, and deleting every one of them until none is left
    reaches the core."""
    core = subset_mask
    while core:
        traces = {mask & core for mask in edge_masks} - {0}
        if len(traces) < k:
            return 0
        maximal = _maximal_traces(traces)
        low = 0
        rest = core
        while rest:
            bit = rest & -rest
            rest ^= bit
            if sum(1 for t in maximal if t & bit) < k:
                low |= bit
        if not low:
            break
        core ^= low
    return core


def _best_restriction(
    h: Hypergraph, max_vertices: int, strong_removal: bool, floor: int = 0, ceiling: int | None = None
) -> int:
    """Maximum of the minimum strong degree over every nonempty restriction
    reachable by deleting vertices, or by strong removal.

    ``floor`` must be a value some reachable restriction attains and
    ``ceiling`` one none exceeds; the search then scores only restrictions
    inside the strong ``(floor + 1)``-core, the only ones that can beat the
    floor, and stops once it reaches the ceiling."""
    if h.n > max_vertices:
        raise TooLargeError(f"{h.n} vertices exceed the cap of {max_vertices}")
    if floor == ceiling:
        return floor
    masks = [sum(1 << v for v in e) for e in h.edges]
    full = (1 << h.n) - 1
    # A restriction that beats the floor drops every vertex outside the core.
    # The public searches (floor 0) score every restriction.
    outside = full ^ _strong_core(masks, full, floor + 1) if floor else 0
    if outside == full:
        return floor
    # What one move drops: {v}, or N[v] under strong removal.
    drops = [1 << v for v in range(h.n)]
    if strong_removal:
        for e, mask in zip(h.edges, masks):
            for v in e:
                drops[v] |= mask
    # Every union of drops, the empty one (keep everything) included.
    gone = {0}
    for drop in drops:
        gone |= {g | drop for g in gone}
    best = floor
    for g in gone:
        if g & outside == outside and g != full:
            best = max(best, _min_strong_degree(masks, full & ~g, best))
            if best == ceiling:
                break
    return best


def strong_degeneracy_bf(h: Hypergraph, max_vertices: int = STRONG_BF_CAP) -> int:
    """Exhaustive maximum of the minimum strong degree over every nonempty
    induced restriction.

    Raises:
        TooLargeError: more vertices than ``max_vertices``.
    """
    return _best_restriction(h, max_vertices, strong_removal=False)


def mighty_degeneracy_bf(h: Hypergraph, max_vertices: int = MIGHTY_BF_CAP) -> int:
    """Exhaustive maximum of the minimum strong degree over every nonempty
    restriction reachable by strong removal, the empty removal included.

    Raises:
        TooLargeError: more vertices than ``max_vertices``.
    """
    return _best_restriction(h, max_vertices, strong_removal=True)
