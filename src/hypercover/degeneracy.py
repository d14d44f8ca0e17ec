"""Degeneracy-style parameters, each given by a removal move: deleting a
vertex, or strong removal, deleting it with all vertices of its edges.

``_peel``, the one peeling engine, pops a vertex of minimum degree (smallest
id on ties) and applies the move until none is left: ``strong_degeneracy``
(maximal traces through the vertex) and ``degeneracy`` (distinct traces)
delete it, in one loop inside the index (``TraceIndex.peel``), and the
greedy cover strongly removes it.  ``_best_restriction``,
the one exhaustive search, maximises the minimum strong degree over the
restrictions strong removal reaches: what is left after removing a union
of closed neighborhoods N[v] = {v} plus every edge through v
(``mighty_degeneracy_bf``).

Strong degree never rises under deletion (each maximal trace of a smaller
restriction lies in its own maximal trace of the larger one), so a
restriction whose minimum strong degree is at least k lies inside the
strong k-core of every restriction that holds it (Matula and Beck's core
argument).  The search rests on that fact alone: for k = 1, 2, ... it peels
the core of what is left and branches on one vertex outside it, over the
closed neighborhoods that hold it.  No subexponential algorithm is known
for the mighty value, hence its cap.

The same fact gives the strong degeneracy as the largest k whose strong
k-core is nonempty.  ``strong_degeneracy_bf`` peels these cores over vertex
masks, each from the one below it.  ``_strong_degeneracy`` finds the value
on the engine's index, in batches: it raises k to the minimum degree of
what is left, deletes every vertex of degree at most k in one call, and
stops at the batch that takes all that is left.  The greedy cover uses it
for its bound, which it checks its own steps against.  Before its first
deletion it takes its index's seed (``TraceIndex.seed``): the ids of the
maximal edges, their hashes and a copy of the witness pairs of its build.
The greedy's build starts from that seed, with no hash loop and no
dominance pass; it holds only in ``h``'s own numbering, which the greedy
keeps, as every vertex of its input lies in an edge.  The greedy's loop
stops at the step that takes all that is left, before its deletion, since
nothing reads the index after it.

The greedy cover knows bounds on the mighty value before it needs it (see
:mod:`hypercover.cover`): its largest step below, the strong degeneracy
above.  It hands them to the search as a floor and a ceiling: k starts one
above the floor, and the search stops at the ceiling.  The public searches
take neither bound.  They share nothing with the engine, so tests can use
them as references for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._trace_index import Seed, TraceIndex
from .core import Hypergraph
from .errors import TooLargeError

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


def _peel(
    h: Hypergraph, strong: bool, strong_removal: bool = False, seed: Seed | None = None
) -> tuple[EliminationOrder, list[int]]:
    """Pop a vertex of minimum strong (or plain) degree and delete it, or with
    ``strong_removal`` strongly remove it, until no vertex is left.  Returns
    the popped vertices with their degrees and the representatives of the
    maximal traces removed.  Vertices in no edge have degree 0 throughout,
    any other at least 1, so they come first and never enter the index.
    ``seed``, handed over by a strong index of ``h`` before its first
    deletion, spares a strong build its hash loop and dominance pass (see
    :class:`TraceIndex`); it holds only in ``h``'s own vertex numbering."""
    seen = h._covered
    order = [v for v in range(h.n) if v not in seen] if len(seen) < h.n else []
    values = [0] * len(order)
    ids = sorted(seen) if order else range(h.n)
    if order:
        assert seed is None, "a seed holds only in the numbering it was built in"
        # Renumbering in id order keeps every tie, and every edge sorted and
        # distinct; edge ids stay put.
        local = {v: i for i, v in enumerate(ids)}
        h = Hypergraph._unchecked(len(ids), tuple(tuple(local[v] for v in e) for e in h.edges))
    index = TraceIndex(h, strong=strong, seed=seed)
    if not strong_removal:
        popped, degrees = index.peel()
        order += map(ids.__getitem__, popped)
        return EliminationOrder(tuple(order), (*values, *degrees)), []
    taken: list[int] = []
    live = h.n
    while (entry := index.pop_min()) is not None:
        d, x = entry
        order.append(ids[x])
        values.append(d)
        gone = {x}
        for rep, trace in index.maximal_traces_at(x):
            taken.append(rep)
            gone |= trace
        if len(gone) == live:
            # The step takes all that is left, and nothing reads the index
            # after it.
            break
        index._delete(gone)
        live -= len(gone)
    return EliminationOrder(tuple(order), tuple(values)), taken


def strong_degeneracy(h: Hypergraph) -> EliminationOrder:
    """Peel the minimum-strong-degree vertex (smallest id on ties) until no
    vertex remains."""
    return _peel(h, strong=True)[0]


def degeneracy(h: Hypergraph) -> EliminationOrder:
    """Plain-degree analog of :func:`strong_degeneracy`."""
    return _peel(h, strong=False)[0]


def _strong_degeneracy(h: Hypergraph) -> tuple[int, Seed]:
    """The strong degeneracy, the largest k whose strong k-core is nonempty,
    and the seed of the index's build (see :meth:`TraceIndex.seed`), taken
    before its first deletion.  Each round pops a vertex of minimum degree,
    raises k to it, and deletes every vertex of degree at most k in one
    call; the round whose batch is all that is left ends it."""
    index = TraceIndex(h, strong=True)
    seed = index.seed()
    k = 0
    live = h.n
    while (entry := index.pop_min()) is not None:
        d, x = entry
        k = max(k, d)
        gone = index.pop_at_most(k)
        gone.append(x)
        if len(gone) == live:
            break
        index._delete(gone)
        live -= len(gone)
    return k, seed


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
        # The maximal traces, largest first: a trace inside another finds a kept one holding it.
        maximal: list[int] = []
        for t in sorted(traces, key=int.bit_count, reverse=True):
            if all(t | u != u for u in maximal):
                maximal.append(t)
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


def _reaches(edge_masks: list[int], drops: list[int], full: int, k: int) -> bool:
    """Whether removing some union of ``drops`` from ``full`` leaves a
    nonempty restriction of minimum strong degree at least ``k``.  It lies
    in the strong ``k``-core of all that is left at each step on its way,
    so the depth-first search takes the smallest vertex outside that core
    and tries each drop that removes it."""
    stack = [(0, full)]  # a removed set, and a superset of the core it leaves
    seen = {0}
    while stack:
        gone, start = stack.pop()
        core = _strong_core(edge_masks, start, k)
        if not core:
            continue
        outside = full ^ gone ^ core
        if not outside:
            return True
        v = outside & -outside
        for drop in drops:
            if drop & v and (after := gone | drop) not in seen:
                seen.add(after)
                stack.append((after, core & ~drop))
    return False


def _best_restriction(h: Hypergraph, floor: int = 0, ceiling: int | None = None) -> int | None:
    """Maximum of the minimum strong degree over every nonempty restriction
    reachable by strong removal, or ``None`` above ``MIGHTY_BF_CAP`` vertices.

    ``floor`` must be a value some reachable restriction attains and
    ``ceiling`` one none exceeds.  Each k from ``floor + 1`` on is tried in
    turn until none reaches it or the ceiling is met."""
    if h.n > MIGHTY_BF_CAP:
        return None
    if floor == ceiling:
        return floor
    masks = [sum(1 << v for v in e) for e in h.edges]
    drops = [1 << v for v in range(h.n)]  # grows to N[v], what strongly removing v drops
    for e, mask in zip(h.edges, masks):
        for v in e:
            drops[v] |= mask
    best = floor
    while best != ceiling and _reaches(masks, drops, (1 << h.n) - 1, best + 1):
        best += 1
    return best


def strong_degeneracy_bf(h: Hypergraph) -> int:
    """Exhaustive maximum of the minimum strong degree over every nonempty
    induced restriction: the largest k whose strong k-core is nonempty.

    Raises:
        TooLargeError: more vertices than ``STRONG_BF_CAP``.
    """
    if h.n > STRONG_BF_CAP:
        raise TooLargeError(f"{h.n} vertices exceed the cap of {STRONG_BF_CAP}")
    masks = [sum(1 << v for v in e) for e in h.edges]
    core, k = (1 << h.n) - 1, 0
    # The (k + 1)-core lies inside the k-core, so each peel starts there.
    while core := _strong_core(masks, core, k + 1):
        k += 1
    return k


def mighty_degeneracy_bf(h: Hypergraph) -> int:
    """Exhaustive maximum of the minimum strong degree over every nonempty
    restriction reachable by strong removal, the empty removal included.

    Raises:
        TooLargeError: more vertices than ``MIGHTY_BF_CAP``.
    """
    if (value := _best_restriction(h)) is None:
        raise TooLargeError(f"{h.n} vertices exceed the cap of {MIGHTY_BF_CAP}")
    return value
