"""Incremental index of the traces of a hypergraph under vertex deletions.

Peeling and the greedy cover both repeatedly ask for the vertex whose
degree (plain or strong) is minimal in the current restriction, then delete
vertices.  Recomputing the restriction from scratch after every deletion is
quadratic; this index keeps the traces that count and, for each vertex, the
row of those through it, whose size is the vertex's degree.  A plain index
keeps every distinct trace; a strong index keeps only the maximal ones.

Each trace has a stable integer id (at build time, the id of the edge that
generates it) holding a mutable member set and a 64-bit XOR of per-vertex
random keys (Zobrist hashing).  Deleting a set ``R`` shrinks each trace
meeting ``R`` in place, once: discarding a member and XOR-ing its key out
are O(1) and the id stays, so no other vertex's row changes.  Two rules,
each in one method, then settle each shrunk trace:

* the filing rule, ``_merges``, files it under its hash in a table that
  holds the first id per hash and, once a second id shares that hash, the
  list of all that do.  Equal traces share a hash, so a hit confirmed by an
  exact member-set compare finds a trace that became equal to a filed one,
  and the shrunk trace is dropped;
* the strong re-check rule, ``_dominated``, drops it if a kept trace lies
  strictly above it.

``_settle`` applies them to the traces a ``delete_vertex`` call shrank, the
build to every edge, and ``peel`` to each trace as it shrinks.

A plain index keeps one table for good, since a shrunk trace may equal one
that missed ``R``.  It only ever appends: a shrunk trace is filed again
under its new hash and its old entry goes stale, so the table holds at most
``m`` ids plus one per shrink, and the set compare turns every stale hit
away.  Its build files every edge.  A strong index passes a fresh table to
each ``delete_vertex`` call (the third fact below), and its build files
nothing: base edges are distinct, so no two are equal.

A strong index rests on three facts about deleting a set ``R``:

* only maximal traces are kept: the build drops every edge strictly inside
  another, and a deletion drops every shrunk trace that became equal to,
  or strictly inside, another;
* a dropped trace never returns, as ``t < u`` gives ``t - R <= u - R``: a
  trace inside another stays inside it, or inside what it merged into;
* equal pairs arise only among shrunk traces: a kept trace that missed
  ``R`` was not inside any trace, so it is not inside or equal to what one
  shrank to.  It keeps its status, and only the shrunk survivors are
  re-checked, each by a scan of the traces through two of its members.

When ``R`` is one vertex ``x``, no two shrunk traces become equal, since
``t - x = u - x`` with ``x`` in both forces ``t = u``, and a shrunk trace
lies strictly inside a trace ``u`` through ``x`` only if ``t < u`` held
before.  So a shrunk trace can only merge into, or lie inside, a trace that
missed ``x``, which the step leaves as it was.  ``peel`` rests on this: it
runs the whole one-vertex peel of ``strong_degeneracy`` and ``degeneracy``
as one loop, settles each trace as soon as it shrinks, and in a strong
index files nothing.  A step costs one heap pop, O(1) plus one settling
rule per kept trace through ``x``, |t| per dropped trace and one heap push
per vertex whose degree fell: what ``delete_vertex(x)`` costs, without a
table and a set of touched traces per step.  ``delete_vertex`` serves the
batched bound peel, the greedy cover's strong removals and the tests.

A deletion thus costs the sum over ``x`` in ``R`` of the kept traces
through ``x``, plus one table lookup per shrunk trace, plus |t| per dropped
trace, plus, in a strong index, one dominance check per shrunk survivor
``t``.  The check intersects, in C, the rows of the first two members of
``t`` and tests each trace in both; while one of those rows holds at most
``8|t|`` traces, it costs O(|t|), and far less when the intersection is
``{t}`` alone, as it almost always is.  Otherwise the two members are
shared by many traces (a sunflower's kernel): a walk over the other members
finds the shortest row, and one probe of that row comes before its scan.
``set.pop`` starts where the last pop of the same row stopped, so the probe
passes only the empty slots between there and the next live trace, while a
scan starts at the first slot and passes every empty slot that dropped ids
left in the row's table.  When the probe, taken past ``t`` itself, holds a
superset, the check costs O(|t|) plus that pass.  Otherwise it also costs
the scan: the row's live traces plus its empty slots, up to the row's peak
size, so a long row that holds few supersets is still a slow case.  In the
sunflower with kernel {0, 1}, every petal's check ends at the probe, and the
strong peel of 160,000 petals takes about 1 s of CPU time instead of
11.5 s (CPython 3.11, 2-core VM).  Dropped traces cost nothing again.  A
strong build checks every edge the same way to drop the edges inside
others, unless it is handed the ids of the maximal edges, which
``trace_ids()`` of another strong index of the same hypergraph lists before
its first deletion.

No representative is stored.  The one of a kept trace, the smallest base
edge generating it, is found on demand by ``maximal_traces_at`` and
``traces()``: the first edge, in the base incidence row of one of its
members, that holds the trace and no other live vertex.

``pop_min`` hands out one vertex of minimum degree; ``pop_at_most(k)`` every
live vertex of degree at most ``k``, the batch of a core peel.  Degrees never
rise under deletion, so each live vertex has exactly one current heap entry.
``delete_vertex`` checks every id before it changes anything.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from heapq import heappop, heappush

from .core import Hypergraph
from .errors import CertificateError


# One key table per process, shared by every index and only ever extended:
# seeding a generator per build costs about as much as a whole build of a
# small input.  Any keys give correct results, because a hash hit is always
# confirmed by comparing member sets; fixed keys keep the cost repeatable.
_KEYS: list[int] = []
_KEY_SOURCE = random.Random(0x5EED)


# A strong re-check of a shrunk trace t intersects the rows of its first two
# members only when one of them holds at most this many traces per member of
# t.  A set intersection visits each entry of the shorter row in C, about an
# order of magnitude faster than a step of a Python loop, so it then costs
# about what the walk over t's members does, and no check costs more than a
# constant times that walk.  Unguarded, two members shared by many traces,
# like the kernel of a sunflower, would cost their shared degree at every
# shrink of every trace through them: quadratic over a peel.
_PAIR_ROWS = 8


def _zobrist_keys(n: int) -> list[int]:
    """At least ``n`` 64-bit keys, one per vertex id; key ``i`` is the
    ``i``-th draw of a fixed-seed generator."""
    if len(_KEYS) < n:
        _KEYS.extend(_KEY_SOURCE.getrandbits(64) for _ in range(n - len(_KEYS)))
    return _KEYS


class TraceIndex:
    """Mutable view of the traces of ``h`` on a shrinking vertex set.

    With ``strong=True`` only the maximal traces are kept, so the degree of
    a vertex is the number of maximal traces containing it; otherwise every
    distinct trace is kept and the degree is the plain one.
    """

    def __init__(self, h: Hypergraph, strong: bool = True, maximal: list[int] | None = None):
        """Index the traces of ``h``.  ``maximal`` may hand a strong build
        the ids of the maximal edges of ``h``, as ``trace_ids()`` of another
        strong index of ``h`` lists them before its first deletion: the build
        then keeps those edges and drops the rest without a dominance pass."""
        self.strong = strong
        self.alive = [True] * h.n
        self._h = h
        keys = self._keys = _zobrist_keys(h.n)
        # Per trace id; a dropped id has members None.  Base edges are
        # distinct, so edge i starts as trace i.
        edges = h.edges
        kept = range(h.m) if maximal is None else maximal
        members: list[set[int] | None] = [None] * h.m
        for t in kept:
            members[t] = set(edges[t])
        self._members = members
        hashes = self._hash = [0] * h.m
        vertex_traces = self._vertex_traces = [set() for _ in range(h.n)]
        for t in kept:
            code = 0
            for v in edges[t]:
                vertex_traces[v].add(t)
                code ^= keys[v]
            hashes[t] = code
        if not strong:
            # A shrunk trace may equal one that missed the deletion, so a
            # plain index keeps every trace filed, for good.  Base edges are
            # distinct, so none merges here.
            filed = self._filed = ({}, {})
            merges = self._merges
            for t in kept:
                merges(t, members[t], filed)
        elif maximal is None:
            # Base edges are distinct, so none is filed.  Any order works:
            # what lies above a dropped edge lies in a kept one.
            dominated = self._dominated
            for t in kept:
                if dominated(t, members[t]):
                    self._drop(t)
        self._heap: list[tuple[int, int]] = [(len(row), v) for v, row in enumerate(vertex_traces)]
        self._heap.sort()

    @property
    def deg(self) -> list[int]:
        """The degree of each vertex: the size of its row, 0 once deleted."""
        return [len(row) for row in self._vertex_traces]

    def _drop(self, t: int) -> set[int]:
        """Remove ``t`` from its members' rows, for good; returns the members."""
        s, self._members[t] = self._members[t], None
        vertex_traces = self._vertex_traces
        for v in s:
            vertex_traces[v].discard(t)
        return s

    def _representative(self, t: int, v: int) -> int:
        """The smallest base edge generating kept trace ``t``, a member of
        which is ``v``: the first edge through ``v`` holding every member of
        ``t`` and no other live vertex.

        Raises:
            CertificateError: no base edge generates ``t``.
        """
        s = self._members[t]
        alive = self.alive
        edges = self._h.edges
        for e in self._h.incidence[v]:
            live = [w for w in edges[e] if alive[w]]
            if len(live) == len(s) and s.issuperset(live):
                return e
        raise CertificateError(f"no edge generates the trace {sorted(s)}")

    def trace_ids(self) -> list[int]:
        """The ids of the kept traces, ascending.  Before the first deletion
        these are the ids of the edges the build kept: for a strong index,
        the maximal edges of ``h``."""
        return [t for t, s in enumerate(self._members) if s is not None]

    def traces(self) -> dict[frozenset[int], int]:
        """Snapshot of the kept traces, each with its representative: with
        ``strong=True`` the maximal traces, otherwise every distinct one."""
        return {
            frozenset(s): self._representative(t, min(s))
            for t, s in enumerate(self._members)
            if s is not None
        }

    def pop_min(self) -> tuple[int, int] | None:
        """Smallest (degree, vertex) pair among live vertices, or ``None``."""
        heap = self._heap
        while heap:
            d, v = heappop(heap)
            if self.alive[v] and len(self._vertex_traces[v]) == d:
                return d, v
        return None

    def pop_at_most(self, k: int) -> list[int]:
        """Pop every live vertex of degree at most ``k``, in (degree, vertex)
        order.  Each live vertex has one current heap entry, so none repeats."""
        heap = self._heap
        alive = self.alive
        vertex_traces = self._vertex_traces
        out = []
        while heap and heap[0][0] <= k:
            d, v = heappop(heap)
            if alive[v] and len(vertex_traces[v]) == d:
                out.append(v)
        return out

    def maximal_traces_at(self, v: int) -> list[tuple[int, frozenset[int]]]:
        """(representative edge id, trace) pairs of the kept traces through
        ``v``, the maximal ones of a strong index, ordered by representative."""
        members = self._members
        out = [(self._representative(t, v), frozenset(members[t])) for t in self._vertex_traces[v]]
        out.sort()
        return out

    def peel(self) -> tuple[list[int], list[int]]:
        """Pop a vertex of minimum degree (smallest id on ties) and delete
        it until no vertex is left: the popped vertices and their degrees.

        The loop of :meth:`pop_min` and :meth:`delete_vertex`, with one
        vertex gone per step.  Each shrunk trace is settled as soon as it
        shrinks: a strong index checks it with :meth:`_dominated` and files
        nothing, a plain index files it with :meth:`_merges` (see the module
        docstring for why this is exact)."""
        heap = self._heap
        alive = self.alive
        keys = self._keys
        members = self._members
        hashes = self._hash
        vertex_traces = self._vertex_traces
        drop = self._drop
        strong = self.strong
        dominated = self._dominated
        merges = self._merges
        filed = None if strong else self._filed
        order: list[int] = []
        values: list[int] = []
        changed: set[int] = set()
        # Stop at the last live vertex: what the heap holds then is stale,
        # one entry per degree a vertex had, which may be most of it.
        left = alive.count(True)
        while left:
            d, x = heappop(heap)
            row = vertex_traces[x]
            if not alive[x] or len(row) != d:
                continue
            left -= 1
            order.append(x)
            values.append(d)
            alive[x] = False
            vertex_traces[x] = set()
            key = keys[x]
            for t in row:
                s = members[t]
                s.discard(x)
                hashes[t] ^= key
                if not s:
                    members[t] = None
                elif dominated(t, s) if strong else merges(t, s, filed):
                    changed |= drop(t)
            if changed:
                # One entry per vertex whose degree fell, however many of
                # its traces this step dropped.
                for v in changed:
                    heappush(heap, (len(vertex_traces[v]), v))
                changed.clear()
        return order, values

    def delete_vertex(self, *gone: int) -> None:
        """Restrict to the live vertices minus ``gone``.

        Raises:
            ValueError: an id of ``gone`` is out of range, already deleted or
                repeated; the index is left as it was.
        """
        alive = self.alive
        n = len(alive)
        for x in gone:
            if not (0 <= x < n and alive[x]):
                raise ValueError(f"vertex {x} already deleted" if 0 <= x < n else f"vertex {x} out of range")
        if len(gone) > 1 and len(set(gone)) < len(gone):
            x = next(x for i, x in enumerate(gone) if x in gone[:i])
            raise ValueError(f"vertex {x} repeated")
        keys = self._keys
        members = self._members
        hashes = self._hash
        vertex_traces = self._vertex_traces
        touched: set[int] = set()
        for x in gone:
            alive[x] = False
            key = keys[x]
            row = vertex_traces[x]
            for t in row:
                members[t].discard(x)
                hashes[t] ^= key
            touched |= row
            vertex_traces[x] = set()
        changed = self._settle(touched, ({}, {}) if self.strong else self._filed)
        heap = self._heap
        for v in changed:
            heappush(heap, (len(vertex_traces[v]), v))

    def _settle(self, touched: Iterable[int], filed: tuple[dict[int, int], dict[int, list[int]]]) -> set[int]:
        """Settle each shrunk trace of ``touched``: drop it if emptied, if
        :meth:`_merges` files it under a hash in ``filed`` that a trace of
        the same members holds, or, in a strong index, if :meth:`_dominated`
        finds a kept trace strictly above it.  Returns the members of the
        traces dropped, the vertices whose degree fell."""
        members = self._members
        strong = self.strong
        changed: set[int] = set()
        for t in touched:
            s = members[t]
            if not s:
                # Emptied: its members' rows are gone, so no scan meets it.
                members[t] = None
            elif self._merges(t, s, filed) or strong and self._dominated(t, s):
                changed |= self._drop(t)  # an equal trace stays
        return changed

    def _merges(self, t: int, s: set[int], filed: tuple[dict[int, int], dict[int, list[int]]]) -> bool:
        """The filing rule: file trace ``t``, of members ``s``, under its
        hash in ``filed``, which holds the first id per hash and the list of
        all once a second id shares it, and tell whether a filed trace has
        the same members.

        A plain index's entries go stale (see the module docstring), so the
        list is scanned even when the first entry is ``t`` itself, filed
        under this hash in an earlier shape.
        """
        first, shared = filed
        code = self._hash[t]
        u = first.setdefault(code, t)
        if u != t or code in shared:
            same = shared.setdefault(code, [u])
            members = self._members
            if s in [members[w] for w in same if w != t]:
                return True
            same.append(t)
        return False

    def _dominated(self, t: int, s: set[int]) -> bool:
        """The strong re-check rule: whether a kept trace lies strictly
        above ``s``, the members of kept trace ``t``.

        Any trace above t passes through every member of t, so it lies in
        the row of each: the first member's row when only t is in it, else
        its intersection with the second's, almost always {t} alone.  When
        both rows are long (see ``_PAIR_ROWS``), a walk over the other
        members finds the shortest row, and one probe of it comes first:
        ``set.pop`` resumes where the last pop of that row stopped, so it
        skips the empty slots that dropped ids leave behind, which a scan
        passes from the first slot on.  The probe is the next pop when the
        first is t itself; the popped ids go back at once, and the row is
        scanned only if the probe holds no superset.  A set's ``<`` fails in
        O(1) unless the right side is larger.
        """
        vertex_traces = self._vertex_traces
        members = self._members
        it = iter(s)
        row = vertex_traces[next(it)]
        if len(row) > 1 and len(s) > 1:
            other = vertex_traces[next(it)]
            bar = _PAIR_ROWS * len(s)
            if len(row) <= bar or len(other) <= bar:
                row = row & other
            else:
                for v in it:
                    if len(vertex_traces[v]) < len(row):
                        row = vertex_traces[v]
                if len(row) > 1:
                    u = row.pop()
                    w = row.pop() if u == t else u
                    row.add(u)
                    row.add(w)
                    if s < members[w]:
                        return True
        for u in row:
            if s < members[u]:
                return True
        return False
