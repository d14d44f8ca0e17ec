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
are O(1) and the id stays, so no other vertex's row changes.  Two rules
then settle each shrunk trace:

* the filing rule files it under its hash in a table that holds the first
  id per hash and, once a second id shares that hash, the list of all that
  do.  Equal traces share a hash, so a hit confirmed by an exact member-set
  compare finds a trace that became equal to a filed one, and the shrunk
  trace is dropped;
* the strong re-check rule, ``_dominated``, drops it if a kept trace lies
  strictly above it.

``_settle`` applies them to the traces a deletion shrank, the build to
every edge, and ``peel`` to each trace as it shrinks.

A plain index keeps one table for good, since a shrunk trace may equal one
that missed ``R``, and files through ``_merges``.  It only ever appends: a
shrunk trace is filed again under its new hash and its old entry goes
stale, so the table holds at most ``m`` ids plus one per shrink, and the
set compare turns every stale hit away.  Its build files every edge.  A
strong index files, in ``_settle``, in a table of that deletion only (the
third fact below), and its build files nothing: base edges are distinct,
so no two are equal.

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

Most of those re-checks find what was known before: the trace is still
maximal.  A witness of a kept trace ``t`` is a pair of its members ``a``,
``b`` whose rows meet in ``{t}`` alone, or one member ``a = b`` whose whole
row is ``{t}``.  Rows only ever lose ids, so while ``a`` and ``b`` stay in
``t``, their rows still meet in ``{t}`` at most, and no other kept trace,
before or after a shrink, holds both: none lies above ``t`` or equals it,
and no shrunk trace can become equal to it.  Such a ``t`` needs neither a
re-check nor a filing when it shrinks.  ``_dominated`` records the pair
where it finds it, when the first member's row or the intersection of the
first two rows is ``{t}``, and records none otherwise; a deletion
re-checks and files a shrunk trace only when it has no pair or lost a
member of it.  The plain index keeps no pairs.

When ``R`` is one vertex ``x``, no two shrunk traces become equal, since
``t - x = u - x`` with ``x`` in both forces ``t = u``, and a shrunk trace
lies strictly inside a trace ``u`` through ``x`` only if ``t < u`` held
before.  So a shrunk trace can only merge into, or lie inside, a trace that
missed ``x``, which the step leaves as it was.  ``peel`` rests on this: it
runs the whole one-vertex peel of ``strong_degeneracy`` and ``degeneracy``
as one loop, settles each trace as soon as it shrinks, and in a strong
index files nothing.  A step costs one heap pop, O(1) per kept trace
through ``x`` plus one settling rule for each that is plain, has no pair
or had ``x`` in its pair, |t| per dropped trace and one heap push per
vertex whose degree fell: what deleting ``x`` costs, without a table and a
set of touched traces per step.  ``_delete`` serves the batched bound
peel and the greedy cover's strong removals; ``delete_vertex`` is it, with
the ids checked first.

A deletion thus costs the sum over ``x`` in ``R`` of the kept traces
through ``x``, plus |t| per dropped trace, plus, per shrunk trace that is
plain, has no pair or lost a member of its pair, one table lookup and, in
a strong index, one dominance check.  On the sparse-random input of the
benchmark (n = 2000) the pairs cut the checks of the bound's batched peel
from 16,345 to 11,221, of the greedy from 15,187 to 8,093 and of the
one-vertex strong peel from 21,081 to 13,110.  The check intersects, in C,
the rows of the first two members of ``t`` and tests each trace in both;
while one of those rows holds at most ``8|t|`` traces, it costs O(|t|), and
far less when the intersection is ``{t}`` alone, as it almost always is.
Otherwise the two members are shared by many traces (a sunflower's
kernel): a walk over the other members finds the shortest row, and one
probe of that row comes before its scan.  ``set.pop`` starts where the last
pop of the same row stopped, so the probe passes only the empty slots
between there and the next live trace, while a scan starts at the first
slot and passes every empty slot that dropped ids left in the row's table.
When the probe, taken past ``t`` itself, holds a superset, the check costs
O(|t|) plus that pass.  Otherwise it also costs the scan: the row's live
traces plus its empty slots, up to the row's peak size, so a long row that
holds few supersets is still a slow case.  In the sunflower with kernel
{0, 1}, every petal's check ends at the probe, and the strong peel of
160,000 petals takes about 1 s of CPU time instead of 11.5 s (CPython 3.11,
2-core VM).  Dropped traces cost nothing again.

A strong build checks every edge the same way to drop the edges inside
others, unless it is handed a seed: ``seed()`` of another strong index of
the same hypergraph, taken before that index's first deletion, lists the
kept ids with the hashes and a copy of the witness pairs of its build.  The
seeded build keeps those ids and reads each row off the base incidence,
with no hash loop and no dominance pass.  The pairs must be a copy: those
the other index records after its deletions hold only for its smaller
rows.

No representative is stored.  The one of a kept trace, the smallest base
edge generating it, is found on demand by ``maximal_traces_at`` and
``traces()``: the first edge, in the base incidence row of one of its
members, that holds the trace and no other live vertex.
``maximal_traces_at(v)`` finds those of every kept trace through ``v`` in
one pass over ``v``'s incidence row.

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

# What a strong index hands a strong build of the same hypergraph before its
# first deletion: the kept ids, the hash per id and the witness pair per id.
Seed = tuple[list[int], list[int], list[tuple[int, int] | None]]


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

    def __init__(self, h: Hypergraph, strong: bool = True, seed: Seed | None = None):
        """Index the traces of ``h``.  ``seed``, what :meth:`seed` of another
        strong index of ``h`` handed over before its first deletion, spares
        a strong build its hash loop and its dominance pass: the build keeps
        the seed's ids, takes its lists of hashes and witness pairs over as
        its own, and reads each row off ``h.incidence``."""
        self.strong = strong
        self.alive = [True] * h.n
        self._h = h
        keys = self._keys = _zobrist_keys(h.n)
        # Per trace id; a dropped id has members None.  Base edges are
        # distinct, so edge i starts as trace i.
        edges = h.edges
        kept = range(h.m) if seed is None else seed[0]
        members: list[set[int] | None] = [None] * h.m
        for t in kept:
            members[t] = set(edges[t])
        self._members = members
        if seed is None:
            # Per kept trace, a witness pair (see the module docstring) or None.
            self._wit: list[tuple[int, int] | None] = [None] * h.m
            hashes = [0] * h.m
            vertex_traces = [set() for _ in range(h.n)]
            for t in kept:
                code = 0
                for v in edges[t]:
                    vertex_traces[v].add(t)
                    code ^= keys[v]
                hashes[t] = code
        else:
            _, hashes, self._wit = seed
            chosen = set(kept)
            vertex_traces = [chosen.intersection(row) for row in h.incidence]
        self._hash = hashes
        self._vertex_traces = vertex_traces
        if not strong:
            # A shrunk trace may equal one that missed the deletion, so a
            # plain index keeps every trace filed, for good.  Base edges are
            # distinct, so none merges here.
            filed = self._filed = ({}, {})
            merges = self._merges
            for t in kept:
                merges(t, members[t], filed)
        elif seed is None:
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

    def seed(self) -> Seed:
        """What a strong build of the same hypergraph, in the same vertex
        numbering, takes in place of its hash loop and dominance pass: the
        kept ids, the hashes and a copy of the witness pairs.  Only a strong
        index before its first deletion hands over a valid seed; the copies
        keep its later hashes and pairs, which hold only for its smaller
        rows, out of the seeded build."""
        return self.trace_ids(), self._hash[:], self._wit[:]

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
        ``v``, the maximal ones of a strong index, ordered by representative.

        One pass over the base edges through ``v``, in id order, matches the
        live part of each against the traces not yet matched: the first
        edge to match a trace is its smallest generator.

        Raises:
            CertificateError: no base edge generates one of the traces.
        """
        members = self._members
        wanted = {frozenset(members[t]) for t in self._vertex_traces[v]}
        out = []
        if wanted:
            live = self.alive.__getitem__
            edges = self._h.edges
            for e in self._h.incidence[v]:
                trace = frozenset(filter(live, edges[e]))
                if trace in wanted:
                    wanted.remove(trace)
                    out.append((e, trace))
                    if not wanted:
                        break
        if wanted:
            raise CertificateError(f"no edge generates the trace {min(map(sorted, wanted))}")
        return out

    def peel(self) -> tuple[list[int], list[int]]:
        """Pop a vertex of minimum degree (smallest id on ties) and delete
        it until no vertex is left: the popped vertices and their degrees.

        The loop of :meth:`pop_min` and :meth:`delete_vertex`, with one
        vertex gone per step.  Each shrunk trace is settled as soon as it
        shrinks: a strong index checks it with :meth:`_dominated` unless a
        witness pair without ``x`` proves it maximal, and files nothing, so
        it leaves the hashes as they were; a plain index files it with
        :meth:`_merges` (see the module docstring for why this is exact).
        No vertex is left after it, so nothing reads the index again."""
        heap = self._heap
        alive = self.alive
        keys = self._keys
        members = self._members
        hashes = self._hash
        wit = self._wit
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
                if not s:
                    members[t] = None
                elif strong:
                    if ((w := wit[t]) is None or x in w) and dominated(t, s):
                        changed |= drop(t)
                else:
                    hashes[t] ^= key
                    if merges(t, s, filed):
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
        self._delete(gone)

    def _delete(self, gone: Iterable[int]) -> None:
        """:meth:`delete_vertex` for ``gone`` known to hold distinct live ids."""
        alive = self.alive
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
        changed = self._settle(touched)
        heap = self._heap
        for v in changed:
            heappush(heap, (len(vertex_traces[v]), v))

    def _settle(self, touched: Iterable[int]) -> set[int]:
        """Settle each shrunk trace of ``touched``: drop it if emptied, if a
        trace of the same members is filed, or, in a strong index, if
        :meth:`_dominated` finds a kept trace strictly above it.  Returns the
        members of the traces dropped, the vertices whose degree fell.

        A plain index files each trace with :meth:`_merges` in its lasting
        table.  A strong index skips every trace whose witness pair lost no
        member, and files the rest in a table of this call, under the same
        rule written out: the table is fresh, so no entry is stale and a
        trace meets only others."""
        members = self._members
        drop = self._drop
        changed: set[int] = set()
        if not self.strong:
            filed = self._filed
            merges = self._merges
            for t in touched:
                s = members[t]
                if not s:
                    # Emptied: its members' rows are gone, so no scan meets it.
                    members[t] = None
                elif merges(t, s, filed):
                    changed |= drop(t)  # an equal trace stays
            return changed
        alive = self.alive
        hashes = self._hash
        wit = self._wit
        dominated = self._dominated
        first: dict[int, int] = {}
        shared: dict[int, list[int]] = {}
        for t in touched:
            s = members[t]
            if not s:
                members[t] = None
                continue
            w = wit[t]
            if w is not None and alive[w[0]] and alive[w[1]]:
                continue
            code = hashes[t]
            u = first.setdefault(code, t)
            if u != t:
                same = shared.setdefault(code, [u])
                if s in [members[v] for v in same]:
                    changed |= drop(t)
                    continue
                same.append(t)
            if dominated(t, s):
                changed |= drop(t)
        return changed

    def _merges(self, t: int, s: set[int], filed: tuple[dict[int, int], dict[int, list[int]]]) -> bool:
        """The plain filing rule: file trace ``t``, of members ``s``, under
        its hash in ``filed``, which holds the first id per hash and the list
        of all once a second id shares it, and tell whether a filed trace has
        the same members.

        Entries go stale (see the module docstring), so the list is scanned
        even when the first entry is ``t`` itself, filed under this hash in
        an earlier shape.
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
        above ``s``, the members of kept trace ``t``.  When it finds none,
        it records t's witness pair, or ``None`` when it has none.

        Any trace above t passes through every member of t, so it lies in
        the row of each: the first member's row when only t is in it, else
        its intersection with the second's, almost always {t} alone.  Either
        way those members are t's witness pair.  When both rows are long
        (see ``_PAIR_ROWS``), a walk over the other members finds the
        shortest row, and one probe of it comes first: ``set.pop`` resumes
        where the last pop of that row stopped, so it skips the empty slots
        that dropped ids leave behind, which a scan passes from the first
        slot on.  The probe is the next pop when the first is t itself; the
        popped ids go back at once, and the row is scanned only if the probe
        holds no superset.  A set's ``<`` fails in O(1) unless the right
        side is larger.  The walk records no pair.
        """
        vertex_traces = self._vertex_traces
        members = self._members
        it = iter(s)
        a = next(it)
        row = vertex_traces[a]
        if len(row) == 1:
            self._wit[t] = (a, a)
            return False
        pair = None
        if len(s) > 1:
            b = next(it)
            other = vertex_traces[b]
            bar = _PAIR_ROWS * len(s)
            if len(row) <= bar or len(other) <= bar:
                row = row & other
                pair = (a, b) if len(row) == 1 else None
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
        self._wit[t] = pair
        return False
