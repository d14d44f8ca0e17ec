"""Incremental index of the distinct traces of a hypergraph under vertex
deletions.

Peeling and the greedy cover both repeatedly ask for the vertex whose
degree (plain or strong) is minimal in the current restriction, then delete
vertices.  Recomputing the restriction from scratch after every deletion is
quadratic; this index maintains the distinct-trace family, maximality
flags, and per-vertex degrees across deletions instead.

Each trace has a stable integer id (at build time, the id of the edge that
generates it) holding a mutable member set, its representative (smallest
generating edge id), a maximality flag, and a 64-bit XOR of per-vertex
random keys (Zobrist hashing).  Deleting a set ``R`` shrinks each trace
meeting ``R`` in place, once: discarding a member and XOR-ing its key out
are O(1) and the id stays, so no other vertex's incidence set changes.  A
hash -> id table, confirmed by an exact member-set compare, finds the
traces that became equal.  A deletion costs the sum over ``x`` in ``R`` of
the traces through ``x``, plus |t| per merged trace, plus one dominance
scan per re-checked trace.

The transition rules rely on three facts about deleting a set ``R``:

* a trace meeting ``R`` loses exactly its members in ``R``; a merge joins
  traces left equal: two shrunken ones, or a shrunken one and a trace
  outside ``R`` that it strictly contained (so that one was not maximal);
* containments never break, as ``t < u`` gives ``t - R <= u - R``: a trace
  that neither shrank nor merged keeps its status, and a shrunken
  non-maximal trace stays non-maximal unless the maximal trace above it
  merged with it;
* only a maximal trace that shrank, or the survivor of a merge with a
  maximal trace, can change status, so only those are re-checked.

``pop_min`` hands out one vertex of minimum degree; ``pop_at_most(k)`` every
live vertex of degree at most ``k``, the batch of a core peel.  Degrees never
rise under deletion, so each live vertex has exactly one current heap entry.
``delete_vertex`` checks every id before it changes anything.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from .core import Hypergraph


# One key table per process, shared by every index and only ever extended:
# seeding a generator per build costs about as much as a whole build of a
# small input.  Any keys give correct results, because a hash hit is always
# confirmed by comparing member sets; fixed keys keep the cost repeatable.
_KEYS: list[int] = []
_KEY_SOURCE = random.Random(0x5EED)


def _zobrist_keys(n: int) -> list[int]:
    """At least ``n`` 64-bit keys, one per vertex id; key ``i`` is the
    ``i``-th draw of a fixed-seed generator."""
    if len(_KEYS) < n:
        _KEYS.extend(_KEY_SOURCE.getrandbits(64) for _ in range(n - len(_KEYS)))
    return _KEYS


class TraceIndex:
    """Mutable view of the distinct traces of ``h`` on a shrinking vertex set.

    With ``strong=True`` the tracked degree of a vertex is the number of
    maximal traces containing it; otherwise the number of distinct traces,
    and maximality is not tracked.
    """

    def __init__(self, h: Hypergraph, strong: bool = True):
        self.strong = strong
        self.alive = [True] * h.n
        keys = self._keys = _zobrist_keys(h.n)
        # Per trace id; a dead id has members None.  Base edges are distinct,
        # so edge i starts as trace i.
        self._members: list[set[int] | None] = [set(e) for e in h.edges]
        self._rep = list(range(h.m))
        self._hash: list[int] = []
        # Hash chains: _by_hash[code] heads the ids with that hash, _next
        # links them (-1 ends a chain).
        self._by_hash: dict[int, int] = {}
        self._next: list[int] = []
        self._vertex_traces: list[set[int]] = [set() for _ in range(h.n)]
        vertex_traces = self._vertex_traces
        by_hash = self._by_hash
        for t, edge in enumerate(h.edges):
            code = 0
            for v in edge:
                vertex_traces[v].add(t)
                code ^= keys[v]
            self._hash.append(code)
            self._next.append(by_hash.get(code, -1))
            by_hash[code] = t
        if strong:
            self._maximal = [not self._dominated(t) for t in range(h.m)]
            maximal = self._maximal
            self.deg = [sum(map(maximal.__getitem__, row)) for row in vertex_traces]
        else:
            self._maximal = [False] * h.m
            self.deg = [len(row) for row in vertex_traces]
        self._heap: list[tuple[int, int]] = [(d, v) for v, d in enumerate(self.deg)]
        self._heap.sort()

    def _dominated(self, t: int) -> bool:
        # Scan the incidence set of the member lying in the fewest traces;
        # any trace above t passes through every member of t, so a member
        # in t alone settles it.  A set's ``<`` fails in O(1) unless the
        # right side is larger.
        vertex_traces = self._vertex_traces
        s = self._members[t]
        pivot: set[int] = set()
        fewest = -1
        for v in s:
            row = vertex_traces[v]
            ln = len(row)
            if ln == 1:
                return False
            if fewest < 0 or ln < fewest:
                fewest = ln
                pivot = row
        members = self._members
        for u in pivot:
            if s < members[u]:
                return True
        return False

    def _unlink(self, t: int) -> None:
        """Remove ``t`` from the chain of its current hash."""
        code = self._hash[t]
        nxt = self._next
        head = self._by_hash[code]
        if head == t:
            if nxt[t] < 0:
                del self._by_hash[code]
            else:
                self._by_hash[code] = nxt[t]
            return
        while nxt[head] != t:
            head = nxt[head]
        nxt[head] = nxt[t]

    def traces(self) -> dict[frozenset[int], tuple[int, bool]]:
        """Snapshot of the live traces: members -> (representative, is_maximal).
        The flag is meaningful only with ``strong=True``."""
        return {
            frozenset(s): (self._rep[t], self._maximal[t])
            for t, s in enumerate(self._members)
            if s is not None
        }

    def pop_min(self) -> tuple[int, int] | None:
        """Smallest (degree, vertex) pair among live vertices, or ``None``."""
        heap = self._heap
        while heap:
            d, v = heappop(heap)
            if self.alive[v] and self.deg[v] == d:
                return d, v
        return None

    def pop_at_most(self, k: int) -> list[int]:
        """Pop every live vertex of degree at most ``k``, in (degree, vertex)
        order.  Each live vertex has one current heap entry, so none repeats."""
        heap = self._heap
        alive = self.alive
        deg = self.deg
        out = []
        while heap and heap[0][0] <= k:
            d, v = heappop(heap)
            if alive[v] and deg[v] == d:
                out.append(v)
        return out

    def maximal_traces_at(self, v: int) -> list[tuple[int, frozenset[int]]]:
        """(representative edge id, trace) pairs of the maximal traces through
        ``v``, ordered by representative (strong index only)."""
        members = self._members
        rep = self._rep
        maximal = self._maximal
        out = [(rep[t], frozenset(members[t])) for t in self._vertex_traces[v] if maximal[t]]
        out.sort()
        return out

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
        members = self._members
        hashes = self._hash
        by_hash = self._by_hash
        nxt = self._next
        rep = self._rep
        maximal = self._maximal
        vertex_traces = self._vertex_traces
        # Shrink every trace through gone, unlinked under its old hash first,
        # so the lookups below never meet a trace that is yet to be placed.
        touched: set[int] = set()
        for x in gone:
            alive[x] = False
            key = self._keys[x]
            for t in vertex_traces[x]:
                if t not in touched:
                    touched.add(t)
                    self._unlink(t)
                members[t].discard(x)
                hashes[t] ^= key
            vertex_traces[x] = set()

        delta: dict[int, int] = {}
        recheck: list[int] = []
        for t in touched:
            s = members[t]
            if not s:
                # Emptied: unlinked above, so no chain or scan meets it.
                members[t] = None
                continue
            code = hashes[t]
            u = by_hash.get(code, -1)
            while u >= 0 and members[u] != s:
                u = nxt[u]
            if u < 0:
                nxt[t] = by_hash.get(code, -1)
                by_hash[code] = t
                if maximal[t]:
                    recheck.append(t)
                continue
            # Merge t into the survivor u, which now has the same members.
            members[t] = None
            if rep[t] < rep[u]:
                rep[u] = rep[t]
            counted = maximal[t] or not self.strong
            for v in s:
                vertex_traces[v].discard(t)
                if counted:
                    delta[v] = delta.get(v, 0) - 1
            if maximal[t]:
                maximal[t] = False
                recheck.append(u)

        for t in recheck:
            now = not self._dominated(t)
            if now != maximal[t]:
                maximal[t] = now
                step = 1 if now else -1
                for v in members[t]:
                    delta[v] = delta.get(v, 0) + step

        deg = self.deg
        heap = self._heap
        for v, dv in delta.items():
            if dv:
                deg[v] += dv
                heappush(heap, (deg[v], v))
