"""Incremental index of the distinct traces of a hypergraph under vertex
deletions.

Peeling and the greedy cover both repeatedly ask for the vertex whose
degree (plain or strong) is minimal in the current restriction, then delete
vertices.  Recomputing the restriction from scratch after every deletion is
quadratic; this index maintains the distinct-trace family, maximality
flags, and per-vertex degrees across deletions instead.  Deleting ``x``
rebuilds every trace through ``x``: it costs the sum of |t| over those
traces plus a dominance scan per shrunk trace, which on dense inputs such
as ``gap_family`` is about the whole input per deletion.

The transition rules rely on three facts about deleting one vertex ``x``:

* every trace through ``x`` shrinks by exactly ``x`` and the shrunken
  traces of distinct traces stay distinct, so a dedup merge can only pair a
  shrunken trace with a surviving trace it strictly contained before (that
  survivor was therefore not maximal);
* containments between traces never break under deletion, so a trace that
  neither shrank nor merged keeps its maximality status;
* a shrunken trace can newly fall under other traces, so only shrunken or
  merged traces need their status recomputed.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .core import Hypergraph


class TraceIndex:
    """Mutable view of the distinct traces of ``h`` on a shrinking vertex set.

    With ``strong=True`` the tracked degree of a vertex is the number of
    maximal traces containing it; otherwise the number of distinct traces.
    """

    def __init__(self, h: Hypergraph, strong: bool = True):
        self.strong = strong
        self.alive = [True] * h.n
        self.live_count = h.n
        # trace -> [smallest generating edge id, is_maximal]
        self.records: dict[frozenset[int], list] = {}
        self.vertex_traces: dict[int, set[frozenset[int]]] = {v: set() for v in range(h.n)}
        for i, eset in enumerate(h.edge_sets):
            self.records[eset] = [i, False]
            for v in eset:
                self.vertex_traces[v].add(eset)
        for t in self.records:
            if not self._dominated(t):
                self.records[t][1] = True
        self.deg = [0] * h.n
        for v in range(h.n):
            self.deg[v] = self._recount(v)
        self._heap: list[tuple[int, int]] = [(self.deg[v], v) for v in range(h.n)]
        self._heap.sort()

    def _recount(self, v: int) -> int:
        if self.strong:
            records = self.records
            return sum(1 for t in self.vertex_traces[v] if records[t][1])
        return len(self.vertex_traces[v])

    def _dominated(self, t: frozenset[int]) -> bool:
        # Scan the incidence list of the member lying in the fewest traces;
        # any trace above t passes through every member of t.
        vt = self.vertex_traces
        pivot = -1
        fewest = -1
        for v in t:
            ln = len(vt[v])
            if ln == 1:
                return False
            if fewest < 0 or ln < fewest:
                fewest = ln
                pivot = v
        size = len(t)
        for u in vt[pivot]:
            if len(u) > size and t < u:
                return True
        return False

    def pop_min(self) -> tuple[int, int] | None:
        """Smallest (degree, vertex) pair among live vertices, or ``None``."""
        heap = self._heap
        while heap:
            d, v = heappop(heap)
            if self.alive[v] and self.deg[v] == d:
                return d, v
        return None

    def maximal_traces_at(self, v: int) -> list[tuple[int, frozenset[int]]]:
        """(representative edge id, trace) pairs of the maximal traces through
        ``v``, ordered by representative."""
        records = self.records
        out = [(records[t][0], t) for t in self.vertex_traces[v] if records[t][1]]
        out.sort()
        return out

    def delete_vertex(self, x: int) -> None:
        """Restrict to the live vertices minus ``x``."""
        if not self.alive[x]:
            raise ValueError(f"vertex {x} already deleted")
        self.alive[x] = False
        self.live_count -= 1
        records = self.records
        vertex_traces = self.vertex_traces
        deg = self.deg
        heap = self._heap
        strong = self.strong
        affected = vertex_traces.pop(x)

        # Most shrinks preserve maximality, so the decrement for losing t and
        # the increment for gaining t - {x} cancel.  Accumulate net deltas and
        # touch the heap only for vertices whose degree actually moved.
        delta: dict[int, int] = {}
        pending: list[tuple[frozenset[int], int]] = []
        for t in affected:
            rep, was_max = records.pop(t)
            counted = was_max or not strong
            for v in t:
                if v != x:
                    vertex_traces[v].discard(t)
                    if counted:
                        delta[v] = delta.get(v, 0) - 1
            nt = t - {x}
            if nt:
                pending.append((nt, rep))

        refresh: list[frozenset[int]] = []
        for nt, rep in pending:
            existing = records.get(nt)
            if existing is None:
                records[nt] = [rep, False]
                for v in nt:
                    vertex_traces[v].add(nt)
                    if not strong:
                        delta[v] = delta.get(v, 0) + 1
            else:
                # Merge: the survivor was strictly inside t, hence not maximal.
                if rep < existing[0]:
                    existing[0] = rep
            if strong:
                refresh.append(nt)

        for nt in refresh:
            rec = records[nt]
            if not rec[1] and not self._dominated(nt):
                rec[1] = True
                for v in nt:
                    delta[v] = delta.get(v, 0) + 1

        for v, dv in delta.items():
            if dv:
                deg[v] += dv
                heappush(heap, (deg[v], v))
