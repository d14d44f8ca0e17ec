"""Exact reference solvers by a pruned subset search.

The optimum is a smallest feasible set for a minimization and a largest for
a maximization, and its witness is the lexicographically least optimal set.
A depth-first search visits id sets in lexicographic order and cuts every
branch that cannot beat the best set found so far, so it reaches far fewer
sets than there are subsets.  ``explored`` is the witness's 1-based position
in the order by size (ascending for minimization, descending for
maximization), then lexicographic within a size: the number of candidates
that a plain enumeration in that order tries before its first feasible one.
It is computed from the witness's rank, so its values are those of that
enumeration.  Every witness is re-validated through the definition checkers
before being returned.  These run in exponential time and exist to certify
the fast paths on small instances, hence the hard size caps.

Every problem is one of two searches over one family of bit masks: a
covering search (fewest masks whose union is the whole target) or a packing
search (most pairwise disjoint masks).  The families are a hypergraph's
edges over its vertices, its vertices' incidence sets over its edges, and a
graph's closed or open neighborhoods over its vertices.  The incidence sets
are the edges of the dual hypergraph H*, so a transversal of H is an edge
cover of H* and an independent set of H is a matching of H* (Berge,
*Hypergraphs: Combinatorics of Finite Sets*, 1989).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import or_
from typing import Iterable, NamedTuple, Union

from .core import Hypergraph, check
from .domination import Graph, check_graph
from .errors import CertificateError, InfeasibleError, ParameterError, TooLargeError


class _Problem(NamedTuple):
    family: str  # "edges", "vertices", "closed" or "open"
    covering: bool  # a covering (minimum) search, else a packing (maximum) one
    kind: str  # what ``check`` or ``check_graph`` validates the witness as


_TABLE = {
    "min-edge-cover": _Problem("edges", True, "edge-cover"),
    "max-independent-set": _Problem("vertices", False, "independent-set"),
    "min-transversal": _Problem("vertices", True, "transversal"),
    "max-matching": _Problem("edges", False, "matching"),
    "min-dominating": _Problem("closed", True, "dominating"),
    "min-total-dominating": _Problem("open", True, "total-dominating"),
    "max-2-packing": _Problem("closed", False, "2-packing"),
    "max-open-2-packing": _Problem("open", False, "open-2-packing"),
}
_HYPERGRAPH_FAMILIES = ("edges", "vertices")

PROBLEMS = tuple(_TABLE)
HYPERGRAPH_PROBLEMS = tuple(p for p in PROBLEMS if _TABLE[p].family in _HYPERGRAPH_FAMILIES)
GRAPH_PROBLEMS = tuple(p for p in PROBLEMS if p not in HYPERGRAPH_PROBLEMS)

HYPERGRAPH_CAP = 16
GRAPH_CAP = 18
GROUND_SET_CAP = 22


@dataclass(frozen=True)
class ExactResult:
    problem: str
    value: int
    witness: tuple[int, ...]
    explored: int


def _search(masks: list[int], full: int, covering: bool) -> tuple[int, tuple[int, ...], int] | None:
    """Value, lexicographically least witness and ``explored`` of the
    fewest masks whose union is ``full`` when ``covering``, else of the most
    pairwise disjoint masks; ``None`` when no subset qualifies.

    A set is recorded only when it is strictly better than the best so far,
    so the first set of the optimal size that the search reaches is the
    least one.  A covering branch stops once the masks from ``j`` on cannot
    complete its union or one more mask would make it as large as the best;
    a packing branch stops once the masks left cannot make it larger.
    """
    g = len(masks)
    rest = [0] * (g + 1)  # rest[j] is the union of masks[j:]
    for j in reversed(range(g)):
        rest[j] = masks[j] | rest[j + 1]
    chosen: list[int] = []
    best: tuple[int, ...] | None = None
    bound = g + 1 if covering else -1  # the size of ``best``, or one any set beats

    def visit(start: int, acc: int) -> None:
        nonlocal best, bound
        size = len(chosen)
        if covering:
            if acc == full:
                best, bound = tuple(chosen), size
                return
        elif size > bound:
            best, bound = tuple(chosen), size
        for j in range(start, g):
            if covering:
                if acc | rest[j] != full or size + 1 >= bound:
                    return
            elif size + g - j <= bound:
                return
            elif acc & masks[j]:
                continue
            chosen.append(j)
            visit(j + 1, acc | masks[j])
            chosen.pop()

    visit(0, 0)
    if best is None:
        return None
    # The witness's position: every set of a size tried earlier, then its
    # lexicographic rank among the k-sets, which is C(g, k) - 1 less the
    # k-sets after it; those that first differ at its i-th id count
    # C(g - 1 - c, k - i).
    k = len(best)
    before = sum(comb(g, size) for size in (range(k) if covering else range(k + 1, g + 1)))
    rank = comb(g, k) - 1 - sum(comb(g - 1 - c, k - i) for i, c in enumerate(best))
    return k, best, before + rank + 1


def _mask(ids: Iterable[int]) -> int:
    return sum(1 << i for i in ids)


def _masks(instance: Union[Hypergraph, Graph], family: str) -> tuple[list[int], int]:
    """The family's masks and the number of bits in their target."""
    if family == "edges":
        return [_mask(e) for e in instance.edges], instance.n
    if family == "vertices":
        return [_mask(row) for row in instance.incidence], instance.m
    self_bit = 1 if family == "closed" else 0
    return [_mask(row) | self_bit << v for v, row in enumerate(instance.adj)], instance.n


def _check_graph_cap(n: int) -> None:
    """Raise when a graph on ``n`` vertices is beyond the exact solvers; the
    command line calls this before it builds the graph."""
    if n > GRAPH_CAP:
        raise TooLargeError(f"{n} vertices exceed the cap of {GRAPH_CAP}")


def exact(instance: Union[Hypergraph, Graph], problem: str) -> ExactResult:
    """Optimal value and witness for one of the supported problems.

    Hypergraph problems take a :class:`Hypergraph`, graph problems a
    :class:`Graph`.  Witnesses are edge ids for ``min-edge-cover`` and
    ``max-matching``, vertex ids otherwise.

    Raises:
        TooLargeError: the instance exceeds the brute-force caps.
        InfeasibleError: no solution of any size exists (an edge cover with
            an isolated vertex, or total domination with one).
        ParameterError: unknown problem or mismatched instance type.
        CertificateError: the search returned no valid witness.
    """
    if problem not in PROBLEMS:
        raise ParameterError(f"unknown problem {problem!r}")
    spec = _TABLE[problem]
    hypergraph = spec.family in _HYPERGRAPH_FAMILIES
    if not isinstance(instance, Hypergraph if hypergraph else Graph):
        raise ParameterError(f"{problem} needs a {'hypergraph' if hypergraph else 'graph'} instance")
    if not hypergraph:
        _check_graph_cap(instance.n)
    elif instance.n > HYPERGRAPH_CAP:
        raise TooLargeError(f"{instance.n} vertices exceed the cap of {HYPERGRAPH_CAP}")
    elif spec.family == "edges" and instance.m > GROUND_SET_CAP:
        raise TooLargeError(f"{instance.m} edges exceed the cap of {GROUND_SET_CAP}")

    masks, bits = _masks(instance, spec.family)
    full = (1 << bits) - 1
    if spec.covering and reduce(or_, masks, 0) != full:
        raise InfeasibleError(f"{problem}: an isolated vertex lies in no {'edge' if hypergraph else 'neighborhood'}")
    found = _search(masks, full, spec.covering)
    # Named here, not in _TABLE, so a checker replaced at run time is used.
    checker = check if hypergraph else check_graph
    # A packing search always finds the empty set and a covering search the
    # whole family, so an empty search is as much a failure as a bad witness.
    if found is None or not checker(instance, spec.kind, found[1]):
        raise CertificateError(f"{problem}: the search produced no valid witness")
    return ExactResult(problem, *found)
