"""Exact reference solvers by exhaustive subset search.

Candidates are enumerated by size (ascending for minimization, descending
for maximization) and lexicographically within a size, so the first
feasible hit is the optimum with the lexicographically least witness.
Every witness is re-validated through the definition checkers before being
returned.  These run in exponential time and exist to certify the fast
paths on small instances, hence the hard size caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Union

from .core import Hypergraph, check
from .domination import Graph, check_graph
from .errors import CertificateError, InfeasibleError, ParameterError, TooLargeError

HYPERGRAPH_PROBLEMS = ("min-edge-cover", "max-independent-set", "min-transversal", "max-matching")
GRAPH_PROBLEMS = ("min-dominating", "min-total-dominating", "max-2-packing", "max-open-2-packing")
PROBLEMS = HYPERGRAPH_PROBLEMS + GRAPH_PROBLEMS

HYPERGRAPH_CAP = 16
GRAPH_CAP = 18
GROUND_SET_CAP = 22


@dataclass(frozen=True)
class ExactResult:
    problem: str
    value: int
    witness: tuple[int, ...]
    explored: int


def _search(
    ground: int,
    minimize: bool,
    feasible: Callable[[tuple[int, ...]], bool],
) -> tuple[int, tuple[int, ...], int] | None:
    sizes = range(ground + 1) if minimize else range(ground, -1, -1)
    explored = 0
    for k in sizes:
        for candidate in combinations(range(ground), k):
            explored += 1
            if feasible(candidate):
                return k, candidate, explored
    return None


def _certified(
    problem: str,
    found: tuple[int, tuple[int, ...], int] | None,
    checker: Callable[..., bool],
    instance: Union[Hypergraph, Graph],
    kind: str,
) -> ExactResult:
    """Re-validate the search's witness with ``checker(instance, kind, ...)``."""
    # Every supported problem is feasible once the callers' infeasibility
    # checks pass, so an empty search is as much a failure as a bad witness.
    if found is None or not checker(instance, kind, found[1]):
        raise CertificateError(f"{problem}: the search produced no valid witness")
    value, witness, explored = found
    return ExactResult(problem, value, witness, explored)


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
    if problem in HYPERGRAPH_PROBLEMS:
        if not isinstance(instance, Hypergraph):
            raise ParameterError(f"{problem} needs a hypergraph instance")
        return _exact_hypergraph(instance, problem)
    if problem in GRAPH_PROBLEMS:
        if not isinstance(instance, Graph):
            raise ParameterError(f"{problem} needs a graph instance")
        return _exact_graph(instance, problem)
    raise ParameterError(f"unknown problem {problem!r}")


def _exact_hypergraph(h: Hypergraph, problem: str) -> ExactResult:
    if h.n > HYPERGRAPH_CAP:
        raise TooLargeError(f"{h.n} vertices exceed the cap of {HYPERGRAPH_CAP}")
    if h.m > GROUND_SET_CAP and problem in ("min-edge-cover", "max-matching"):
        raise TooLargeError(f"{h.m} edges exceed the cap of {GROUND_SET_CAP}")
    full = (1 << h.n) - 1
    edge_masks = [sum(1 << v for v in e) for e in h.edges]

    if problem == "min-edge-cover":
        if any(not row for row in h.incidence):
            raise InfeasibleError("an isolated vertex lies in no edge")

        def covers(candidate: tuple[int, ...]) -> bool:
            acc = 0
            for i in candidate:
                acc |= edge_masks[i]
            return acc == full

        return _certified(problem, _search(h.m, True, covers), check, h, "edge-cover")
    elif problem == "min-transversal":

        def transverses(candidate: tuple[int, ...]) -> bool:
            smask = sum(1 << v for v in candidate)
            return all(mask & smask for mask in edge_masks)

        return _certified(problem, _search(h.n, True, transverses), check, h, "transversal")
    elif problem == "max-independent-set":
        conflict = [0] * h.n
        for mask in edge_masks:
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                conflict[bit.bit_length() - 1] |= mask & ~bit

        def independent(candidate: tuple[int, ...]) -> bool:
            smask = sum(1 << v for v in candidate)
            return all(conflict[v] & smask == 0 for v in candidate)

        return _certified(problem, _search(h.n, False, independent), check, h, "independent-set")
    else:

        def disjoint(candidate: tuple[int, ...]) -> bool:
            acc = 0
            for i in candidate:
                if acc & edge_masks[i]:
                    return False
                acc |= edge_masks[i]
            return True

        return _certified(problem, _search(h.m, False, disjoint), check, h, "matching")


def _exact_graph(g: Graph, problem: str) -> ExactResult:
    if g.n > GRAPH_CAP:
        raise TooLargeError(f"{g.n} vertices exceed the cap of {GRAPH_CAP}")
    full = (1 << g.n) - 1
    closed = problem in ("min-dominating", "max-2-packing")
    hood_masks = []
    for v in range(g.n):
        mask = sum(1 << u for u in g.adj[v])
        if closed:
            mask |= 1 << v
        hood_masks.append(mask)

    if problem in ("min-dominating", "min-total-dominating"):
        if problem == "min-total-dominating" and any(not row for row in g.adj):
            raise InfeasibleError("an isolated vertex has no neighbor to dominate it")

        def dominates(candidate: tuple[int, ...]) -> bool:
            acc = 0
            for v in candidate:
                acc |= hood_masks[v]
            return acc == full

        kind = "dominating" if closed else "total-dominating"
        return _certified(problem, _search(g.n, True, dominates), check_graph, g, kind)
    else:

        def packs(candidate: tuple[int, ...]) -> bool:
            acc = 0
            for v in candidate:
                if acc & hood_masks[v]:
                    return False
                acc |= hood_masks[v]
            return True

        kind = "2-packing" if closed else "open-2-packing"
        return _certified(problem, _search(g.n, False, packs), check_graph, g, kind)
