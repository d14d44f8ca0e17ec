"""Independent certificate checks.

These re-derive validity from the plain definitions, on the benchmark's own
copy of each input (vertex ids 0..n-1, edges as frozensets, trees as
adjacency sets).  They never call into ``hypercover`` and never rely on
``assert``, so they hold under ``python -O``.  Each returns a list of
problems; an empty list means the certificate checks out.
"""

from __future__ import annotations


def _ids(ids, limit: int, what: str, problems: list[str]) -> list[int]:
    """Convert 1-based ids to 0-based, reporting repeats and ids out of range."""
    out = [i - 1 for i in ids]
    if len(set(out)) != len(out):
        problems.append(f"{what}: repeated id")
    if any(not 0 <= i < limit for i in out):
        problems.append(f"{what}: id outside 1..{limit}")
        return []
    return out


def _bound(problems: list[str], small: int, steps, factor: int, big: int, what: str) -> None:
    total = sum(steps)
    if not small <= total <= factor * big:
        problems.append(f"{what}: {small} <= {total} <= {factor} * {big} fails")


def order(n: int, out: dict, kind: str) -> list[str]:
    """A peeling order: a permutation of the vertices, one value per step,
    and the reported value is the largest step value."""
    problems: list[str] = []
    if out["kind"] != kind:
        problems.append(f"degeneracy: kind {out['kind']!r} != {kind!r}")
    if sorted(out["order"]) != list(range(1, n + 1)):
        problems.append("degeneracy: order is not a permutation of the vertices")
    steps = out["step_values"]
    if len(steps) != n or out["value"] != max(steps, default=0):
        problems.append("degeneracy: value does not match the step values")
    return problems


def cover(n: int, edges: list[frozenset], out: dict) -> list[str]:
    """Cover edges reach every vertex, the independent set meets each edge at
    most once, and |cover| <= sum(per_step_edges) <= bound_factor * |independent|."""
    problems: list[str] = []
    chosen = _ids(out["cover"], len(edges), "cover", problems)
    independent = _ids(out["independent"], n, "independent", problems)
    covered: set[int] = set()
    for i in chosen:
        covered |= edges[i]
    if len(covered) != n:
        problems.append(f"cover: {n - len(covered)} vertices uncovered")
    picked = set(independent)
    if any(len(e & picked) > 1 for e in edges):
        problems.append("independent: an edge meets the set twice")
    _bound(problems, len(chosen), out["per_step_edges"], out["bound_factor"], len(independent), "cover")
    return problems


def transversal(n: int, edges: list[frozenset], out: dict) -> list[str]:
    """The transversal hits every edge, the matching is pairwise disjoint,
    and |transversal| <= sum(per_step_edges) <= bound_factor * |matching|."""
    problems: list[str] = []
    hitting = set(_ids(out["transversal"], n, "transversal", problems))
    matching = _ids(out["matching"], len(edges), "matching", problems)
    if not all(e & hitting for e in edges):
        problems.append("transversal: an edge is missed")
    used: set[int] = set()
    for i in matching:
        if used & edges[i]:
            problems.append("matching: two edges overlap")
            break
        used |= edges[i]
    _bound(problems, len(hitting), out["per_step_edges"], out["bound_factor"], len(matching), "transversal")
    return problems


def domination(adj: list[set[int]], out: dict, kind: str) -> list[str]:
    """The dominating set dominates and the packing packs, both by adjacency,
    and their sizes are equal."""
    problems: list[str] = []
    n = len(adj)
    closed = kind == "closed"
    dom = set(_ids(out["dominating"], n, "dominating", problems))
    packing = _ids(out["packing"], n, "packing", problems)
    if out["kind"] != kind:
        problems.append(f"dominate: kind {out['kind']!r} != {kind!r}")
    if not all((closed and v in dom) or adj[v] & dom for v in range(n)):
        problems.append(f"dominate {kind}: a vertex is not dominated")
    used: set[int] = set()
    for x in packing:
        hood = adj[x] | {x} if closed else adj[x]
        if used & hood:
            problems.append(f"dominate {kind}: packing neighborhoods overlap")
            break
        used |= hood
    if len(dom) != len(packing):
        problems.append(f"dominate {kind}: sizes {len(dom)} and {len(packing)} differ")
    return problems


def exact_chain(n: int, edges: list[frozenset], cover_out: dict, max_is: tuple, min_cover: tuple) -> list[str]:
    """|independent| <= maxIS <= minCover <= |cover|, with both exact
    witnesses valid by definition."""
    problems: list[str] = []
    covered: set[int] = set()
    for i in min_cover:
        covered |= edges[i]
    if len(covered) != n:
        problems.append("exact min-edge-cover: witness does not cover")
    picked = set(max_is)
    if any(len(e & picked) > 1 for e in edges):
        problems.append("exact max-independent-set: witness is not independent")
    chain = (len(cover_out["independent"]), len(max_is), len(min_cover), len(cover_out["cover"]))
    if not chain[0] <= chain[1] <= chain[2] <= chain[3]:
        problems.append(f"|independent| <= maxIS <= minCover <= |cover| fails: {chain}")
    return problems
