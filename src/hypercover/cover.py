"""Greedy edge cover with a certified multiplicative bound, and its dual.

One greedy step takes a vertex ``x`` of minimum strong degree, puts every
maximal trace through ``x`` into the cover (each extended to the smallest
base edge reproducing it), and strongly removes ``x``.  The selected
vertices form an independent set ``X`` and the step sizes telescope into

    |C|  <=  sum of step sizes  <=  factor * |X|,

where the factor is the strong degeneracy of the input (every intermediate
restriction is reachable by strong removal, so the brute-force mighty value
tightens the same bound when it is affordable).  Since an edge cover is
never smaller than an independent set, a run certifies both quantities.

``greedy_transversal`` runs the same greedy on the dual hypergraph, turning
the cover into a transversal and the independent set into a matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._trace_index import TraceIndex
from .core import Hypergraph, _reject_isolated, check, dual
from .degeneracy import MIGHTY_BF_CAP, mighty_degeneracy_bf, strong_degeneracy
from .errors import CertificateError


@dataclass(frozen=True)
class CoverChecks:
    cover_valid: bool
    independent_valid: bool
    inequality_holds: bool


@dataclass(frozen=True)
class CoverCertificate:
    """Outcome of one greedy cover run.

    ``cover`` lists edge ids ascending; ``independent`` lists the selected
    vertices in removal order; ``per_step_edges`` the number of edges each
    step contributed.  ``bound_factor`` is the strong degeneracy used in the
    certified inequality and ``mighty_factor`` the brute-force tightening
    when it was requested and affordable.
    """

    cover: tuple[int, ...]
    independent: tuple[int, ...]
    per_step_edges: tuple[int, ...]
    bound_factor: int
    mighty_factor: int | None
    checks: CoverChecks


@dataclass(frozen=True)
class TransversalChecks:
    transversal_valid: bool
    matching_valid: bool
    inequality_holds: bool


@dataclass(frozen=True)
class TransversalCertificate:
    """Transversal and matching certified by one dual greedy run."""

    transversal: tuple[int, ...]
    matching: tuple[int, ...]
    per_step_edges: tuple[int, ...]
    bound_factor: int
    checks: TransversalChecks


def greedy_cover(h: Hypergraph, mighty: bool = False) -> CoverCertificate:
    """Run the strong-degree greedy and return a self-checked certificate.

    With ``mighty=True`` the brute-force mighty value is attached when the
    instance is small enough.

    Raises:
        IsolatedVertexError: some vertex lies in no edge.
        CertificateError: the run failed its own checks.
    """
    _reject_isolated(h)
    bound = strong_degeneracy(h).value
    mighty_value = mighty_degeneracy_bf(h) if mighty and h.n <= MIGHTY_BF_CAP else None

    index = TraceIndex(h, strong=True)
    cover_ids: list[int] = []
    chosen: list[int] = []
    per_step: list[int] = []
    while (entry := index.pop_min()) is not None:
        d, x = entry
        pairs = index.maximal_traces_at(x)
        # No live vertex can be edgeless: isolated vertices are rejected up
        # front and strong removal takes whole edges at a time.
        if d < 1 or len(pairs) != d:
            raise CertificateError(f"vertex {x} has strong degree {d} but {len(pairs)} maximal traces")
        chosen.append(x)
        per_step.append(d)
        victims: set[int] = {x}
        for rep, trace in pairs:
            cover_ids.append(rep)
            victims |= trace
        for v in sorted(victims):
            index.delete_vertex(v)

    if len(set(cover_ids)) != len(cover_ids):
        raise CertificateError("an edge was selected twice")
    cover = tuple(sorted(cover_ids))
    independent = tuple(chosen)
    total = sum(per_step)
    inequality = len(cover) <= total <= bound * len(independent) if independent else len(cover) == 0
    if mighty_value is not None and independent:
        inequality = inequality and total <= mighty_value * len(independent)
    checks = CoverChecks(
        cover_valid=check(h, "edge-cover", cover),
        independent_valid=check(h, "independent-set", independent),
        inequality_holds=inequality,
    )
    if not (checks.cover_valid and checks.independent_valid and checks.inequality_holds):
        raise CertificateError(f"greedy cover failed its self-check: {checks}")
    return CoverCertificate(cover, independent, tuple(per_step), bound, mighty_value, checks)


def greedy_transversal(h: Hypergraph) -> TransversalCertificate:
    """Greedy cover of the dual, mapped back: a transversal of ``h`` plus a
    matching in ``h`` within a factor of each other.

    Raises:
        IsolatedVertexError: some vertex lies in no edge (the dual would
            need an empty edge).
        CertificateError: the run failed its own checks.
    """
    cert = greedy_cover(dual(h))
    # Each chosen dual edge maps back to its smallest generator.  These
    # ascend with the dual edge id, so the transversal stays sorted, and the
    # map is one-to-one, so the dual run's inequality is this run's too.
    generators = h._incidence_classes[1]
    transversal = tuple(generators[i][0] for i in cert.cover)
    checks = TransversalChecks(
        transversal_valid=check(h, "transversal", transversal),
        matching_valid=check(h, "matching", cert.independent),
        inequality_holds=cert.checks.inequality_holds,
    )
    if not (checks.transversal_valid and checks.matching_valid and checks.inequality_holds):
        raise CertificateError(f"greedy transversal failed its self-check: {checks}")
    return TransversalCertificate(transversal, cert.independent, cert.per_step_edges, cert.bound_factor, checks)
