"""Greedy edge cover with a certified multiplicative bound, and its dual.

The greedy is the peel of :mod:`hypercover.degeneracy` with the strong
removal move.  Each step takes a vertex ``x`` of minimum strong degree,
puts every maximal trace through ``x`` into the cover (as its
representative, the smallest base edge reproducing it), and strongly
removes ``x``.  The selected vertices form an independent set ``X`` and the
step sizes telescope into

    |C|  <=  sum of step sizes  <=  factor * |X|.

A step size is the minimum strong degree of a restriction that strong
removal reaches, so the run holds the sandwich

    largest step  <=  mighty degeneracy  <=  strong degeneracy,

and the factor is the strong degeneracy, tightened to the mighty value when
that is affordable.  The strong degeneracy comes first, from a batched
strong-core peel on its own index, so it checks the greedy's steps rather
than being read off them; that index is gone before the greedy builds its
own.  Only its seed, taken before its first deletion, outlives it: the ids
of the maximal edges, which its build kept, their hashes and a copy of
their witness pairs.  The greedy's build keeps those edges, reads its rows
off the incidence of ``h`` and skips its hash loop and dominance pass.  The
greedy's last step takes all that is left, so it ends there, without the
deletion.
The mighty search starts at the largest step and stops at the strong
degeneracy, and when the two meet it searches nothing.  Since an edge cover
is never smaller than an independent set, a run certifies both quantities.

``greedy_transversal`` runs the same greedy on the dual hypergraph, turning
the cover into a transversal and the independent set into a matching.
When no two vertices of ``h`` share an incidence row, the dual's own
incidence is the edge list of ``h``, so it is stored, not computed again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Hypergraph, _reject_isolated, check
from .degeneracy import _best_restriction, _peel, _strong_degeneracy
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

    With ``mighty=True`` the mighty value is attached when the search can
    afford it, searched between the largest step and the strong degeneracy.

    Raises:
        IsolatedVertexError: some vertex lies in no edge.
        CertificateError: the run failed its own checks.
    """
    _reject_isolated(h)
    cover, independent, per_step, bound, mighty_value, inequality = _greedy(h, mighty)
    checks = CoverChecks(
        cover_valid=check(h, "edge-cover", cover),
        independent_valid=check(h, "independent-set", independent),
        inequality_holds=inequality,
    )
    if not (checks.cover_valid and checks.independent_valid and checks.inequality_holds):
        raise CertificateError(f"greedy cover failed its self-check: {checks}")
    return CoverCertificate(cover, independent, per_step, bound, mighty_value, checks)


def _greedy(
    h: Hypergraph, mighty: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int, int | None, bool]:
    """One greedy run on ``h``, whose every vertex lies in an edge: the
    ascending cover, the independent set, the step sizes, the strong
    degeneracy, the mighty value (``None`` unless requested and affordable),
    and whether the inequality holds for each factor.  The cover and the
    independent set are left for the caller to check."""
    bound, seed = _strong_degeneracy(h)
    steps, cover_ids = _peel(h, strong=True, strong_removal=True, seed=seed)
    if len(set(cover_ids)) != len(cover_ids):
        raise CertificateError("an edge was selected twice")
    cover = tuple(sorted(cover_ids))
    independent, per_step = steps.order, steps.step_values
    mighty_value = _best_restriction(h, max(per_step, default=0), bound) if mighty else None
    total = sum(per_step)
    inequality = len(cover) <= total <= bound * len(independent)
    if mighty_value is not None:
        inequality = inequality and total <= mighty_value * len(independent)
    return cover, independent, per_step, bound, mighty_value, inequality


def greedy_transversal(h: Hypergraph) -> TransversalCertificate:
    """Greedy cover of the dual, mapped back: a transversal of ``h`` plus a
    matching in ``h`` within a factor of each other.

    The dual is built without its labels, and its cover and independent set
    are checked once, as the transversal and the matching of ``h``.

    Raises:
        IsolatedVertexError: some vertex lies in no edge (the dual would
            need an empty edge).
        CertificateError: the run failed its own checks.
    """
    _reject_isolated(h)
    edges, generators = h._incidence_classes
    # The dual as core.dual builds it, less the labels; every edge of h is
    # nonempty, so every dual vertex lies in a dual edge.
    d = Hypergraph._unchecked(h.m, edges)
    if len(edges) == h.n:
        # No two vertices share an incidence row, so dual edge v is vertex
        # v's row, and dual vertex i lies in the dual edges of h.edges[i].
        d.__dict__["incidence"] = h.edges
    cover, matching, per_step, bound, _, inequality = _greedy(d)
    # Each chosen dual edge maps back to its smallest generator.  These
    # ascend with the dual edge id, so the transversal stays sorted, and the
    # map is one-to-one, so the dual run's inequality is this run's too.
    transversal = tuple(generators[i][0] for i in cover)
    checks = TransversalChecks(
        transversal_valid=check(h, "transversal", transversal),
        matching_valid=check(h, "matching", matching),
        inequality_holds=inequality,
    )
    if not (checks.transversal_valid and checks.matching_valid and checks.inequality_holds):
        raise CertificateError(f"greedy transversal failed its self-check: {checks}")
    return TransversalCertificate(transversal, matching, per_step, bound, checks)
