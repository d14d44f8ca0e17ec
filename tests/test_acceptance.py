"""Acceptance gate: one test and one printed verdict line per guarantee.

Each test prints ``ACCEPT <label>: PASS/FAIL`` outside the capture scope
so a full run reads as a checklist.  Random instances use fixed seeds;
every optimum quoted here is recomputed by the brute-force oracles inside
the run itself.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from math import comb

from hypercover import (
    Graph,
    check,
    check_graph,
    degeneracy,
    exact,
    format_graph,
    format_hypergraph,
    gap_family,
    greedy_cover,
    greedy_transversal,
    mighty_degeneracy_bf,
    neighborhood_equivalence_audit,
    neighborhood_hypergraph,
    parse_graph,
    parse_hypergraph,
    random_hypergraph,
    random_tree,
    strong_degeneracy,
    strong_degeneracy_bf,
    tree_domination,
)
from hypercover.core import dual

from conftest import plain_degeneracy_bf


def gate(capsys, label: str, ok: bool, extra: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    with capsys.disabled():
        print(f"\nACCEPT {label}: {verdict}{tail}", flush=True)
    return ok


@lru_cache(maxsize=1)
def coverable_instances():
    """100 cover-feasible random hypergraphs with n <= 12 and m <= 14."""
    out = []
    for i in range(100):
        n = 4 + i % 9
        m = n + i % 3
        size = 2 + i % 4
        out.append(random_hypergraph(n, m, size, seed=1000 + i, cover_feasible=True))
    return out


def test_gap_family_separates_the_parameters(capsys):
    """strong value n-2 versus mighty value 2, for every n in 4..12."""
    start = time.perf_counter()
    ok = True
    for n in range(4, 13):
        g = gap_family(n)
        ok = ok and strong_degeneracy(g).value == n - 2
        ok = ok and mighty_degeneracy_bf(g) == 2
    # n=3 behaves differently: both parameters collapse to 1, so only the
    # ordering between them is asserted there.
    g3 = gap_family(3)
    strong3 = strong_degeneracy(g3).value
    mighty3 = mighty_degeneracy_bf(g3)
    ok = ok and mighty3 <= strong3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert gate(
        capsys,
        "gap family n=4..12 has strong=n-2, mighty=2",
        ok,
        f"n=3 measured strong={strong3} mighty={mighty3}; {elapsed:.1f}s",
    )


def test_gap5_meets_the_cover_bound_with_equality(capsys):
    """Greedy and optimum coincide: cover 2 = mighty 2 x independent 1."""
    g = gap_family(5)
    cover_opt = exact(g, "min-edge-cover").value
    alpha_opt = exact(g, "max-independent-set").value
    cert = greedy_cover(g, mighty=True)
    ok = (
        cover_opt == 2
        and alpha_opt == 1
        and len(cert.cover) == 2
        and len(cert.independent) == 1
        and cert.mighty_factor == 2
        and cover_opt == cert.mighty_factor * alpha_opt
    )
    assert gate(capsys, "gap n=5 tightness: cover 2 = mighty 2 x independent 1", ok)


def test_cover_certificates_on_100_random_instances(capsys):
    """Greedy cover within the mighty bound and bracketed by the optima."""
    failures = 0
    for h in coverable_instances():
        cert = greedy_cover(h)
        strong = strong_degeneracy(h).value
        mighty = mighty_degeneracy_bf(h)
        good = (
            cert.checks.cover_valid
            and cert.checks.independent_valid
            and cert.checks.inequality_holds
            and len(cert.cover) <= mighty * len(cert.independent)
            and mighty * len(cert.independent) <= strong * len(cert.independent)
            and exact(h, "min-edge-cover").value <= len(cert.cover)
            and len(cert.independent) <= exact(h, "max-independent-set").value
        )
        failures += not good
    assert gate(
        capsys,
        "greedy cover certificates on 100 random instances",
        failures == 0,
        f"{failures} failures",
    )


def test_transversal_duality_on_the_same_instances(capsys):
    """tau <= mighty(dual) x rho, with validating dual-greedy certificates."""
    failures = 0
    for h in coverable_instances():
        tau = exact(h, "min-transversal").value
        rho = exact(h, "max-matching").value
        mighty_dual = mighty_degeneracy_bf(dual(h))
        cert = greedy_transversal(h)
        good = (
            tau <= mighty_dual * rho
            and cert.checks.transversal_valid
            and cert.checks.matching_valid
            and cert.checks.inequality_holds
            and tau <= len(cert.transversal)
            and len(cert.matching) <= rho
        )
        failures += not good
    assert gate(
        capsys,
        "transversal duality on 100 random instances",
        failures == 0,
        f"{failures} failures",
    )


def test_peeling_agrees_with_brute_force_on_100_instances(capsys):
    """Peeled values equal subset-enumeration values; chain holds."""
    failures = 0
    for i in range(100):
        n = 3 + i % 8
        size = 1 + i % min(n, 4)
        available = sum(comb(n, k) for k in range(1, size + 1))
        m = min(1 + i % 9, available)
        h = random_hypergraph(n, m, size, seed=2000 + i)
        strong = strong_degeneracy(h).value
        plain = degeneracy(h).value
        mighty = mighty_degeneracy_bf(h)
        good = (
            strong == strong_degeneracy_bf(h)
            and plain == plain_degeneracy_bf(h)
            and mighty <= strong <= plain
        )
        failures += not good
    assert gate(
        capsys,
        "peeling matches brute force on 100 random instances",
        failures == 0,
        f"{failures} failures",
    )


def test_tree_domination_is_exact_on_200_trees(capsys):
    """|D| = |P| = both optima, closed and open, for n <= 18."""
    start = time.perf_counter()
    failures = 0
    for i in range(200):
        n = 2 + i % 17
        t = random_tree(n, seed=3000 + i)
        closed = tree_domination(t, "closed")
        open_cert = tree_domination(t, "open")
        good = (
            check_graph(t, "dominating", closed.dominating)
            and check_graph(t, "2-packing", closed.packing)
            and len(closed.dominating)
            == len(closed.packing)
            == exact(t, "min-dominating").value
            == exact(t, "max-2-packing").value
            and check_graph(t, "total-dominating", open_cert.dominating)
            and check_graph(t, "open-2-packing", open_cert.packing)
            and len(open_cert.dominating)
            == len(open_cert.packing)
            == exact(t, "min-total-dominating").value
            == exact(t, "max-open-2-packing").value
        )
        failures += not good
    for i in range(50):
        n = 20 + i * 3
        t = random_tree(n, seed=4000 + i)
        closed = tree_domination(t, "closed")
        open_cert = tree_domination(t, "open")
        good = (
            closed.equal
            and closed.checks.dominating_valid
            and closed.checks.packing_valid
            and open_cert.equal
            and open_cert.checks.dominating_valid
            and open_cert.checks.packing_valid
            and strong_degeneracy(neighborhood_hypergraph(t, "closed")).value == 1
        )
        failures += not good
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 300.0
    assert gate(
        capsys,
        "tree domination exact on 200 trees, structural on 50 larger ones",
        ok,
        f"{failures} failures; {elapsed:.1f}s",
    )


def test_graph_hypergraph_equivalence_on_1000_samples(capsys):
    """Domination=cover and packing=independence on random subsets, plus
    the strong-degree bounds deg+1 (closed) and deg (open)."""
    samples = 0
    failures = 0
    bound_failures = 0
    for i in range(50):
        n = 2 + i % 15
        tree = random_tree(n, seed=5000 + i)
        # a tree plus a few chords keeps every vertex non-isolated, so the
        # open-kind checks always participate
        rng = random.Random(6000 + i)
        chords = set()
        for _ in range(3):
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if u != v:
                chords.add((min(u, v), max(u, v)))
        g = Graph.from_edges(n, sorted(set(tree.edges) | chords))
        report = neighborhood_equivalence_audit(g, trials=20, seed=i)
        samples += report.trials
        failures += report.failures
        bound_failures += report.degree_bound_failures
    ok = samples == 1000 and failures == 0 and bound_failures == 0
    assert gate(
        capsys,
        "graph/hypergraph equivalence on 1000 samples",
        ok,
        f"{failures} check failures, {bound_failures} bound failures",
    )


def test_outputs_are_deterministic_and_round_trip(capsys):
    """Generators re-parse to equal structures; repeated runs are
    byte-identical; the large-instance smoke run stays under 5 s."""
    ok = True
    for n in (3, 5, 9):
        g = gap_family(n)
        ok = ok and parse_hypergraph(format_hypergraph(g)) == g
    for seed in (0, 7):
        t = random_tree(25, seed=seed)
        ok = ok and parse_graph(format_graph(t)) == t
        ok = ok and random_tree(25, seed=seed) == t
        h = random_hypergraph(30, 40, 4, seed=seed, cover_feasible=True)
        ok = ok and parse_hypergraph(format_hypergraph(h)) == h
        ok = ok and random_hypergraph(30, 40, 4, seed=seed, cover_feasible=True) == h
        ok = ok and format_hypergraph(h) == format_hypergraph(h)

    big = random_hypergraph(10_000, 18_200, 10, seed=42, cover_feasible=True)
    start = time.perf_counter()
    cert = greedy_cover(big)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    ok = ok and check(big, "edge-cover", cert.cover)
    assert gate(
        capsys,
        "determinism, round trips, and the n=10^4 smoke run",
        ok,
        f"peel+cover {elapsed:.2f}s on n={big.n}, sum|e|={sum(len(e) for e in big.edges)}",
    )
