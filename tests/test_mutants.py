"""Known wrong copies of the engine, each caught by a named property check.

Each test installs one mutant in place of the function it copies, under
every module name bound to the original, and runs the check that a property
test draws on over fixed cases: that property's pinned examples and the
seeded ``sparse_corpus``.  Every case must pass on the original and some
case must fail with an assertion under the mutant.  A mutant is a one-line
textual change to the original's source, so it follows the original as it
evolves; the change must match exactly once.
"""

from __future__ import annotations

import __future__
import inspect
import random
import sys
import textwrap

from hypercover import Graph, gap_family, parse_hypergraph, tree_domination
from hypercover._trace_index import TraceIndex
from hypercover.degeneracy import _best_restriction, _peel, _strong_core, _strong_degeneracy
from hypercover.oracles import _search

from conftest import check_outcome, sparse_corpus
import test_core
import test_cover
import test_degeneracy
import test_domination
import test_oracles
import test_robustness


def mutant(fn, old: str, new: str):
    """``fn`` compiled from its source with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{old!r} does not occur once in {fn.__qualname__}"
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, fn.__globals__, namespace)
    return namespace[fn.__name__]


def install(monkeypatch, original, replacement) -> None:
    """Bind ``replacement`` wherever the package or a test module binds
    ``original``."""
    for key, module in list(sys.modules.items()):
        if not key.startswith(("hypercover", "test_")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


def caught(check, cases) -> bool:
    """Whether ``check`` fails with an assertion on some case (a tuple of
    its arguments)."""
    for args in cases:
        try:
            check(*args)
        except AssertionError:
            return True
    return False


def corpus_without_isolated_vertices():
    return [h for h in sparse_corpus() if len(set().union(*h.edge_sets)) == h.n]


def deletion_sets(seed: int = 7):
    """For each corpus instance, seeded disjoint vertex sets whose deletion
    leaves at least one vertex."""
    rng = random.Random(seed)
    for h in sparse_corpus():
        order = rng.sample(range(h.n), h.n)[:-1]
        cuts = sorted(rng.sample(range(1, h.n), min(3, h.n - 1))) if h.n > 1 else []
        bounds = [0, *cuts, len(order)]
        yield h, [set(order[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b]


def test_batched_peel_that_stops_after_one_round(monkeypatch):
    check = test_degeneracy.check_batched_strong_degeneracy
    cases = [(h,) for h in (*test_degeneracy.BATCH_EXAMPLES, *sparse_corpus())]
    assert not caught(check, cases)
    install(monkeypatch, _strong_degeneracy, mutant(_strong_degeneracy, "index._delete(gone)", "break"))
    assert caught(check, cases)


def test_batched_peel_that_stops_once_a_batch_takes_half(monkeypatch):
    check = test_degeneracy.check_batched_strong_degeneracy
    cases = [(h,) for h in (*test_degeneracy.BATCH_EXAMPLES, *sparse_corpus())]
    assert not caught(check, cases)
    install(monkeypatch, _strong_degeneracy, mutant(_strong_degeneracy, "len(gone) == live", "2 * len(gone) > live"))
    assert caught(check, cases)


def test_search_that_stops_one_below_its_ceiling(monkeypatch):
    check = test_cover.check_mighty_value
    cases = [(h,) for h in (*test_cover.MIGHTY_EXAMPLES, *corpus_without_isolated_vertices())]
    assert not caught(check, cases)
    wrong = mutant(_best_restriction, "while best != ceiling and", "while (ceiling is None or best + 1 < ceiling) and")
    install(monkeypatch, _best_restriction, wrong)
    assert caught(check, cases)


def test_core_that_peels_a_single_round(monkeypatch):
    check = test_degeneracy.check_strong_core
    assert not caught(check, test_degeneracy.CORE_EXAMPLES)
    install(monkeypatch, _strong_core, mutant(_strong_core, "        core ^= low\n", "        core ^= low\n        break\n"))
    assert caught(check, test_degeneracy.CORE_EXAMPLES)


def collided(check):
    """``check`` run with every Zobrist key zero, so that all traces share
    one hash: with random keys, distinct traces rarely do."""
    def run(*args):
        with test_degeneracy.colliding_keys():
            check(*args)
    return run


def test_deletion_that_skips_merging_two_shrunken_traces(monkeypatch):
    check = test_degeneracy.TestTraceIndex().check_records
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_merges", mutant(TraceIndex._merges, "if s in [members[w] for w in same if w != t]:", "if False:"))
    assert caught(check, cases)


def test_strong_deletion_that_skips_merging_two_shrunken_traces(monkeypatch):
    # A strong deletion files its shrunk traces by the rule written out in
    # _settle, not through _merges.
    check = test_degeneracy.TestTraceIndex().check_records
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_settle", mutant(TraceIndex._settle, "if s in [members[v] for v in same]:", "if False:"))
    assert caught(check, cases)


def test_strong_deletion_that_merges_on_a_hash_hit_without_comparing_sets(monkeypatch):
    check = collided(test_degeneracy.TestTraceIndex().check_records)
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_settle", mutant(TraceIndex._settle, "if s in [members[v] for v in same]:", "if same:"))
    assert caught(check, cases)


def test_strong_deletion_that_keeps_a_shrunk_trace_inside_another(monkeypatch):
    # The build runs the same pass, so this mutant keeps dominated edges too.
    check = test_degeneracy.TestTraceIndex().check_records
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_dominated", mutant(TraceIndex._dominated, "if s < members[u]:", "if False:"))
    assert caught(check, cases)


def test_strong_recheck_that_scans_the_traces_through_one_member_but_not_the_other(monkeypatch):
    # Every trace above a shrunk one holds both of its first two members.
    check = test_degeneracy.TestTraceIndex().check_records
    cases = [*deletion_sets(), *test_degeneracy.hub_pair_deletions()]
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_dominated", mutant(TraceIndex._dominated, "row = row & other", "row = row - other"))
    assert caught(check, cases)


def test_strong_recheck_past_a_hub_pair_that_scans_the_shortest_row_of_any_vertex(monkeypatch):
    # Only the hub shapes give two members rows long enough for this branch;
    # a deleted vertex's empty row, or a row missing a member, hides the
    # traces above.
    check = test_degeneracy.TestTraceIndex().check_records
    cases = [*deletion_sets(), *test_degeneracy.hub_pair_deletions()]
    assert not caught(check, cases)
    wrong = mutant(TraceIndex._dominated, "for v in it:", "for v in range(len(vertex_traces)):")
    monkeypatch.setattr(TraceIndex, "_dominated", wrong)
    assert caught(check, cases)


def test_plain_deletion_that_forgets_the_traces_filed_before_it(monkeypatch):
    # A shrunk trace may equal one the deletion missed, filed by the build or
    # an earlier call.
    check = test_degeneracy.TestTraceIndex().check_records
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_settle", mutant(TraceIndex._settle, "filed = self._filed", "filed = ({}, {})"))
    assert caught(check, cases)


def test_plain_deletion_that_skips_the_list_when_the_first_entry_is_itself(monkeypatch):
    # Only a colliding hash files a trace under the same hash twice.
    check = collided(test_degeneracy.TestTraceIndex().check_records)
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_merges", mutant(TraceIndex._merges, "if u != t or code in shared:", "if u != t:"))
    assert caught(check, cases)


def test_strong_recheck_whose_probe_may_be_the_trace_itself(monkeypatch):
    # Correct but quadratic: in the kernel-{0, 1} sunflower the probe is the
    # shrunk trace itself at every petal deletion, so each re-check scans
    # the kernel's row from the empty slots of all earlier drops.
    check = test_robustness.check_strong_peel_within_2_s
    cases = [(test_robustness.kernel_pair_sunflower(160000),)]
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_dominated", mutant(TraceIndex._dominated, "w = row.pop() if u == t else u", "w = u"))
    assert caught(check, cases)


def peel_mutant_is_caught(monkeypatch, old: str, new: str) -> None:
    check = test_degeneracy.check_peeling_steps
    cases = [(h,) for h in (*(gap_family(n) for n in range(3, 9)), *sparse_corpus())]
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "peel", mutant(TraceIndex.peel, old, new))
    assert caught(check, cases)


def test_strong_peel_that_skips_the_recheck(monkeypatch):
    peel_mutant_is_caught(monkeypatch, "and dominated(t, s):", "and False:")


def test_strong_peel_that_reads_only_the_first_member_of_a_witness(monkeypatch):
    # A deletion of the pair's second member leaves the trace unchecked.
    peel_mutant_is_caught(monkeypatch, "or x in w)", "or x == w[0])")


def test_plain_peel_that_files_nothing(monkeypatch):
    # A trace that loses x may equal one that missed x, filed before.
    peel_mutant_is_caught(monkeypatch, "if merges(t, s, filed):", "if False:")


def witness_mutant_is_caught(monkeypatch, method: str, old: str, new: str) -> None:
    check = test_degeneracy.check_witnesses
    cases = [(h,) for h in (*(gap_family(n) for n in range(3, 9)), *sparse_corpus())]
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, method, mutant(getattr(TraceIndex, method), old, new))
    assert caught(check, cases)


def test_strong_deletion_that_trusts_a_witness_with_one_member_left(monkeypatch):
    witness_mutant_is_caught(monkeypatch, "_settle", "alive[w[0]] and alive[w[1]]", "alive[w[0]] or alive[w[1]]")


def test_strong_recheck_that_records_a_witness_another_trace_shares(monkeypatch):
    witness_mutant_is_caught(monkeypatch, "_dominated", "(a, b) if len(row) == 1 else None", "(a, b)")


def test_seed_whose_pairs_are_not_copied(monkeypatch):
    # The bound's batched peel records pairs that hold only in its smaller
    # rows; shared, they reach the greedy's build.
    witness_mutant_is_caught(monkeypatch, "seed", "self._wit[:]", "self._wit")


def test_greedy_that_stops_one_deletion_early(monkeypatch):
    # It skips the deletion that leaves one vertex, and so the step that
    # takes it.
    check = test_cover.check_greedy_steps
    cases = [(h,) for h in (*test_cover.GREEDY_EXAMPLES, *corpus_without_isolated_vertices())]
    assert not caught(check, cases)
    install(monkeypatch, _peel, mutant(_peel, "if len(gone) == live:", "if len(gone) >= live - 1:"))
    assert caught(check, cases)


def test_build_that_keeps_every_edge_despite_the_handed_over_ids(monkeypatch):
    check = test_degeneracy.TestTraceIndex.check_handed_over_build
    cases = [(h,) for h in (*(gap_family(n) for n in range(3, 9)), *sparse_corpus())]
    assert not caught(check, cases)
    wrong = mutant(TraceIndex.__init__, "kept = range(h.m) if seed is None else seed[0]", "kept = range(h.m)")
    monkeypatch.setattr(TraceIndex, "__init__", wrong)
    assert caught(check, cases)


def test_representative_that_is_the_kept_trace_id(monkeypatch):
    check = test_degeneracy.TestTraceIndex().check_records
    cases = list(deletion_sets())
    assert not caught(check, cases)
    monkeypatch.setattr(TraceIndex, "_representative", mutant(TraceIndex._representative, "s = self._members[t]", "return t"))
    assert caught(check, cases)


def test_search_that_records_a_cover_as_large_as_the_best(monkeypatch):
    # The later of two smallest covers replaces the lexicographically least.
    check = test_oracles.check_exact_matches_enumeration
    cases = [(x,) for x in test_oracles.EXACT_EXAMPLES.values()]
    assert not caught(check, cases)
    install(monkeypatch, _search, mutant(_search, "size + 1 >= bound", "size + 1 > bound"))
    assert caught(check, cases)


def test_packing_bound_one_too_strict(monkeypatch):
    check = test_oracles.check_exact_matches_enumeration
    cases = [(x,) for x in test_oracles.EXACT_EXAMPLES.values()]
    assert not caught(check, cases)
    install(monkeypatch, _search, mutant(_search, "size + g - j <= bound", "size + g - j <= bound + 1"))
    assert caught(check, cases)


def tree_solver_mutant_is_caught(monkeypatch, old: str, new: str) -> None:
    check = test_domination.check_tree_domination
    cases = test_domination.tree_cases()
    assert not caught(check, cases)
    install(monkeypatch, tree_domination, mutant(tree_domination, old, new))
    assert caught(check, cases)


def test_tree_solver_whose_closed_test_ignores_live_neighbours_that_are_not_big(monkeypatch):
    # With one big neighbour b, x's own trace lies inside b's only once every
    # other neighbour of x is dead.
    tree_solver_mutant_is_caught(monkeypatch, " and ln[y] == lbad[y]", "")


def test_tree_solver_that_keeps_counting_a_dead_big_neighbour_as_live(monkeypatch):
    tree_solver_mutant_is_caught(monkeypatch, "lbad[v] -= 1", "pass")


def test_tree_solver_that_keeps_counting_a_live_neighbour_as_big_once_it_is_not(monkeypatch):
    tree_solver_mutant_is_caught(monkeypatch, "lbad[y] -= 1", "pass")


def test_tree_solver_whose_open_test_allows_two_big_neighbours(monkeypatch):
    tree_solver_mutant_is_caught(monkeypatch, "bad[y] <= 1", "bad[y] <= 2")


def test_graph_from_edges_without_its_self_loop_check(monkeypatch):
    # The reader rejects a self-loop itself, so only a direct call shows it.
    cases = list(test_domination.GRAPH_CONTRACT.values())
    assert not caught(check_outcome, cases)
    monkeypatch.setattr(Graph, "from_edges", mutant(Graph.from_edges.__func__, "if u == v:", "if False:"))
    assert caught(check_outcome, cases)


def test_hypergraph_reader_that_skips_the_strict_duplicate_edge_rule(monkeypatch):
    cases = list(test_core.HYPERGRAPH_CONTRACT.values())
    assert not caught(check_outcome, cases)
    old = "Hypergraph(n, found) if unique is None else Hypergraph._unchecked(n, unique)"
    wrong = mutant(parse_hypergraph, old, "Hypergraph._unchecked(n, found if unique is None else unique)")
    install(monkeypatch, parse_hypergraph, wrong)
    assert caught(check_outcome, cases)
