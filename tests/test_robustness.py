"""Guarantees that must hold however the package is run: certificate checks
that survive ``python -O``, fail-fast rejection of tiny files that announce
huge vertex counts, and the file formats exactly as the README shows them.
"""

from __future__ import annotations

import errno
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest

from hypercover import (
    Graph,
    Hypergraph,
    format_hypergraph,
    greedy_cover,
    greedy_transversal,
    neighborhood_hypergraph,
    parse_graph,
    parse_hypergraph,
    random_hypergraph,
    random_tree,
    strong_degeneracy,
    tree_domination,
)
from hypercover.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

# Patches every definition checker the solvers consult to reject, then
# reports for each solver whether it raised CertificateError.
BROKEN_CHECKERS = """
import hypercover as hc
from hypercover import cli, cover, domination, oracles
from hypercover.errors import CertificateError

if __debug__:
    raise SystemExit("expected python -O")
never = lambda *args: False
cover.check = oracles.check = never
domination.check_graph = oracles.check_graph = never
calls = {
    "greedy_cover": lambda: hc.greedy_cover(hc.gap_family(5)),
    "greedy_transversal": lambda: hc.greedy_transversal(hc.gap_family(5)),
    "tree_domination closed": lambda: hc.tree_domination(hc.path_graph(4)),
    "tree_domination open": lambda: hc.tree_domination(hc.path_graph(4), "open"),
}
for problem in hc.PROBLEMS:
    instance = hc.path_graph(4) if problem in hc.GRAPH_PROBLEMS else hc.gap_family(5)
    calls[f"exact {problem}"] = lambda i=instance, p=problem: hc.exact(i, p)
for name, call in calls.items():
    try:
        call()
    except CertificateError:
        print(name, "raised")
    else:
        print(name, "returned")
print("cli exit", cli.main(["cover"]))
"""


def test_certificate_checks_survive_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_CHECKERS],
        input="p hg 2 1\ne 1 2\n",
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 13
    assert [line for line in lines[:-1] if not line.endswith(" raised")] == []
    assert lines[-1] == "cli exit 1"
    assert proc.stderr.startswith("error: CertificateFailed: ")


def _main_with_peak(argv: list[str]) -> tuple[int, int]:
    """Exit code of ``cli.main(argv)`` and its peak traced allocation."""
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


@pytest.mark.parametrize("command", ["cover", "transversal", "dual"])
def test_tiny_file_with_a_huge_vertex_count_fails_fast(tmp_path, capsys, command):
    path = tmp_path / "huge.hg"
    path.write_text("p hg 20000000 1\ne 1")
    code, peak = _main_with_peak([command, str(path)])
    assert code == 1
    # 0-based vertex 1 is vertex 2 of the file.
    assert capsys.readouterr().err.startswith("error: IsolatedVertex: vertex 2 ")
    assert peak < 64 * 2**20


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["verify", "--kind", "edge-cover"], 0, "valid: False"),
        (["verify", "--kind", "transversal", "--ids", "1"], 0, "valid: True"),
        (["vc"], 1, "error: TooLarge: 20000000 vertices exceed the cap of 20"),
    ],
)
def test_checks_on_a_tiny_file_with_a_huge_vertex_count_stay_small(tmp_path, capsys, argv, code, line):
    path = tmp_path / "huge.hg"
    path.write_text("p hg 20000000 0")
    exit_code, peak = _main_with_peak([*argv, "--input", str(path)])
    captured = capsys.readouterr()
    assert exit_code == code
    assert line in (captured.out + captured.err).splitlines()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n", [200000, 20000000])
@pytest.mark.parametrize(
    "argv, error",
    [(["dominate"], "NotATree"), (["exact", "--problem", "min-dominating"], "TooLarge")],
)
def test_tiny_graph_header_with_a_huge_vertex_count_fails_fast(tmp_path, capsys, n, argv, error):
    path = tmp_path / "huge.gr"
    path.write_text(f"p edge {n} 0")
    code, peak = _main_with_peak([*argv, str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
    assert peak < 64 * 2**20


@pytest.mark.parametrize("kind, line", [("dominating", "valid: False"), ("2-packing", "valid: True")])
def test_graph_checks_on_a_tiny_file_with_a_huge_vertex_count_stay_small(tmp_path, capsys, kind, line):
    path = tmp_path / "huge.gr"
    path.write_text("p edge 200000 0")
    code, peak = _main_with_peak(["verify", "--kind", kind, "--ids", "1", "--input", str(path)])
    assert code == 0
    assert line in capsys.readouterr().out.splitlines()
    assert peak < 64 * 2**20


# Counts of 10^18 and 10^20 only: one of 10^9 to 10^12 can really allocate
# gigabytes before it fails.  The strong and plain peels are left out: on a
# count that passes the header they build one entry per vertex in no edge.
PAST_THE_INDEX_RANGE = {
    "hg": "p hg 100000000000000000000 1\ne 1",
    "gr": "p edge 100000000000000000000 0",
}


@pytest.mark.parametrize(
    "suffix, argv",
    [
        ("hg", ["verify", "--kind", "edge-cover"]),
        ("hg", ["vc"]),
        ("hg", ["degeneracy", "--kind", "mighty-bf"]),
        ("hg", ["cover"]),
        ("hg", ["dual"]),
        ("gr", ["verify", "--kind", "dominating", "--ids", "1"]),
        ("gr", ["audit", "--trials", "1"]),
        ("gr", ["dominate"]),
        ("gr", ["exact", "--problem", "min-dominating"]),
    ],
)
def test_a_header_count_past_the_index_range_is_a_syntax_error(tmp_path, capsys, suffix, argv):
    path = tmp_path / f"huge.{suffix}"
    path.write_text(PAST_THE_INDEX_RANGE[suffix])
    assert main([*argv, "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: SyntaxError: line 1: header counts must not exceed {sys.maxsize}\n"


# More digits than CPython's int() converts by default (4,300).
LONG = "1" * 5000


@pytest.fixture
def int_digit_limit():
    """CPython's default limit on the digits ``int`` converts, held for the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "text, argv",
    [
        (f"p hg {LONG} 0", ["vc"]),
        (f"p hg 3 {LONG}\ne 1", ["degeneracy", "--kind", "strong"]),
        (f"p hg {LONG} 1\ne 1", ["cover"]),
        (f"p edge {LONG} 0", ["dominate"]),
        (f"p edge 3 {LONG}", ["exact", "--problem", "min-dominating"]),
    ],
    ids=["vc-n", "degeneracy-m", "cover-n", "dominate-n", "exact-m"],
)
def test_a_header_count_too_long_to_convert_is_past_the_index_range(tmp_path, capsys, int_digit_limit, text, argv):
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert main([*argv, "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: SyntaxError: line 1: header counts must not exceed {sys.maxsize}\n"


@pytest.mark.parametrize(
    "text, argv",
    [
        (f"p hg 3 1\ne 1 {LONG}", ["cover"]),
        (f"p hg 3 1\ne {LONG}", ["verify", "--kind", "edge-cover", "--ids", "1"]),
        (f"p edge 3 1\ne {LONG} 2", ["dominate"]),
    ],
    ids=["cover", "verify", "dominate"],
)
def test_a_vertex_id_too_long_to_convert_is_out_of_range(tmp_path, capsys, int_digit_limit, text, argv):
    path = tmp_path / "long.txt"
    path.write_text(text)
    assert main([*argv, "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: VertexOutOfRange: line 2: a vertex id of 5000 digits lies outside 1..3\n"


def test_leading_zeros_do_not_count_toward_the_digit_limit(int_digit_limit):
    zeros = "0" * 5000
    assert parse_hypergraph(f"p hg {zeros}3 1\ne {zeros}1 2 3").edges == ((0, 1, 2),)
    assert parse_graph(f"p edge 3 1\ne 1 {zeros}2").edges == ((0, 1),)


def test_an_option_too_long_to_convert_is_a_usage_error(capsys, int_digit_limit):
    assert main(["gen", "gap", "--n", LONG]) == 2
    assert f"argument --n: invalid int value: '{LONG}'" in capsys.readouterr().err


@pytest.mark.parametrize("family", [["gap"], ["tree"], ["hg", "--m", "1", "--max-size", "1"]])
def test_a_generated_size_past_the_index_range_is_a_usage_error(capsys, family):
    # Past sys.maxsize, gap and hg raised OverflowError and tree never ended.
    assert main(["gen", family[0], "--n", "99999999999999999999", *family[1:]]) == 2
    assert capsys.readouterr().err == f"error: argument --n: must not exceed {sys.maxsize}\n"


@pytest.mark.parametrize("argv", [["verify", "--kind", "dominating", "--ids", "1"], ["audit", "--trials", "1"]])
def test_a_graph_too_large_to_allocate_is_out_of_memory(tmp_path, capsys, argv):
    # One adjacency row per vertex of 10^18 is a request that fails at once.
    path = tmp_path / "huge.gr"
    path.write_text("p edge 1000000000000000000 0")
    assert main([*argv, "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_degeneracy_output_of_a_tiny_file_with_a_huge_vertex_count_stays_small(tmp_path, capsys):
    # The order names every vertex, so the output is O(n) by nature; writing
    # it a chunk at a time keeps the peak near the solve's own (12.2 MB).
    path = tmp_path / "huge.hg"
    path.write_text("p hg 200000 0")
    code, peak = _main_with_peak(["degeneracy", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[:2] == ["kind: strong", "value: 0"]
    assert lines[2] == "order: " + " ".join(map(str, range(1, 200001)))
    assert peak < 20 * 2**20


def test_degeneracy_json_of_a_tiny_file_with_a_huge_vertex_count_stays_small(tmp_path, capsys):
    # Written a chunk at a time, the document never exists as one string.
    path = tmp_path / "huge.hg"
    path.write_text("p hg 200000 0")
    code, peak = _main_with_peak(["degeneracy", "--json", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["order"] == list(range(1, 200001))
    assert peak < 32 * 2**20


def test_a_short_generator_call_stays_fast(capsys):
    # Whether 3 edges fit is settled by the first binomial, not by all 16000.
    start = time.process_time()
    code = main(["gen", "hg", "--n", "16000", "--m", "3", "--max-size", "16000"])
    elapsed = time.process_time() - start
    assert code == 0
    assert capsys.readouterr().out.startswith("p hg 16000 3\n")
    assert elapsed < 5


NOT_UTF8 = b"p hg 2 1\ne 1 \xff\n"
NOT_UTF8_ERROR = "error: SyntaxError: input is not UTF-8 text"


def test_a_file_that_is_not_utf8_is_a_coded_error(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_bytes(NOT_UTF8)
    assert main(["cover", str(path)]) == 1
    assert capsys.readouterr().err.startswith(NOT_UTF8_ERROR)


def test_stdin_that_is_not_utf8_is_a_coded_error():
    proc = subprocess.run(
        [sys.executable, "-m", "hypercover", "cover"], input=NOT_UTF8, capture_output=True, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr.decode().startswith(NOT_UTF8_ERROR)


def closed_after_10_bytes(argv: list[str], env: dict[str, str] | None = None) -> tuple[int, str]:
    """Run the command line on ``argv``, read 10 bytes of its stdout and
    close the pipe; return the exit code and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "hypercover", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


BROKEN_PIPE = f"error: cannot write output: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("argv", [["degeneracy", "--kind", "plain"], ["degeneracy", "--kind", "plain", "--json"]])
def test_a_closed_stdout_is_an_output_error(tmp_path, argv):
    # The input reads fine; its 200,000-vertex order then meets a reader
    # that left after 10 bytes.
    path = tmp_path / "wide.hg"
    path.write_text("p hg 200000 0\n")
    assert closed_after_10_bytes([*argv, str(path)]) == (1, BROKEN_PIPE)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["gen", "dual"])
def test_a_closed_stdout_is_an_output_error_for_text_too(tmp_path, command, unbuffered):
    # About 260 kB of .hg text, more than a pipe holds, so the reader leaves
    # mid-write; unbuffered, a single write cut short would raise nothing.
    argv = ["gen", "hg", "--n", "10000", "--m", "20000", "--max-size", "3", "--seed", "1", "--cover-feasible"]
    if command == "dual":
        path = tmp_path / "big.hg"
        path.write_text(format_hypergraph(random_hypergraph(10000, 20000, 3, seed=1, cover_feasible=True)))
        argv = ["dual", str(path)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    assert closed_after_10_bytes(argv, env) == (1, BROKEN_PIPE)


@pytest.mark.parametrize("argv", [["gen", "gap", "--n", "5"], ["degeneracy", "--kind", "plain"]])
def test_a_closed_stdout_is_an_output_error_when_the_buffer_holds_the_rest(tmp_path, argv):
    # Buffered stdout on a pipe that no one reads: the gap instance fits in
    # the buffer and meets the pipe only when it is flushed; the 3000-vertex
    # order overflows it in main, and the rest stays buffered.
    if argv[0] == "degeneracy":
        path = tmp_path / "wide.hg"
        path.write_text("p hg 3000 0\n")
        argv = [*argv, str(path)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hypercover", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=120
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (1, BROKEN_PIPE)


def test_the_reused_parser_keeps_no_ids_between_calls(tmp_path, capsys):
    # Vertex 1 is a transversal of the one edge; no ids are not.
    assert build_parser() is build_parser()
    path = tmp_path / "one_edge.hg"
    path.write_text("p hg 2 1\ne 1 2\n")
    outputs = []
    for ids in (["--ids", "1"], [], [], ["--ids", "1"]):
        assert main(["verify", "--kind", "transversal", *ids, str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[3] == "kind: transversal\nvalid: True\n"
    assert outputs[1] == outputs[2] == "kind: transversal\nvalid: False\n"


def test_audit_of_a_tiny_edgeless_graph_is_fast(tmp_path, capsys):
    # One strong-degree pass over the maximal edges: one scan of them per
    # vertex took about 40 s of CPU time on this 15-byte file.
    path = tmp_path / "edgeless.gr"
    path.write_text("p edge 20000 0")
    start = time.process_time()
    assert main(["audit", "--trials", "1", str(path)]) == 0
    assert time.process_time() - start < 5
    assert "degree_bound_failures: 0" in capsys.readouterr().out


def test_strong_peel_of_two_hubs_sharing_every_leaf_is_fast():
    # Each leaf deletion shrinks both hubs' neighborhoods, of about 10^4
    # members each: a re-check that walked every member of a shrunk trace
    # took about 7 s of CPU time on these closed neighborhoods of K_{2,10000}.
    g = Graph.from_edges(10002, [(hub, leaf) for hub in (0, 1) for leaf in range(2, 10002)])
    h = neighborhood_hypergraph(g)
    start = time.process_time()
    strong_degeneracy(h)
    assert time.process_time() - start < 3


@pytest.mark.parametrize("solve", [strong_degeneracy, greedy_cover, greedy_transversal])
def test_a_sunflower_with_a_two_vertex_kernel_is_fast(solve):
    # Every trace holds the kernel {0, 1}: a re-check that intersected the
    # kernel's two rows however long they are would cost about 2 * 10^4
    # per petal deleted.
    h = Hypergraph(20002, tuple((0, 1, p) for p in range(2, 20002)))
    start = time.process_time()
    solve(h)
    assert time.process_time() - start < 5


@contextmanager
def cpu_budget(seconds: float):
    """Fail with an AssertionError once the block has run ``seconds`` of the
    process's CPU time: the profiling timer stops a slow block at the bound
    rather than after it finishes."""
    def over(signum, frame):
        raise AssertionError(f"more than {seconds} s of CPU time")

    previous = signal.signal(signal.SIGPROF, over)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def kernel_pair_sunflower(petals: int) -> Hypergraph:
    """The sunflower with kernel {0, 1} and ``petals`` one-vertex petals."""
    return Hypergraph(petals + 2, tuple((0, 1, p) for p in range(2, petals + 2)))


def check_strong_peel_within_2_s(h):
    # The strong peel of the 160,000-petal sunflower takes about 1 s of CPU
    # time (CPython 3.11, 2-core VM).  Every petal deletion re-checks {0, 1}
    # against the kernel's long rows; a scan that first walks the empty slots
    # that earlier drops left there took about 11.5 s.
    with cpu_budget(2):
        strong_degeneracy(h)


def test_the_strong_peel_of_a_160000_petal_sunflower_is_linear():
    check_strong_peel_within_2_s(kernel_pair_sunflower(160000))


@pytest.mark.parametrize("solve", [greedy_cover, greedy_transversal])
def test_the_greedy_of_a_160000_petal_sunflower_is_linear(solve):
    # The cover takes about 1 s of CPU time at 80,000 petals and the
    # transversal, whose dual merges the kernel's two rows, about 0.5 s;
    # both grow about 2.1x per doubling (CPython 3.11, 2-core VM).  A re-check
    # that scanned the kernel's long rows at every petal would be quadratic.
    h = kernel_pair_sunflower(160000)
    with cpu_budget(6):
        solve(h)


def test_tree_domination_of_a_large_random_tree_is_fast():
    # Re-testing strong degree 1 by counters costs O(n), about 0.6 s of CPU
    # time for both kinds on this tree (CPython 3.11, 2-core VM): the bound
    # catches a re-test that grows faster than the tree.
    t = random_tree(100000, 42)
    start = time.process_time()
    for kind in ("closed", "open"):
        tree_domination(t, kind)
    assert time.process_time() - start < 3


def _readme_blocks(header: str) -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", text, flags=re.S | re.M)
    return [b for b in blocks if any(line.startswith(header) for line in b.splitlines())]


def test_readme_file_format_examples_parse():
    (hg,) = _readme_blocks("p hg ")
    (gr,) = _readme_blocks("p edge ")
    h = parse_hypergraph(hg)
    assert (h.n, h.m) == (5, 5)
    g = parse_graph(gr)
    assert (g.n, g.m) == (4, 3)


def test_dimacs_comment_lines_are_skipped():
    assert parse_hypergraph("c a\nc\np hg 2 1\n  c b\ne 1 2\n") == parse_hypergraph("p hg 2 1\ne 1 2\n")
    assert parse_graph("c\np edge 2 1\nc x y\ne 1 2\n") == parse_graph("p edge 2 1\ne 1 2\n")
