"""Guarantees that must hold however the package is run: certificate checks
that survive ``python -O``, fail-fast rejection of tiny files that announce
huge vertex counts, and the file formats exactly as the README shows them.
"""

from __future__ import annotations

import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hypercover import parse_graph, parse_hypergraph
from hypercover.cli import main

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


@pytest.mark.parametrize("command", ["cover", "transversal", "dual"])
def test_tiny_file_with_a_huge_vertex_count_fails_fast(tmp_path, capsys, command):
    path = tmp_path / "huge.hg"
    path.write_text("p hg 20000000 1\ne 1")
    tracemalloc.start()
    try:
        code = main([command, str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert capsys.readouterr().err.startswith("error: IsolatedVertex: vertex 1 ")
    assert peak < 64 * 2**20


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
