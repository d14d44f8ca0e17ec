"""Parser fuzzing: any text either parses or raises a coded
``HypercoverError``, and whatever parses survives a format/parse round trip.
The ``.hg`` reader's bulk path must agree with its per-line reader, the
reference, on every text.

Texts are either arbitrary or built from the ``.hg``/``.gr`` line grammar
(headers, edge lines, comments, and stray tokens).  Declared vertex counts
stay small because a parsed graph holds one adjacency row per vertex.
"""

from __future__ import annotations

import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercover import core, format_graph, format_hypergraph, parse_graph, parse_hypergraph, random_hypergraph
from hypercover.errors import HypercoverError

COUNT = st.integers(min_value=-1, max_value=9).map(str)
TOKEN = st.one_of(
    COUNT,
    st.sampled_from(["p", "hg", "edge", "e", "c", "#", "#e", "x", "1.5", "0x1", "+3", "1_0", "٣", "--"]),
)
STRAY_LINE = st.one_of(
    st.lists(TOKEN, max_size=5).map(" ".join),
    st.sampled_from(["", "   ", "c", "c p hg 1 1", "# comment", "\t e 1"]),
)


@st.composite
def grammar_texts(draw, kind: str) -> str:
    """A header and edge lines, mostly well formed: the announced edge count
    is sometimes off by one, a header token sometimes replaced, and stray
    lines mixed in."""
    n = draw(st.integers(min_value=0, max_value=8))
    vertex = st.integers(min_value=0, max_value=n + 1).map(str)
    size = (1, 5) if kind == "hg" else (2, 2)
    edge_line = st.lists(vertex, min_size=size[0], max_size=size[1]).map(lambda ids: " ".join(["e", *ids]))
    lines = draw(st.lists(edge_line, max_size=8))
    m = len(lines) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    header = ["p", kind, str(n), str(m)]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        header[draw(st.integers(min_value=0, max_value=3))] = draw(TOKEN)
    lines.insert(0, " ".join(header))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(STRAY_LINE))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def texts(kind: str):
    return st.one_of(st.text(), st.lists(STRAY_LINE, max_size=6).map("\n".join), grammar_texts(kind))


def parse_or_none(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return parse(text)
        except HypercoverError:
            return None


@settings(max_examples=500)
@given(texts("hg"))
def test_hypergraph_text_parses_or_fails_with_a_code(text):
    for strict in (True, False):
        h = parse_or_none(lambda t: parse_hypergraph(t, strict=strict), text)
        if h is not None:
            assert parse_hypergraph(format_hypergraph(h)) == h


@settings(max_examples=500)
@given(texts("edge"))
def test_graph_text_parses_or_fails_with_a_code(text):
    g = parse_or_none(parse_graph, text)
    if g is not None:
        assert parse_graph(format_graph(g)) == g


def read(text: str, strict: bool, per_line: bool = False):
    """``parse_hypergraph(text, strict)`` as (value or (error class,
    message), [(warning class, message), ...]); ``per_line`` reads every
    text with the per-line reader."""
    with warnings.catch_warnings(record=True) as caught, mock.patch.object(
        core, "_read_bulk", (lambda text: None) if per_line else core._read_bulk
    ):
        warnings.simplefilter("always")
        try:
            value = parse_hypergraph(text, strict=strict)
        except Exception as exc:  # the class and message are compared
            value = (type(exc), str(exc))
    return value, [(w.category, str(w.message)) for w in caught]


def check_readers_agree(text: str) -> None:
    for strict in (True, False):
        assert read(text, strict) == read(text, strict, per_line=True)


@settings(max_examples=500)
@given(texts("hg"))
def test_the_bulk_reader_agrees_with_the_per_line_reader(text):
    check_readers_agree(text)


def _lines(text: str) -> list[str]:
    return text.split("\n")[:-1]


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _edit_edge(text: str, edit) -> str:
    """``text`` with its second edge line ``e <ids>`` replaced by ``edit(ids)``."""
    lines = _lines(text)
    lines[2] = edit(lines[2].split()[1:])
    return _join(lines)


def _ids(ids) -> str:
    return " ".join(["e", *ids])


def _header(text: str, edit) -> str:
    """``text`` with its header ``p hg <n> <m>`` replaced by ``edit(n, m)``."""
    lines = _lines(text)
    _, _, n, m = lines[0].split()
    lines[0] = edit(n, int(m))
    return _join(lines)


def _header_edges(text: str, extra: int) -> str:
    return _header(text, lambda n, m: f"p hg {n} {m + extra}")


# One fault each, on a formatted instance: the edited text and whether the
# bulk reader still reads it (a leading zero, a text that ends without a
# line break and an edge given twice are in its grammar).
FAULTS = {
    "hash-line": (lambda t: t.replace("\n", "\n# note\n", 1), False),
    "c-line": (lambda t: _join([*_lines(t)[:3], "c note", *_lines(t)[3:]]), False),
    "tab": (lambda t: t.replace("\ne ", "\ne\t", 1), False),
    "crlf": (lambda t: t.replace("\n", "\r\n"), False),
    "blank-line": (lambda t: _join([*_lines(t)[:2], "", *_lines(t)[2:]]), False),
    "no-final-line-break": (lambda t: t[:-1], True),
    "leading-zero-id": (lambda t: _edit_edge(t, lambda ids: _ids(["0" + ids[0], *ids[1:]])), True),
    "id-0": (lambda t: _edit_edge(t, lambda ids: _ids(["0", *ids[1:]])), False),
    "id-n-plus-1": (lambda t: _edit_edge(t, lambda ids: _ids([*ids, str(int(t.split()[2]) + 1)])), False),
    "repeated-id": (lambda t: _edit_edge(t, lambda ids: _ids([*ids, ids[0]])), False),
    "empty-e-line": (lambda t: _edit_edge(t, lambda ids: "e"), False),
    "e-and-a-space": (lambda t: _edit_edge(t, lambda ids: "e "), False),
    "5000-digit-id": (lambda t: _edit_edge(t, lambda ids: _ids([*ids, "1" * 5000])), False),
    "duplicate-edge": (lambda t: _header_edges(_join([*_lines(t), _lines(t)[1]]), 1), True),
    "count-one-over": (lambda t: _header_edges(t, 1), False),
    "count-one-under": (lambda t: _header_edges(t, -1), False),
    "comment-before-header": (lambda t: "c made by hand\n" + t, False),
    # Four tokens when split at single spaces, one of them empty.
    "header-without-n": (lambda t: _header(t, lambda n, m: f"p hg  {m}"), False),
    "header-without-m": (lambda t: _header(t, lambda n, m: f"p hg {n} "), False),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fault", FAULTS.values(), ids=FAULTS)
def test_the_readers_agree_on_a_formatted_instance_with_one_fault(fault, seed):
    edit, in_bulk = fault
    rng = random.Random(seed)
    n = rng.randint(5, 60)
    text = format_hypergraph(random_hypergraph(n, rng.randint(3, 2 * n), rng.randint(2, 6), seed))
    assert core._read_bulk(text) is not None
    faulty = edit(text)
    assert faulty != text
    assert (core._read_bulk(faulty) is not None) == in_bulk
    check_readers_agree(faulty)
