"""Parser fuzzing: any text either parses or raises a coded
``HypercoverError``, and whatever parses survives a format/parse round trip.

Texts are either arbitrary or built from the ``.hg``/``.gr`` line grammar
(headers, edge lines, comments, and stray tokens).  Declared vertex counts
stay small because a parsed graph holds one adjacency row per vertex.
"""

from __future__ import annotations

import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from hypercover import format_graph, format_hypergraph, parse_graph, parse_hypergraph
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
