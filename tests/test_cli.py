"""End-to-end command line checks through real subprocesses, and the
``--json`` writer against ``json.dumps`` in process.

Exit status contract: 0 success, 1 domain error (with an ``error:`` line
on stderr), 2 usage error.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercover import cli, format_graph, format_hypergraph, gap_family, random_hypergraph, random_tree

GAP5 = "p hg 5 5\ne 1 2\ne 1 3 4 5\ne 2 4 5\ne 2 3 5\ne 2 3 4\n"
P4 = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
TWO_EDGES = "p hg 3 2\ne 1 2\ne 2 3\n"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "hypercover", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestGen:
    def test_gap_bytes(self):
        result = run_cli("gen", "gap", "--n", "5")
        assert result.returncode == 0
        assert result.stdout == GAP5

    def test_tree_is_deterministic(self):
        a = run_cli("gen", "tree", "--n", "9", "--seed", "4")
        b = run_cli("gen", "tree", "--n", "9", "--seed", "4")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith("p edge 9 8\n")

    def test_hg_is_deterministic(self):
        args = ("gen", "hg", "--n", "8", "--m", "6", "--max-size", "3", "--seed", "2")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_gap_too_small_fails(self):
        result = run_cli("gen", "gap", "--n", "2")
        assert result.returncode == 1
        assert result.stderr.startswith("error: NTooSmall")

    @pytest.mark.parametrize(
        "args, option, token",
        [
            (("gen", "gap", "--n", "{}"), "--n", "\u0663"),
            (("gen", "gap", "--n", "{}"), "--n", "1_0"),
            (("gen", "gap", "--n", "{}"), "--n", "+1"),
            (("gen", "tree", "--n", "5", "--seed", "{}"), "--seed", "+1"),
            (("gen", "hg", "--n", "{}", "--m", "2", "--max-size", "2"), "--n", "1_0"),
            (("gen", "hg", "--n", "4", "--m", "{}", "--max-size", "2"), "--m", "\u0663"),
            (("gen", "hg", "--n", "4", "--m", "2", "--max-size", "{}"), "--max-size", "+1"),
            (("gen", "hg", "--n", "4", "--m", "2", "--max-size", "2", "--seed", "{}"), "--seed", "1_0"),
            (("audit", "--trials", "{}"), "--trials", "\u0663"),
            (("audit", "--seed", "{}"), "--seed", "+1"),
        ],
    )
    def test_integer_options_take_the_digits_0_to_9_only(self, args, option, token):
        result = run_cli(*(a.format(token) for a in args), stdin=P4)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.endswith(f"error: argument {option}: invalid int value: {token!r}\n")


class TestInputPlumbing:
    def test_stdin_is_the_default(self):
        result = run_cli("degeneracy", stdin=GAP5)
        assert result.returncode == 0
        assert "value: 3" in result.stdout

    def test_dash_reads_stdin(self):
        assert run_cli("degeneracy", "-", stdin=GAP5).returncode == 0

    def test_file_input(self, tmp_path):
        path = tmp_path / "gap5.hg"
        path.write_text(GAP5)
        result = run_cli("degeneracy", str(path))
        assert result.returncode == 0
        assert "value: 3" in result.stdout

    def test_input_flag(self, tmp_path):
        path = tmp_path / "gap5.hg"
        path.write_text(GAP5)
        assert run_cli("degeneracy", "--input", str(path)).returncode == 0

    def test_positional_and_flag_conflict(self, tmp_path):
        path = tmp_path / "gap5.hg"
        path.write_text(GAP5)
        result = run_cli("degeneracy", str(path), "--input", str(path))
        assert result.returncode == 2

    def test_missing_file(self):
        result = run_cli("degeneracy", "no-such-file.hg")
        assert result.returncode == 1
        assert result.stderr.startswith("error: cannot open no-such-file.hg")

    def test_malformed_input(self):
        result = run_cli("degeneracy", stdin="p hg 2 1\nx 1 2\n")
        assert result.returncode == 1
        assert result.stderr.startswith("error: SyntaxError")

    def test_duplicate_edges_merge_by_default(self):
        text = "p hg 3 3\ne 1 2\ne 2 1\ne 3\n"
        assert run_cli("degeneracy", stdin=text).returncode == 0
        strict = run_cli("degeneracy", "--strict", stdin=text)
        assert strict.returncode == 1
        assert strict.stderr.startswith("error: DuplicateEdge")

    @pytest.mark.parametrize(
        "argv, text, clean, message",
        [
            (["cover"], "p hg 2 2\ne 1 2\ne 2 1\n", "p hg 2 1\ne 1 2\n", "merged 1 duplicate edge(s)"),
            (["cover"], "p hg 2 1\ne 1 2 2\n", "p hg 2 1\ne 1 2\n", "line 2: repeated vertex inside an edge"),
            (["dominate"], "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n", "p edge 3 2\ne 1 2\ne 2 3\n", "merged 1 duplicate edge(s)"),
        ],
    )
    def test_a_warning_is_one_stderr_line(self, argv, text, clean, message):
        result = run_cli(*argv, stdin=text)
        assert result.returncode == 0
        assert result.stderr == f"warning: FormatWarning: {message}\n"
        assert result.stdout == run_cli(*argv, stdin=clean).stdout

    @pytest.mark.parametrize("argv", [["cover"], ["exact", "--problem", "min-edge-cover"], ["verify", "--kind", "edge-cover"]])
    def test_a_duplicate_edge_is_named_one_based(self, argv):
        strict = run_cli(*argv, "--strict", stdin="p hg 3 3\ne 1 2\ne 2 1\ne 2 3\n")
        assert strict.returncode == 1
        assert strict.stderr == "error: DuplicateEdge: edge (1, 2) occurs twice\n"

    def test_unknown_subcommand(self):
        assert run_cli("solve").returncode == 2


class TestCommands:
    def test_degeneracy_json(self):
        payload = json.loads(run_cli("degeneracy", "--json", stdin=GAP5).stdout)
        assert payload["kind"] == "strong"
        assert payload["value"] == 3
        assert payload["order"] == [1, 2, 3, 4, 5]
        assert payload["step_values"] == [2, 3, 1, 1, 1]

    def test_degeneracy_kinds(self):
        assert json.loads(run_cli("degeneracy", "--kind", "plain", "--json", stdin=GAP5).stdout)["value"] == 3
        assert json.loads(run_cli("degeneracy", "--kind", "mighty-bf", "--json", stdin=GAP5).stdout)["value"] == 2
        assert json.loads(run_cli("degeneracy", "--kind", "strong-bf", "--json", stdin=GAP5).stdout)["value"] == 3

    def test_mighty_bf_above_its_cap(self):
        path = "p hg 15 14\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, 15))
        result = run_cli("degeneracy", "--kind", "mighty-bf", stdin=path)
        assert result.returncode == 1
        assert result.stderr == "error: TooLarge: 15 vertices exceed the cap of 14\n"
        assert result.stdout == ""

    @pytest.mark.parametrize("kind", ["strong", "plain"])
    def test_degeneracy_puts_vertices_in_no_edge_first(self, kind):
        result = run_cli("degeneracy", "--kind", kind, stdin="p hg 5 1\ne 2 4\n")
        assert result.stdout == f"kind: {kind}\nvalue: 1\norder: 1 3 5 2 4\nstep_values: 0 0 0 1 1\n"

    def test_cover(self):
        payload = json.loads(run_cli("cover", "--json", "--mighty", stdin=GAP5).stdout)
        assert payload["cover"] == [1, 2]
        assert payload["cover_size"] == 2
        assert payload["independent"] == [1]
        assert payload["independent_size"] == 1
        assert payload["bound_factor"] == 3
        assert payload["mighty_factor"] == 2

    def test_transversal(self):
        payload = json.loads(run_cli("transversal", "--json", stdin=TWO_EDGES).stdout)
        assert payload["transversal"] == [2]
        assert payload["matching"] == [1]

    def test_dominate(self):
        payload = json.loads(run_cli("dominate", "--json", stdin=P4).stdout)
        assert payload["dominating"] == [2, 3]
        assert payload["packing"] == [1, 4]
        assert payload["equal"] is True

    def test_dominate_open(self):
        payload = json.loads(run_cli("dominate", "--kind", "open", "--json", stdin=P4).stdout)
        assert payload["dominating"] == [2, 3]

    def test_dominate_rejects_cycles(self):
        cycle = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
        result = run_cli("dominate", stdin=cycle)
        assert result.returncode == 1
        assert result.stderr.startswith("error: NotATree")

    def test_exact_hypergraph(self):
        payload = json.loads(run_cli("exact", "--problem", "min-edge-cover", "--json", stdin=GAP5).stdout)
        assert payload["value"] == 2
        assert payload["witness"] == [1, 2]

    def test_exact_graph(self):
        payload = json.loads(run_cli("exact", "--problem", "min-dominating", "--json", stdin=P4).stdout)
        assert payload["value"] == 2
        assert payload["witness"] == [1, 3]

    def test_vc(self):
        text = "p hg 2 3\ne 1\ne 2\ne 1 2\n"
        payload = json.loads(run_cli("vc", "--json", stdin=text).stdout)
        assert payload["value"] == 1
        assert payload["witness"]["shattered"] is True

    def test_verify(self):
        ok = run_cli("verify", "--kind", "edge-cover", "--ids", "1", "2", stdin=GAP5)
        assert ok.returncode == 0
        assert "valid: True" in ok.stdout
        bad = run_cli("verify", "--kind", "edge-cover", "--ids", "1", stdin=GAP5)
        assert "valid: False" in bad.stdout

    def test_verify_graph_kind(self):
        result = run_cli("verify", "--kind", "dominating", "--ids", "2", "3", stdin=P4)
        assert result.returncode == 0
        assert "valid: True" in result.stdout

    def test_verify_input_may_follow_the_ids(self, tmp_path):
        path = tmp_path / "p4.gr"
        path.write_text(P4)
        before = run_cli("verify", "--kind", "dominating", str(path), "--ids", "2", "3")
        after = run_cli("verify", "--kind", "dominating", "--ids", "2", "3", str(path))
        assert after.returncode == before.returncode == 0
        assert after.stdout == before.stdout == "kind: dominating\nvalid: True\n"
        bad = run_cli("verify", "--kind", "dominating", "--ids", "1", "x", "2", stdin=P4)
        assert bad.returncode == 2
        assert bad.stderr == "error: argument --ids: invalid int value: 'x'\n"

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0663"])
    def test_verify_ids_take_the_digits_0_to_9_only(self, token):
        result = run_cli("verify", "--kind", "edge-cover", "--ids", token, "2", stdin=GAP5)
        assert result.returncode == 2
        assert result.stderr == f"error: argument --ids: invalid int value: {token!r}\n"

    def test_verify_bad_id(self):
        result = run_cli("verify", "--kind", "edge-cover", "--ids", "9", stdin=GAP5)
        assert result.returncode == 1
        assert result.stderr.startswith("error: IdOutOfRange")

    def test_bad_vertex_id_is_named_1_based(self):
        result = run_cli("verify", "--kind", "transversal", "--ids", "9", stdin=GAP5)
        assert result.returncode == 1
        assert result.stderr == "error: IdOutOfRange: vertex id 9 not in the hypergraph\n"

    def test_bad_edge_id_and_range_are_1_based(self):
        result = run_cli("verify", "--kind", "matching", "--ids", "6", stdin=GAP5)
        assert result.stderr == "error: IdOutOfRange: edge id 6 outside 1..5\n"

    def test_isolated_vertex_is_named_1_based(self):
        result = run_cli("cover", stdin="p hg 3 1\ne 1\n")
        assert result.returncode == 1
        assert result.stderr == "error: IsolatedVertex: vertex 2 lies in no edge\n"

    def test_dual_text(self):
        result = run_cli("dual", stdin=TWO_EDGES)
        assert result.returncode == 0
        assert result.stdout == "p hg 2 3\ne 1\ne 1 2\ne 2\n"

    def test_dual_json_labels(self):
        payload = json.loads(run_cli("dual", "--json", stdin=TWO_EDGES).stdout)
        assert payload["n"] == 2
        assert payload["edges"] == [[1], [1, 2], [2]]
        assert payload["labels"] == ["v1", "v2", "v3"]

    def test_audit(self):
        payload = json.loads(run_cli("audit", "--trials", "5", "--json", stdin=P4).stdout)
        assert payload["trials"] == 5
        assert payload["failures"] == 0
        assert payload["degree_bound_failures"] == 0


class TestPipelines:
    def test_gen_into_cover(self):
        gen = run_cli("gen", "gap", "--n", "7")
        cover = json.loads(run_cli("cover", "--json", stdin=gen.stdout).stdout)
        assert cover["cover_size"] == 2
        assert cover["independent_size"] == 1

    def test_gen_tree_into_dominate(self):
        gen = run_cli("gen", "tree", "--n", "15", "--seed", "8")
        payload = json.loads(run_cli("dominate", "--json", stdin=gen.stdout).stdout)
        assert payload["equal"] is True
        assert payload["dominating_size"] == payload["packing_size"]

    def test_gen_into_dual_round_trip(self):
        gen = run_cli("gen", "hg", "--n", "6", "--m", "8", "--max-size", "3", "--seed", "3")
        once = run_cli("dual", stdin=gen.stdout)
        assert once.returncode == 0
        # commands are pure functions of their input bytes
        again = run_cli("dual", stdin=gen.stdout)
        assert once.stdout == again.stdout


def emitted(payload) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(payload, True)
    return out.getvalue()


def reference(payload) -> str:
    return json.dumps(payload, indent=2, default=list) + "\n"


# Every --json command on seeded inputs: null orders, both kinds of
# mighty_factor, shattered and unshattered witnesses, dual labels, and lists
# longer than one write's chunk of ids.
JSON_COMMANDS = (
    *(["degeneracy", "--kind", kind, "{gap}"] for kind in ("strong", "plain", "mighty-bf", "strong-bf")),
    *(["degeneracy", "--kind", kind, "{big}"] for kind in ("strong", "plain")),
    ["cover", "{gap}"],
    ["cover", "--mighty", "{gap}"],
    ["cover", "--mighty", "{big}"],
    ["transversal", "{small}"],
    ["transversal", "{big}"],
    ["dominate", "--kind", "closed", "{tree}"],
    ["dominate", "--kind", "open", "{tree}"],
    ["exact", "--problem", "min-edge-cover", "{small}"],
    ["exact", "--problem", "max-2-packing", "{tree}"],
    ["vc", "{small}"],
    ["vc", "{edgeless}"],
    ["verify", "--kind", "edge-cover", "--ids", "1", "2", "{gap}"],
    ["verify", "--kind", "dominating", "--ids", "1", "{tree}"],
    ["dual", "{gap}"],
    ["dual", "{small}"],
    ["audit", "--trials", "5", "{tree}"],
)


class TestJsonWriter:
    """``--json`` writes exactly what ``json.dumps(payload, indent=2,
    default=list)`` would."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("json")
        texts = {
            "gap": format_hypergraph(gap_family(6)),
            "small": format_hypergraph(random_hypergraph(9, 12, 3, 4, cover_feasible=True)),
            "big": format_hypergraph(random_hypergraph(6000, 10000, 4, 7, cover_feasible=True)),
            "tree": format_graph(random_tree(12, 3)),
            "edgeless": "p hg 2 0\n",
        }
        paths = {}
        for name, text in texts.items():
            paths[name] = root / name
            paths[name].write_text(text, encoding="utf-8")
        return paths

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: " ".join(argv[:-1]))
    def test_every_command_writes_what_json_dumps_writes(self, files, argv, capsys):
        argv = [*argv[:-1], "--json", argv[-1].format(**files)]
        # The payloads hold maps, which one encoding uses up: each side gets
        # its own.
        args = cli.build_parser().parse_args(argv)
        if args.command == "verify":
            # --ids takes the file too; main splits it off before the call.
            assert cli._read_ids(args) is None
        expected = reference(args.func(args))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_a_list_of_ids_written_in_chunks(self):
        payload = {"order": range(1, 3 * cli._CHUNK + 2), "ids": list(range(cli._CHUNK)), "empty": map(int, "")}
        assert emitted(payload) == reference({k: list(v) for k, v in payload.items()})

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
            | st.dictionaries(st.text() | st.integers() | st.booleans() | st.none() | st.floats(), inner),
        )
    )
    def test_nested_values(self, value):
        # Chunks of three ids, so that runs of ints, bools and other values
        # meet at chunk boundaries.
        with mock.patch.object(cli, "_CHUNK", 3):
            assert emitted({"value": value}) == reference({"value": value})
