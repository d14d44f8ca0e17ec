"""Command line front end.

One subcommand per capability, composable through pipes: generators write
``.hg``/``.gr`` text to stdout and every analysis command reads a file or
``-`` for stdin.  Each command returns its result, a payload or ``.hg``/``.gr``
text, and :func:`main` writes it to stdout in one place (JSON under
``--json``); diagnostics go to stderr, each warning as one ``warning:`` line.
Exit codes: 0 on success, 1 on domain errors (reported by their error name),
on running out of memory and on output errors (``error: cannot write
output: ...``, say a closed pipe), 2 on usage errors.  All ids are 1-based
on this surface, those named in error messages included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict
from functools import cache
from itertools import islice
from typing import Any

from .core import (
    CHECK_KINDS,
    _decimals,
    check,
    dual,
    format_hypergraph,
    parse_hypergraph,
    vc_dimension,
)
from .cover import greedy_cover, greedy_transversal
from .degeneracy import MIGHTY_BF_CAP, degeneracy, mighty_degeneracy_bf, strong_degeneracy, strong_degeneracy_bf
from .domination import (
    GRAPH_CHECK_KINDS,
    NEIGHBORHOOD_KINDS,
    Graph,
    _read_graph,
    check_graph,
    format_graph,
    neighborhood_equivalence_audit,
    parse_graph,
    tree_domination,
)
from .errors import FormatError, HypercoverError, IdOutOfRangeError, NotATreeError
from .generators import gap_family, random_hypergraph, random_tree
from .oracles import GRAPH_PROBLEMS, PROBLEMS, _check_graph_cap, exact


def _read_text(args: argparse.Namespace) -> str:
    path = args.input_option if args.input_option is not None else args.input
    if path is None:
        path = "-"
    try:
        if path == "-":
            # The bytes, decoded strictly: the stream's own decoding may
            # follow the locale or let bad bytes through as surrogates.
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"input is not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from None


def _load_hypergraph(args: argparse.Namespace):
    return parse_hypergraph(_read_text(args), strict=args.strict)


def _one_based(ids) -> map:
    """The ids shifted to 1-based, lazily: :func:`_emit` writes them a chunk
    at a time."""
    return map((1).__add__, ids)


def _zero_based(ids: list[int]) -> list[int]:
    for i in ids:
        if i < 1:
            raise IdOutOfRangeError("id {} is not 1-based", i - 1)
    return [i - 1 for i in ids]


_CHUNK = 4096

# One encoder for the scalars, which indentation leaves as they are.
_SCALAR = json.JSONEncoder().encode


def _write_json(write, value: Any, pad: str) -> None:
    """Write ``value`` as ``json.JSONEncoder(indent=2, default=list)`` encodes
    it at indentation ``pad``.  That encoder runs in pure Python whenever it
    indents, one call per id; here a run of plain ints is joined in C, at
    most ``_CHUNK`` of them at a time, so no string holds a whole long list."""
    if isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                if not isinstance(key, (int, float)) and key is not None:
                    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
                key = _SCALAR(key)
            write(lead + _SCALAR(key) + ": ")
            _write_json(write, item, inner)
            lead = ",\n" + inner
        write("\n" + pad + "}")
        return
    if isinstance(value, (str, int, float)) or value is None:
        write(_SCALAR(value))
        return
    # A list or tuple, or anything else that default=list turns into one.
    items = iter(value)
    chunk = list(islice(items, _CHUNK))
    if not chunk:
        write("[]")
        return
    inner = pad + "  "
    sep = ",\n" + inner
    lead = "[\n" + inner
    while chunk:
        if {*map(type, chunk)} == {int}:  # no bool, which prints true or false
            write(lead + sep.join(map(str, chunk)))
        else:
            for item in chunk:
                write(lead)
                _write_json(write, item, inner)
                lead = sep
        lead = sep
        chunk = list(islice(items, _CHUNK))
    write("\n" + pad + "]")


def _emit(payload: dict[str, Any], as_json: bool) -> None:
    write = sys.stdout.write
    if as_json:
        # json.dumps(payload, indent=2, default=list) + "\n", written a piece
        # at a time and without the encoder's per-id Python calls.
        _write_json(write, payload, "")
        write("\n")
        return
    for key, value in payload.items():
        write(f"{key}: ")
        if isinstance(value, dict):
            write(" ".join(f"{k}={v}" for k, v in value.items()))
        elif isinstance(value, (list, tuple, map)):
            # A chunk at a time: one string per value of a long list would
            # outweigh the solve.
            words = map(str, value)
            sep = ""
            while chunk := " ".join(islice(words, _CHUNK)):
                write(sep + chunk)
                sep = " "
        else:
            write(str(value))
        write("\n")


def _cmd_gen(args: argparse.Namespace) -> str:
    if args.family == "gap":
        return format_hypergraph(gap_family(args.n))
    if args.family == "tree":
        return format_graph(random_tree(args.n, args.seed))
    return format_hypergraph(random_hypergraph(args.n, args.m, args.max_size, args.seed, args.cover_feasible))


def _cmd_degeneracy(args: argparse.Namespace) -> dict[str, Any]:
    h = _load_hypergraph(args)
    if args.kind in ("strong", "plain"):
        order = strong_degeneracy(h) if args.kind == "strong" else degeneracy(h)
        return {
            "kind": args.kind,
            "value": order.value,
            "order": _one_based(order.order),
            "step_values": order.step_values,
        }
    value = mighty_degeneracy_bf(h) if args.kind == "mighty-bf" else strong_degeneracy_bf(h)
    return {"kind": args.kind, "value": value, "order": None, "step_values": None}


def _cmd_cover(args: argparse.Namespace) -> dict[str, Any]:
    cert = greedy_cover(_load_hypergraph(args), mighty=args.mighty)
    return {
        "cover": _one_based(cert.cover),
        "cover_size": len(cert.cover),
        "independent": _one_based(cert.independent),
        "independent_size": len(cert.independent),
        "per_step_edges": list(cert.per_step_edges),
        "bound_factor": cert.bound_factor,
        "mighty_factor": cert.mighty_factor,
        "checks": asdict(cert.checks),
    }


def _cmd_transversal(args: argparse.Namespace) -> dict[str, Any]:
    cert = greedy_transversal(_load_hypergraph(args))
    return {
        "transversal": _one_based(cert.transversal),
        "transversal_size": len(cert.transversal),
        "matching": _one_based(cert.matching),
        "matching_size": len(cert.matching),
        "per_step_edges": list(cert.per_step_edges),
        "bound_factor": cert.bound_factor,
        "checks": asdict(cert.checks),
    }


def _cmd_dominate(args: argparse.Namespace) -> dict[str, Any]:
    n, edges = _read_graph(_read_text(args))
    # Fewer than n - 1 edges make no tree.  Rejecting them before the graph
    # is built keeps a tiny header that declares a huge n from costing O(n);
    # any other n is bounded by the number of edge lines.
    if len(edges) < n - 1:
        raise NotATreeError("input graph is not a tree")
    cert = tree_domination(Graph.from_edges(n, edges), args.kind)
    return {
        "kind": cert.kind,
        "dominating": _one_based(cert.dominating),
        "dominating_size": len(cert.dominating),
        "packing": _one_based(cert.packing),
        "packing_size": len(cert.packing),
        "equal": cert.equal,
        "checks": asdict(cert.checks),
    }


def _cmd_exact(args: argparse.Namespace) -> dict[str, Any]:
    text = _read_text(args)
    if args.problem in GRAPH_PROBLEMS:
        n, edges = _read_graph(text)
        _check_graph_cap(n)
        instance = Graph.from_edges(n, edges)
    else:
        instance = parse_hypergraph(text, strict=args.strict)
    result = exact(instance, args.problem)
    return {
        "problem": result.problem,
        "value": result.value,
        "witness": _one_based(result.witness),
        "explored": result.explored,
    }


def _cmd_vc(args: argparse.Namespace) -> dict[str, Any]:
    value, witness = vc_dimension(_load_hypergraph(args))
    return {
        "value": value,
        "witness": {
            "set": list(_one_based(witness.set)),
            "shattered": witness.shattered,
            "missing_subset": None if witness.missing_subset is None else list(_one_based(witness.missing_subset)),
        },
    }


def _cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    ids = _zero_based(args.ids)
    text = _read_text(args)
    if args.kind in GRAPH_CHECK_KINDS:
        valid = check_graph(parse_graph(text), args.kind, ids)
    else:
        valid = check(parse_hypergraph(text, strict=args.strict), args.kind, ids)
    return {"kind": args.kind, "valid": valid}


def _cmd_dual(args: argparse.Namespace) -> dict[str, Any] | str:
    d = dual(_load_hypergraph(args))
    if not args.json:
        return format_hypergraph(d)
    return {
        "n": d.n,
        "m": d.m,
        "edges": [_one_based(e) for e in d.edges],
        "labels": list(d.edge_labels or ()),
    }


def _cmd_audit(args: argparse.Namespace) -> dict[str, Any]:
    report = neighborhood_equivalence_audit(parse_graph(_read_text(args)), args.trials, args.seed)
    return asdict(report)


def _decimal(token: str) -> int:
    """An integer option's value, written with the digits 0-9 alone as the
    ids and the file counts are."""
    try:
        return _decimals([token])[0]
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def _add_input_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?", default=None, help="input file, or - for stdin (default)")
    sub.add_argument("--input", dest="input_option", metavar="PATH", help="alternative to the positional input")
    sub.add_argument("--json", action="store_true", help="emit JSON instead of the short table")
    sub.add_argument("--strict", action="store_true", help="reject duplicate hypergraph edges instead of merging")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never changes it."""
    parser = argparse.ArgumentParser(prog="hypercover", description="hypergraph covers, degeneracy, and tree domination")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("gen", help="write a generated instance to stdout")
    families = gen.add_subparsers(dest="family", required=True)
    gen_gap = families.add_parser("gap", help="family separating the mighty and strong parameters")
    gen_gap.add_argument("--n", type=_decimal, required=True)
    gen_tree = families.add_parser("tree", help="uniform random tree (.gr)")
    gen_tree.add_argument("--n", type=_decimal, required=True)
    gen_tree.add_argument("--seed", type=_decimal, default=0)
    gen_hg = families.add_parser("hg", help="random hypergraph (.hg)")
    gen_hg.add_argument("--n", type=_decimal, required=True)
    gen_hg.add_argument("--m", type=_decimal, required=True)
    gen_hg.add_argument("--max-size", type=_decimal, required=True)
    gen_hg.add_argument("--seed", type=_decimal, default=0)
    gen_hg.add_argument("--cover-feasible", action="store_true")
    gen.set_defaults(func=_cmd_gen)

    deg = commands.add_parser("degeneracy", help="peeling orders and brute-force degeneracy values")
    deg.add_argument("--kind", choices=("strong", "plain", "mighty-bf", "strong-bf"), default="strong")
    _add_input_arguments(deg)
    deg.set_defaults(func=_cmd_degeneracy)

    cov = commands.add_parser("cover", help="greedy edge cover with certified bound")
    cov.add_argument(
        "--mighty",
        action="store_true",
        help=f"attach the mighty factor (up to {MIGHTY_BF_CAP} vertices): a branch search over strong cores"
        " between the largest greedy step and the strong degeneracy, skipped when the two meet",
    )
    _add_input_arguments(cov)
    cov.set_defaults(func=_cmd_cover)

    tra = commands.add_parser("transversal", help="greedy transversal and matching via the dual")
    _add_input_arguments(tra)
    tra.set_defaults(func=_cmd_transversal)

    dom = commands.add_parser("dominate", help="tree domination and 2-packing certificate")
    dom.add_argument("--kind", choices=NEIGHBORHOOD_KINDS, default="closed")
    _add_input_arguments(dom)
    dom.set_defaults(func=_cmd_dominate)

    exa = commands.add_parser("exact", help="brute-force optimum for a named problem")
    exa.add_argument("--problem", choices=PROBLEMS, required=True)
    _add_input_arguments(exa)
    exa.set_defaults(func=_cmd_exact)

    vc = commands.add_parser("vc", help="VC dimension with a shattering witness")
    _add_input_arguments(vc)
    vc.set_defaults(func=_cmd_vc)

    ver = commands.add_parser("verify", help="validate a candidate solution")
    ver.add_argument("--kind", choices=CHECK_KINDS + GRAPH_CHECK_KINDS, required=True)
    ver.add_argument("--ids", nargs="*", default=[], help="1-based ids of the candidate")
    _add_input_arguments(ver)
    ver.set_defaults(func=_cmd_verify)

    dua = commands.add_parser("dual", help="dual hypergraph (.hg, or structural JSON)")
    _add_input_arguments(dua)
    dua.set_defaults(func=_cmd_dual)

    aud = commands.add_parser("audit", help="randomized graph/hypergraph equivalence audit")
    aud.add_argument("--trials", type=_decimal, default=100)
    aud.add_argument("--seed", type=_decimal, default=0)
    _add_input_arguments(aud)
    aud.set_defaults(func=_cmd_audit)

    return parser


def _read_ids(args: argparse.Namespace) -> str | None:
    """Turn the ``--ids`` tokens into integers, or return the usage error.

    ``--ids`` takes every token after it, so in ``verify --ids 1 FILE`` it
    holds the input too: with no input given otherwise, a last token that is
    not an integer is the input.  Ids are written with the digits 0-9 alone."""
    tokens, args.ids = args.ids, []
    for k, token in enumerate(tokens):
        try:
            args.ids.append(_decimal(token))
        except argparse.ArgumentTypeError as exc:
            if k < len(tokens) - 1 or args.input is not None or args.input_option is not None:
                return f"argument --ids: {exc}"
            args.input = token
    return None


def _show_warning(message, category, *_) -> None:
    """A warning (a ``FormatWarning`` from the parsers) as one stderr line,
    without the source location and line that Python shows."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "verify" and (error := _read_ids(args)):
        print(f"error: {error}", file=sys.stderr)
        return 2
    if getattr(args, "input_option", None) is not None and getattr(args, "input", None) not in (None, "-"):
        print("error: give the input either positionally or via --input, not both", file=sys.stderr)
        return 2
    if args.command == "gen" and args.n > sys.maxsize:
        # The bound of a header count; past it no list or range can be made.
        print(f"error: argument --n: must not exceed {sys.maxsize}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            out = args.func(args)
    except HypercoverError as exc:
        print(f"error: {exc.code}: {exc.render(1)}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None) or "input"
        print(f"error: cannot open {name}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    try:
        if isinstance(out, str):
            # 64k slices: an unbuffered write cut short raises nothing; none waits in the 8k buffers.
            for start in range(0, len(out), 1 << 16):
                sys.stdout.write(out[start : start + (1 << 16)])
        else:
            _emit(out, args.json)
    except OSError as exc:
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    code = main()
    # What main left in the stdout buffer would otherwise meet a closed pipe
    # in the interpreter's exit flush, outside any handler.
    try:
        sys.stdout.flush()
    except OSError as exc:
        # The failed flush keeps the data; the exit flush now writes it to
        # devnull, as the Python documentation advises for SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if code == 0:
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        code = 1
    sys.exit(code)
