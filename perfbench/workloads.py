"""Workload inputs and one measured round of each workload.

Set-up generates every instance from the seed and writes the input files; a
round then runs each command once on them.  Every workload reports every
end-to-end metric, each measured on that workload's own inputs (see
``perfbench/README.md`` for why each workload exists):

* the file workloads (``sparse-random``, ``dense-gap``, ``tree``) time
  in-process ``hypercover.cli.main`` calls, each of which parses its file,
  solves, self-checks and prints JSON;
* ``small-batch`` times API calls on many small instances, each built
  fresh from its edge list.

Every output is checked by :mod:`checks` and hashed into the round digest.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time

import checks

WORKLOADS = ("sparse-random", "dense-gap", "tree", "small-batch")

# Sum over one round's calls, in seconds, per command family; dominate_s sums
# the closed and the open call.
COMMAND_METRICS = ("degeneracy_s", "degeneracy_plain_s", "cover_s", "transversal_s", "dominate_s")

SIZES = {
    "full": {
        "sparse-random": {"n": 2_000, "m": 3_640, "max_size": 10},
        "dense-gap": {"gap_n": 120, "tree_n": 5_000, "hubs": 40},
        "tree": {"n": 5_000},
        # 7 values of n times up to 18 of m: every (n, m) pair once, in a
        # round short enough that a run holds many rounds.
        "small-batch": {"instances": 126},
    },
    "smoke": {
        "sparse-random": {"n": 300, "m": 546, "max_size": 10},
        "dense-gap": {"gap_n": 12, "tree_n": 300, "hubs": 6},
        "tree": {"n": 300},
        "small-batch": {"instances": 12},
    },
}


@dataclass
class Inputs:
    """Generated instances, the files written for them, and the benchmark's
    own copies used by the checks."""

    hg_path: Path | None = None
    gr_path: Path | None = None
    n: int = 0
    edges: list = field(default_factory=list)
    adj: list = field(default_factory=list)
    batch: list[tuple[int, tuple, tuple]] = field(default_factory=list)


def _hub_tree(hc, n: int, hubs: int, seed: int):
    """Random tree whose Pruefer sequence only names ``hubs`` vertices, so
    every other vertex is a leaf and hub neighborhoods hold about n/hubs
    vertices."""
    rng = random.Random(seed)
    return hc.prufer_decode(tuple(rng.randrange(hubs) for _ in range(n - 2)), n)


def _small_batch(hc, count: int, seed: int) -> list[tuple[int, tuple, tuple]]:
    """``count`` cover-feasible hypergraphs with n in 6..12, m <= 20 and
    edges of size <= n/3, each paired with a random tree on n vertices.

    n cycles through 6..12 and m through its range rather than being drawn:
    the brute-force mighty value costs about m 2^n and the exact edge cover
    grows exponentially in m, so drawn sizes would make the batch's cost
    swing with the seed's share of large instances."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 6 + i % 7
        k = n // 3
        fewest = -(-n // k)
        m = fewest + (i // 7) % (21 - fewest)
        h = hc.random_hypergraph(n, m, k, rng.randrange(2**32), cover_feasible=True)
        tree = hc.random_tree(n, rng.randrange(2**32))
        out.append((n, h.edges, tree.edges))
    return out


def generate(hc, workload: str, seed: int, size: str, workdir: Path) -> Inputs:
    """Build the workload's instances and write its input files: the timed
    set-up.  ``prepare`` then makes the checks' copies."""
    p = SIZES[size][workload]
    if workload == "small-batch":
        return Inputs(batch=_small_batch(hc, p["instances"], seed))
    if workload == "sparse-random":
        h = hc.random_hypergraph(p["n"], p["m"], p["max_size"], seed, cover_feasible=True)
        g = hc.random_tree(p["n"], seed)
    elif workload == "dense-gap":
        h = hc.gap_family(p["gap_n"])  # deterministic: the seed only shapes the tree
        g = _hub_tree(hc, p["tree_n"], p["hubs"], seed)
    else:
        g = hc.random_tree(p["n"], seed)
        h = hc.neighborhood_hypergraph(g, "closed")
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(hg_path=workdir / "input.hg", gr_path=workdir / "input.gr", n=h.n, edges=h.edges, adj=g.adj)
    inputs.hg_path.write_text(hc.format_hypergraph(h), encoding="utf-8")
    inputs.gr_path.write_text(hc.format_graph(g), encoding="utf-8")
    return inputs


def prepare(inputs: Inputs) -> Inputs:
    """Turn the edge and neighbor tuples into the sets the checks use."""
    inputs.edges = [frozenset(e) for e in inputs.edges]
    inputs.adj = [set(row) for row in inputs.adj]
    return inputs


def describe(workload: str, inputs: Inputs) -> dict:
    """Instance statistics recorded with the result."""
    if workload == "small-batch":
        return {
            "instances": len(inputs.batch),
            "n_total": sum(n for n, _, _ in inputs.batch),
            "m_total": sum(len(e) for _, e, _ in inputs.batch),
            "edge_size_total": sum(len(x) for _, e, _ in inputs.batch for x in e),
        }
    return {
        "n": inputs.n,
        "m": len(inputs.edges),
        "edge_size_total": sum(len(e) for e in inputs.edges),
        "tree_n": len(inputs.adj),
        "seed_shapes": "tree only (gap_family is deterministic)" if workload == "dense-gap" else "all inputs",
    }


@dataclass
class Round:
    """Outcome of one round: per-metric seconds, calls attempted and failed,
    the problems found, the digest of every output, the instance count and
    the seconds spent inside timed calls."""

    seconds: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    digest: str
    instances: int
    busy_s: float
    stats: dict


def _e2e(cli, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every call starts with the same collector state
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = process_time()
        code = cli.main(argv)
        elapsed = process_time() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def _checked(check, *args) -> list[str]:
    """Run one check; a malformed output is a problem found, not a crash."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def _file_round(hc, inputs: Inputs) -> Round:
    hg, gr = str(inputs.hg_path), str(inputs.gr_path)
    n, edges, adj = inputs.n, inputs.edges, inputs.adj
    jobs = [
        ("degeneracy_s", ["degeneracy", "--kind", "strong", "--json", hg], lambda o: checks.order(n, o, "strong")),
        ("degeneracy_plain_s", ["degeneracy", "--kind", "plain", "--json", hg], lambda o: checks.order(n, o, "plain")),
        ("cover_s", ["cover", "--json", hg], lambda o: checks.cover(n, edges, o)),
        ("transversal_s", ["transversal", "--json", hg], lambda o: checks.transversal(n, edges, o)),
        ("dominate_s", ["dominate", "--kind", "closed", "--json", gr], lambda o: checks.domination(adj, o, "closed")),
        ("dominate_s", ["dominate", "--kind", "open", "--json", gr], lambda o: checks.domination(adj, o, "open")),
    ]
    seconds = dict.fromkeys(COMMAND_METRICS, 0.0)
    digest = hashlib.sha256()
    problems: list[str] = []
    failed = 0
    outputs: dict[str, dict] = {}
    for metric, argv, check in jobs:
        name = " ".join(argv[:-2])
        try:
            elapsed, code, text, err = _e2e(hc.cli, argv)
        except Exception as exc:  # a crash is one failed call; the round goes on
            failed += 1
            problems.append(f"{name}: raised {exc!r}")
            continue
        seconds[metric] += elapsed
        digest.update(text.encode())
        if code != 0:
            found = [f"exit {code}: {err.strip()}"]
        else:
            try:
                out = json.loads(text)
            except ValueError as exc:
                found = [f"output is not JSON: {exc}"]
            else:
                found = _checked(check, out)
                if not found:
                    outputs[metric] = out
        if found:
            failed += 1
            problems.extend(f"{name}: {p}" for p in found)
    strong = outputs.get("degeneracy_s", {}).get("value")
    if strong is not None and "cover_s" in outputs and outputs["cover_s"]["bound_factor"] != strong:
        failed += 1
        problems.append("cover: bound_factor differs from the strong degeneracy")
    busy = sum(seconds.values())
    return Round(seconds, len(jobs), failed, problems, digest.hexdigest(), 1, busy, {"strong_degeneracy": strong})


def _cover_dict(cert) -> dict:
    return {
        "cover": [i + 1 for i in cert.cover],
        "independent": [v + 1 for v in cert.independent],
        "per_step_edges": list(cert.per_step_edges),
        "bound_factor": cert.bound_factor,
    }


def _transversal_dict(cert) -> dict:
    return {
        "transversal": [v + 1 for v in cert.transversal],
        "matching": [i + 1 for i in cert.matching],
        "per_step_edges": list(cert.per_step_edges),
        "bound_factor": cert.bound_factor,
    }


def _domination_dict(cert) -> dict:
    return {
        "kind": cert.kind,
        "dominating": [v + 1 for v in cert.dominating],
        "packing": [v + 1 for v in cert.packing],
    }


# Hypergraph.from_edges, two peels, cover, transversal, two dominations (the
# tree's Graph.from_edges goes with them) and two oracles.
CALLS_PER_INSTANCE = 9


def _batch_round(hc, inputs: Inputs) -> Round:
    """Each instance: build fresh, peel (strong, plain), cover with the
    mighty factor, transversal, both tree dominations, and the two oracles
    that bracket the cover."""
    seconds = dict.fromkeys(COMMAND_METRICS, 0.0)
    other = 0.0
    digest = hashlib.sha256()
    problems: list[str] = []
    attempted = failed = 0
    strong_max = 0
    clock = process_time
    gc.collect()
    for index, (n, edge_list, tree_edges) in enumerate(inputs.batch):
        edges = [frozenset(e) for e in edge_list]
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in tree_edges:
            adj[u].add(v)
            adj[v].add(u)
        attempted += CALLS_PER_INSTANCE
        try:
            t0 = clock()
            h = hc.Hypergraph.from_edges(n, edge_list)
            t1 = clock()
            strong = hc.strong_degeneracy(h)
            t2 = clock()
            plain = hc.degeneracy(h)
            t3 = clock()
            cover = hc.greedy_cover(h, mighty=True)
            t4 = clock()
            trans = hc.greedy_transversal(h)
            t5 = clock()
            g = hc.Graph.from_edges(n, tree_edges)
            closed = hc.tree_domination(g, "closed")
            opened = hc.tree_domination(g, "open")
            t6 = clock()
            min_cover = hc.exact(h, "min-edge-cover")
            max_is = hc.exact(h, "max-independent-set")
            t7 = clock()
            outs = [
                {"kind": "strong", "order": [v + 1 for v in strong.order], "step_values": list(strong.step_values), "value": strong.value},
                {"kind": "plain", "order": [v + 1 for v in plain.order], "step_values": list(plain.step_values), "value": plain.value},
                _cover_dict(cover),
                _transversal_dict(trans),
                _domination_dict(closed),
                _domination_dict(opened),
                {"min-edge-cover": list(min_cover.witness), "max-independent-set": list(max_is.witness)},
            ]
        except Exception as exc:  # a crash or a malformed result fails the instance's calls
            failed += CALLS_PER_INSTANCE
            problems.append(f"instance {index}: raised {exc!r}")
            continue
        seconds["degeneracy_s"] += t2 - t1
        seconds["degeneracy_plain_s"] += t3 - t2
        seconds["cover_s"] += t4 - t3
        seconds["transversal_s"] += t5 - t4
        seconds["dominate_s"] += t6 - t5
        other += (t1 - t0) + (t7 - t6)
        strong_max = max(strong_max, strong.value)
        digest.update(json.dumps(outs, separators=(",", ":")).encode())
        found = [
            _checked(checks.order, n, outs[0], "strong"),
            _checked(checks.order, n, outs[1], "plain"),
            _checked(checks.cover, n, edges, outs[2]) + (
                [] if cover.bound_factor == strong.value else ["bound_factor differs from the strong degeneracy"]
            ),
            _checked(checks.transversal, n, edges, outs[3]),
            _checked(checks.domination, adj, outs[4], "closed"),
            _checked(checks.domination, adj, outs[5], "open"),
            _checked(checks.exact_chain, n, edges, outs[2], max_is.witness, min_cover.witness),
        ]
        for group in found:
            if group:
                failed += 1
                problems.extend(f"instance {index}: {p}" for p in group)
    busy = sum(seconds.values()) + other
    return Round(seconds, attempted, failed, problems, digest.hexdigest(), len(inputs.batch), busy, {"strong_degeneracy_max": strong_max})


def run_round(hc, workload: str, inputs: Inputs) -> Round:
    return _batch_round(hc, inputs) if workload == "small-batch" else _file_round(hc, inputs)
