#!/usr/bin/env python3
"""Benchmark: the time from an input to a checked certificate.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-random --seed 42 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke        # every workload at toy size, both modes

One process runs one workload.  It generates the inputs from ``--seed`` (the
timed set-up), makes one untimed warm-up round, then runs closed-loop rounds,
one call at a time, for about ``--seconds`` seconds.  Each round sets up once
more (timed, then discarded), calls every command once and checks every
output independently of the package.

Times are CPU seconds of this process (``time.process_time``), and each is
reported as the slowest of its per-round samples (see ``e2e_values``).
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
rounds, plus the tracing overhead of each end-to-end metric (how much worse
the traced value is); the last traced round's spans are written under
``.perfbench_run/spans/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run (git SHA, Python, nproc, seed, instance statistics, output digest and
every sample).  The package is imported from ``src/`` of the checkout this
file sits in; without it the run fails with exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median_low
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

DEFAULT_SEED = 42
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    **{metric: "s" for metric in workloads.COMMAND_METRICS},
    "batch_instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# metric -> (span name, what to read: self seconds, span count or counter)
PER_LAYER = {
    "core.parse_s": ("core.parse", "self"),
    "core.validate_s": ("core.validate", "self"),
    "core.check_s": ("core.check", "self"),
    "core.check_calls": ("core.check", "calls"),
    "core.dual_s": ("core.dual", "self"),
    "trace_index.builds": ("trace_index.build", "calls"),
    "trace_index.build_s": ("trace_index.build", "self"),
    "trace_index.deletions": ("trace_index.delete", "calls"),
    "trace_index.delete_s": ("trace_index.delete", "self"),
    "trace_index.pops": ("trace_index.pop_min", "calls"),
    "trace_index.pop_min_s": ("trace_index.pop_min", "self"),
    "trace_index.maximal_traces_at_s": ("trace_index.maximal_traces_at", "self"),
    "degeneracy.peel_s": ("degeneracy.peel", "self"),
    "degeneracy.mighty_bf_s": ("degeneracy.mighty_bf", "self"),
    "cover.greedy_s": ("cover.greedy", "self"),
    "cover.transversal_s": ("cover.transversal", "self"),
    "domination.parse_s": ("domination.parse", "self"),
    "domination.tree_s": ("domination.tree", "self"),
    "domination.check_graph_s": ("domination.check_graph", "self"),
    "domination.neighborhood_s": ("domination.neighborhood", "self"),
    "oracles.exact_s": ("oracles.exact", "self"),
    "oracles.explored": ("oracles.exact", "count"),
    "cli.main_s": ("cli.main", "self"),
}
# Layers whose work happens in set-up, so their value comes from a traced set-up.
SETUP_LAYERS = {"domination.neighborhood_s"}
RATES = {"batch_instances_per_s"}  # higher is better
OVERHEAD = {f"trace_overhead.{m}": u for m, u in END_TO_END.items() if m != "peak_rss_mb"}
PER_LAYER_UNITS = {
    **{m: "s" if what == "self" else "count" for m, (_, what) in PER_LAYER.items()},
    **OVERHEAD,
}


def load_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hypercover
        import hypercover.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hypercover from {src}: {exc}")
    if Path(hypercover.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: hypercover was imported from {hypercover.__file__}, not from {src}")
    return hypercover


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def layer_values(tracer: Tracer) -> dict[str, float]:
    source = {"self": tracer.self_s, "calls": tracer.calls, "count": tracer.counts}
    return {m: source[what].get(span, 0) for m, (span, what) in PER_LAYER.items()}


def e2e_values(rounds: list, setups: list[float]) -> dict[str, float]:
    # Times are CPU seconds of this process (every call runs in it, on one
    # thread), so time spent waiting for a CPU is left out.  Each is the
    # slowest round's: on a shared host the CPU itself runs fast in some
    # stretches and up to 1.9 times slower in others, the share of fast
    # stretches in a run moves the median by up to half from run to run,
    # and the slow stretches, seen in nearly every run, set the slowest
    # round (README.md).
    values = {"setup_s": max(setups)}
    for metric in workloads.COMMAND_METRICS:
        values[metric] = max(r.seconds[metric] for r in rounds)
    busy = max(r.busy_s for r in rounds)
    values["batch_instances_per_s"] = rounds[0].instances / busy if busy else 0.0
    return values


def measure(hc, workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    tracer = Tracer()
    work = ROOT / ".perfbench_run" / f"{workload}-{seed}-{os.getpid()}"
    setups: dict[bool, list[float]] = {False: [], True: []}
    rounds: dict[bool, list] = {False: [], True: []}
    layers: dict[str, list[dict]] = {"setup": [], "round": []}

    def timed_setup(traced: bool, workdir: Path) -> workloads.Inputs:
        gc.collect()
        with tracer.recording(traced):
            start = process_time()
            inputs = workloads.generate(hc, workload, seed, size, workdir)
            setups[traced].append(process_time() - start)
        if traced:
            layers["setup"].append(layer_values(tracer))
        return inputs

    try:
        inputs = workloads.prepare(timed_setup(False, work / "inputs"))
        # The first round on full-size inputs grows the heap; keep it untimed.
        warm = workloads.run_round(hc, workload, inputs)
        start = perf_counter()
        count = 0
        while True:
            # Set up again each round, so that set-up is sampled across the
            # whole run like everything else; these inputs are discarded.
            traced = trace and count % 2 == 1
            timed_setup(traced, work / "again")
            with tracer.recording(traced):
                rounds[traced].append(workloads.run_round(hc, workload, inputs))
            if traced:
                layers["round"].append(layer_values(tracer))
            count += 1
            elapsed = perf_counter() - start
            if count >= MIN_ROUNDS and elapsed * (count + 1) / count > seconds:
                break
        if trace:
            write_spans(tracer, workload, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = [warm] + rounds[False] + rounds[True]
    timed = rounds[False] + rounds[True]
    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    problems = [p for r in every for p in r.problems]
    digest = timed[0].digest
    drifted = sum(1 for r in timed if r.digest != digest)
    if drifted:
        failed += drifted
        problems.append(f"{drifted} round(s) printed different output from the first")
    recorded = json.loads((HERE / "digests.json").read_text()).get(workload) if size == "full" else None
    if seed == DEFAULT_SEED and recorded is not None and recorded != digest:
        failed += 1
        problems.append(f"digest {digest} differs from the recorded {recorded}")

    plain = e2e_values(rounds[False], setups[False])
    if trace:
        metrics = {}
        per_layer = {}
        for m, (_, what) in PER_LAYER.items():
            typical = max if what == "self" else median_low  # counts repeat exactly
            per_layer[m] = typical(v[m] for v in layers["setup" if m in SETUP_LAYERS else "round"])
        traced_e2e = e2e_values(rounds[True], setups[True])
        for name, unit in PER_LAYER_UNITS.items():
            if name in OVERHEAD:
                base = name.split(".", 1)[1]
                # Positive and growing with the overhead, for rates as for times.
                slower = plain[base] - traced_e2e[base] if base in RATES else traced_e2e[base] - plain[base]
                metrics[name] = {"value": slower, "unit": unit}
            else:
                metrics[name] = {"value": per_layer[name], "unit": unit}
    else:
        plain["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": plain[name], "unit": unit} for name, unit in END_TO_END.items()}

    record = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "instance": {**workloads.describe(workload, inputs), **timed[0].stats},
        "rounds": {"untraced": len(rounds[False]), "traced": len(rounds[True])},
        "setup_reps": {"untraced": len(setups[False]), "traced": len(setups[True])},
        "samples": {
            "setup_s": setups[False],
            **{m: [r.seconds[m] for r in rounds[False]] for m in workloads.COMMAND_METRICS},
            "busy_s": [r.busy_s for r in rounds[False]],
        },
        "digest": digest,
        "recorded_digest": recorded,
        "failed_frac": failed / attempted,
        "problems": problems[:20],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    """The last traced round's spans, one JSON array per line:
    [span_id, parent_id, call_id, name, start, end]."""
    out = ROOT / ".perfbench_run" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    with gzip.open(out / f"{workload}-seed{seed}.jsonl.gz", "wt", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def smoke() -> int:
    """Run every workload at toy size in both modes (and one under -O) in
    child processes; check each result line against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    runs = [([], w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    runs.append((["-O"], "sparse-random", 0))
    bad = 0
    for flags, workload, trace in runs:
        argv = [sys.executable, *flags, str(HERE / "run.py"), "--smoke", "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        label = f"{' '.join(flags)} {workload} --trace {trace}".strip()
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            print(f"FAIL {label}: exit {proc.returncode}, no result line\n{proc.stderr}", file=sys.stderr)
            bad += 1
            continue
        units = {name: m.get("unit") for name, m in result["metrics"].items()}
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit {proc.returncode}")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
            problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
        if units != expected[trace]:
            problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected[trace]))}")
        print(f"{'FAIL' if problems else 'ok  '} {label} {'; '.join(problems)}", file=sys.stderr)
        bad += bool(problems)
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes; without --workload, check every workload")
    args = parser.parse_args()
    # On SIGTERM, unwind through the ``finally`` that removes the input files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.smoke and args.workload is None:
        load_package()
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    hc = load_package()
    record, result = measure(hc, args.workload, args.seed, args.seconds, bool(args.trace), "smoke" if args.smoke else "full")
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
