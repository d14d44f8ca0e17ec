"""Span tracing of the package's public entry points, from outside the package.

``Tracer.install`` wraps each traced callable in place and ``uninstall``
puts the originals back; ``recording`` does both around a block.  The modules bind names at import time (``cover``
does ``from .core import check, dual``), so a function is replaced under
every module attribute that refers to it, and ``TraceIndex`` methods are
replaced on the class.  Anything missed would run untimed inside its caller.

A span is ``(span_id, parent_id, call_id, name, start, end)``, with start and
end in CPU seconds of the process; the call id is the span id of the
outermost span it runs under, so all spans of one timed call share it.  Spans stay in memory; the runner writes them out at the end.
Self time (duration minus the time covered by child spans) is summed per
span name as spans close.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import wraps
from time import process_time


def _targets():
    """(owner, attribute, span name, counter) for every traced entry point.

    ``counter`` maps a return value to an exact work count, or is ``None``.
    """
    # Through sys.modules: the package rebinds the name ``degeneracy`` to the
    # function of that name.
    mod = {name: sys.modules[f"hypercover.{name}"] for name in
           ("_trace_index", "cli", "core", "cover", "degeneracy", "domination", "oracles")}
    core, degeneracy, domination = mod["core"], mod["degeneracy"], mod["domination"]
    _trace_index, cli, cover, oracles = mod["_trace_index"], mod["cli"], mod["cover"], mod["oracles"]

    return [
        (core, "parse_hypergraph", "core.parse", None),
        (core.Hypergraph, "from_edges", "core.validate", None),
        (core.Hypergraph, "__post_init__", "core.validate", None),
        (core, "check", "core.check", None),
        (core, "dual", "core.dual", None),
        (_trace_index.TraceIndex, "__init__", "trace_index.build", None),
        (_trace_index.TraceIndex, "delete_vertex", "trace_index.delete", None),
        (_trace_index.TraceIndex, "pop_min", "trace_index.pop_min", None),
        (_trace_index.TraceIndex, "maximal_traces_at", "trace_index.maximal_traces_at", None),
        (degeneracy, "strong_degeneracy", "degeneracy.peel", None),
        (degeneracy, "degeneracy", "degeneracy.peel", None),
        (degeneracy, "mighty_degeneracy_bf", "degeneracy.mighty_bf", None),
        (cover, "greedy_cover", "cover.greedy", None),
        (cover, "greedy_transversal", "cover.transversal", None),
        (domination, "parse_graph", "domination.parse", None),
        (domination, "tree_domination", "domination.tree", None),
        (domination, "check_graph", "domination.check_graph", None),
        (domination, "neighborhood_hypergraph", "domination.neighborhood", None),
        (oracles, "exact", "oracles.exact", lambda result: result.explored),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans while installed; ``self_s``/``calls``/``counts`` are
    per-name totals since the last ``reset``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [span_id, seconds covered by child spans]
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.self_s = {}
        self.calls = {}
        self.counts = {}

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                stack.pop()
                duration = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id, call_id = parent[0], stack[0][0]
                else:
                    parent_id, call_id = 0, span_id
                tracer.spans.append((span_id, parent_id, call_id, name, start, end))
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame[1]
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if counter is not None:
                tracer.counts[name] = tracer.counts.get(name, 0) + counter(result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == "hypercover" or key.startswith("hypercover.")]
        for owner, attr, name, counter in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(raw.__func__, name, counter)))
                continue
            wrapper = self._wrap(raw, name, counter)
            if isinstance(owner, type):
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._saved.append((module, key, raw))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    @contextmanager
    def recording(self, on: bool):
        """Trace the body from fresh totals when ``on``; otherwise do nothing."""
        if not on:
            yield
            return
        self.reset()
        self.install()
        try:
            yield
        finally:
            self.uninstall()
