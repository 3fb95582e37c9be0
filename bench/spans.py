"""Tracing from outside the program: spans around each layer's public calls.

A `Tracer` replaces each traced function at every `semidom` module
attribute that holds it, which is where its callers look it up, and
`Graph.__init__` on the class. Spans are kept in memory as
(name, start, end, parent, request) and turned into per-layer metrics when
the run ends. Leaving the `with` block restores every original object.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from functools import wraps

# (module, attribute) of every traced call; the span is named "module.attribute"
TRACED = (
    ("cli", "main"),
    ("formats", "parse_intervals"),
    ("formats", "parse_edgelist"),
    ("graph", "Graph"),
    ("intervals", "intersection_graph"),
    ("intervals", "canonicalize_intervals"),
    ("interval_solver", "solve_interval"),
    ("interval_solver", "build_overlap_digraph"),
    ("interval_solver", "build_split_digraph"),
    ("interval_solver", "shortest_constrained_path"),
    ("domination", "verify"),
    ("domination", "exact_min"),
    ("graph", "open_masks"),
    ("graph", "closed_masks"),
    ("graph", "distance2_masks"),
    ("graph", "is_connected"),
    ("approx", "approx_semitotal"),
    ("approx", "greedy_dominating_set"),
    ("approx", "build_semitotal_setcover"),
    ("approx", "greedy_set_cover"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)
ROOT = "cli.main"

# work counts read from return values, summed over each span's calls
COUNTS = {
    "intervals.intersection_graph.edges": ("intervals.intersection_graph", lambda g: g.m),
    "interval_solver.solve_interval.size": ("interval_solver.solve_interval", len),
    "approx.greedy_dominating_set.picks": ("approx.greedy_dominating_set", len),
    "approx.build_semitotal_setcover.universe": ("approx.build_semitotal_setcover",
                                                 lambda inst: len(inst.universe)),
    "approx.greedy_set_cover.picks": ("approx.greedy_set_cover", len),
    "domination.exact_min.size": ("domination.exact_min", len),
    "domination.verify.violations": ("domination.verify", lambda r: len(r.violations)),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_ms": "ms",
                      f"{name}.share": "ratio"})
    units.update(dict.fromkeys(COUNTS, "count"))
    units["trace_overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Span recorder for one traced run; not thread-safe (the program is not threaded)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.request = -1
        self._stack: list[int] = []
        self._counters = {}
        for key, (span, fn) in COUNTS.items():
            self._counters.setdefault(span, []).append((key, fn))

    def _wrap(self, name: str, fn):
        counters = self._counters.get(name, ())
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.request))
            self._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.request)
            for key, count in counters:
                self.counts[key] += count(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced call for the duration of the block."""
        saved = []
        try:
            graph_cls = sys.modules["semidom.graph"].Graph
            init = graph_cls.__init__
            graph_cls.__init__ = self._wrap("graph.Graph", init)
            saved.append((graph_cls, "__init__", init))
            modules = [m for name, m in sys.modules.items()
                       if name == "semidom" or name.startswith("semidom.")]
            for mod, attr in TRACED:
                if (mod, attr) == ("graph", "Graph"):
                    continue
                orig = getattr(sys.modules[f"semidom.{mod}"], attr)
                wrapped = self._wrap(f"{mod}.{attr}", orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            saved.append((m, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(saved):
                setattr(owner, key, orig)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts: dict[str, int], scales=None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit), over the requests in `spans`.

    `calls` and work counts are per request; `self_ms` is the median over
    requests of the span's self time, times `scales[request]` if given;
    `share` is its self time over the summed duration of the root spans.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == ROOT and s[3] < 0]
    requests = {spans[i][4]: k for k, i in enumerate(roots)}
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    nreq = len(roots)
    per_request = {name: [0.0] * nreq for name in SPAN_NAMES}
    calls = dict.fromkeys(SPAN_NAMES, 0)
    for span, own in zip(spans, selfs):
        per_request[span[0]][requests[span[4]]] += own
        calls[span[0]] += 1
    scale = [1.0] * nreq if scales is None else [scales[spans[i][4]] for i in roots]
    out = {}
    for name in SPAN_NAMES:
        scaled = [t * f for t, f in zip(per_request[name], scale)]
        out[f"{name}.calls"] = (calls[name] / nreq, "count")
        out[f"{name}.self_ms"] = (statistics.median(scaled) * 1000.0, "ms")
        out[f"{name}.share"] = (sum(per_request[name]) / total, "ratio")
    for key, value in counts.items():
        out[key] = (value / nreq, "count")
    return out
