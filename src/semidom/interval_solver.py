"""Minimum semitotal domination on interval graphs in O(n log n).

The solver reduces the problem to a shortest-path question on an acyclic
overlap digraph. Intervals that are properly contained in another interval
can be dropped from the solution space (they never help a minimum set), so
digraph vertices are the non-contained intervals plus two far-away sentinels
(index 0 on the left, n+1 on the right). Arcs go left to right:

  A1           the two intervals overlap;
  A2           the intervals are disjoint and no third interval lies
               entirely in the gap between them (a dominating set could
               never cover such a gap interval);
  A2 marked    an A2 arc where some interval intersects both endpoints'
               intervals, i.e. the two intervals are within distance 2.

A set of intervals is a semitotal dominating set without contained members
exactly when its indices form a source-to-sink path that never takes two
unmarked A2 arcs in a row. That sequencing constraint is compiled away by
splitting every vertex into an in-node and an out-node, after which a plain
shortest path on the split digraph does the job.

solve_interval never builds the digraphs. After an O(n log n) sort and
per-vertex arc thresholds, it relaxes the split digraph over sliding windows
in linear time. build_overlap_digraph, build_split_digraph and
shortest_constrained_path stay as the quadratic reference implementation.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass

from .errors import InfeasibleError
from .intervals import IntervalModel, ensure_canonical

Node = tuple  # ("source",), ("in", i), ("out", i), ("sink",)

SOURCE: Node = ("source",)
SINK: Node = ("sink",)


class ArcClass(enum.Enum):
    A1 = "A1"
    A2_MARKED = "A2_MARKED"
    A2_UNMARKED = "A2_UNMARKED"


@dataclass(frozen=True)
class OverlapDigraph:
    """Acyclic digraph on non-contained intervals plus sentinels.

    `intervals` holds n+2 entries: index 0 and n+1 are the sentinels, and
    index k for k in 1..n is interval k-1 of the source model. Arcs are
    (i, j, arc_class) with i < j.
    """

    intervals: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int, ArcClass], ...]

    @property
    def n(self) -> int:
        return len(self.intervals) - 2


@dataclass(frozen=True)
class SplitDigraph:
    """0/1-weighted DAG obtained by splitting overlap-digraph vertices.

    Nodes are ("source",), ("sink",) and ("in", i)/("out", i) pairs for the
    non-sentinel vertices; `nodes` is in topological order. Arcs are
    (src, dst, length).
    """

    interval_count: int
    nodes: tuple[Node, ...]
    arcs: tuple[tuple[Node, Node, int], ...]


def contains_all(m: IntervalModel) -> int | None:
    """Index of the interval properly containing all others, if one exists."""
    if m.n <= 1:
        return None
    best = min(range(m.n), key=lambda k: m.intervals[k][0])
    a0, b0 = m.intervals[best]
    for k, (a, b) in enumerate(m.intervals):
        if k == best:
            continue
        if not (a0 < a and b < b0):
            return None
    return best


def _component_slices(intervals) -> list[tuple[int, int]]:
    """Contiguous [start, stop) runs of one intersection-graph component.

    Only valid for canonical models (sorted by left endpoint): a component
    ends where every earlier interval stops before the next one starts.
    """
    slices = []
    start = 0
    reach = intervals[0][1]
    for k in range(1, len(intervals)):
        a, b = intervals[k]
        if a > reach:
            slices.append((start, k))
            start = k
            reach = b
        else:
            reach = max(reach, b)
    slices.append((start, len(intervals)))
    return slices


def _digraph_arrays(m: IntervalModel):
    """Sentinel-extended endpoint arrays and per-vertex arc thresholds.

    Returns (ivs, avals, bvals, verts, fs, gs) where for an index i
    fs[i] is the least right endpoint among intervals starting right of b_i
    (so an A2 arc (i, j) exists iff b_i < a_j < fs[i]) and gs[i] is the
    greatest right endpoint among intervals starting left of b_i (the arc is
    marked iff a_j < gs[i]). Thresholds range over all of I', so contained
    intervals count as gap and marking witnesses.
    """
    if not m.canonical:
        raise ValueError("model must be canonical")
    n = m.n
    if n < 2:
        raise ValueError("need at least two intervals")
    if contains_all(m) is not None:
        raise ValueError("an interval contains all others")
    if len(_component_slices(m.intervals)) != 1:
        raise ValueError("intersection graph is not connected")

    lo = m.intervals[0][0]
    hi = max(b for _, b in m.intervals)
    ivs: list[tuple[int, int]] = [(lo - 3, lo - 2)]
    ivs.extend(m.intervals)
    ivs.append((hi + 1, hi + 2))

    # vertex set: indices not properly contained in any interval of I'
    avals = [a for a, _ in ivs]
    bvals = [b for _, b in ivs]
    verts = [0]
    prefix_max_b = bvals[0]
    for k in range(1, n + 1):
        if bvals[k] > prefix_max_b:
            verts.append(k)
        prefix_max_b = max(prefix_max_b, bvals[k])
    verts.append(n + 1)

    size = n + 2
    suffix_min_b = [0] * (size + 1)
    suffix_min_b[size] = hi + 10
    for k in range(size - 1, -1, -1):
        suffix_min_b[k] = min(bvals[k], suffix_min_b[k + 1])
    prefix_max = [0] * (size + 1)
    prefix_max[0] = lo - 10
    for k in range(size):
        prefix_max[k + 1] = max(prefix_max[k], bvals[k])
    fs = {}
    gs = {}
    for i in verts:
        bi = bvals[i]
        fs[i] = suffix_min_b[bisect_right(avals, bi)]
        gs[i] = prefix_max[bisect_left(avals, bi)]
    return ivs, avals, bvals, verts, fs, gs


def build_overlap_digraph(m: IntervalModel) -> OverlapDigraph:
    """Construct the overlap digraph of a canonical, connected model."""
    ivs, avals, bvals, verts, fs, gs = _digraph_arrays(m)
    arcs: list[tuple[int, int, ArcClass]] = []
    for x, i in enumerate(verts):
        bi = bvals[i]
        fi = fs[i]
        gi = gs[i]
        for j in verts[x + 1:]:
            aj = avals[j]
            if aj < bi:
                arcs.append((i, j, ArcClass.A1))
            elif fi > aj:
                cls = ArcClass.A2_MARKED if gi > aj else ArcClass.A2_UNMARKED
                arcs.append((i, j, cls))
    return OverlapDigraph(intervals=tuple(ivs), vertices=tuple(verts), arcs=tuple(arcs))


def build_split_digraph(d: OverlapDigraph) -> SplitDigraph:
    """Apply the vertex-splitting rules that encode the marked-arc constraint."""
    n = d.n
    sink = n + 1
    inner = [i for i in d.vertices if i != 0 and i != sink]
    nodes: list[Node] = [SOURCE]
    for i in inner:
        nodes.append(("in", i))
        nodes.append(("out", i))
    nodes.append(SINK)
    arcs: list[tuple[Node, Node, int]] = [(("in", i), ("out", i), 0) for i in inner]
    for i, j, cls in d.arcs:
        if i == 0:
            arcs.append((SOURCE, ("out", j), 0))
        elif j == sink:
            arcs.append((("in", i), SINK, 1))
        elif cls is ArcClass.A2_UNMARKED:
            arcs.append((("in", i), ("out", j), 1))
        else:
            arcs.append((("out", i), ("in", j), 1))
    return SplitDigraph(interval_count=n, nodes=tuple(nodes), arcs=tuple(arcs))


def shortest_constrained_path(dprime: SplitDigraph) -> tuple[int, ...]:
    """Interval indices on a shortest source-to-sink path of the split digraph.

    Relaxation follows the topological node order (interval index ascending,
    in-node before out-node); among equal-length predecessors the smallest
    node in that order wins, so the result is deterministic.
    """
    out: dict[Node, list[tuple[Node, int]]] = {node: [] for node in dprime.nodes}
    for src, dst, w in dprime.arcs:
        out[src].append((dst, w))
    inf = float("inf")
    dist: dict[Node, float] = {node: inf for node in dprime.nodes}
    pred: dict[Node, Node | None] = {node: None for node in dprime.nodes}
    dist[SOURCE] = 0
    for node in dprime.nodes:
        dn = dist[node]
        if dn is inf:
            continue
        # processing sources in topological order with strict improvement
        # leaves each node with its smallest equal-length predecessor
        for dst, w in out[node]:
            if dn + w < dist[dst]:
                dist[dst] = dn + w
                pred[dst] = node
    if dist[SINK] is inf:
        raise RuntimeError("no source-to-sink path (internal error)")
    picked: set[int] = set()
    node: Node | None = SINK
    while node is not None:
        if node[0] in ("in", "out"):
            picked.add(node[1])
        node = pred[node]
    result = tuple(sorted(picked))
    if len(result) != dist[SINK]:
        raise RuntimeError("path length must equal the set size (internal error)")
    return result


def _window_constrained_path(avals, verts, fs, gs) -> tuple[int, ...]:
    """The path shortest_constrained_path finds, by window minima in O(k).

    Over the inner vertices in a order, fs and gs are nondecreasing with
    fs > b and gs >= b. The in-node of t is reached (A1 and marked A2 arcs)
    from the out-nodes of the s < t with min(fs, gs)[s] > a_t; its out-node
    (unmarked A2 arcs) from the in-nodes of the s with gs[s] <= a_t < fs[s].
    Both windows only move right as t grows, so a monotone deque per window
    holds its minimum, keeping the older node on ties as the reference does.
    """
    inner = verts[1:-1]
    a = [avals[i] for i in inner]
    f = [fs[i] for i in inner]
    g = [gs[i] for i in inner]
    # split-digraph node 2t is the in-node of inner[t], 2t+1 its out-node
    inf = float("inf")
    dist = [inf] * (2 * len(inner))
    pred = [-1] * len(dist)  # -1: the source
    in_q: deque[int] = deque()   # out-nodes feeding in-nodes
    out_q: deque[int] = deque()  # in-nodes feeding out-nodes by unmarked arcs
    in_lo = out_lo = out_hi = 0

    def push(q, node):
        while q and dist[q[-1]] > dist[node]:
            q.pop()
        q.append(node)

    def relax(node, q, lo):
        while q and q[0] >> 1 < lo:
            q.popleft()
        if q and dist[q[0]] + 1 < dist[node]:
            dist[node], pred[node] = dist[q[0]] + 1, q[0]

    for t, at in enumerate(a):
        if t:
            push(in_q, 2 * t - 1)
        # each scan stops by t, since f[t] > b_t > a_t and g[t] >= b_t
        while min(f[in_lo], g[in_lo]) <= at:
            in_lo += 1
        while g[out_hi] <= at:
            push(out_q, 2 * out_hi)
            out_hi += 1
        while f[out_lo] <= at:
            out_lo += 1
        relax(2 * t, in_q, in_lo)
        if fs[verts[0]] > at:
            dist[2 * t + 1] = 0
        else:
            relax(2 * t + 1, out_q, out_lo)
            if dist[2 * t] < dist[2 * t + 1]:  # the zero-length in->out arc
                dist[2 * t + 1], pred[2 * t + 1] = dist[2 * t], 2 * t
    # in-nodes with an arc to the sink; min keeps the smallest on ties
    ends = [2 * t for t in range(len(inner)) if f[t] > avals[verts[-1]]]
    node = min(ends, key=dist.__getitem__, default=None)
    if node is None or dist[node] == inf:
        raise RuntimeError("no source-to-sink path (internal error)")
    size = dist[node] + 1
    picked: set[int] = set()
    while node >= 0:
        picked.add(inner[node >> 1])
        node = pred[node]
    result = tuple(sorted(picked))
    if len(result) != size:
        raise RuntimeError("path length must equal the set size (internal error)")
    return result


def solve_interval(m: IntervalModel) -> tuple[int, ...]:
    """Minimum semitotal dominating set of the model's intersection graph.

    Returns original interval ids. Components are solved independently; a
    singleton component has no distance-2 partner and raises
    InfeasibleError. When one interval properly contains all others of its
    component, that interval plus the component's smallest other id is
    already optimal.
    """
    if m.n == 0:
        raise ValueError("empty interval model")
    canon = ensure_canonical(m)
    inv = [0] * m.n
    for orig, pos in enumerate(canon.perm):
        inv[pos] = orig
    slices = _component_slices(canon.intervals)
    if any(stop - start == 1 for start, stop in slices):
        raise InfeasibleError("singleton component has no distance-2 partner")

    chosen: list[int] = []
    for start, stop in slices:
        sub = IntervalModel(
            intervals=canon.intervals[start:stop],
            canonical=True,
            perm=tuple(range(stop - start)),
        )
        container = contains_all(sub)
        if container is not None:
            container += start
            chosen.append(inv[container])
            chosen.append(min(inv[k] for k in range(start, stop) if k != container))
        else:
            _, avals, _, verts, fs, gs = _digraph_arrays(sub)
            chosen.extend(inv[start + k - 1]
                          for k in _window_constrained_path(avals, verts, fs, gs))
    return tuple(sorted(chosen))
