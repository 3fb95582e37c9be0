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

solve_interval never builds the digraphs. After an O(n log n) sort, one
backward and one forward sweep find each component, its non-contained
intervals and their arc thresholds, and one linear pass over the split
digraph reads each window's minimum at its left end, since distances never
fall along the interval order; the sentinels appear only in the digraphs.
build_overlap_digraph, build_split_digraph and shortest_constrained_path
stay as the quadratic reference implementation.
"""

from __future__ import annotations

import enum

from ._record import Record
from .errors import InfeasibleError
from .intervals import IntervalModel, canonicalize_intervals

Node = tuple  # ("source",), ("in", i), ("out", i), ("sink",)

SOURCE: Node = ("source",)
SINK: Node = ("sink",)


class ArcClass(enum.Enum):
    A1 = "A1"
    A2_MARKED = "A2_MARKED"
    A2_UNMARKED = "A2_UNMARKED"


class OverlapDigraph(Record):
    """Acyclic digraph on non-contained intervals plus sentinels.

    `intervals` holds n+2 entries: index 0 and n+1 are the sentinels, and
    index k for k in 1..n is interval k-1 of the source model. Arcs are
    (i, j, arc_class) with i < j.
    """

    __slots__ = ("intervals", "vertices", "arcs")
    intervals: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]
    arcs: tuple[tuple[int, int, ArcClass], ...]

    @property
    def n(self) -> int:
        return len(self.intervals) - 2


class SplitDigraph(Record):
    """0/1-weighted DAG obtained by splitting overlap-digraph vertices.

    Nodes are ("source",), ("sink",) and ("in", i)/("out", i) pairs for the
    non-sentinel vertices; `nodes` is in topological order. Arcs are
    (src, dst, length).
    """

    __slots__ = ("interval_count", "nodes", "arcs")
    interval_count: int
    nodes: tuple[Node, ...]
    arcs: tuple[tuple[Node, Node, int], ...]


def _components(intervals):
    """(start, stop, verts, a, f, g, first_end) per component, left to right.

    The component is the canonical positions [start, stop). `verts` are its
    positions not properly contained in another interval; a[t], f[t] and
    g[t] belong to verts[t]. f is the least right endpoint among intervals
    starting right of b (an A2 arc (s, t) exists iff b_s < a_t < f[s]), or
    inf if none of the component does (the arc to the sink). g is the
    greatest right endpoint among intervals starting left of b (the arc is
    marked iff a_t < g[s]). The source has an arc to each vertex with
    a < first_end, the component's least right endpoint. Contained intervals
    count as gap and marking witnesses. One backward and one forward sweep
    take these over the whole model. They equal the per-component values:
    earlier components end before this one's first left endpoint, and later
    ones end after its last right endpoint. So f takes position p only when
    p starts before every earlier interval has ended, in the same component.
    """
    n = len(intervals)
    inf = float("inf")
    least = [inf] * (n + 1)  # least right endpoint at positions >= k
    for k in range(n - 1, -1, -1):
        least[k] = min(intervals[k][1], least[k + 1])
    starts: list[int] = []
    parts = []
    top = reach = -inf  # greatest right endpoint before k, and before p
    p = 0
    for k, (ak, bk) in enumerate(intervals):
        if ak > top:
            starts.append(k)
            verts, a, f, g = part = [], [], [], []
            parts.append(part)
        if bk > top:
            top = bk
            while p < n and intervals[p][0] < bk:
                reach = max(reach, intervals[p][1])
                p += 1
            verts.append(k)
            a.append(ak)
            f.append(least[p] if p < n and intervals[p][0] < reach else inf)
            g.append(reach)
    starts.append(n)
    return [(start, stop, *part, least[start])
            for start, stop, part in zip(starts, starts[1:], parts)]


def build_overlap_digraph(m: IntervalModel) -> OverlapDigraph:
    """Construct the overlap digraph of a canonical, connected model.

    Canonical means left unchanged by `canonicalize_intervals`. A test
    reference, off every solve path: `solve_interval` relaxes the same arcs
    in a linear window without building this digraph.
    """
    if canonicalize_intervals(m)[0] != m:
        raise ValueError("model must be canonical")
    if m.n < 2:
        raise ValueError("need at least two intervals")
    comps = _components(m.intervals)
    if len(comps) != 1:
        raise ValueError("intersection graph is not connected")
    _, _, verts, a, f, g, first_end = comps[0]
    if len(verts) == 1:
        raise ValueError("an interval contains all others")
    lo = m.intervals[0][0]
    hi = max(b for _, b in m.intervals)
    sink = m.n + 1
    ids = [v + 1 for v in verts]  # the sentinel (lo-3, lo-2) takes index 0
    arcs = [(0, j, ArcClass.A2_UNMARKED) for j, aj in zip(ids, a) if aj < first_end]
    for x, i in enumerate(ids):
        bi = m.intervals[verts[x]][1]
        for j, aj in zip(ids[x + 1:], a[x + 1:]):
            if aj < bi:
                arcs.append((i, j, ArcClass.A1))
            elif f[x] > aj:
                cls = ArcClass.A2_MARKED if g[x] > aj else ArcClass.A2_UNMARKED
                arcs.append((i, j, cls))
        if f[x] == float("inf"):
            arcs.append((i, sink, ArcClass.A2_UNMARKED))
    return OverlapDigraph(intervals=((lo - 3, lo - 2), *m.intervals, (hi + 1, hi + 2)),
                          vertices=(0, *ids, sink), arcs=tuple(arcs))


def build_split_digraph(d: OverlapDigraph) -> SplitDigraph:
    """Apply the vertex-splitting rules that encode the marked-arc constraint.

    A test reference, off every solve path, like `build_overlap_digraph`.
    """
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
    node in that order wins, so the result is deterministic. A test
    reference, off every solve path, like `build_overlap_digraph`.
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


def _window_constrained_path(a, f, g, first_end) -> tuple[int, ...]:
    """The path shortest_constrained_path finds, in O(k).

    Takes the lists from `_components` of a component with two or more
    vertices; returns vertex indices t. Over the vertices in a order, f and
    g are nondecreasing with f > b and g >= b. The in-node of t is reached
    (A1 and marked A2 arcs) from the out-nodes of the s < t with
    min(f, g)[s] > a_t; its out-node (unmarked A2 arcs) from the in-nodes of
    the s with g[s] <= a_t < f[s], or from the source when a_t < first_end.
    The in-nodes with f = inf reach the sink. Both windows only move right.

    A window's minimum is its left end. Write in(t), out(t) for the
    distances; out(t) <= in(t) by the zero arc, or out(t) = 0. Consecutive
    vertices overlap, so the in-window [in_lo, t) holds t-1 and in(t) is
    finite for t >= 1. Induction on t: if out is nondecreasing below t, so
    is in(t) = 1 + out(in_lo), as in_lo only moves right. And out(t) >=
    out(t-1): the source reaches a prefix, in(t) >= in(t-1) >= out(t-1),
    and an s with g[s] <= a_t < f[s] is in t-1's out-window if g[s] <=
    a_{t-1}, else in its in-window, so in(t-1) <= 1 + out(s) <= 1 + in(s);
    either way out(t-1) <= 1 + in(s). So a window's leftmost node is its
    minimum and, on ties, the oldest, which the reference keeps. In-node 0
    is never reached, so the out-window skips it. f is nondecreasing with
    f = inf at the last vertex, so the sink arcs leave a suffix; its
    leftmost reached in-node ends the path.
    """
    # split-digraph node 2t is the in-node of vertex t, 2t+1 its out-node
    inf = float("inf")
    dist = [inf] * (2 * len(a))
    pred = [-1] * len(dist)  # -1: the source
    in_lo = out_lo = out_hi = 0
    for t, at in enumerate(a):
        # each scan stops by t, since f[t] > b_t > a_t and g[t] >= b_t
        while min(f[in_lo], g[in_lo]) <= at:
            in_lo += 1
        while g[out_hi] <= at:
            out_hi += 1
        while f[out_lo] <= at:
            out_lo += 1
        if t:
            dist[2 * t], pred[2 * t] = dist[2 * in_lo + 1] + 1, 2 * in_lo + 1
        if first_end > at:
            dist[2 * t + 1] = 0
        else:
            s = max(out_lo, 1)
            # the window wins ties, as it comes first in the reference's order
            if s < out_hi and dist[2 * s] < dist[2 * t]:
                dist[2 * t + 1], pred[2 * t + 1] = dist[2 * s] + 1, 2 * s
            else:  # the zero-length in->out arc
                dist[2 * t + 1], pred[2 * t + 1] = dist[2 * t], 2 * t
    node = 2 * max(f.index(inf), 1)
    if dist[node] == inf:
        raise RuntimeError("no source-to-sink path (internal error)")
    size = dist[node] + 1
    picked: set[int] = set()
    while node >= 0:
        picked.add(node >> 1)
        node = pred[node]
    result = tuple(sorted(picked))
    if len(result) != size:
        raise RuntimeError("path length must equal the set size (internal error)")
    return result


def solve_interval(m: IntervalModel) -> tuple[int, ...]:
    """Minimum semitotal dominating set of the model's intersection graph.

    Returns original interval ids. Components are solved independently; a
    singleton component is an isolated vertex with no distance-2 partner,
    so InfeasibleError names the smallest such id, as exact_min does. A
    component with one vertex is an interval properly containing all the
    others, which no path can pair; that interval plus the component's
    smallest other id is already optimal.
    """
    if m.n == 0:
        raise ValueError("empty interval model")
    canon, ids = canonicalize_intervals(m)
    comps = _components(canon.intervals)
    isolated = [ids[start] for start, stop, *_ in comps if stop - start == 1]
    if isolated:
        raise InfeasibleError(f"isolated vertex {min(isolated)}")

    chosen: list[int] = []
    for start, stop, verts, a, f, g, first_end in comps:
        if len(verts) == 1:
            chosen += ids[start], min(ids[start + 1:stop])
        else:
            chosen.extend(ids[verts[t]] for t in _window_constrained_path(a, f, g, first_end))
    return tuple(sorted(chosen))
