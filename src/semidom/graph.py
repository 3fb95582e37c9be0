"""Undirected simple graphs with BFS-based distance and neighborhood queries.

Vertices are the contiguous range 0..n-1. Graphs are immutable after
construction; all functions here are pure.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from itertools import islice

from ._record import Record


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1.

    The sorted adjacency rows are the only stored form of the graph. They
    are built in one pass over the edges, in O(n + m log Δ) time; the edge
    set is built from them on first access of `edges` and then kept.
    Builders inside the package that already hold sorted, simple rows hand
    them over as `_rows`, a list of n rows that becomes the graph's own,
    with no check.
    """

    __slots__ = ("n", "m", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), *,
                 _rows: list | None = None):
        if _rows is None:
            _rows = _checked_rows(n, edges)
        for v, row in enumerate(_rows):  # each list is freed once copied
            _rows[v] = tuple(row)
        self.n = n
        self.m = sum(map(len, _rows)) // 2
        self._adj = tuple(_rows)
        self._edges: frozenset[tuple[int, int]] | None = None

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as a plain tuple (u, v) with u < v."""
        if self._edges is None:
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        if not 0 <= u < self.n:
            return False
        row = self._adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self._adj)
                for v in row[bisect_right(row, u):]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __reduce__(self):
        # pickle and copy rebuild the graph from its edges, so every pickle
        # protocol works and a loaded graph passes the edge checks again
        return type(self), (self.n, self.sorted_edges())


def _checked_rows(n: int, edges: Iterable) -> list[list[int]]:
    """The sorted adjacency rows of n vertices and the given edges, or the
    ValueError of the first bad edge in input order."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if iter(edges) is edges:  # one-shot: keep it, an error rescans it
        edges = list(edges)
    adj: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:
            if not (0 <= u < v < n or 0 <= v < u < n):
                raise ValueError
            adj[u].append(v)
            adj[v].append(u)
    except (TypeError, ValueError):
        # the failing edge is the first one not yet in both of its rows
        _raise_first_bad_edge(n, edges, sum(map(len, adj)) // 2 + 1)
        raise
    for row in adj:
        row.sort()
    if sum(map(len, map(set, adj))) < sum(map(len, adj)):  # a repeated neighbour
        _raise_first_bad_edge(n, edges)
        v = next(v for v, row in enumerate(adj) if len(set(row)) < len(row))
        raise ValueError(f"duplicate edge at vertex {v}")
    return adj


def _raise_first_bad_edge(n: int, edges: Iterable, limit: int | None = None) -> None:
    """Raise the error of the first bad edge among the first `limit` edges.

    Each edge is judged in input order by the type of each end, then
    range, then self-loop, then duplicate, so the error is the one an
    edge-by-edge check would raise. Returns when those edges hold none of
    these faults.
    """
    seen = set()
    for u, v in islice(edges, limit):
        for x in (u, v):
            if not hasattr(x, "__index__"):  # what indexing a row needs
                raise ValueError(f"vertex id {x!r} is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)


def check_vertex_set(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    """Validate a vertex set against g and return it as a sorted int tuple.

    Raises ValueError for the first id, in input order, with no `__index__`
    (as `Graph` judges edge ends), then for the smallest id out of range.
    """
    members = list(members)
    for v in members:
        if not hasattr(v, "__index__"):
            raise ValueError(f"vertex id {v!r} is not an integer")
    out = sorted(set(map(operator.index, members)))
    for v in out:
        g.check_vertex(v)
    return tuple(out)


def _bfs_layers(g: Graph, source: int) -> Iterator[list[int]]:
    """Yield the BFS layers from source: [source], then the vertices first
    reached at distance 1, 2, ... until none are left. Each layer is
    computed only when it is asked for."""
    adj = g._adj
    reached = {source}
    layer = [source]
    while layer:
        yield layer
        nxt = []
        for w in layer:
            for x in adj[w]:
                if x not in reached:
                    reached.add(x)
                    nxt.append(x)
        layer = nxt


def bfs_distance(g: Graph, u: int, v: int) -> int | float:
    """Length of a shortest u-v path; math.inf when disconnected."""
    g.check_vertex(u)
    g.check_vertex(v)
    for d, layer in enumerate(_bfs_layers(g, u)):
        if v in layer:
            return d
    return math.inf


def neighborhood_within(g: Graph, v: int, r: int) -> tuple[int, ...]:
    """All vertices within distance r of v, including v itself."""
    g.check_vertex(v)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    layers = zip(range(r + 1), _bfs_layers(g, v))  # stops before layer r + 1
    return tuple(sorted(x for _, layer in layers for x in layer))


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (vacuous for n <= 1)."""
    return g.n <= 1 or sum(map(len, _bfs_layers(g, 0))) == g.n


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    adj = g._adj
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            for x in adj[stack.pop()]:
                if not seen[x]:
                    seen[x] = True
                    comp.append(x)
                    stack.append(x)
        comps.append(sorted(comp))
    return comps


def closed_masks(g: Graph) -> list[int]:
    """Closed neighborhood of each vertex as a bitmask."""
    masks = []
    for v, row in enumerate(g._adj):
        m = 1 << v
        for u in row:
            m |= 1 << u
        masks.append(m)
    return masks


def open_masks(g: Graph) -> list[int]:
    """Open neighborhood of each vertex as a bitmask."""
    masks = []
    for row in g._adj:
        m = 0
        for u in row:
            m |= 1 << u
        masks.append(m)
    return masks


def distance2_masks(g: Graph) -> list[int]:
    """For each v, the vertices within distance 2 of v, excluding v itself."""
    return _distance2_from_closed(g, closed_masks(g))


def _distance2_from_closed(g: Graph, closed: list[int]) -> list[int]:
    """distance2_masks(g), given closed = closed_masks(g): the union of the
    closed neighborhoods of N[v], less v."""
    masks = []
    for v, row in enumerate(g._adj):
        m = closed[v]
        for u in row:
            m |= closed[u]
        masks.append(m & ~(1 << v))
    return masks


class SplitPartition(Record):
    """Partition of a graph's vertices into a clique and an independent set."""

    __slots__ = ("clique", "independent")
    clique: tuple[int, ...]
    independent: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        seen: set[int] = set()
        for v in self.clique + self.independent:
            if v in seen:
                raise ValueError(f"partition lists vertex {v} twice")
            seen.add(v)
        if seen != set(range(g.n)):
            raise ValueError("partition does not cover all vertices")
        ks = sorted(self.clique)
        for a in range(len(ks)):
            for b in range(a + 1, len(ks)):
                if not g.has_edge(ks[a], ks[b]):
                    raise ValueError(f"clique part misses edge ({ks[a]},{ks[b]})")
        i = set(self.independent)
        for u, v in g.edges:
            if u in i and v in i:
                raise ValueError(f"independent part contains edge ({u},{v})")
