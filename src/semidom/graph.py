"""Undirected simple graphs with BFS-based distance and neighborhood queries.

Vertices are the contiguous range 0..n-1. Graphs are immutable after
construction; all functions here are pure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (u < v and type(e) is tuple):  # store plain, normalized tuples
                e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = frozenset(seen)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        e = (u, v) if u < v else (v, u)
        return e in self.edges

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def check_vertex_set(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    """Validate a vertex set against g and return it as a sorted tuple.

    Raises ValueError for the first id, in input order, that is not an int,
    then for the smallest id out of range.
    """
    members = list(members)
    for v in members:
        if not isinstance(v, int):
            raise ValueError(f"vertex id {v!r} is not an integer")
    out = sorted(set(members))
    for v in out:
        g.check_vertex(v)
    return tuple(out)


def bfs_distance(g: Graph, u: int, v: int) -> int | float:
    """Length of a shortest u-v path; math.inf when disconnected."""
    g.check_vertex(u)
    g.check_vertex(v)
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        d = dist[w] + 1
        for x in g.neighbors(w):
            if x not in dist:
                if x == v:
                    return d
                dist[x] = d
                queue.append(x)
    return math.inf


def neighborhood_within(g: Graph, v: int, r: int) -> tuple[int, ...]:
    """All vertices within distance r of v, including v itself."""
    g.check_vertex(v)
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    reached = {v}
    frontier = [v]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for x in g.neighbors(w):
                if x not in reached:
                    reached.add(x)
                    nxt.append(x)
        if not nxt:
            break
        frontier = nxt
    return tuple(sorted(reached))


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (vacuous for n <= 1)."""
    if g.n <= 1:
        return True
    reached = {0}
    stack = [0]
    while stack:
        w = stack.pop()
        for x in g.neighbors(w):
            if x not in reached:
                reached.add(x)
                stack.append(x)
    return len(reached) == g.n


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            w = stack.pop()
            for x in g.neighbors(w):
                if not seen[x]:
                    seen[x] = True
                    comp.append(x)
                    stack.append(x)
        comps.append(sorted(comp))
    return comps


def closed_masks(g: Graph) -> list[int]:
    """Closed neighborhood of each vertex as a bitmask."""
    masks = []
    for v in range(g.n):
        m = 1 << v
        for u in g.neighbors(v):
            m |= 1 << u
        masks.append(m)
    return masks


def open_masks(g: Graph) -> list[int]:
    """Open neighborhood of each vertex as a bitmask."""
    masks = []
    for v in range(g.n):
        m = 0
        for u in g.neighbors(v):
            m |= 1 << u
        masks.append(m)
    return masks


def distance2_masks(g: Graph) -> list[int]:
    """For each v, the vertices within distance 2 of v, excluding v itself."""
    closed = closed_masks(g)
    masks = []
    for v in range(g.n):
        m = closed[v]
        for u in g.neighbors(v):
            m |= closed[u]
        masks.append(m & ~(1 << v))
    return masks


@dataclass(frozen=True)
class SplitPartition:
    """Partition of a graph's vertices into a clique and an independent set."""

    clique: tuple[int, ...]
    independent: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        k = set(self.clique)
        i = set(self.independent)
        if k & i:
            raise ValueError("clique and independent set overlap")
        if k | i != set(range(g.n)):
            raise ValueError("partition does not cover all vertices")
        ks = sorted(k)
        for a in range(len(ks)):
            for b in range(a + 1, len(ks)):
                if not g.has_edge(ks[a], ks[b]):
                    raise ValueError(f"clique part misses edge ({ks[a]},{ks[b]})")
        for u, v in g.edges:
            if u in i and v in i:
                raise ValueError(f"independent part contains edge ({u},{v})")
