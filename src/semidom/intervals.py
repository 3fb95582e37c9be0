"""Interval models and canonicalization.

An interval model is a family of closed real intervals; its intersection
graph has one vertex per interval and an edge where intervals meet (a shared
endpoint counts, the intervals being closed). Canonicalization rewrites the
endpoints as 2n pairwise-distinct integers without changing the intersection
graph, and sorts the intervals by left endpoint.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .graph import Graph

Number = int | float | Fraction


@dataclass(frozen=True)
class IntervalModel:
    """A family of closed intervals, indexed by vertex id.

    When `canonical` is true, all 2n endpoints are distinct integers and the
    intervals are sorted by increasing left endpoint; `perm` then maps each
    id of the model this one was canonicalized from to its new id (it is the
    identity permutation for models built canonical from scratch).
    """

    intervals: tuple[tuple[Number, Number], ...]
    canonical: bool = False
    perm: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        for k, (a, b) in enumerate(self.intervals):
            if a >= b:
                raise ValueError(f"degenerate interval {k}: [{a},{b}]")

    @property
    def n(self) -> int:
        return len(self.intervals)


def intersection_graph(m: IntervalModel) -> Graph:
    """Graph on interval ids with edges between intersecting intervals.

    One pass over all pairs in O(n^2 + m), writing each edge into both
    adjacency rows. Row j gets its smaller neighbours while earlier rows are
    scanned, then its larger ones in its own scan, so every row comes out
    sorted and `Graph` takes the rows as they are.
    """
    ivs = m.intervals
    n = len(ivs)
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        ai, bi = ivs[i]
        row = rows[i]
        for j in range(i + 1, n):
            aj, bj = ivs[j]
            if ai <= bj and aj <= bi:
                row.append(j)
                rows[j].append(i)
    return Graph(n, _rows=rows)


def intersection_edge_count(m: IntervalModel) -> int:
    """The number of edges of `intersection_graph(m)`, in O(n log n) time
    and O(n) memory, without building the graph.

    Two closed intervals miss each other exactly when one ends before the
    other starts, and at most one of the two can. So each missing pair is
    counted once, by interval i, as a left endpoint greater than b_i.
    """
    n = m.n
    lefts = sorted(a for a, _ in m.intervals)
    missing = sum(n - bisect_right(lefts, b) for _, b in m.intervals)
    return n * (n - 1) // 2 - missing


def canonicalize_intervals(m: IntervalModel) -> IntervalModel:
    """Rewrite endpoints as distinct integers, preserving the intersection graph.

    All 2n endpoint events are sorted by value; at equal value a left
    endpoint precedes a right endpoint (so closed intervals that only touch
    stay intersecting), and ties within the same kind break by interval
    index. Event ranks become the new endpoints. The returned model is
    sorted by left endpoint and carries the id permutation.
    """
    n = m.n
    events = []
    for k, (a, b) in enumerate(m.intervals):
        events.append((a, 0, k))  # left endpoint
        events.append((b, 1, k))  # right endpoint
    events.sort()
    new = [[0, 0] for _ in range(n)]
    for rank, (_, kind, k) in enumerate(events):
        new[k][kind] = rank
    order = sorted(range(n), key=lambda k: new[k][0])
    perm = [0] * n
    for pos, k in enumerate(order):
        perm[k] = pos
    return IntervalModel(
        intervals=tuple((new[k][0], new[k][1]) for k in order),
        canonical=True,
        perm=tuple(perm),
    )


def ensure_canonical(m: IntervalModel) -> IntervalModel:
    """Canonical form of m, with perm mapping m's own ids to canonical ids.

    For an already-canonical input that mapping is the identity, whatever
    provenance permutation the model happens to carry.
    """
    if m.canonical:
        return IntervalModel(m.intervals, True, tuple(range(m.n)))
    return canonicalize_intervals(m)


def model_from_pairs(pairs: Iterable[tuple[Number, Number]]) -> IntervalModel:
    return IntervalModel(intervals=tuple((a, b) for a, b in pairs))
