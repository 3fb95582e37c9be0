"""Interval models and canonicalization.

An interval model is a family of closed real intervals; its intersection
graph has one vertex per interval and an edge where intervals meet (a shared
endpoint counts, the intervals being closed). Canonicalization rewrites the
endpoints as 2n pairwise-distinct integers without changing the intersection
graph, and sorts the intervals by left endpoint. A model is canonical when
`canonicalize_intervals` leaves it unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .graph import Graph

Number = int | float | Fraction


class IntervalModel(Record):
    """A family of closed intervals, indexed by vertex id."""

    __slots__ = ("intervals",)
    intervals: tuple[tuple[Number, Number], ...]

    def __post_init__(self):
        for k, (a, b) in enumerate(self.intervals):
            if not a < b:  # also rejects NaN, which compares false both ways
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
    counted once, by interval i, as a left endpoint greater than b_i. One
    merge of the sorted right ends against the sorted left ends counts them.
    """
    n = m.n
    lefts = sorted([a for a, _ in m.intervals])
    rights = sorted([b for _, b in m.intervals])
    k = missing = 0
    for b in rights:
        while k < n and lefts[k] <= b:
            k += 1
        missing += n - k
    return n * (n - 1) // 2 - missing


def canonicalize_intervals(m: IntervalModel) -> tuple[IntervalModel, tuple[int, ...]]:
    """Rewrite endpoints as distinct integers, preserving the intersection graph.

    All 2n endpoint events are sorted by value; at equal value a left
    endpoint precedes a right endpoint (so closed intervals that only touch
    stay intersecting), and ties within the same kind break by interval
    index. Event ranks become the new endpoints. Returns the model sorted by
    left endpoint, and `ids`, where `ids[pos]` is the id in `m` of the
    interval at position `pos`.

    Event e < n is interval e's left endpoint and event n + k interval k's
    right one, so listing the events in order of e already orders them by
    (kind, index). Python's sort is stable, so sorting the events by value
    alone keeps that order among equal values, giving the (value, kind,
    index) order without building a tuple per event.
    """
    n = m.n
    values = [a for a, _ in m.intervals] + [b for _, b in m.intervals]
    events = sorted(range(2 * n), key=values.__getitem__)
    rank = [0] * (2 * n)
    for r, e in enumerate(events):
        rank[e] = r
    ids = tuple(e for e in events if e < n)
    return IntervalModel(tuple((rank[k], rank[n + k]) for k in ids)), ids
