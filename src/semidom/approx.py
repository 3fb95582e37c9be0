"""Greedy approximation for semitotal domination, plus its set-cover plumbing.

The approximation runs in two phases: a classic greedy dominating set, then a
greedy set cover that buys distance-2 partners for the "lonely" members (those
with no other member within distance 2). The cover universe is the lonely set
X and the candidate sets are N_2[u] ∩ X for vertices u outside the dominating
set, giving a 2 + 3 ln(Δ+1) guarantee overall.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .domination import DominationKind, verify
from .graph import Graph, check_vertex_set, closed_masks, distance2_masks, is_connected
from . import reductions


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe X plus the family of owned candidate sets (empty sets dropped)."""

    universe: tuple[int, ...]
    family: tuple[tuple[int, tuple[int, ...]], ...]  # (owner, members)
    max_set_size: int


def greedy_dominating_set(g: Graph) -> tuple[int, ...]:
    """Greedy dominating set: repeatedly take the vertex covering the most
    still-undominated closed neighborhoods, smallest id on ties."""
    n = g.n
    if n == 0:
        raise ValueError("graph is empty")
    closed = closed_masks(g)
    full = (1 << n) - 1
    dominated = 0
    chosen: list[int] = []
    while dominated != full:
        best, best_gain = -1, -1
        for v in range(n):
            gain = (closed[v] & ~dominated).bit_count()
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.append(best)
        dominated |= closed[best]
    return tuple(sorted(chosen))


def build_semitotal_setcover(g: Graph, d) -> SetCoverInstance:
    """Set-cover instance whose covers give every lonely member a partner."""
    members = check_vertex_set(g, d)
    if not verify(g, members, DominationKind.DOMINATING).valid:
        raise ValueError("d is not a dominating set")
    if g.n < 2 or not is_connected(g):
        raise ValueError("graph must be connected with at least two vertices")
    partner = distance2_masks(g)
    dmask = 0
    for v in members:
        dmask |= 1 << v
    xmask = 0
    for v in members:
        if partner[v] & dmask == 0:
            xmask |= 1 << v
    universe = tuple(v for v in members if (xmask >> v) & 1)
    family = []
    p = 0
    for u in range(g.n):
        if (dmask >> u) & 1:
            continue
        s = partner[u] & xmask  # N_2[u] ∩ X; u itself is outside X
        if s:
            sv = tuple(v for v in universe if (s >> v) & 1)
            family.append((u, sv))
            p = max(p, len(sv))
    return SetCoverInstance(universe=universe, family=tuple(family), max_set_size=p)


def greedy_set_cover(inst: SetCoverInstance) -> list[int]:
    """Owners picked by the standard greedy cover, in selection order.

    Largest marginal coverage first, smallest owner id on ties. Raises
    ValueError when the family cannot cover the universe.
    """
    uncovered = set(inst.universe)
    chosen: list[int] = []
    sets = {owner: frozenset(s) for owner, s in inst.family}
    owners = sorted(sets)
    while uncovered:
        best, best_gain = -1, 0
        for owner in owners:
            gain = len(sets[owner] & uncovered)
            if gain > best_gain:
                best, best_gain = owner, gain
        if best < 0:
            raise ValueError("family does not cover the universe")
        chosen.append(best)
        uncovered -= sets[best]
    return chosen


def approx_semitotal(g: Graph) -> tuple[int, ...]:
    """Two-phase greedy semitotal dominating set (ratio 2 + 3 ln(Δ+1))."""
    if g.n < 2 or not is_connected(g):
        raise ValueError("graph must be connected with at least two vertices")
    d = greedy_dominating_set(g)
    inst = build_semitotal_setcover(g, d)
    if not inst.universe:
        return d
    t = greedy_set_cover(inst)
    return tuple(sorted(set(d) | set(t)))


def algo_dom_set(g: Graph, k: int = 2) -> tuple[int, ...]:
    """Dominating set via bounded exhaustion, else the pendant-star gadget route.

    Subsets of size up to k (clamped to 4; the exhaustive step is exponential
    in k) are tried in cardinality-then-lexicographic order. If none
    dominates, the graph is extended with a pendant star (one leaf per
    vertex, hub y, pendant z), the semitotal approximation runs there, and
    its output is projected back: keep original vertices, map each chosen
    leaf to its attachment vertex.
    """
    if g.n == 0:
        raise ValueError("graph is empty")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, 4)
    closed = closed_masks(g)
    full = (1 << g.n) - 1
    for size in range(1, min(k, g.n) + 1):
        for subset in itertools.combinations(range(g.n), size):
            m = 0
            for v in subset:
                m |= closed[v]
            if m == full:
                return subset
    go = reductions.build_gadget(g, reductions.GadgetKind.LN)
    return reductions.extract_solution(go, approx_semitotal(go.h))
