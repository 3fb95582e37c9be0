"""Greedy approximation for semitotal domination, plus its set-cover plumbing.

One greedy set cover runs both phases. The first covers V with closed
neighborhoods, which gives a dominating set D. The second gives partners to
the lonely members X (no other member within distance 2, `verify`'s
NO_PARTNER_WITHIN_2 list) with the sets N_2[u] ∩ X for u outside D, built
from adjacency lists in O(sum of |N_2[x]| over x in X). Together they give
a 2 + 3 ln(Δ+1) guarantee.
"""

from __future__ import annotations

from .domination import (DominationKind, ViolationReason, _search, check_no_isolated,
                         verify)
from ._record import Record
from .graph import Graph, check_vertex_set, closed_masks, is_connected


class SetCoverInstance(Record):
    """Universe X plus the family of owned candidate sets (empty sets dropped)."""

    __slots__ = ("universe", "family")
    universe: tuple[int, ...]
    family: tuple[tuple[int, tuple[int, ...]], ...]  # (owner, members)


def _greedy_cover(uncovered: int, family) -> list[int]:
    """Greedy cover of the `uncovered` bits by (owner, mask) pairs given in
    ascending owner order: owners in selection order, the most newly covered
    bits first, the smallest owner on ties. Raises ValueError when no owner
    covers a bit that is left.

    Uncovered bits only go away, so an owner whose mask misses them all can
    never gain again: each scan keeps only the owners that still gain, in
    the same ascending order, and the next pick scans those alone.

    For the same reason every gain only falls, so no owner can gain more
    than the last pick did: that gain caps every later one (the cap starts
    at the universe size). A scan stops at the first owner whose gain
    equals the cap; every owner before it gained less, so it is the
    smallest owner with the largest gain, the one a full scan would pick.
    The owners after it, not yet scanned, are kept as they are. A scan in
    which no owner reaches the cap is a full pass, and the cap falls to the
    best gain it found."""
    chosen: list[int] = []
    cap = uncovered.bit_count()
    while uncovered:
        best, best_gain = None, 0
        live = []
        rest = iter(family)
        for pair in rest:
            gain = (pair[1] & uncovered).bit_count()
            if gain:
                live.append(pair)
                if gain > best_gain:
                    best, best_gain = pair, gain
                    if gain == cap:
                        live.extend(rest)
                        break
        if not best_gain:
            raise ValueError("family does not cover the universe")
        chosen.append(best[0])
        uncovered ^= uncovered & best[1]
        family, cap = live, best_gain
    return chosen


def greedy_dominating_set(g: Graph) -> tuple[int, ...]:
    """Greedy dominating set: repeatedly take the vertex covering the most
    still-undominated closed neighborhoods, smallest id on ties."""
    if g.n == 0:
        raise ValueError("graph is empty")
    family = list(enumerate(closed_masks(g)))
    return tuple(sorted(_greedy_cover((1 << g.n) - 1, family)))


def build_semitotal_setcover(g: Graph, d) -> SetCoverInstance:
    """Set-cover instance whose covers give every lonely member a partner.

    Raises ValueError when d is not a dominating set or g is empty, and
    InfeasibleError when g has an isolated vertex, which no partner can reach.
    """
    members = check_vertex_set(g, d)
    report = verify(g, members, DominationKind.SEMITOTAL)
    if any(r is ViolationReason.UNDOMINATED for _, r in report.violations):
        raise ValueError("d is not a dominating set")
    if g.n == 0:
        raise ValueError("graph is empty")
    check_no_isolated(g)
    universe = tuple(v for v, _ in report.violations)  # all NO_PARTNER_WITHIN_2
    in_d = set(members)
    owned: dict[int, list[int]] = {}
    for x in universe:
        # with no isolated vertex, the neighbors of N[x] are exactly N_2[x]
        near: set[int] = set()
        for w in (x, *g.neighbors(x)):
            near.update(g.neighbors(w))
        for u in near - in_d:
            owned.setdefault(u, []).append(x)
    family = tuple((u, tuple(xs)) for u, xs in sorted(owned.items()))
    return SetCoverInstance(universe=universe, family=family)


def greedy_set_cover(inst: SetCoverInstance) -> list[int]:
    """Owners picked by the standard greedy cover, in selection order.

    Largest marginal coverage first, smallest owner id on ties. Raises
    ValueError when the family cannot cover the universe.
    """
    bit = {x: 1 << i for i, x in enumerate(dict.fromkeys(inst.universe))}
    masks = {}
    for owner, members in inst.family:  # a repeated owner keeps its last set
        mask = 0
        for x in members:
            mask |= bit.get(x, 0)
        masks[owner] = mask
    return _greedy_cover((1 << len(bit)) - 1, sorted(masks.items()))


def approx_semitotal(g: Graph) -> tuple[int, ...]:
    """Two-phase greedy semitotal dominating set (ratio 2 + 3 ln(Δ+1)).

    Works on disconnected graphs: a lonely member of a component with two or
    more vertices has a neighbor outside the dominating set to pair with,
    and the ratio holds per component. Raises ValueError for an empty graph
    and InfeasibleError for an isolated vertex, before the greedy runs.
    """
    check_no_isolated(g)
    d = greedy_dominating_set(g)
    t = greedy_set_cover(build_semitotal_setcover(g, d))
    return tuple(sorted(set(d) | set(t)))


def algo_dom_set(g: Graph, k: int = 2) -> tuple[int, ...]:
    """Dominating set of at most k members if one exists, else the
    pendant-star gadget route.

    The exact step is the oracle's search (`exact_min`'s), limited to sets
    of at most k members: it returns the lexicographically smallest
    minimum dominating set, which is the first dominating set in
    cardinality-then-lexicographic order. k is clamped to 4, which bounds
    that search's depth. If no set that small dominates, the graph is
    extended with a pendant star (one leaf per vertex, hub y, pendant z),
    the semitotal approximation runs there, and its output is projected
    back: keep original vertices, map each chosen leaf to its attachment
    vertex.
    """
    if g.n == 0:
        raise ValueError("graph is empty")
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if k < 1:
        raise ValueError("k must be at least 1")
    found, _ = _search(g, DominationKind.DOMINATING, None, 0, min(k, 4))
    if found is not None:
        return found
    from .reductions import GadgetKind, build_gadget, extract_solution
    go = build_gadget(g, GadgetKind.LN)
    return extract_solution(go, approx_semitotal(go.h))
