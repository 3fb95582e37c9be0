"""Verifiers and an exact minimum-cardinality oracle for three domination kinds.

A dominating set leaves no outside vertex without a neighbor in the set; a
total dominating set gives every vertex (members included) a neighbor in the
set; a semitotal dominating set is a dominating set in which every member has
another member within distance 2.

The exact oracle enumerates cardinalities upward and runs a pruned
depth-first search over subsets in lexicographic order, so it returns the
lexicographically smallest optimal set and is fully deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InfeasibleError
from .graph import Graph, check_vertex_set, closed_masks, distance2_masks, open_masks


class DominationKind(enum.Enum):
    DOMINATING = "dominating"
    TOTAL = "total"
    SEMITOTAL = "semitotal"


class ViolationReason(enum.Enum):
    UNDOMINATED = "UNDOMINATED"
    NO_PARTNER_WITHIN_2 = "NO_PARTNER_WITHIN_2"
    NOT_TOTALLY_DOMINATED = "NOT_TOTALLY_DOMINATED"


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    violations: tuple[tuple[int, ViolationReason], ...]


def verify(g: Graph, s, kind: DominationKind) -> VerificationReport:
    """Check s against the given domination kind, enumerating all violations.

    One count per vertex: cover[u] is the number of members whose closed
    neighbourhood (open, for TOTAL) holds u, so a vertex with count 0 is
    not dominated. Members v and w are within distance 2 exactly when N[v]
    and N[w] meet, so a member has a partner iff some vertex of N[v] is
    covered twice. O(n + sum of deg v over v in s) time, O(n) memory.
    """
    members = check_vertex_set(g, s)
    total = kind is DominationKind.TOTAL
    cover = [0] * g.n
    for v in members:
        if not total:
            cover[v] += 1
        for u in g.neighbors(v):
            cover[u] += 1
    reason = (ViolationReason.NOT_TOTALLY_DOMINATED if total
              else ViolationReason.UNDOMINATED)
    violations = [(v, reason) for v, c in enumerate(cover) if c == 0]
    if kind is DominationKind.SEMITOTAL:
        violations += [(v, ViolationReason.NO_PARTNER_WITHIN_2) for v in members
                       if cover[v] < 2 and all(cover[u] < 2 for u in g.neighbors(v))]
        violations.sort(key=lambda t: t[0])  # a vertex has at most one reason
    return VerificationReport(valid=not violations, violations=tuple(violations))


def exact_min(g: Graph, kind: DominationKind) -> tuple[int, ...]:
    """Minimum set of the given kind, lexicographically smallest among optima.

    Iterative deepening over the cardinality k with a pruned DFS per k; the
    DFS visits subsets in lexicographic order, so the first valid leaf is
    the answer. Raises InfeasibleError when an isolated vertex makes
    TOTAL/SEMITOTAL impossible.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph is empty")
    if kind in (DominationKind.TOTAL, DominationKind.SEMITOTAL):
        for v in range(n):
            if g.degree(v) == 0:
                raise InfeasibleError(f"isolated vertex {v}")

    closed = closed_masks(g)
    cover = open_masks(g) if kind is DominationKind.TOTAL else closed
    semitotal = kind is DominationKind.SEMITOTAL
    partner = distance2_masks(g) if semitotal else None
    allow_useless_skip = not semitotal  # a member covering nothing new can
    # still be required as another member's distance-2 partner
    full = (1 << n) - 1
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << i)

    def lower_bound(undom: int, pool: int, lonely: int) -> int:
        # disjoint-neighborhood packing: pairwise disjoint cover sets need
        # pairwise distinct new dominators
        packed = 0
        used = 0
        m = undom
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            cv = cover[v]
            if cv & pool == 0:
                return n + 1  # v can never be dominated down this branch
            if cv & used == 0:
                packed += 1
                used |= cv
        need = packed
        if semitotal and lonely:
            best = 0
            m = pool
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                c = (partner[u] & lonely).bit_count()
                if c > best:
                    best = c
            if best == 0:
                return n + 1
            fix = -(-lonely.bit_count() // best)
            if fix > need:
                need = fix
        return need

    def dfs(start: int, r: int, chosen: list[int], chosen_mask: int,
            dominated: int, lonely: int) -> tuple[int, ...] | None:
        if r == 0:
            if dominated == full and lonely == 0:
                return tuple(chosen)
            return None
        undom = full & ~dominated
        pool = suffix[start]
        if lower_bound(undom, pool, lonely) > r:
            return None
        if semitotal and lonely:
            m = lonely
            while m:
                c = (m & -m).bit_length() - 1
                m &= m - 1
                if partner[c] & pool == 0:
                    return None
        for u in range(start, n):
            cu = cover[u]
            if allow_useless_skip and cu & undom == 0:
                continue
            if semitotal:
                new_lonely = lonely & ~partner[u]
                if partner[u] & chosen_mask == 0:
                    new_lonely |= 1 << u
            else:
                new_lonely = 0
            chosen.append(u)
            found = dfs(u + 1, r - 1, chosen, chosen_mask | (1 << u),
                        dominated | cu, new_lonely)
            chosen.pop()
            if found is not None:
                return found
        return None

    k0 = 2 if semitotal else 1
    for k in range(k0, n + 1):
        found = dfs(0, k, [], 0, 0, 0)
        if found is not None:
            return found
    raise InfeasibleError("no valid set exists")  # unreachable for valid input
