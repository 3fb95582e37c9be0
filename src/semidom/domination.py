"""Verifiers and an exact minimum-cardinality oracle for three domination kinds.

A dominating set leaves no outside vertex without a neighbor in the set; a
total dominating set gives every vertex (members included) a neighbor in the
set; a semitotal dominating set is a dominating set in which every member has
another member within distance 2.

The exact oracle searches each connected component on its own. It first
finds the optimum size with a most-constrained branching search, then fixes
the lexicographically smallest optimal set one member at a time with the
same search (self-reduction), so it is fully deterministic.
`tests/oracles.py` keeps a plain lexicographic search as the differential
reference.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from itertools import accumulate

from ._record import Record
from .errors import InfeasibleError, SizeCapError
from .graph import (Graph, _distance2_from_closed, check_vertex_set, closed_masks,
                    connected_components, open_masks)
from .intervals import IntervalModel

# The search recurses once per member it adds, so a component whose optimum
# is larger than this would run into Python's recursion limit.
_MAX_MEMBERS = 500


class DominationKind(enum.Enum):
    DOMINATING = "dominating"
    TOTAL = "total"
    SEMITOTAL = "semitotal"


class ViolationReason(enum.Enum):
    UNDOMINATED = "UNDOMINATED"
    NO_PARTNER_WITHIN_2 = "NO_PARTNER_WITHIN_2"
    NOT_TOTALLY_DOMINATED = "NOT_TOTALLY_DOMINATED"


class VerificationReport(Record):
    __slots__ = ("violations",)
    violations: tuple[tuple[int, ViolationReason], ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def verify(g: Graph, s, kind: DominationKind) -> VerificationReport:
    """Check s against the given domination kind, enumerating all violations.

    One count per vertex: cover[u] is the number of members whose closed
    neighbourhood (open, for TOTAL) holds u, so a vertex with count 0 is
    not dominated. Members v and w are within distance 2 exactly when N[v]
    and N[w] meet, so a member has a partner iff some vertex of N[v] is
    covered twice. O(n + sum of deg v over v in s) time, O(n) memory.
    Raises ValueError for a kind that is not a DominationKind.
    """
    if not isinstance(kind, DominationKind):
        raise ValueError(f"unknown domination kind {kind!r}")
    members = check_vertex_set(g, s)
    total = kind is DominationKind.TOTAL
    adj = g._adj  # members are validated, so their rows are read directly
    cover = [0] * g.n
    for v in members:
        if not total:
            cover[v] += 1
        for u in adj[v]:
            cover[u] += 1
    lonely = ()
    if kind is DominationKind.SEMITOTAL:
        lonely = [v for v in members
                  if cover[v] < 2 and all(cover[u] < 2 for u in adj[v])]
    return _report(cover, lonely, kind)


def verify_intervals(model: IntervalModel, s, kind: DominationKind) -> VerificationReport:
    """`verify(intersection_graph(model), s, kind)` from the model alone: the
    same report and the same errors, with no graph built.

    The members' left and right endpoints, each sorted, give by two bisects
    the number of members that meet any [lo, hi]: those that start at or
    before hi, less those that end before lo (each of which also starts
    before hi). An interval's cover is that count on itself, less its own
    membership for TOTAL. The intervals that meet a member v span one
    interval [L_v, R_v]: R_v is the largest right end among the intervals
    that start by v's right end (a prefix max of b in a-order), L_v the
    smallest left end among those that end from v's left end on (a suffix
    min of a in b-order). Another member is within distance 2 of v iff it
    meets [L_v, R_v], so v has a partner iff two members meet it.
    O((n + |S|) log n) time, O(n) memory. Raises ValueError for a kind that
    is not a DominationKind and for an id that `verify` would refuse.
    """
    if not isinstance(kind, DominationKind):
        raise ValueError(f"unknown domination kind {kind!r}")
    members = check_vertex_set(model, s)
    ivs = model.intervals
    starts = sorted(ivs[v][0] for v in members)
    ends = sorted(ivs[v][1] for v in members)

    def meeting(lo, hi) -> int:
        return bisect_right(starts, hi) - bisect_left(ends, lo)

    cover = [meeting(a, b) for a, b in ivs]
    lonely = ()
    if kind is DominationKind.TOTAL:
        for v in members:
            cover[v] -= 1
    elif kind is DominationKind.SEMITOTAL:
        by_a = sorted(ivs)
        all_a = [a for a, _ in by_a]
        reach = list(accumulate((b for _, b in by_a), max))
        by_b = sorted(ivs, key=lambda iv: iv[1])
        all_b = [b for _, b in by_b]
        back = list(accumulate((a for a, _ in reversed(by_b)), min))[::-1]
        lonely = [v for v in members
                  if meeting(back[bisect_left(all_b, ivs[v][0])],
                             reach[bisect_right(all_a, ivs[v][1]) - 1]) < 2]
    return _report(cover, lonely, kind)


def _report(cover: list[int], lonely, kind: DominationKind) -> VerificationReport:
    """The report of one verification: every vertex whose cover count is 0,
    then the members in `lonely` (increasing ids, SEMITOTAL only) that have
    no partner within distance 2, all in id order. A member covers itself
    under SEMITOTAL, so no vertex has two reasons."""
    reason = (ViolationReason.NOT_TOTALLY_DOMINATED if kind is DominationKind.TOTAL
              else ViolationReason.UNDOMINATED)
    violations = [(v, reason) for v, c in enumerate(cover) if c == 0]
    if lonely:
        violations += [(v, ViolationReason.NO_PARTNER_WITHIN_2) for v in lonely]
        violations.sort(key=lambda t: t[0])
    return VerificationReport(tuple(violations))


def check_no_isolated(g: Graph) -> None:
    """Raise InfeasibleError naming the smallest isolated vertex of g: no
    total or semitotal dominating set can give it a neighbor or partner."""
    for v, row in enumerate(g._adj):
        if not row:
            raise InfeasibleError(f"isolated vertex {v}")


def exact_min(g: Graph, kind: DominationKind,
              max_nodes: int | None = None) -> tuple[int, ...]:
    """Minimum set of the given kind, lexicographically smallest among optima.

    Each connected component is searched on its own, relabelled in
    increasing id order, and the answer is the sorted union of the
    components' answers. That union is the whole graph's answer: for two
    optima the smallest id in their symmetric difference decides the order,
    and it lies inside one component.

    Within a component both phases run one bounded search, feasible(r,
    chosen, dominated, lonely, allowed), which returns a valid set that adds
    at most r members of `allowed` to `chosen`, or 0 when none exists.
    Lonely members (SEMITOTAL only) are members with no other member within
    distance 2.

    Before either phase, each candidate u that a smaller v dominates leaves
    `allowed` for good, and the lexicographic phase skips it: cover[u] is
    a subset of cover[v], with `cover` the closed neighbourhood (open for
    TOTAL), and, for SEMITOTAL, some x < u other than v lies within
    distance 2 of v. No lexicographically smallest optimum holds such a u.
    Take an optimum D that holds u:

    - v is not in D: D - u + v is valid. v dominates all that u did, and
      for SEMITOTAL N_2[u] lies in N_2[v] (as N[u] lies in N[v]), so v
      partners every member that u partnered, and u's partner partners v.
    - v is in D and, for SEMITOTAL, has a partner other than u: D - u is
      valid and smaller. (For TOTAL, u keeps the member that dominated it.)
    - u is v's only partner (SEMITOTAL): x is not in D, as it would
      partner v, and D - u + x is valid: v and x partner each other, and v
      dominates and partners all that u did.

    Each swap gives a set of the same size whose smallest element outside
    D, v or x, is below u, so D was not the lexicographically smallest.
    For DOMINATING and SEMITOTAL v lies in N[u], and for TOTAL in N(w) for
    u's first neighbour w, so the pairs come from adjacency rows, not from
    all pairs.

    - It branches on the most constrained item, an undominated vertex or a
      lonely member with the fewest candidates left in `allowed`. Each
      tried candidate leaves `allowed` for its later siblings, so the
      branches are disjoint; the one dominating most new vertices goes
      first. On ties, for SEMITOTAL, a leaf with no chosen member within
      distance 2 goes after the others, then the smallest id goes first.
      On BIPARTITE gadgets the rule above drops each pendant path's end
      w, so every u is forced at the root and dominates z; y and the leaf
      x then tie on gain, and x, with no member within distance 2, would
      otherwise be tried first and fail deep down.
    - Items left with a single candidate take it at once.
    - Away from the root, a node with one member left (r == 1) does not
      branch: the new member must lie in the candidate set of every
      undominated vertex and lonely member, which the item scan
      intersects, and, for SEMITOTAL, have a chosen member within
      distance 2. It returns the smallest such member, or fails. Every
      such member dominates all undominated vertices and is no leaf put
      last, so the branching would try them in id order and return the
      same one; the bounds and forced members reject only nodes where none
      exists.
    - A later candidate u is skipped when a failed sibling c stands in for
      it: c dominates every undominated vertex that u dominates and, for
      SEMITOTAL, has within distance 2 every vertex other than c that u
      has. Swapping u for c in a completion that holds u keeps it valid (c
      dominates all u did and partners every member u partnered), and the
      result lies in c's branch, since u's completions draw their other
      members from a part of the `allowed` of c's branch. That branch has
      failed, so only failing subtrees are skipped and every answer and
      tie-break stays the same.
    - One loop scans every item, undominated vertices and then lonely
      members, for the candidate sets, the most constrained item, the
      forced members, the members common to every candidate set and the
      packing.
    - It prunes by two lower bounds: the packing of items with pairwise
      disjoint candidate sets, each of which needs its own new member; and,
      for SEMITOTAL, a coverage bound (a new member with no member within
      distance 2 shares a vertex it dominates with another new member).
      Each bound's scan stops as soon as it can no longer prune (or, away
      from the root, as soon as the packing exceeds r), so a node costs
      less without changing which nodes the search visits.

    1. Size: k* is the smallest k for which the search from the empty set
       succeeds; its answer is a first optimum.
    2. Order: member i is the smallest u for which the search with budget
       k* - i - 1 and `allowed` = {w > u} (less the dominated candidates)
       succeeds from the first i members
       plus u. Only ids below member i of the current optimum need a
       search; a success replaces that optimum. That member is never past
       the last id that can still dominate every undominated vertex and
       pair every lonely member. A u whose search failed, at this or an
       earlier position, stands in for a later u' by the rule above, judged
       against the undominated vertices of the current position. If u
       failed at position j, swapping u' for u in a completion at position
       i >= j gives the first j members, u, the members fixed at positions
       j to i - 1 and the rest of the completion. All but the first j are
       above u, so u's failed search at position j already ruled that set
       out. A chosen member never enters the list, since it did not fail.

    Raises ValueError for a kind that is not a DominationKind or an empty
    graph, InfeasibleError when an isolated vertex makes TOTAL/SEMITOTAL
    impossible, and SizeCapError once the searches of all components
    together visit more than max_nodes search nodes (default: unbounded) or
    a component needs more than _MAX_MEMBERS (500) members.
    """
    if not isinstance(kind, DominationKind):
        raise ValueError(f"unknown domination kind {kind!r}")
    if g.n == 0:
        raise ValueError("graph is empty")
    if max_nodes is not None and max_nodes < 1:
        raise ValueError(f"node budget must be positive, got {max_nodes}")
    if kind is not DominationKind.DOMINATING:
        check_no_isolated(g)
    comps = connected_components(g)
    members: list[int] = []
    nodes = 0
    pos = [0] * g.n
    adj = g._adj
    for comp in comps:
        sub = g  # one component: comp is every id, in order
        if len(comps) > 1:
            for i, v in enumerate(comp):
                pos[v] = i
            # comp is sorted, so the relabelling keeps every row sorted
            sub = Graph(len(comp), _rows=[[pos[v] for v in adj[u]] for u in comp])
        found, nodes = _search(sub, kind, max_nodes, nodes)
        if found is None:
            raise SizeCapError(f"exact search needs more than {_MAX_MEMBERS} "
                               "members in one component")
        members += [comp[i] for i in found]
    return tuple(sorted(members))


def _kept(g: Graph, cover: list[int], partner: list[int] | None, total: bool) -> int:
    """The mask of the candidates that a lexicographically smallest optimum
    may hold: u is left out when a smaller v dominates it (see exact_min).
    `cover` holds g's closed neighbourhoods (open ones if `total`), and
    `partner` the distance-2 masks for SEMITOTAL, else None. Such a v lies
    in cover[u], or for TOTAL in cover[w] for u's first neighbour w, so
    O(m) pairs are tried for DOMINATING and SEMITOTAL, and for TOTAL one
    per neighbour of each vertex's first neighbour."""
    keep = (1 << g.n) - 1
    for u, row in enumerate(g._adj):
        below = (1 << u) - 1
        vs = (cover[row[0]] if total else cover[u]) & below
        while vs:
            low = vs & -vs
            vs ^= low
            v = low.bit_length() - 1
            if not cover[u] & ~cover[v] and (partner is None or partner[v] & below):
                keep ^= 1 << u
                break
    return keep


def _search(g: Graph, kind: DominationKind, max_nodes: int | None, nodes: int,
            max_size: int = _MAX_MEMBERS) -> tuple[tuple[int, ...] | None, int]:
    """exact_min on a graph with no isolated vertex unless kind is
    DOMINATING, counting on from `nodes` spent nodes; returns the answer and
    the nodes spent so far. The answer is None when the optimum has more
    than max_size members: the size phase stops once no set of at most
    max_size members is left to try, so max_size also bounds its depth."""
    n = g.n
    total = kind is DominationKind.TOTAL
    cover = open_masks(g) if total else closed_masks(g)
    semitotal = kind is DominationKind.SEMITOTAL
    partner = _distance2_from_closed(g, cover) if semitotal else None
    full = (1 << n) - 1
    need = 0
    # feasible's items: undominated vertices, candidates from `cover`, then
    # (SEMITOTAL) lonely members, candidates from `partner`. The packing
    # scans vertices by the size of their closed neighborhood, smallest
    # (leaves) first, and so packs more sets; for TOTAL, plain id order
    # packed more on GP4 gadgets
    scans = [(full, cover)]
    if not total:
        by_size: dict[int, int] = {}
        for v in range(n):
            c = cover[v].bit_count()
            by_size[c] = by_size.get(c, 0) | 1 << v
        scans = [(by_size[c], cover) for c in sorted(by_size)]
    if semitotal:
        scans.append((full, partner))
    keep = _kept(g, cover, partner, total)
    # SEMITOTAL's branch order puts a leaf (a closed neighbourhood of two)
    # with no chosen member within distance 2 after the candidates of equal
    # gain
    leaves = by_size.get(2, 0) if semitotal else 0

    def step_lonely(lonely: int, chosen: int, u: int) -> int:
        # lonely members once u joins `chosen`
        if not semitotal:
            return 0
        if partner[u] & chosen:
            return lonely & ~partner[u]
        return lonely & ~partner[u] | 1 << u

    def stood_in(u: int, undom: int, failed: list[int]) -> bool:
        # a failed c can replace u in any completion that holds u, which
        # turns it into a completion of c's failed branch (see exact_min)
        gain = cover[u] & undom
        for c in failed:
            if not gain & ~cover[c] and not (
                    semitotal and partner[u] & ~partner[c] & ~(1 << c)):
                return True
        return False

    def feasible(r: int, chosen: int, dominated: int, lonely: int, allowed: int) -> int:
        nonlocal nodes, need
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SizeCapError(f"exact search exceeded its budget of {max_nodes} nodes")
        undom = full & ~dominated
        if not undom and not lonely:
            return chosen
        if r == 0:
            return 0
        # one scan over every item finds the most constrained one, the forced
        # members, the members that settle every item (`common`) and a
        # packing of items with pairwise disjoint candidate sets. Away from
        # the root a packing larger than r ends the node at once; the root,
        # which has no lonely members, counts it in full.
        best, fewest = 0, n + 1
        forced = 0
        packed = used = reach = 0
        common = allowed
        cap = r if chosen else n
        for tier, table in scans:
            m = (lonely if table is partner else undom) & tier
            while m:
                low = m & -m
                m ^= low
                cands = table[low.bit_length() - 1] & allowed
                if not cands:
                    return 0
                c = cands.bit_count()
                if c < fewest:
                    best, fewest = cands, c
                if c == 1:
                    forced |= cands
                if not cands & used:
                    packed += 1
                    if packed > cap:
                        return 0
                    used |= cands
                reach |= cands
                common &= cands
        if packed > r:  # only at the root: no size below `packed` can succeed
            need = packed
            return 0
        if r == 1 and chosen:
            # the one member left settles every item or the node fails; the
            # smallest that does is what the branching would return
            while common:
                low = common & -common
                if not semitotal or partner[low.bit_length() - 1] & chosen:
                    return chosen | low
                common ^= low
            return 0
        if semitotal and undom:
            # a new member u with no chosen member within distance 2 has N[u]
            # inside undom and shares one of its vertices with another new
            # member, so with g1/g2 the largest gains of the two sorts, r
            # members dominate at most r * max(g1, g2 - 1/2) vertices. The
            # bound prunes iff 2|undom| > r * max(2 g1, 2 g2 - 1); the scan
            # stops at the first gain that rules that out (a lonely member's
            # candidate that dominates nothing new has gain <= 0, so never).
            twice_undom = 2 * undom.bit_count()
            while reach:
                low = reach & -reach
                reach ^= low
                u = low.bit_length() - 1
                gain = 2 * (cover[u] & undom).bit_count()
                if not partner[u] & chosen:
                    gain -= 1
                if r * gain >= twice_undom:
                    break
            else:
                return 0
        if forced:
            # every completion takes the only candidate of an item
            r -= forced.bit_count()
            if r < 0:
                return 0
            m = forced
            while m:
                low = m & -m
                m ^= low
                u = low.bit_length() - 1
                lonely = step_lonely(lonely, chosen, u)
                chosen |= low
                dominated |= cover[u]
            return feasible(r, chosen, dominated, lonely, allowed & ~forced)
        order = []
        while best:
            low = best & -best
            best ^= low
            u = low.bit_length() - 1
            late = leaves >> u & 1 and not partner[u] & chosen
            order.append((-(cover[u] & undom).bit_count(), late, u))
        order.sort()
        failed: list[int] = []
        for *_, u in order:
            low = 1 << u
            allowed ^= low
            if failed and stood_in(u, undom, failed):
                continue
            found = feasible(r - 1, chosen | low, dominated | cover[u],
                             step_lonely(lonely, chosen, u), allowed)
            if found:
                return found
            failed.append(u)
        return 0

    k = 2 if semitotal else 1
    while not (best := feasible(k, 0, 0, 0, keep)):
        k = max(k + 1, need)
        if k > max_size:
            return None, nodes

    # `best` is an optimum whose i smallest members are `chosen`; position
    # i takes its next member unless a smaller u also completes to size k
    chosen = dominated = lonely = 0
    start = 0
    failed = []  # shared by all positions (see exact_min)
    for i in range(k):
        nxt = best & ~chosen
        if not nxt:
            raise RuntimeError(f"exact search lost its optimum of size {k} at member {i}")
        nxt &= -nxt
        undom = full & ~dominated
        for u in range(start, nxt.bit_length() - 1):
            if not keep >> u & 1:
                continue
            if not semitotal and not cover[u] & undom:
                continue  # a member that dominates nothing new is never in an optimum
            if failed and stood_in(u, undom, failed):
                continue
            low = 1 << u
            found = feasible(k - i - 1, chosen | low, dominated | cover[u],
                             step_lonely(lonely, chosen, u), keep & ~((low << 1) - 1))
            if found:
                best, nxt = found, low
                break
            failed.append(u)
        u = nxt.bit_length() - 1
        lonely = step_lonely(lonely, chosen, u)
        chosen |= nxt
        dominated |= cover[u]
        start = u + 1
    return tuple(v for v in range(n) if chosen >> v & 1), nodes
