"""Independent brute-force oracles used to cross-check the library.

Everything here is computed straight from the definitions with its own BFS
and subset enumeration, deliberately not sharing code with the solvers under
test.
"""

import itertools
import operator
from collections import deque

from semidom.errors import InfeasibleError
from semidom.generators import SplitMix64
from semidom.graph import Graph

INF = float("inf")


class IndexOnly:
    """A vertex id that is not an int but has `__index__`, as numpy's
    integers do; the library reads it as the integer it stands for."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"IndexOnly({self.value})"


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_all(adj, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        for x in adj[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


def is_valid_set(n, edges, members, kind):
    """kind in {'dominating', 'total', 'semitotal'}, straight from definitions."""
    return not violations(n, edges, members, kind)


def violations(n, edges, members, kind):
    """Every (vertex, reason) pair that breaks the definition, sorted by vertex.

    Reasons are the strings UNDOMINATED (a non-member without a member
    neighbour), NOT_TOTALLY_DOMINATED (any vertex without a member
    neighbour; total kind only) and NO_PARTNER_WITHIN_2 (a member with no
    other member at BFS distance at most 2; semitotal kind only).
    """
    adj = adjacency(n, edges)
    sset = set(members)
    out = []
    for v in range(n):
        if kind == "total":
            if not adj[v] & sset:
                out.append((v, "NOT_TOTALLY_DOMINATED"))
        elif v not in sset:
            if not adj[v] & sset:
                out.append((v, "UNDOMINATED"))
        elif kind == "semitotal":
            dist = bfs_all(adj, v)
            if not any(dist.get(w, INF) <= 2 for w in sset if w != v):
                out.append((v, "NO_PARTNER_WITHIN_2"))
    return out


def brute_min(n, edges, kind):
    """Smallest valid set under the cardinality-then-lexicographic order."""
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            if is_valid_set(n, edges, subset, kind):
                return subset
    return None


def lex_exact_min(n, edges, kind):
    """Lexicographically smallest minimum set by iterative deepening.

    The differential reference for `exact_min`: for k = 1, 2, ... a depth-
    first search visits the k-subsets in lexicographic order, pruned by a
    packing bound, and returns the first valid one. It raises the same
    errors as `exact_min`: ValueError for n = 0 and InfeasibleError for an
    isolated vertex under the total and semitotal kinds.
    """
    if n == 0:
        raise ValueError("graph is empty")
    adj = adjacency(n, edges)
    if kind != "dominating":
        for v in range(n):
            if not adj[v]:
                raise InfeasibleError(f"isolated vertex {v}")
    opened = [sum(1 << u for u in adj[v]) for v in range(n)]
    closed = [opened[v] | 1 << v for v in range(n)]
    cover = opened if kind == "total" else closed
    semitotal = kind == "semitotal"
    partner = None
    if semitotal:
        partner = []
        for v in range(n):
            m = closed[v]
            for u in adj[v]:
                m |= closed[u]
            partner.append(m & ~(1 << v))
    allow_useless_skip = not semitotal  # a member covering nothing new can
    # still be required as another member's distance-2 partner
    full = (1 << n) - 1
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (1 << i)

    def lower_bound(undom, pool, lonely):
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

    def dfs(start, r, chosen, chosen_mask, dominated, lonely):
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

    for k in range(2 if semitotal else 1, n + 1):
        found = dfs(0, k, [], 0, 0, 0)
        if found is not None:
            return found
    raise InfeasibleError("no valid set exists")  # unreachable for valid input


def brute_min_cover(universe, family_sets):
    """Minimum number of sets covering the universe; None if impossible."""
    target = set(universe)
    if not target:
        return 0
    for k in range(1, len(family_sets) + 1):
        for combo in itertools.combinations(family_sets, k):
            if set().union(*combo) >= target:
                return k
    return None


def ref_greedy_dominating_set(n, edges):
    """The mask-rescanning greedy dominating set, the differential reference
    for `approx.greedy_dominating_set`: each pick is the vertex whose closed
    neighborhood holds the most undominated vertices, smallest id on ties."""
    if n == 0:
        raise ValueError("graph is empty")
    adj = adjacency(n, edges)
    closed = [sum(1 << u for u in adj[v]) | 1 << v for v in range(n)]
    full = (1 << n) - 1
    dominated = 0
    chosen = []
    while dominated != full:
        best, best_gain = -1, -1
        for v in range(n):
            gain = (closed[v] & ~dominated).bit_count()
            if gain > best_gain:
                best, best_gain = v, gain
        chosen.append(best)
        dominated |= closed[best]
    return tuple(sorted(chosen))


def ref_build_semitotal_setcover(n, edges, d):
    """The distance-2-mask set-cover build, the differential reference for
    `approx.build_semitotal_setcover`; returns (universe, family,
    max_set_size) and raises the same errors, in the same order."""
    members = list(d)
    for v in members:
        if not hasattr(v, "__index__"):
            raise ValueError(f"vertex id {v!r} is not an integer")
    members = sorted({operator.index(v) for v in members})
    for v in members:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
    if violations(n, edges, members, "dominating"):
        raise ValueError("d is not a dominating set")
    if n == 0:
        raise ValueError("graph is empty")
    adj = adjacency(n, edges)
    for v in range(n):
        if not adj[v]:
            raise InfeasibleError(f"isolated vertex {v}")
    closed = [sum(1 << u for u in adj[v]) | 1 << v for v in range(n)]
    partner = []
    for v in range(n):
        m = closed[v]
        for u in adj[v]:
            m |= closed[u]
        partner.append(m & ~(1 << v))
    dmask = sum(1 << v for v in members)
    xmask = sum(1 << v for v in members if partner[v] & dmask == 0)
    universe = tuple(v for v in members if (xmask >> v) & 1)
    family = []
    for u in range(n):
        if (dmask >> u) & 1:
            continue
        s = partner[u] & xmask
        if s:
            family.append((u, tuple(v for v in universe if (s >> v) & 1)))
    return universe, tuple(family), max((len(s) for _, s in family), default=0)


def ref_greedy_set_cover(universe, family):
    """The frozenset greedy cover, the differential reference for
    `approx.greedy_set_cover`: largest marginal coverage first, smallest
    owner on ties; the last set of a repeated owner wins. Owners must be
    nonnegative, since -1 marks "no pick"."""
    uncovered = set(universe)
    chosen = []
    sets = {owner: frozenset(s) for owner, s in family}
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


def brute_min_vertex_cover_size(n, edges):
    if not edges:
        return 0
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return k
    return n


def brute_overlap_arcs(intervals):
    """Arc set of the overlap digraph, recomputed from scratch.

    `intervals` are the canonical model's (a, b) pairs. Sentinels are placed
    at coordinates different from the library's; the construction only looks
    at endpoint order, so the arc sets must still agree. Returns
    (vertices, {(i, j): class}) with class in {"A1", "A2_MARKED",
    "A2_UNMARKED"} and indices 1..n for model intervals.
    """
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    ivs = [(lo - 200, lo - 100)] + list(intervals) + [(hi + 100, hi + 200)]
    total = len(ivs)

    def contained(k):
        ak, bk = ivs[k]
        return any(h != k and ivs[h][0] < ak and bk < ivs[h][1] for h in range(total))

    verts = [k for k in range(total) if not contained(k)]
    arcs = {}
    for i in verts:
        for j in verts:
            if not i < j:
                continue
            ai, bi = ivs[i]
            aj, bj = ivs[j]
            if ai <= bj and aj <= bi:  # overlapping
                if 1 <= i and j <= total - 2:
                    arcs[(i, j)] = "A1"
            else:  # disjoint, bi < aj
                gap = any(bi < ivs[h][0] and ivs[h][1] < aj for h in range(total))
                if not gap:
                    spans = any(h not in (i, j)
                                and ivs[h][0] < bi and aj < ivs[h][1]
                                for h in range(total))
                    arcs[(i, j)] = "A2_MARKED" if spans else "A2_UNMARKED"
    return verts, arcs


def ref_graph(n, edges):
    """The edge-by-edge `Graph` constructor, the differential reference for
    `graph.Graph`: returns (m, edge set, sorted adjacency rows) or raises.

    Each edge is unpacked, type-checked, range-checked, loop-checked and
    normalized to a plain (min, max) tuple, then looked up in the set of
    edges seen so far, so the error is always that of the first bad edge in
    input order.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen = set()
    adj = [[] for _ in range(n)]
    for e in edges:
        u, v = e
        for x in (u, v):
            if not hasattr(x, "__index__"):  # what indexing a row needs
                raise ValueError(f"vertex id {x!r} is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (u < v and type(e) is tuple):
            e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        adj[u].append(v)
        adj[v].append(u)
    return len(seen), frozenset(seen), tuple(tuple(sorted(a)) for a in adj)


def ref_intersection_graph(m):
    """The pairwise edge-list builder, the differential reference for
    `intervals.intersection_graph`: every intersecting pair of intervals
    becomes an edge tuple, and the validating `Graph(n, edges)` builds the
    graph from them."""
    edges = []
    ivs = m.intervals
    for i in range(len(ivs)):
        ai, bi = ivs[i]
        for j in range(i + 1, len(ivs)):
            aj, bj = ivs[j]
            if ai <= bj and aj <= bi:
                edges.append((i, j))
    return Graph(len(ivs), edges)


def ref_gen_connected_graph(n, p, seed):
    """The bridge-at-a-time connectivity patch, the differential reference
    for `generators.gen_connected_graph`; returns the sorted edge list.

    The same SplitMix64 stream draws the random edges; then, while the graph
    is disconnected, one bridge joins a random vertex of the component of
    vertex 0 to a random vertex of the component with the next smallest
    first member, and the components are recomputed from scratch.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability out of range: {p}")
    rng = SplitMix64(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
    while True:
        adj = adjacency(n, edges)
        comps, seen = [], set()
        for v in range(n):
            if v not in seen:
                comp = sorted(bfs_all(adj, v))
                seen.update(comp)
                comps.append(comp)
        if len(comps) == 1:
            return sorted(edges)
        a = comps[0][rng.randrange(len(comps[0]))]
        b = comps[1][rng.randrange(len(comps[1]))]
        edges.add((min(a, b), max(a, b)))


def ref_gen_split_graph(p_clique, q_ind, density, seed):
    """The draw-at-a-time split generator, the differential reference for
    `generators.gen_split_graph`; returns the sorted edge list.

    One scalar `random()` per (clique, independent) pair, in order of the
    independent vertex and then of the clique vertex; then every
    independent vertex left without a neighbour is attached to a random
    clique vertex.
    """
    if p_clique < 1:
        raise ValueError("clique part must be nonempty")
    if q_ind < 0:
        raise ValueError("independent part size must be nonnegative")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density out of range: {density}")
    rng = SplitMix64(seed)
    n = p_clique + q_ind
    edges = set()
    for u in range(p_clique):
        for v in range(u + 1, p_clique):
            edges.add((u, v))
    for w in range(p_clique, n):
        for u in range(p_clique):
            if rng.random() < density:
                edges.add((u, w))
    for w in range(p_clique, n):
        if not any((u, w) in edges for u in range(p_clique)):
            edges.add((rng.randrange(p_clique), w))
    return sorted(edges)
