"""Independent brute-force oracles used to cross-check the library.

Everything here is computed straight from the definitions with its own BFS
and subset enumeration, deliberately not sharing code with the solvers under
test. The one exception is `KNOWN_OPTIMA`, whose graphs come from the
library's generator and gadget builder; its optima are closed forms.
"""

import itertools
import operator
from collections import deque
from fractions import Fraction

from semidom import formats
from semidom.errors import InfeasibleError
from semidom.generators import SplitMix64, gen_named
from semidom.graph import Graph
from semidom.intervals import IntervalModel
from semidom.reductions import _LAYOUT, GadgetKind, GadgetOutput, build_gadget

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


class IndexFraction(Fraction):
    """A non-int vertex id that indexes a list and orders against ints, as
    numpy's integers do."""

    def __index__(self):
        return int(self)


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


def brute_first_dominating_set(n, edges, k):
    """The first dominating set of at most k vertices in cardinality-then-
    lexicographic order, or None when no set that small dominates: the
    reference for the exact step of `algo_dom_set`."""
    adj = adjacency(n, edges)
    closed = [sum(1 << u for u in adj[v]) | 1 << v for v in range(n)]
    full = (1 << n) - 1
    for size in range(1, min(k, n) + 1):
        for subset in itertools.combinations(range(n), size):
            m = 0
            for v in subset:
                m |= closed[v]
            if m == full:
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
    `approx.build_semitotal_setcover`; returns (universe, family) and
    raises the same errors, in the same order."""
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
    return universe, tuple(family)


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


def brute_min_vertex_cover(n, edges):
    """Lexicographically smallest minimum vertex cover, by enumerating
    subsets in size order."""
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return subset


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

    Each edge is unpacked, and each end type-checked and read as a plain int
    with `operator.index`. The edge is then range-checked, loop-checked and
    normalized to a plain (min, max) tuple, then looked up in the set of
    edges seen so far, so the error is always that of the first bad edge in
    input order. Messages show the ends as given.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen = set()
    adj = [[] for _ in range(n)]
    for u, v in edges:
        for x in (u, v):
            if not hasattr(x, "__index__"):  # what indexing a row needs
                raise ValueError(f"vertex id {x!r} is not an integer")
        a, b = operator.index(u), operator.index(v)
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if a == b:
            raise ValueError(f"self-loop at vertex {u}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {(u, v) if a < b else (v, u)}")
        seen.add(key)
        adj[a].append(b)
        adj[b].append(a)
    return len(seen), frozenset(seen), tuple(tuple(sorted(a)) for a in adj)


def _ref_data_lines(text):
    """The token lists of the lines that are neither blank nor a comment."""
    lines = (line.strip() for line in text.splitlines())
    return [line.split() for line in lines if line and not line.startswith("#")]


def ref_parse_edgelist(text):
    """The token-list parser, the differential reference for
    `formats.parse_edgelist`: it lists every data line's tokens, checks the
    header and the line count, turns each line into an edge tuple, and
    hands the tuples to the validating `Graph(n, edges)`."""
    lines = _ref_data_lines(text)
    if not lines:
        raise ValueError("empty edge-list file")
    head, body = lines[0], lines[1:]
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {' '.join(head)!r}")
    n, m = int(head[0]), int(head[1])
    if n > formats._MAX_VERTICES:
        raise ValueError(f"edge list declares {n} vertices, more than the "
                         f"limit of {formats._MAX_VERTICES}")
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for parts in body:
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {' '.join(parts)!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v:
            raise ValueError(f"edges must be written u v with u < v, got {u} {v}")
        edges.append((u, v))
    return Graph(n, edges)


def ref_parse_intervals(text):
    """The token-list parser, the differential reference for
    `formats.parse_intervals`: header, count, then each line in order."""
    lines = _ref_data_lines(text)
    if not lines:
        raise ValueError("empty interval file")
    if len(lines[0]) != 1:
        raise ValueError(f"expected header 'n', got {' '.join(lines[0])!r}")
    n = int(lines[0][0])
    if n < 0:
        raise ValueError(f"interval count must be nonnegative, got {n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} interval lines, found {len(lines) - 1}")
    pairs = []
    for parts in lines[1:]:
        if len(parts) != 2:
            raise ValueError(f"malformed interval line: {' '.join(parts)!r}")
        pairs.append((formats._parse_number(parts[0]), formats._parse_number(parts[1])))
    return IntervalModel(tuple(pairs))


def ref_validate_partition(part, g):
    """The pair-by-pair check, the differential reference for
    `SplitPartition.validate`: every clique pair in combinations order is
    looked up with `has_edge`, then every edge in sorted order is tested
    for two independent ends."""
    def vertex_id(x):
        try:
            return operator.index(x)
        except TypeError:
            raise ValueError(f"vertex id {x!r} is not an integer") from None

    ids = [vertex_id(v) for v in part.clique + part.independent]
    seen = set()
    for v in ids:
        if v in seen:
            raise ValueError(f"partition lists vertex {v} twice")
        seen.add(v)
    if seen != set(range(g.n)):
        raise ValueError("partition does not cover all vertices")
    k = len(part.clique)
    clique, independent = tuple(sorted(ids[:k])), tuple(sorted(ids[k:]))
    for a, b in itertools.combinations(clique, 2):
        if not g.has_edge(a, b):
            raise ValueError(f"clique part misses edge ({a},{b})")
    inside = set(independent)
    for u, v in g.sorted_edges():
        if u in inside and v in inside:
            raise ValueError(f"independent part contains edge ({u},{v})")
    return type(part)(clique, independent)


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


def ref_canonicalize_intervals(m):
    """The tuple-sort canonicalization, the differential reference for
    `intervals.canonicalize_intervals`: one (value, kind, index) event per
    endpoint, kind 0 for a left endpoint and 1 for a right one, sorted as
    tuples; event ranks become the new endpoints."""
    events = []
    for k, (a, b) in enumerate(m.intervals):
        events.append((a, 0, k))
        events.append((b, 1, k))
    events.sort()
    new = [[0, 0] for _ in range(m.n)]
    for rank, (_, kind, k) in enumerate(events):
        new[k][kind] = rank
    ids = tuple(k for _, kind, k in events if kind == 0)
    return IntervalModel(tuple((new[k][0], new[k][1]) for k in ids)), ids


def ref_sample_without_replacement(rng, bound, k):
    """The scalar partial Fisher-Yates, the differential reference for
    `SplitMix64.sample_without_replacement`: swap i draws one
    `rng.randrange(bound - i)`."""
    if k < 0:
        raise ValueError("sample size must be nonnegative")
    if k > bound:
        raise ValueError("sample larger than population")
    pool = list(range(bound))
    for i in range(k):
        j = i + rng.randrange(bound - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def ref_gen_interval_model(n, seed):
    """`generators.gen_interval_model` from the scalar sample and the
    tuple-sort canonicalization."""
    vals = ref_sample_without_replacement(SplitMix64(seed), 4 * n, 2 * n)
    pairs = [(min(vals[2 * i], vals[2 * i + 1]), max(vals[2 * i], vals[2 * i + 1]))
             for i in range(n)]
    return ref_canonicalize_intervals(IntervalModel(tuple(pairs)))[0]


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


def ref_build_gadget(g, kind, partition=None):
    """The edge-tuple gadget builder, the differential reference for
    `reductions.build_gadget` on the same layout table: the source's edges,
    every wire and, for APX, both edges of each edge vertex go into a set
    of edge tuples, which the validating `Graph(n, edges)` sorts into rows;
    the SPLIT clique is then written into its members' rows. Returns the
    `GadgetOutput`. Expects a connected source and a valid partition, and
    raises nothing of its own.
    """
    n = g.n
    edges = g.sorted_edges()
    layout = _LAYOUT[kind]
    origins = dict.fromkeys(layout.blocks, range(n))
    if kind is GadgetKind.SPLIT:
        origins = {"x": sorted(map(operator.index, partition.clique)),
                   "y": sorted(map(operator.index, partition.independent))}
    roles = {v: ("original", v) for v in range(n)}
    for tag in layout.blocks:
        for i in origins[tag]:
            roles[len(roles)] = (tag, i)
    for tag in layout.singles:
        roles[len(roles)] = (tag, None)
    ids = {("v" if tag == "original" else tag, i): v for v, (tag, i) in roles.items()}
    he = set() if kind is GadgetKind.APX else set(edges)
    for i in range(n):
        for pair in layout.edges:
            ends = tuple(ids.get((tag, i), ids.get((tag, None))) for tag in pair)
            if None not in ends:
                he.add(ends)
    if kind is GadgetKind.APX:
        for idx, (a, b) in enumerate(edges):
            ev = len(roles)
            roles[ev] = ("edge", idx)
            he.update([(a, ev), (b, ev)])
    h = Graph(len(roles), he)
    if kind is GadgetKind.SPLIT:
        clique = sorted(origins["x"] + [v for v, (tag, _) in roles.items()
                                        if tag in ("y", "s", "w")])
        inside = set(clique)
        rows = list(h._adj)
        for k, v in enumerate(clique):
            rows[v] = sorted([u for u in rows[v] if u not in inside]
                             + clique[:k] + clique[k + 1:])
        h = Graph(len(roles), _rows=rows)
    return GadgetOutput(h=h, kind=kind, roles=roles, source=g)


def count_graphs(monkeypatch, module):
    """Patch `module.Graph` with a subclass that logs each construction as
    (edges, whether it was given rows); returns the log."""
    built = []

    class Counting(Graph):
        __slots__ = ()

        def __init__(self, n, edges=(), *, _rows=None):
            built.append((edges, _rows is not None))
            super().__init__(n, edges, _rows=_rows)

    monkeypatch.setattr(module, "Graph", Counting)
    return built


def _path_gadget(kind):
    return lambda n: build_gadget(gen_named("path", n), kind).h


# Families whose semitotal domination number has a closed form at every
# size, each built from the path P_n: name -> (least n, graph(n), optimum(n)).
# gamma_t2(P_n) = ceil(2n/5) for n >= 3 (P_2 needs 2). The gadget identities
# that `check_reduction` asserts give the rest from the source path: GP4(G)
# has 2n, BIPARTITE(G) gamma(G) + 2n with gamma(P_n) = ceil(n/3), and APX(G)
# tau(G) + 2n with tau(P_n) = floor(n/2), the standard path values.
KNOWN_OPTIMA = {
    "path": (3, lambda n: gen_named("path", n), lambda n: -(-2 * n // 5)),
    "gp4": (2, _path_gadget(GadgetKind.GP4), lambda n: 2 * n),
    "bipartite": (2, _path_gadget(GadgetKind.BIPARTITE), lambda n: -(-n // 3) + 2 * n),
    "apx": (2, _path_gadget(GadgetKind.APX), lambda n: n // 2 + 2 * n),
}
