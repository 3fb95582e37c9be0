"""Gadget constructions mapping between domination-style problems.

Each builder takes a source graph G on vertices 0..n-1 and produces a gadget
graph H together with a role map tying every H-vertex back to its origin;
the output keeps G itself, which lifting and projection read.
Original vertices keep their ids; gadget vertices are appended block by block
(one block per role tag, index-ascending inside a block), so the numbering is
deterministic and stable.

The five kinds:

  GP4        a 4-edge path hung off every vertex; relates total domination
             of the source to total domination of H, while H's semitotal
             number is always 2n.
  BIPARTITE  a 5-vertex path x y z u w per vertex, attached via z; relates
             domination of G to semitotal domination of H (offset 2n).
  SPLIT      for split graphs: pendants x_i/y_j folded into an enlarged
             clique plus a 5-vertex anchor {w,z,r,s,t}; offset 2.
  LN         one leaf per vertex plus a shared hub y and pendant z; relates
             domination of G to semitotal domination of H (offset 1).
  APX        a 4-cycle-with-pendant block per vertex and a subdivision
             vertex per edge; relates vertex cover of G to semitotal
             domination of H (offset 2n).
"""

from __future__ import annotations

import enum
from ._record import Record
from .domination import DominationKind, exact_min, verify
from .errors import InfeasibleError, SizeCapError
from .graph import Graph, SplitPartition, check_vertex_set, is_connected

Role = tuple


class GadgetKind(enum.Enum):
    GP4 = "GP4"
    BIPARTITE = "BIPARTITE"
    SPLIT = "SPLIT"
    LN = "LN"
    APX = "APX"


class GadgetOutput(Record):
    __slots__ = ("h", "kind", "roles", "source")
    h: Graph
    kind: GadgetKind
    roles: dict[int, Role]
    source: Graph  # the source graph G

    def vertices_with_tag(self, tag: str) -> list[int]:
        return sorted(v for v, role in self.roles.items() if role[0] == tag)


class ReductionReport(Record):
    __slots__ = ("kind", "holds", "details")
    kind: GadgetKind
    holds: bool
    details: dict[str, int]


class _Source(Record):
    """The source problem of a reduction."""

    __slots__ = ("key", "name", "measure")
    key: str  # check_reduction details key of its optimum
    name: str  # for extend_solution's error message
    measure: DominationKind | None  # None: vertex cover

    def solved_by(self, g: Graph, members: set[int]) -> bool:
        if self.measure is None:
            return all(a in members or b in members for a, b in g.sorted_edges())
        return verify(g, members, self.measure).valid

    def optimum(self, g: Graph, max_nodes: int | None) -> int:
        if self.measure is None:
            return len(min_vertex_cover(g, max_nodes))
        return len(exact_min(g, self.measure, max_nodes))


_TOTAL = _Source("total_g", "a total dominating set", DominationKind.TOTAL)
_DOMINATING = _Source("gamma_g", "a dominating set", DominationKind.DOMINATING)
_COVER = _Source("tau_g", "a vertex cover", None)


class _Layout(Record):
    """Where one kind's gadget vertices sit, how they are wired and lifted.

    After the source vertices come one block per tag in `blocks` (one
    vertex per source vertex, origin-ascending), then one vertex per tag in
    `singles`. An edge "ab" joins a_i and b_i for every source vertex i that
    has both; "v" is i itself and a single tag names its one vertex, so an
    edge between two singles is one edge.
    """

    __slots__ = ("blocks", "singles", "edges", "lift", "project", "source", "cap")
    blocks: tuple[str, ...]
    singles: tuple[str, ...]
    edges: tuple[str, ...]
    lift: tuple[str, ...]  # tags extend_solution adds; their count is the offset
    project: dict[str, str]  # tag -> rule extract_solution maps it back by
    source: _Source
    cap: int  # largest source n that check_reduction's exact oracle takes


# cap: the largest source size measured whose slowest check_reduction took
# under 3 s; the next size up took 6 s or more. Sources per size: 18, namely
# gen_connected_graph(n, p, s) for p in {3/n, 0.1, 0.3, 0.6, 0.9} and s in
# 0-2 plus the path, cycle and star (SPLIT: 45, gen_split_graph(c, n - c, p,
# s) for c in {n/3, n/2, 2n/3}). Slowest, one run each, CPython 3.11.7 on a
# shared 2-core Xeon ("+": stopped early, at least this):
#   GP4        32: 0.32 s   40: 1.17 s   48: 5.96 s
#   BIPARTITE  48: 0.72 s   64: 2.61 s   80: 9.21+ s
#   SPLIT      96: 0.04 s  128: 0.32 s  192: 69.3+ s
#   LN         48: 0.08 s   64: 0.50 s   80: 8.88 s
#   APX        32: 0.44 s   40: 2.95 s   48: 8.79 s
# Since exact_min drops dominated candidates, the slowest at each cap takes
# GP4 0.03 s, BIPARTITE 1.85 s, SPLIT 0.21 s, LN 0.44 s and APX 1.62 s, and
# GP4 at 48 / 64 takes 0.06 / 0.24 s (BENCH_exact.json, static_dominance);
# the caps are still the ones measured above
_LAYOUT = {
    # lifted by x_i and y_i: they dominate the whole pendant path totally
    # (w_i would leave y_i without a neighbor in the set)
    GadgetKind.GP4: _Layout(("w", "x", "y", "z"), (), ("vw", "wx", "xy", "yz"),
                            ("x", "y"), {"w": "neighbor"}, _TOTAL, 40),
    GadgetKind.BIPARTITE: _Layout(("x", "y", "z", "u", "w"), (),
                                  ("xy", "yz", "zu", "uw", "vz"),
                                  ("u", "y"), {"z": "origin"}, _DOMINATING, 64),
    # x over the clique, y over the independent set; the enlarged clique is
    # wired in build_gadget
    GadgetKind.SPLIT: _Layout(("x", "y"), ("w", "z", "r", "s", "t"),
                              ("vx", "xw", "vy", "yt", "rs", "st", "wz"),
                              ("w", "s"), {"x": "origin", "y": "origin"},
                              _DOMINATING, 128),
    GadgetKind.LN: _Layout(("x",), ("y", "z"), ("vx", "xy", "yz"),
                           ("y",), {"x": "origin"}, _DOMINATING, 64),
    # one "edge" vertex per source edge follows the blocks
    GadgetKind.APX: _Layout(("u", "x", "y", "z", "w"), (),
                            ("vu", "uw", "ux", "xy", "yz", "zu"),
                            ("u", "y"), {"edge": "endpoint"}, _COVER, 40),
}


def _require_connected(g: Graph) -> None:
    if g.n < 1:
        raise ValueError("source graph is empty")
    if not is_connected(g):
        raise ValueError("source graph must be connected")


def build_gadget(g: Graph, kind: GadgetKind,
                 partition: SplitPartition | None = None) -> GadgetOutput:
    """Construct the gadget graph H of the given kind from g."""
    _require_connected(g)
    n = g.n
    layout = _LAYOUT.get(kind)
    if layout is None:
        raise ValueError(f"unknown gadget kind: {kind}")
    origins = dict.fromkeys(layout.blocks, range(n))
    if kind is GadgetKind.BIPARTITE and n < 2:
        raise ValueError("bipartite gadget needs a non-trivial source (n >= 2)")
    if kind is GadgetKind.SPLIT:
        if partition is None:
            raise ValueError("split gadget needs a split partition")
        part = partition.validate(g)  # plain-int parts, sorted
        origins = {"x": part.clique, "y": part.independent}

    roles: dict[int, Role] = {v: ("original", v) for v in range(n)}
    for tag in layout.blocks:
        for i in origins[tag]:
            roles[len(roles)] = (tag, i)
    for tag in layout.singles:
        roles[len(roles)] = (tag, None)
    ids = {("v" if tag == "original" else tag, i): v for v, (tag, i) in roles.items()}
    # H's rows start as copies of the source's (APX: empty, its source edges
    # become edge vertices, in sorted_edges order); each is sorted once, last
    rows = [[] if kind is GadgetKind.APX else list(row) for row in g._adj]
    rows += ([] for _ in range(len(roles) - n))
    if kind is GadgetKind.APX:
        pairs = ((a, b) for a, row in enumerate(g._adj) for b in row if a < b)
        for idx, (a, b) in enumerate(pairs):
            ev = len(rows)
            roles[ev] = ("edge", idx)
            rows[a].append(ev)
            rows[b].append(ev)
            rows.append([a, b])
    for pair in layout.edges:  # a wire between two singles is made once
        for i in range(1 if set(pair) <= set(layout.singles) else n):
            a, b = (ids.get((tag, i), ids.get((tag, None))) for tag in pair)
            if a is not None and b is not None:
                rows[a].append(b)
                rows[b].append(a)
    if kind is GadgetKind.SPLIT:
        # the clique (x's origins) enlarged by every y_j, s and w, written
        # into its members' rows, which share the clique list's int objects;
        # a row keeps its neighbours outside the clique (the source's clique
        # edges are already among its members)
        clique = sorted(list(origins["x"]) + [v for v, (tag, _) in roles.items()
                                              if tag in ("y", "s", "w")])
        inside = set(clique)
        for k, v in enumerate(clique):
            rows[v] = [u for u in rows[v] if u not in inside] + clique[:k] + clique[k + 1:]
    for row in rows:
        row.sort()
    return GadgetOutput(h=Graph(len(roles), _rows=rows), kind=kind, roles=roles, source=g)


def extend_solution(go: GadgetOutput, d_g) -> tuple[int, ...]:
    """Lift a source solution to a verified solution on the gadget graph H.

    Expects a dominating set of G (BIPARTITE, SPLIT, LN), a total dominating
    set (GP4) or a vertex cover (APX); the output then satisfies TOTAL on H
    for GP4 and SEMITOTAL on H for the other kinds.
    """
    g = go.source
    members = set(check_vertex_set(g, d_g))
    layout = _LAYOUT[go.kind]
    if not layout.source.solved_by(g, members):
        raise ValueError(f"d_g is not {layout.source.name} of the source")
    return tuple(sorted(members.union(*map(go.vertices_with_tag, layout.lift))))


def extract_solution(go: GadgetOutput, d_h) -> tuple[int, ...]:
    """Project a gadget solution back to a source solution.

    Verifies d_h on H first (TOTAL for GP4, SEMITOTAL otherwise), then
    applies the role-wise replacements; where a replacement allows a choice,
    the smallest eligible id is taken. The result is a dominating set
    (BIPARTITE, SPLIT, LN), a total dominating set (GP4) or a vertex cover
    (APX) of the source, no larger than |d_h| minus the gadget overhead.
    """
    kind = go.kind
    need = DominationKind.TOTAL if kind is GadgetKind.GP4 else DominationKind.SEMITOTAL
    members = set(check_vertex_set(go.h, d_h))
    if not verify(go.h, members, need).valid:
        raise ValueError("d_h is not valid on the gadget graph")
    g = go.source
    project = _LAYOUT[kind].project
    edges = g.sorted_edges()  # build_gadget numbered the edge vertices in this order
    out = set()
    for v in members:
        tag, i = go.roles[v]
        rule = "origin" if tag == "original" else project.get(tag)
        if rule == "origin":
            out.add(i)
        elif rule == "endpoint":  # edge vertex -> smaller endpoint
            out.add(min(edges[i]))
        elif rule == "neighbor":  # w_i -> smallest source neighbor of v_i
            nb = g.neighbors(i)
            if not nb:
                raise InfeasibleError("source vertex has no neighbor to stand in for its pendant")
            out.add(nb[0])
    if kind is GadgetKind.SPLIT and not verify(g, out, DominationKind.DOMINATING).valid:
        # Only clique vertices without independent neighbors can be left
        # uncovered, and only when no clique vertex was selected; swapping
        # one independent member for one of its clique neighbors fixes every
        # such vertex without changing the cardinality.
        indep_members = sorted(out & {i for tag, i in go.roles.values() if tag == "y"})
        if not indep_members:
            raise InfeasibleError("gadget solution cannot be projected: empty independent part")
        u_star = indep_members[0]
        k_star = min(g.neighbors(u_star))
        out.discard(u_star)
        out.add(k_star)
    return tuple(sorted(out))


def min_vertex_cover(g: Graph, max_nodes: int | None = None) -> tuple[int, ...]:
    """Minimum vertex cover of g, lexicographically smallest among optima.

    Solved as domination: H keeps g's non-isolated vertices, relabelled in
    increasing order, and adds one vertex per edge, adjacent to both its
    ends, after all of them. Isolated vertices are in no minimum cover.
    A set of original vertices dominates H exactly when it covers every
    edge, and swapping an edge vertex in a dominating set for one of its
    ends gives a set no larger and lexicographically smaller. So the
    lexicographically smallest minimum dominating set of H holds no edge
    vertex, and it is the lexicographically smallest minimum cover.
    Raises SizeCapError where exact_min does, so a component whose cover
    needs more than 500 members, or a search past max_nodes nodes, is
    refused.
    """
    edges = g.sorted_edges()
    if not edges:
        return ()
    ends = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(ends)}
    h = Graph(len(ends) + len(edges), [(pos[a], pos[b]) for a, b in edges]
              + [(pos[v], len(ends) + j) for j, e in enumerate(edges) for v in e])
    return tuple(ends[i] for i in exact_min(h, DominationKind.DOMINATING, max_nodes))


def _gadget_size(kind: GadgetKind, n: int, m: int) -> int:
    """The vertex count of H for a source of n vertices and m edges, found
    without building it: the source's vertices, n per block (SPLIT's x and
    y blocks share them), one per single and, for APX, one per edge."""
    layout = _LAYOUT[kind]
    blocks = 1 if kind is GadgetKind.SPLIT else len(layout.blocks)
    return (1 + blocks) * n + len(layout.singles) + (m if kind is GadgetKind.APX else 0)


def _check_source_size(kind: GadgetKind, n: int) -> None:
    """Raise SizeCapError if check_reduction refuses an n-vertex source of
    this kind; cheap, so a caller can ask before it builds the source."""
    cap = _LAYOUT[kind].cap
    if n > cap:
        raise SizeCapError(f"source too large for {kind.value} check (cap n<={cap})")


def check_reduction(g: Graph, kind: GadgetKind,
                    partition: SplitPartition | None = None,
                    max_nodes: int | None = None) -> ReductionReport:
    """Compare both sides of a gadget identity with the exact oracle.

    The exact searches grow exponentially, so a size cap per kind, set from
    the times measured beside _LAYOUT, keeps a check to a few seconds; a
    larger source raises SizeCapError before anything is built. Each exact
    search gets max_nodes as its node budget (default: unbounded), so a
    source under the cap that is slower than the measured ones raises
    SizeCapError too. A SPLIT partition with an empty independent part
    raises ValueError: the identity semitotal_h = gamma_g + 2 does not hold
    there.
    """
    _check_source_size(kind, g.n)
    go = build_gadget(g, kind, partition)
    if kind is GadgetKind.SPLIT and not partition.independent:
        raise ValueError("split check needs a nonempty independent part: "
                         "semitotal_h = gamma_g + 2 assumes one")
    layout = _LAYOUT[kind]
    opt_h = exact_min(go.h, DominationKind.SEMITOTAL, max_nodes)
    details: dict[str, int] = {"n": g.n, "m": g.m, "h_n": go.h.n, "h_m": go.h.m,
                               "semitotal_h": len(opt_h)}
    if kind is GadgetKind.GP4:
        details["total_h"] = len(exact_min(go.h, DominationKind.TOTAL, max_nodes))
    source = layout.source.optimum(g, max_nodes)
    details[layout.source.key] = source
    offset = sum(len(go.vertices_with_tag(tag)) for tag in layout.lift)
    if kind is GadgetKind.GP4:  # H's total number carries the offset; its semitotal one is 2n
        holds = len(opt_h) == 2 * g.n and details["total_h"] == source + offset
    elif kind is GadgetKind.LN:  # an inequality, checked with its projection
        holds = (len(opt_h) <= source + offset
                 and verify(g, extract_solution(go, opt_h), DominationKind.DOMINATING).valid)
    else:
        holds = len(opt_h) == source + offset
    return ReductionReport(kind=kind, holds=holds, details=details)
