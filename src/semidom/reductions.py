"""Gadget constructions mapping between domination-style problems.

Each builder takes a source graph G on vertices 0..n-1 and produces a gadget
graph H together with a role map tying every H-vertex back to its origin.
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
import itertools
from dataclasses import dataclass

from .domination import DominationKind, exact_min, verify
from .errors import InfeasibleError, SizeCapError
from .graph import Graph, SplitPartition, check_vertex_set, is_connected

Role = tuple

ORACLE_CAPS = {
    "GP4": 4,
    "BIPARTITE": 4,
    "SPLIT": 6,
    "LN": 6,
    "APX": 3,
}
APX_EDGE_CAP = 3


class GadgetKind(enum.Enum):
    GP4 = "GP4"
    BIPARTITE = "BIPARTITE"
    SPLIT = "SPLIT"
    LN = "LN"
    APX = "APX"


@dataclass(frozen=True)
class GadgetOutput:
    h: Graph
    kind: GadgetKind
    roles: dict[int, Role]
    source_size: int
    source_edges: tuple[tuple[int, int], ...]
    partition: SplitPartition | None = None

    def vertices_with_tag(self, tag: str) -> list[int]:
        return sorted(v for v, role in self.roles.items() if role[0] == tag)


@dataclass(frozen=True)
class ReductionReport:
    kind: GadgetKind
    holds: bool
    details: dict[str, int]


@dataclass(frozen=True)
class _Source:
    """The source problem of a reduction."""

    key: str  # check_reduction details key of its optimum
    name: str  # for extend_solution's error message
    measure: DominationKind | None = None  # None: vertex cover

    def solved_by(self, g: Graph, members: set[int]) -> bool:
        if self.measure is None:
            return all(a in members or b in members for a, b in g.edges)
        return verify(g, members, self.measure).valid

    def optimum(self, g: Graph) -> int:
        if self.measure is None:
            return len(min_vertex_cover(g))
        return len(exact_min(g, self.measure))


_TOTAL = _Source("total_g", "a total dominating set", DominationKind.TOTAL)
_DOMINATING = _Source("gamma_g", "a dominating set", DominationKind.DOMINATING)
_COVER = _Source("tau_g", "a vertex cover")


@dataclass(frozen=True)
class _Layout:
    """Where one kind's gadget vertices sit, how they are wired and lifted.

    After the source vertices come one block per tag in `blocks` (one
    vertex per source vertex, origin-ascending), then one vertex per tag in
    `singles`. An edge "ab" joins a_i and b_i for every source vertex i that
    has both; "v" is i itself and a single tag names its one vertex, so an
    edge between two singles is one edge.
    """

    blocks: tuple[str, ...]
    singles: tuple[str, ...]
    edges: tuple[str, ...]
    lift: tuple[str, ...]  # tags extend_solution adds; their count is the offset
    project: dict[str, str]  # tag -> rule extract_solution maps it back by
    source: _Source


_LAYOUT = {
    # lifted by x_i and y_i: they dominate the whole pendant path totally
    # (w_i would leave y_i without a neighbor in the set)
    GadgetKind.GP4: _Layout(("w", "x", "y", "z"), (), ("vw", "wx", "xy", "yz"),
                            ("x", "y"), {"w": "neighbor"}, _TOTAL),
    GadgetKind.BIPARTITE: _Layout(("x", "y", "z", "u", "w"), (),
                                  ("xy", "yz", "zu", "uw", "vz"),
                                  ("u", "y"), {"z": "origin"}, _DOMINATING),
    # x over the clique, y over the independent set; the enlarged clique is
    # wired in build_gadget
    GadgetKind.SPLIT: _Layout(("x", "y"), ("w", "z", "r", "s", "t"),
                              ("vx", "xw", "vy", "yt", "rs", "st", "wz"),
                              ("w", "s"), {"x": "origin", "y": "origin"},
                              _DOMINATING),
    GadgetKind.LN: _Layout(("x",), ("y", "z"), ("vx", "xy", "yz"),
                           ("y",), {"x": "origin"}, _DOMINATING),
    # one "edge" vertex per source edge follows the blocks
    GadgetKind.APX: _Layout(("u", "x", "y", "z", "w"), (),
                            ("vu", "uw", "ux", "xy", "yz", "zu"),
                            ("u", "y"), {"edge": "endpoint"}, _COVER),
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
    edges = sorted(g.edges)
    layout = _LAYOUT.get(kind)
    if layout is None:
        raise ValueError(f"unknown gadget kind: {kind}")
    origins = dict.fromkeys(layout.blocks, range(n))
    if kind is GadgetKind.BIPARTITE and n < 2:
        raise ValueError("bipartite gadget needs a non-trivial source (n >= 2)")
    if kind is GadgetKind.SPLIT:
        if partition is None:
            raise ValueError("split gadget needs a split partition")
        partition.validate(g)
        origins = {"x": sorted(partition.clique), "y": sorted(partition.independent)}

    roles: dict[int, Role] = {v: ("original", v) for v in range(n)}
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
    if kind is GadgetKind.SPLIT:  # the clique (x's origins) enlarged by every y_j, s and w
        clique_h = origins["x"] + [v for v, (tag, _) in roles.items() if tag in ("y", "s", "w")]
        he.update(itertools.combinations(sorted(clique_h), 2))
    if kind is GadgetKind.APX:
        for idx, (a, b) in enumerate(edges):
            ev = len(roles)
            roles[ev] = ("edge", idx)
            he.update([(a, ev), (b, ev)])
    return GadgetOutput(h=Graph(len(roles), he), kind=kind, roles=roles, source_size=n,
                        source_edges=tuple(edges), partition=partition)


def extend_solution(go: GadgetOutput, d_g) -> tuple[int, ...]:
    """Lift a source solution to a verified solution on the gadget graph H.

    Expects a dominating set of G (BIPARTITE, SPLIT, LN), a total dominating
    set (GP4) or a vertex cover (APX); the output then satisfies TOTAL on H
    for GP4 and SEMITOTAL on H for the other kinds.
    """
    g = Graph(go.source_size, go.source_edges)
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
    g = Graph(go.source_size, go.source_edges)
    project = _LAYOUT[kind].project
    out = set()
    for v in members:
        tag, i = go.roles[v]
        rule = "origin" if tag == "original" else project.get(tag)
        if rule == "origin":
            out.add(i)
        elif rule == "endpoint":  # edge vertex -> smaller endpoint
            out.add(min(go.source_edges[i]))
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
        indep_members = sorted(out & set(go.partition.independent))
        if not indep_members:
            raise InfeasibleError("gadget solution cannot be projected: empty independent part")
        u_star = indep_members[0]
        k_star = min(g.neighbors(u_star))
        out.discard(u_star)
        out.add(k_star)
    return tuple(sorted(out))


def min_vertex_cover(g: Graph) -> tuple[int, ...]:
    """Exhaustive minimum vertex cover (lexicographically smallest optimum)."""
    edges = sorted(g.edges)
    if not edges:
        return ()
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(a in chosen or b in chosen for a, b in edges):
                return subset
    return tuple(range(g.n))


def check_reduction(g: Graph, kind: GadgetKind,
                    partition: SplitPartition | None = None) -> ReductionReport:
    """Compare both sides of a gadget identity with the exact oracle.

    Size caps keep the brute force affordable; exceeding one raises
    SizeCapError.
    """
    cap = ORACLE_CAPS[kind.value]
    if g.n > cap or (kind is GadgetKind.APX and g.m > APX_EDGE_CAP):
        raise SizeCapError(f"source too large for {kind.value} check (cap n<={cap})")
    go = build_gadget(g, kind, partition)
    layout = _LAYOUT[kind]
    opt_h = exact_min(go.h, DominationKind.SEMITOTAL)
    details: dict[str, int] = {"n": g.n, "m": g.m, "h_n": go.h.n, "h_m": go.h.m,
                               "semitotal_h": len(opt_h)}
    if kind is GadgetKind.GP4:
        details["total_h"] = len(exact_min(go.h, DominationKind.TOTAL))
    source = layout.source.optimum(g)
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
