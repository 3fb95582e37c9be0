"""Command-line front end.

Subcommands: solve, verify, reduce, check-reduction, gen. Every run
writes a single JSON document to stdout. Exit codes: 0 success, 1 invalid
input, 2 verification failure, 3 infeasible instance, 4 size cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from json.encoder import encode_basestring_ascii

from . import formats
from .approx import approx_semitotal
from .domination import DominationKind, exact_min, verify, verify_intervals
from .errors import InfeasibleError, SizeCapError
from .formats import (edgelist_header, edgelist_rows, parse_edgelist, parse_intervals,
                      parse_partition, parse_vertex_set, write_intervals,
                      write_partition)
from .graph import Graph, SplitPartition, connected_components
from .intervals import IntervalModel, intersection_edge_count, intersection_graph
from .interval_solver import solve_interval

EXIT_OK = 0
EXIT_INVALID_INPUT = 1
EXIT_VERIFICATION = 2
EXIT_INFEASIBLE = 3
EXIT_SIZE_CAP = 4

_KINDS = {"dom": DominationKind.DOMINATING,
          "total": DominationKind.TOTAL,
          "semitotal": DominationKind.SEMITOTAL}

# `gen --family` values served by generators.gen_named
NAMED_FAMILIES = ("path", "cycle", "star", "complete", "gp4")

# `--kind` values of reduce and check-reduction: reductions.GadgetKind, lower case
GADGET_KINDS = ("gp4", "bipartite", "split", "ln", "apx")

# `solve --algo exact` node budget when --max-nodes is not given, and the
# budget of each exact search `check-reduction` runs: the largest search in
# the tests' check-reduction gates visits 15,054 nodes, and the slowest
# source measured at the caps (beside reductions._LAYOUT) 169,195
DEFAULT_MAX_NODES = 250_000

# most edges of a graph the CLI builds rather than reads, each refused
# before it is built. Just under it (one run each unless a range is given,
# CPython 3.11.7, shared 2-core Xeon): `solve --algo exact|approx` on 4472
# identical intervals takes 3.4-5.0 s and 486 MB; `reduce --kind split`,
# whose clique on the source's n vertices plus two has C(n + 2, 2) edges,
# takes 2.8 s and 457 MB on a 4470-vertex star; `gen --family complete
# --size 4472` takes 2.9 s and 440 MB, `gen --family split --clique 4472
# --ind 500 --density 0` 3.0-3.8 s and 441 MB, and `gen --family gp4
# --size 6325` 9.2-10.5 s and 894 MB (BENCH_gen.json, gadget_rows). `gen
# --family gp4|random|split` is refused when the drawn graph's expected
# edges, p * C(n, 2) or, for split, C(c, 2) + density * c * q, are over it
MAX_BUILT_EDGES = 10_000_000

# most vertex pairs `gen --family random|split` draws for, one draw per
# pair whatever --p or --density. At --p 0.0003 (one run each, as above):
# 2.5e7 draws (--size 7071) took 1.65 s, 5e7 (--size 10000) 3.44 s and
# 1e8 (--size 14142) 7.84 s, at 17-21 MB
MAX_PAIR_DRAWS = 50_000_000

# most bits of the neighbourhood masks `solve --algo exact|approx` builds.
# Mask v holds bit v, so closed_masks holds at least n(n+1)/2 bits on n
# vertices whatever m is, and the exact SEMITOTAL search builds as many again
# for its distance-2 masks. The approximation's masks span the whole graph,
# so it is judged on n; the exact search builds both per component, so it is
# judged on the sum of c(c+1) over the component sizes c. Just under it (as
# above): `solve --algo approx` on P_109544 takes 16.2 s and 806 MB
# (P_100000: 14.3-18.3 s and 688 MB), and `--algo exact` on P_77459 2.3 s and
# 798 MB before it exits 4 at its member cap
MAX_MASK_BITS = 6_000_000_000


# each quantity _admit sizes: its cap, read when a route is admitted, and
# the end of the error message that names it. check-reduction's source cap
# is check_reduction's own, one per kind beside reductions._LAYOUT, and
# _admit asks reductions._check_source_size, so the library and the CLI
# refuse a source by one rule in the same words
_CAPS = {
    "vertices": (lambda _: formats._MAX_VERTICES, ", more than the edge-list limit of {}"),
    "intervals": (lambda _: formats._MAX_VERTICES, ", more than the limit of {}"),
    "edges": (lambda _: MAX_BUILT_EDGES, " (cap m<={})"),
    "pair draws": (lambda _: MAX_PAIR_DRAWS, " (cap {})"),
    "mask bits": (lambda _: MAX_MASK_BITS, " (cap {})"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # unknown flags and bad values exit 1, not 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_INVALID_INPUT)


def _read(path: str) -> str:
    # every parser splits lines with str.splitlines, which also ends a line
    # at \r\n and \r, so the decoded bytes give the lines a text-mode read
    # would, without its newline translation
    with open(path, "rb") as f:
        return f.read().decode("utf-8")


def _load_instance(args) -> Graph | IntervalModel:
    """The instance read from --input. For `solve --algo approx`, whose
    masks span the whole graph, an edge list is admitted from its header,
    before any edge line is parsed, as reduce's source is."""
    text = _read(args.input)
    if args.format == "intervals":
        return parse_intervals(text)
    if args.command == "solve" and args.algo == "approx":
        _admit(args, edgelist_header(text)[0])
    return parse_edgelist(text)


def _load_gadget_source(args) -> tuple[Graph, SplitPartition | None]:
    """The graph read from --input, and with --kind split its --partition,
    once the route is admitted from the edge list's header: before any edge
    line is parsed, so an oversized file is refused even if a later line is
    malformed, and reduce writes only edge lists that solve can read."""
    text = _read(args.input)
    _admit(args, *edgelist_header(text))
    g = parse_edgelist(text)
    if args.kind != "split":
        return g, None
    if not args.partition:
        raise ValueError("--kind split requires --partition")
    return g, parse_partition(_read(args.partition))


def _graph_of(args, inst: Graph | IntervalModel) -> Graph:
    """solve's instance as a graph, once the route is admitted on it (an
    edge list for --algo approx already was, from its header), so nothing
    over a cap is built."""
    if isinstance(inst, IntervalModel) or args.algo == "exact":
        _admit(args, inst.n, source=inst)
    return intersection_graph(inst) if isinstance(inst, IntervalModel) else inst


def _component_sizes(inst: Graph | IntervalModel) -> list[int]:
    """The vertex count of each connected component of solve's instance;
    an interval model's come from one sweep of its sorted intervals, with
    no graph built."""
    if isinstance(inst, Graph):
        return [len(comp) for comp in connected_components(inst)]
    sizes, reach = [], None
    for a, b in sorted(inst.intervals):
        if sizes and a <= reach:  # meets an interval of the component so far
            sizes[-1] += 1
            reach = max(reach, b)
        else:
            sizes.append(1)
            reach = b
    return sizes


_INF = float("inf")


def _float(x: float) -> str:
    return ("NaN" if x != x else "Infinity" if x == _INF else
            "-Infinity" if x == -_INF else float.__repr__(x))


# the text of a value of exactly one of these types, as json writes it
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, float: _float,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null"}


def _json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2)`, byte for byte, with one join per
    container: json runs its pure-Python encoder whenever indent is set.
    A value of another type takes json's checks in json's order. A
    container that holds itself exceeds the recursion limit where json
    raises ValueError; neither writes a document."""
    if scalar := _SCALARS.get(type(value)):
        return scalar(value)
    for base in (str, int, float):  # subclasses, written as their base
        if isinstance(value, base):
            return _SCALARS[base](value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        ends, kinds = "[]", set(map(type, value))
        # a list of one scalar type, such as an answer's members, in one map
        scalar = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, value) if scalar else [_json(v, inner) for v in value]
    elif isinstance(value, dict):
        ends = "{}"
        items = [(encode_basestring_ascii(k) if type(k) is str else _json_key(k))
                 + ": " + _json(v, inner) for k, v in value.items()]
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not value:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _json_key(key) -> str:
    """A dict key as json writes it: a str, or a number, bool or None in quotes."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return f'"{_json(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _emit(doc: dict) -> None:
    sys.stdout.write(_json(doc) + "\n")


def _save_edgelist(path, g: Graph) -> None:
    """write_edgelist(g) to the file at path, one adjacency row at a time,
    so neither the whole text nor its encoded bytes are ever held."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(edgelist_rows(g))


def _cmd_solve(args) -> tuple[dict, int]:
    if args.max_nodes is not None and args.algo != "exact":
        raise ValueError("--max-nodes requires --algo exact")
    inst = _load_instance(args)
    if args.algo == "interval" and not isinstance(inst, IntervalModel):
        raise ValueError("--algo interval requires --format intervals")
    if inst.n == 0:  # one message for every route, before any solver sees it
        raise ValueError("graph is empty")
    # the interval solver needs only the model, so an infeasible model exits
    # 3 before the route is admitted on, and builds, the O(n^2) intersection
    # graph of the check
    g = None if args.algo == "interval" else _graph_of(args, inst)
    t0 = time.perf_counter()
    if args.algo == "exact":
        budget = DEFAULT_MAX_NODES if args.max_nodes is None else args.max_nodes
        result = exact_min(g, DominationKind.SEMITOTAL, budget)
    elif args.algo == "interval":
        result = solve_interval(inst)
    else:
        result = approx_semitotal(g)
    elapsed = (time.perf_counter() - t0) * 1000.0
    g = _graph_of(args, inst) if g is None else g
    ok = verify(g, result, DominationKind.SEMITOTAL).valid
    doc = {
        "algorithm": args.algo,
        "n": g.n,
        "m": g.m,
        "size": len(result),
        "set": list(result),
        "verified": ok,
        "elapsedMs": round(elapsed, 3),
        "extra": {},
    }
    return doc, EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_verify(args) -> tuple[dict, int]:
    inst = _load_instance(args)
    members = parse_vertex_set(_read(args.set))
    kind = _KINDS[args.kind]
    if isinstance(inst, IntervalModel):  # judged on the model: no graph is built
        report, m = verify_intervals(inst, members, kind), intersection_edge_count(inst)
    else:
        report, m = verify(inst, members, kind), inst.m
    doc = {
        "algorithm": "verify",
        "kind": args.kind,
        "n": inst.n,
        "m": m,
        "size": len(set(members)),
        "set": sorted(set(members)),
        "valid": report.valid,
        "violations": [[v, reason.value] for v, reason in report.violations],
    }
    return doc, EXIT_OK if report.valid else EXIT_VERIFICATION


def _cmd_reduce(args) -> tuple[dict, int]:
    from pathlib import Path
    from .reductions import GadgetKind, build_gadget
    g, partition = _load_gadget_source(args)
    go = build_gadget(g, GadgetKind[args.kind.upper()], partition)
    out = Path(args.output)
    _save_edgelist(out, go.h)
    roles_path = Path(str(out) + ".roles.json")
    roles = {str(v): list(role) for v, role in sorted(go.roles.items())}
    roles_path.write_text(_json(roles) + "\n", encoding="utf-8")
    doc = {
        "algorithm": "reduce",
        "kind": args.kind,
        "n": g.n,
        "m": g.m,
        "extra": {
            "h_n": go.h.n,
            "h_m": go.h.m,
            "output": str(out),
            "roles": str(roles_path),
        },
    }
    return doc, EXIT_OK


def _cmd_check_reduction(args) -> tuple[dict, int]:
    from .reductions import GadgetKind, check_reduction
    kind = GadgetKind[args.kind.upper()]
    # a source is refused before it is built, so an oversized request costs
    # nothing
    if args.input:
        g, partition = _load_gadget_source(args)
    else:
        family, missing = (("split", "split check needs --clique and --ind (or --input)")
                           if kind is GadgetKind.SPLIT else
                           ("random", "check needs --input or --size"))
        _admit(args, _edge_list_size(family, args, missing)[0])
        g, partition = _generate(family, args)
    report = check_reduction(g, kind, partition, DEFAULT_MAX_NODES)
    doc = {
        "algorithm": "check-reduction",
        "kind": args.kind,
        "holds": report.holds,
        "details": report.details,
    }
    return doc, EXIT_OK if report.holds else EXIT_VERIFICATION


def _clique_edges(n: int) -> int:
    return n * (n - 1) // 2 if n > 0 else 0


def _edge_list_size(family: str, args, missing: str) -> tuple[int, int]:
    """The vertex count and clique edge count of the edge list that `family`
    (any `gen --family` but intervals) would make from the options in args,
    found without making it; ValueError(missing) if an option it needs is
    unset."""
    if family == "split":
        if args.clique is None or args.ind is None:
            raise ValueError(missing)
        return args.clique + args.ind, _clique_edges(args.clique)
    if args.size is None:
        raise ValueError(missing)
    n = 5 * args.size if family == "gp4" else args.size  # gp4 hangs 4 off each vertex
    return n, _clique_edges(n) if family == "complete" else 0


def _generate(family: str, args):
    """The source that `family` makes from the options in args: the interval
    model for intervals, else the graph and its split partition (None
    unless split). The generators load on first use."""
    from . import generators
    if family == "intervals":
        return generators.gen_interval_model(args.size, args.seed)
    if family == "split":
        return generators.gen_split_graph(args.clique, args.ind, args.density, args.seed)
    if family == "random":
        return generators.gen_connected_graph(args.size, args.p, args.seed), None
    # argparse's choices leave only NAMED_FAMILIES
    return generators.gen_named(family, args.size, args.seed), None


def _admit(args, n: int = 0, m: int = 0, source=None) -> None:
    """Raise SizeCapError for the first piece of work of the route of args
    that is over its cap in _CAPS (or, for check-reduction's source, the
    cap of reductions._check_source_size), in the order the route reports
    them. Every subcommand but verify, which builds nothing the table caps,
    calls it once, before it builds what that work counts. n and m are the
    vertex and edge counts an edge-list header declares, or for solve n is
    the instance's (for --algo approx on an edge list, its header's), and
    source is solve's instance, if parsed; the rest comes from the
    options."""
    def check(quantity: str, amount, message: str) -> None:
        if amount > (cap := _CAPS[quantity][0](args)):
            raise SizeCapError(message + _CAPS[quantity][1].format(cap))

    if args.command == "solve":
        if isinstance(source, IntervalModel):  # counted in O(n log n), no graph built
            m = intersection_edge_count(source)
            check("edges", m, f"interval graph too large for --algo {args.algo}: {m} edges")
        if args.algo == "approx":  # masks over the whole graph; n may be a header's
            bits = max(n, 0) * (n + 1) // 2
        elif args.algo == "exact":
            # exact_min builds its closed and distance-2 masks per component,
            # c(c + 1) bits on c vertices; their sum is at most n(n + 1), so
            # the components are found only when that is over the cap
            bits = n * (n + 1)
            if bits > _CAPS["mask bits"][0](args):
                bits = sum(c * (c + 1) for c in _component_sizes(source))
        if args.algo != "interval":
            check("mask bits", bits, f"graph too large for --algo {args.algo}: {n} "
                                     f"vertices need {bits} mask bits")
    elif args.command == "reduce":
        from .reductions import GadgetKind, _gadget_size
        h_n = _gadget_size(GadgetKind[args.kind.upper()], n, m)
        check("vertices", h_n, f"--kind {args.kind} would write {h_n} vertices")
        if args.kind == "split":
            # the gadget joins the source's vertices (as themselves or their
            # y copies), s and w in one clique; the other gadgets are linear
            # in n + m
            clique = _clique_edges(n + 2)
            check("edges", clique, f"split gadget too large: its clique has {clique} edges")
    elif args.command == "check-reduction":
        from .reductions import GadgetKind, _check_source_size
        _check_source_size(GadgetKind[args.kind.upper()], n)
    elif args.family == "intervals":
        # the interval generator lists all 4n candidate endpoints first, in
        # time and memory linear in n
        check("intervals", args.size, f"--family intervals would write {args.size} intervals")
    else:  # gen writes an edge list that solve can read
        family = args.family
        n, m = _edge_list_size(family, args, "--family split needs --clique and --ind")
        check("vertices", n, f"--family {family} would write {n} vertices")
        check("edges", m, f"--family {family} would write a clique of {m} edges")
        # one draw per vertex pair of the random graph (gp4's base, at p =
        # 0.5), or per (clique, independent) pair of split, each an edge with
        # probability p; the generator judges a p out of range
        split = family == "split"
        draws = args.clique * args.ind if split else _clique_edges(args.size)
        p = args.density if split else 0.5 if family == "gp4" else args.p
        if family in ("random", "split"):
            check("pair draws", draws, f"--family {family} would make {draws} pair draws")
        if family in ("gp4", "random", "split") and 0 <= p <= 1:
            check("edges", m + p * draws, f"--family {family} would draw about "
                  f"{round(m + p * draws)} edges at {'density' if split else 'p'}={p}")


def _cmd_gen(args) -> tuple[dict, int]:
    from pathlib import Path
    out = Path(args.output)
    extra: dict = {"output": str(out)}
    _admit(args)
    source = _generate(args.family, args)
    if args.family == "intervals":
        out.write_text(write_intervals(source), encoding="utf-8")
        doc_n, doc_m = source.n, intersection_edge_count(source)
    else:
        g, part = source
        _save_edgelist(out, g)
        doc_n, doc_m = g.n, g.m
        if part is not None:
            part_path = Path(str(out) + ".partition")
            part_path.write_text(write_partition(part), encoding="utf-8")
            extra["partition"] = str(part_path)
    doc = {
        "algorithm": "gen",
        "family": args.family,
        "n": doc_n,
        "m": doc_m,
        "seed": args.seed,
        "extra": extra,
    }
    return doc, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call
    of `main`; parsing keeps no state in it. Its `commands` maps each
    subcommand name to that subcommand's parser."""
    parser = _Parser(prog="semidom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("solve", help="solve a semitotal domination instance")
    p.add_argument("--algo", choices=("exact", "interval", "approx"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("edgelist", "intervals"), default="edgelist")
    p.add_argument("--max-nodes", type=int,
                   help=f"exact search node budget (default {DEFAULT_MAX_NODES}); "
                        "exceeding it exits 4")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a vertex set against a domination kind")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("edgelist", "intervals"), default="edgelist")
    p.add_argument("--set", required=True)
    p.add_argument("--kind", choices=sorted(_KINDS), required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="build a gadget graph and its role map")
    p.add_argument("--kind", choices=GADGET_KINDS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--partition")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("check-reduction", help="oracle equality check for a gadget")
    p.add_argument("--kind", choices=GADGET_KINDS, required=True)
    p.add_argument("--input")
    p.add_argument("--partition")
    p.add_argument("--clique", type=int)
    p.add_argument("--ind", type=int)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--size", type=int)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_reduction)

    p = sub.add_parser("gen", help="write a deterministic instance file")
    p.add_argument("--family",
                   choices=NAMED_FAMILIES + ("random", "split", "intervals"),
                   required=True)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--clique", type=int)
    p.add_argument("--ind", type=int)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_gen)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with the same result, output and
    exit. When argv starts with a subcommand, that subcommand's parser takes
    the rest directly: the top-level parser's walk would only forward them."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or --help, or an unknown command
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        doc, code = args.func(args)
    except InfeasibleError as exc:
        _emit({"error": str(exc), "kind": "infeasible"})
        return EXIT_INFEASIBLE
    except SizeCapError as exc:
        _emit({"error": str(exc), "kind": "size-cap"})
        return EXIT_SIZE_CAP
    except (ValueError, OSError, KeyError) as exc:
        _emit({"error": str(exc), "kind": "invalid-input"})
        return EXIT_INVALID_INPUT
    _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
