"""Semitotal domination toolkit.

Exact oracle, polynomial interval-graph solver, logarithmic-ratio greedy
approximation, and gadget constructions relating semitotal domination to
domination, total domination and vertex cover.

The solvers load with the package. The gadget constructions and the
instance generators load on first use of one of their names, so that
`semidom solve` never loads them.
"""

import importlib

from .approx import (SetCoverInstance, algo_dom_set, approx_semitotal,
                     build_semitotal_setcover, greedy_dominating_set,
                     greedy_set_cover)
from .domination import (DominationKind, VerificationReport, ViolationReason,
                         exact_min, verify, verify_intervals)
from .errors import InfeasibleError, SizeCapError
from .graph import (Graph, SplitPartition, bfs_distance, connected_components,
                    is_connected, neighborhood_within)
from .intervals import IntervalModel, canonicalize_intervals, intersection_graph
from .interval_solver import (ArcClass, OverlapDigraph, SplitDigraph,
                              build_overlap_digraph, build_split_digraph,
                              shortest_constrained_path, solve_interval)

__version__ = "0.1.0"

# exported names served on first use (PEP 562), by the module that defines them
_LAZY = {
    **dict.fromkeys(("SplitMix64", "gen_connected_graph", "gen_interval_model",
                     "gen_named", "gen_split_graph"), "generators"),
    **dict.fromkeys(("GadgetKind", "GadgetOutput", "ReductionReport",
                     "build_gadget", "check_reduction", "extend_solution",
                     "extract_solution", "min_vertex_cover"), "reductions"),
}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _LAZY.values():  # the module itself, as an attribute of the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _LAZY.keys() | set(_LAZY.values()))


__all__ = [
    "ArcClass", "DominationKind", "GadgetKind", "GadgetOutput", "Graph",
    "InfeasibleError", "IntervalModel", "OverlapDigraph", "ReductionReport",
    "SetCoverInstance", "SizeCapError", "SplitDigraph", "SplitMix64",
    "SplitPartition", "VerificationReport", "ViolationReason", "algo_dom_set",
    "approx_semitotal", "bfs_distance", "build_gadget", "build_overlap_digraph",
    "build_semitotal_setcover", "build_split_digraph", "canonicalize_intervals",
    "check_reduction", "connected_components", "exact_min",
    "extend_solution", "extract_solution", "gen_connected_graph",
    "gen_interval_model", "gen_named", "gen_split_graph",
    "greedy_dominating_set", "greedy_set_cover", "intersection_graph",
    "is_connected", "min_vertex_cover", "neighborhood_within",
    "shortest_constrained_path", "solve_interval", "verify", "verify_intervals",
]
