"""Workloads of the semidom benchmark and their seeded instance pools.

Each workload is one `semidom solve` command line and a pool of instance
files built from the run's seed. The program only ever sees the files; the
pool keeps the generated model or graph so the answer checker can judge
each answer from the definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from semidom import SplitMix64, gen_connected_graph, gen_interval_model
from semidom.formats import write_edgelist, write_intervals
from semidom.intervals import IntervalModel


@dataclass(frozen=True)
class Instance:
    """One instance file of a pool.

    `pin` names the instance in `pins.json`; `intervals` holds the interval
    pairs (interval workloads) and `edges` the edge list (graph workloads),
    so the checker never has to trust the program's own parsers.
    """

    pin: str
    n: int
    text: str
    intervals: tuple[tuple[int, int], ...] = ()
    edges: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]
    pool: Callable[[int], list[Instance]]


SMALL_COMPONENTS = (24, 32, 48)


def bounded_length_model(n: int, seed: int) -> IntervalModel:
    """Intervals that start 1-2 units after the previous one and span 2-7 units.

    The first components have SMALL_COMPONENTS intervals, few enough to take
    the solver's small-component route; the rest of the n intervals form one
    large component. The sizes are fixed because the large component's DP
    is quadratic in its size. Components are separated by a gap of at least
    one unit and none is a singleton, so every instance is feasible.
    """
    rng = SplitMix64(seed)
    sizes = [*SMALL_COMPONENTS, n - sum(SMALL_COMPONENTS)]
    if sizes[-1] < 2:
        raise ValueError(f"n={n} too small for the small components")
    pairs = []
    right = 0
    for size in sizes:
        a = right + 1
        for _ in range(size):
            a += 1 + rng.randrange(2)
            b = a + 2 + rng.randrange(6)
            pairs.append((a, b))
            right = max(right, b)
    return IntervalModel(tuple(pairs))


def _instance_seeds(seed: int, count: int) -> list[int]:
    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


def _interval_instance(pin: str, model: IntervalModel) -> Instance:
    return Instance(pin=pin, n=model.n, text=write_intervals(model),
                    intervals=tuple(model.intervals))


def _graph_instance(pin: str, g) -> Instance:
    return Instance(pin=pin, n=g.n, text=write_edgelist(g),
                    edges=tuple(g.sorted_edges()))


# Pool sizes are odd: a run makes whole passes, so every instance is sent
# equally often, and with an odd count the median request falls inside the
# middle instance's times rather than in the gap between two instances.
SPARSE_N, SPARSE_POOL = 1200, 7
DENSE_N, DENSE_POOL = 500, 7
APPROX_N, APPROX_POOL = 800, 7
EXACT_N, EXACT_P, EXACT_POOL = 30, 0.08, 39


def sparse_pool(seed: int) -> list[Instance]:
    return [_interval_instance(f"{seed}/{i}", bounded_length_model(SPARSE_N, s))
            for i, s in enumerate(_instance_seeds(seed, SPARSE_POOL))]


def dense_pool(seed: int) -> list[Instance]:
    return [_interval_instance(f"{seed}/{i}", gen_interval_model(DENSE_N, s))
            for i, s in enumerate(_instance_seeds(seed, DENSE_POOL))]


def approx_pool(seed: int) -> list[Instance]:
    return [_graph_instance(f"{seed}/{i}", gen_connected_graph(APPROX_N, 3 / APPROX_N, s))
            for i, s in enumerate(_instance_seeds(seed, APPROX_POOL))]


def exact_pool(seed: int) -> list[Instance]:
    """The same 39 graphs for every seed; the seed only picks where the loop starts.

    Exact-search time per graph is heavy-tailed (a few ms to about 0.5 s),
    so a pool drawn from the run seed would move the medians by more than
    any bound.
    """
    del seed
    return [_graph_instance(f"g{s}", gen_connected_graph(EXACT_N, EXACT_P, s))
            for s in range(EXACT_POOL)]


_INTERVALS = ("solve", "--algo", "interval", "--format", "intervals")

WORKLOADS = {w.name: w for w in (
    Workload("interval-sparse",
             "bounded-length intervals, n=1200: about 800 non-contained "
             "intervals run the O(k^2) DP while m is only about 3n",
             _INTERVALS, sparse_pool),
    Workload("interval-dense",
             "gen_interval_model(500): nearly complete graph, so edge building "
             "and bitmask verify dominate and the DP is bypassed",
             _INTERVALS, dense_pool),
    Workload("graph-approx",
             "gen_connected_graph(800, 3/n): greedy rescans dominate; "
             "interval layers are bypassed",
             ("solve", "--algo", "approx"), approx_pool),
    Workload("graph-exact",
             "gen_connected_graph(30, 0.08) over a fixed 39-graph pool: "
             "exact_min takes nearly all the time",
             ("solve", "--algo", "exact"), exact_pool),
)}


def write_pool(pool: list[Instance], directory: Path) -> list[Path]:
    """Write each instance to its own file; return the paths in pool order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, inst in enumerate(pool):
        path = directory / f"{i:03d}.txt"
        path.write_text(inst.text, encoding="utf-8")
        paths.append(path)
    return paths
