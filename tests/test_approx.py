import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from semidom.approx import (SetCoverInstance, _greedy_cover, algo_dom_set,
                            approx_semitotal, build_semitotal_setcover,
                            greedy_dominating_set, greedy_set_cover)
from semidom.domination import DominationKind, exact_min, verify
from semidom.errors import InfeasibleError
from semidom.generators import SplitMix64, gen_connected_graph, gen_named
from semidom.graph import Graph

import oracles

DOM = DominationKind.DOMINATING
SEMI = DominationKind.SEMITOTAL

STAR3 = gen_named("star", 4)
STAR4 = gen_named("star", 5)
P4 = gen_named("path", 4)
P5 = gen_named("path", 5)
C4 = gen_named("cycle", 4)


class TestGreedyDominatingSet:
    def test_star_center(self):
        assert greedy_dominating_set(STAR3) == (0,)

    def test_p5_tie_break(self):
        assert greedy_dominating_set(P5) == (1, 3)

    def test_ratio_on_seeded_graphs(self):
        rng = SplitMix64(71)
        for _ in range(80):
            n = 2 + rng.randrange(11)
            g = gen_connected_graph(n, 0.3, rng.next_u64())
            d = greedy_dominating_set(g)
            assert verify(g, d, DOM).valid
            bound = (1 + math.log(g.max_degree() + 1)) * len(exact_min(g, DOM))
            assert len(d) <= bound


class TestBuildSetcover:
    def test_star_lonely_center(self):
        inst = build_semitotal_setcover(STAR3, (0,))
        assert inst.universe == (0,)
        assert inst.family == ((1, (0,)), (2, (0,)), (3, (0,)))
        assert inst.max_set_size == 1

    def test_adjacent_dominators_need_nothing(self):
        inst = build_semitotal_setcover(P4, (1, 2))
        assert inst.universe == ()
        assert inst.family == ()

    def test_rejects_non_dominating_input(self):
        with pytest.raises(ValueError):
            build_semitotal_setcover(P4, (0,))

    def test_family_covers_universe_and_respects_degree_bound(self):
        rng = SplitMix64(90)
        for _ in range(60):
            n = 2 + rng.randrange(11)
            g = gen_connected_graph(n, 0.25, rng.next_u64())
            d = greedy_dominating_set(g)
            inst = build_semitotal_setcover(g, d)
            delta = g.max_degree()
            covered = set()
            for owner, members in inst.family:
                assert members, "empty sets must be dropped"
                assert owner not in d
                assert len(members) <= delta * delta
                covered.update(members)
                want = {x for x in inst.universe
                        if 0 < oracles.bfs_all(oracles.adjacency(n, g.edges), owner).get(x, 99) <= 2}
                assert set(members) == want
            assert covered >= set(inst.universe)


class TestGreedySetCover:
    def test_tie_break_smallest_owner(self):
        inst = SetCoverInstance(universe=(0,),
                                family=((1, (0,)), (2, (0,)), (3, (0,))),
                                max_set_size=1)
        assert greedy_set_cover(inst) == [1]

    def test_empty_universe(self):
        inst = SetCoverInstance(universe=(), family=(), max_set_size=0)
        assert greedy_set_cover(inst) == []

    def test_uncoverable(self):
        inst = SetCoverInstance(universe=(0, 5), family=((1, (0,)),), max_set_size=1)
        with pytest.raises(ValueError):
            greedy_set_cover(inst)

    def test_ratio_against_brute_force(self):
        rng = SplitMix64(12)
        for _ in range(60):
            nx = 1 + rng.randrange(8)
            universe = tuple(range(nx))
            nsets = 1 + rng.randrange(12)
            family = []
            for owner in range(100, 100 + nsets):
                members = tuple(sorted(x for x in universe if rng.randrange(2)))
                if members:
                    family.append((owner, members))
            family.append((99, universe))  # keep it coverable
            family.sort()
            p = max(len(s) for _, s in family)
            inst = SetCoverInstance(universe=universe, family=tuple(family),
                                    max_set_size=p)
            chosen = greedy_set_cover(inst)
            sets = {owner: set(s) for owner, s in family}
            assert set().union(*(sets[o] for o in chosen)) >= set(universe)
            opt = oracles.brute_min_cover(universe, [set(s) for _, s in family])
            assert len(chosen) <= (1 + math.log(p)) * opt + 1e-9


class TestApproxSemitotal:
    def test_star_center_plus_leaf(self):
        assert approx_semitotal(STAR4) == (0, 1)

    def test_p4(self):
        assert approx_semitotal(P4) == (1, 2)

    def test_disconnected_graphs(self):
        two_k2 = Graph(4, [(0, 1), (2, 3)])
        assert approx_semitotal(two_k2) == (0, 1, 2, 3) == exact_min(two_k2, SEMI)
        k2_k1 = Graph(3, [(0, 1)])
        with pytest.raises(InfeasibleError, match="isolated vertex 2"):
            approx_semitotal(k2_k1)
        with pytest.raises(InfeasibleError, match="isolated vertex 2"):
            build_semitotal_setcover(k2_k1, (0, 2))
        with pytest.raises(ValueError, match="graph is empty"):
            approx_semitotal(Graph(0))

    def test_isolated_vertices_rejected_before_the_greedy(self):
        # the greedy alone spends more than a minute on 20,000 vertices
        g = Graph(20_000, [(0, 1)])
        t0 = time.perf_counter()
        with pytest.raises(InfeasibleError, match="^isolated vertex 2$"):
            approx_semitotal(g)
        assert time.perf_counter() - t0 < 0.5

    def test_verified_and_within_ratio_on_seeded_graphs(self):
        rng = SplitMix64(44)
        for _ in range(100):
            n = 2 + rng.randrange(11)
            g = gen_connected_graph(n, 0.3, rng.next_u64())
            s = approx_semitotal(g)
            assert verify(g, s, SEMI).valid
            bound = (2 + 3 * math.log(g.max_degree() + 1)) * len(exact_min(g, SEMI))
            assert len(s) <= bound

    def test_deterministic(self):
        g = gen_connected_graph(30, 0.15, 5)
        assert approx_semitotal(g) == approx_semitotal(g)


class TestAlgoDomSet:
    def test_c4_found_exhaustively(self):
        assert algo_dom_set(C4, 2) == (0, 1)

    def test_input_checks(self):
        for g, k, message in ((Graph(0), 2, "graph is empty"),
                              (Graph(2), 2, "graph must be connected"),
                              (Graph(2, [(0, 1)]), 0, "k must be at least 1")):
            with pytest.raises(ValueError, match=rf"^{message}$"):
                algo_dom_set(g, k)

    def test_k2_single_vertex(self):
        assert algo_dom_set(Graph(2, [(0, 1)]), 1) == (0,)

    def test_gadget_route_used_when_k_too_small(self):
        p10 = gen_named("path", 10)  # needs 4 dominators, k=1 forces the gadget
        d = algo_dom_set(p10, 1)
        assert verify(p10, d, DOM).valid

    def test_k_is_clamped(self):
        d = algo_dom_set(P5, 40)
        assert d == exact_min(P5, DOM)

    def test_sound_on_seeded_graphs(self):
        rng = SplitMix64(3)
        for _ in range(50):
            n = 1 + rng.randrange(10)
            g = gen_connected_graph(n, 0.3, rng.next_u64())
            for k in (1, 2):
                assert verify(g, algo_dom_set(g, k), DOM).valid


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except (ValueError, InfeasibleError) as exc:
        return type(exc), str(exc)


def assert_matches_reference(n, edges, d):
    """Both greedy phases, the set-cover build and the whole approximation
    agree with the mask-based reference in tests/oracles.py, errors included."""
    g = Graph(n, edges)
    want_d = outcome(oracles.ref_greedy_dominating_set, n, edges)
    assert outcome(greedy_dominating_set, g) == want_d
    got = outcome(build_semitotal_setcover, g, d)
    if got[0] == "ok":
        inst = got[1]
        got = "ok", (inst.universe, inst.family, inst.max_set_size)
    want = outcome(oracles.ref_build_semitotal_setcover, n, edges, d)
    assert got == want
    if got[0] == "ok":
        universe, family, _ = want[1]
        assert (outcome(greedy_set_cover, inst)
                == outcome(oracles.ref_greedy_set_cover, universe, family))
    if want_d[0] == "ok":
        dom = want_d[1]
        build = outcome(oracles.ref_build_semitotal_setcover, n, edges, dom)
        if build[0] == "ok":
            t = oracles.ref_greedy_set_cover(*build[1][:2])
            build = "ok", tuple(sorted(set(dom) | set(t)))
        assert outcome(approx_semitotal, g) == build


def assert_cover_matches_reference(universe, family):
    inst = SetCoverInstance(universe=tuple(universe), family=tuple(family),
                            max_set_size=max((len(s) for _, s in family), default=0))
    assert (outcome(greedy_set_cover, inst)
            == outcome(oracles.ref_greedy_set_cover, universe, family))


class TestAgainstReference:
    """The greedy of both phases against the parent's mask-based code."""

    def test_seeded_graphs_and_sets(self):
        rng = SplitMix64(606)
        for _ in range(1500):
            n = rng.randrange(14)  # n = 0, isolated vertices, several components
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p]
            d = [v for v in range(n) if rng.random() < rng.random()]
            mode = rng.randrange(5)
            if mode == 0 and n:
                d = list(oracles.ref_greedy_dominating_set(n, edges))
            elif mode == 1:
                d.append(n + rng.randrange(3) if rng.randrange(2) else -1)
            elif mode == 2:
                d.insert(rng.randrange(len(d) + 1), ("1", 1.0, None)[rng.randrange(3)])
            assert_matches_reference(n, edges, d)

    def test_seeded_cover_instances(self):
        rng = SplitMix64(607)
        pool = [0, 1, 2, 3, 4, 5, "a", "b", (1, 2)]
        for _ in range(1500):
            universe = [pool[rng.randrange(len(pool))] for _ in range(rng.randrange(7))]
            family = []
            for _ in range(rng.randrange(7)):
                owner = rng.randrange(6)  # repeats: the last set wins
                size = rng.randrange(5)
                members = tuple(pool[rng.randrange(len(pool))] for _ in range(size))
                family.append((owner, members))  # members may lie outside
            if rng.randrange(3):  # singletons keep most instances coverable
                family += [(6 + i, (x,)) for i, x in enumerate(universe)]
            assert_cover_matches_reference(universe, family)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_graphs_and_sets(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = list(itertools.combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        d = data.draw(st.lists(st.one_of(st.integers(-1, n + 1), st.sampled_from(["0", 2.0]),
                                         st.integers(-1, n + 1).map(oracles.IndexOnly)),
                               max_size=n + 2))
        assert_matches_reference(n, [e for e, k in zip(pairs, keep) if k], d)

    @given(st.lists(st.integers(0, 8), max_size=8),
           st.lists(st.tuples(st.integers(0, 6), st.lists(st.integers(0, 10), max_size=6)),
                    max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_cover_instances(self, universe, family):
        assert_cover_matches_reference(universe, [(o, tuple(s)) for o, s in family])

    def test_negative_owner_is_picked(self):
        # the reference's -1 "no pick" sentinel made such an owner raise
        inst = SetCoverInstance(universe=(0,), family=((-2, (0,)),), max_set_size=1)
        assert greedy_set_cover(inst) == [-2]


def test_setcover_build_scales_on_long_path():
    g = gen_named("path", 12000)
    d = tuple(range(1, 12000, 3))  # every member lonely
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        inst = build_semitotal_setcover(g, d)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.universe) == 4000
    assert elapsed < 2.0, elapsed
    assert peak < 8 * 2**20, peak


class TestAgainstReferenceAtBenchScale:
    """Both greedy phases against the references on the graph-approx
    workload's graphs and on large named families: dropping spent owners
    leaves every pick and tie-break as it was."""

    @pytest.mark.parametrize("g", [
        *(pytest.param(gen_connected_graph(800, 3 / 800, s), id=f"random-800-{s}")
          for s in range(3)),
        pytest.param(gen_named("path", 2000), id="path-2000"),
        pytest.param(gen_named("star", 300), id="star-300"),
        pytest.param(gen_named("complete", 60), id="complete-60"),
    ])
    def test_named_and_bench_graphs(self, g):
        edges = g.sorted_edges()
        assert_matches_reference(g.n, edges, oracles.ref_greedy_dominating_set(g.n, edges))

    def test_owner_spent_while_bits_remain(self):
        # owner 1's only bit goes with owner 0's pick, and bit 2 is left
        family = [(0, 0b011), (1, 0b001)]
        assert _greedy_cover(0b011, family) == [0]
        with pytest.raises(ValueError, match="^family does not cover the universe$"):
            _greedy_cover(0b111, family)
