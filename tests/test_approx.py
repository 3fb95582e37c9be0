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
from semidom.reductions import GadgetKind, build_gadget, extract_solution

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
        inst = SetCoverInstance(universe=(0,), family=((1, (0,)), (2, (0,)), (3, (0,))))
        assert greedy_set_cover(inst) == [1]

    def test_empty_universe(self):
        inst = SetCoverInstance(universe=(), family=())
        assert greedy_set_cover(inst) == []

    def test_uncoverable(self):
        inst = SetCoverInstance(universe=(0, 5), family=((1, (0,)),))
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
            inst = SetCoverInstance(universe=universe, family=tuple(family))
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
        # the greedy alone spends over a second on 20,000 vertices
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


def gadget_route(g):
    """What algo_dom_set returns when no set of at most k vertices dominates
    g: the semitotal approximation on the LN gadget, projected back."""
    go = build_gadget(g, GadgetKind.LN)
    return extract_solution(go, approx_semitotal(go.h))


def assert_matches_enumerator(g, k):
    """algo_dom_set(g, k) is the first dominating set of at most min(k, 4)
    vertices, or the gadget route when there is none; returns whether
    there was one."""
    want = oracles.brute_first_dominating_set(g.n, g.sorted_edges(), min(k, 4))
    assert algo_dom_set(g, k) == (gadget_route(g) if want is None else want), k
    return want is not None


class TestAlgoDomSetAgainstEnumerator:
    def test_seeded_graphs(self):
        rng = SplitMix64(28)
        found = 0
        for _ in range(60):
            n = 1 + rng.randrange(12)
            for p in (0.1, 0.3, 0.5, 0.8):
                g = gen_connected_graph(n, p, rng.next_u64())
                for k in (1, 2, 3, 4, 7):  # 7 is clamped to 4
                    found += assert_matches_enumerator(g, k)
        assert 0 < found < 60 * 4 * 5  # both routes are taken

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_graphs(self, data):
        n = data.draw(st.integers(1, 12))
        # a random tree keeps the graph connected; extra edges on top
        edges = {(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)}
        if n > 1:
            pairs = st.sampled_from(list(itertools.combinations(range(n), 2)))
            edges.update(data.draw(st.lists(pairs, max_size=2 * n)))
        assert_matches_enumerator(Graph(n, sorted(edges)), data.draw(st.integers(1, 6)))

    def test_fewer_vertices_than_k(self):
        for g in (Graph(1), Graph(2, [(0, 1)]), P4, gen_named("complete", 3)):
            for k in range(g.n, 6):
                assert assert_matches_enumerator(g, k)

    def test_budget_at_n160(self):
        # no set of 4 or fewer vertices dominates this graph, so the search
        # rules them all out before the gadget route runs; enumerating those
        # 27 million subsets one by one takes seconds
        g = gen_connected_graph(160, 0.03, 0)
        t0 = time.perf_counter()
        d = algo_dom_set(g, 4)
        assert time.perf_counter() - t0 < 1.0
        assert verify(g, d, DOM).valid


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
        got = "ok", (inst.universe, inst.family)
    want = outcome(oracles.ref_build_semitotal_setcover, n, edges, d)
    assert got == want
    if got[0] == "ok":
        universe, family = want[1]
        assert (outcome(greedy_set_cover, inst)
                == outcome(oracles.ref_greedy_set_cover, universe, family))
    if want_d[0] == "ok":
        dom = want_d[1]
        build = outcome(oracles.ref_build_semitotal_setcover, n, edges, dom)
        if build[0] == "ok":
            t = oracles.ref_greedy_set_cover(*build[1])
            build = "ok", tuple(sorted(set(dom) | set(t)))
        assert outcome(approx_semitotal, g) == build


def assert_cover_matches_reference(universe, family):
    inst = SetCoverInstance(universe=tuple(universe), family=tuple(family))
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
        inst = SetCoverInstance(universe=(0,), family=((-2, (0,)),))
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


def test_path_20000_within_budget():
    # scanning every live owner on every pick takes about 100 s on this path
    g = gen_named("path", 20000)
    t0 = time.perf_counter()
    s = approx_semitotal(g)
    elapsed = time.perf_counter() - t0
    assert len(s) == 10000
    assert verify(g, s, SEMI).valid
    assert elapsed < 5.0, elapsed


class _Probe(int):
    """A mask that logs its owner each time a scan reads its gain."""

    def __new__(cls, mask, owner, log):
        probe = super().__new__(cls, mask)
        probe.owner, probe.log = owner, log
        return probe

    def __and__(self, other):
        self.log.append(self.owner)
        return int(self) & other


def probed(masks):
    """The family (owner, _Probe) of `masks` with owners 0, 1, ..., and the
    log of the owners each scan reads, in order."""
    log: list[int] = []
    return [(o, _Probe(m, o, log)) for o, m in enumerate(masks)], log


class TestGainCap:
    """A scan stops at the first owner whose gain equals the last pick's;
    the picks stay those of the full-scan reference."""

    def test_stop_keeps_the_tail_and_a_pick_below_the_cap_rescans_it(self):
        family, log = probed([0b0000111, 0b0111000, 0b1100000, 0b1000000])
        assert _greedy_cover(0b1111111, family) == [0, 1, 2]
        assert log == [0, 1, 2, 3,  # cap 7: full pass, owner 0 gains 3
                       0, 1,        # owner 1 gains 3 = cap: 2 and 3 kept unscanned
                       1, 2, 3]     # bit 6 is left, no gain reaches 3: a full pass

    def test_ties_on_both_sides_of_a_stop_pick_the_smallest(self):
        masks = [0b111, 0b11 << 3, 0b111 << 5, 0b11 << 8, 0b11 << 10]
        family, log = probed(masks)
        assert _greedy_cover((1 << 12) - 1, family) == [0, 2, 1, 3, 4]
        assert log == [0, 1, 2, 3, 4,  # owners 0 and 2 tie at 3: 0 first
                       0, 1, 2,        # owner 2 reaches the cap 3: stop
                       1, 2, 3, 4,     # 1, 3 and 4 tie at 2 < 3: full pass, 1 first
                       1, 3,           # cap 2: stop at 3, 4 kept unscanned
                       3, 4]
        assert oracles.ref_greedy_set_cover(
            range(12), [(o, [b for b in range(12) if m >> b & 1])
                        for o, m in enumerate(masks)]) == [0, 2, 1, 3, 4]

    def test_uncoverable_after_a_stop_kept_spent_owners(self):
        # bit 4 is in no mask; owners 2 and 3 are spent but kept unscanned
        family, log = probed([0b0011, 0b1100, 0b0010, 0b0001])
        with pytest.raises(ValueError, match="^family does not cover the universe$"):
            _greedy_cover(0b11111, family)
        assert log == [0, 1, 2, 3, 0, 1, 1, 2, 3]

    @given(st.integers(0, 6).flatmap(lambda bits: st.tuples(
        st.just(bits),
        st.lists(st.integers(0, 40), unique=True, max_size=12).map(sorted),
        st.lists(st.integers(0, (1 << bits) - 1), min_size=12, max_size=12))),
        st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_hypothesis_equal_gains_against_reference(self, drawn, extra_bit):
        bits, owners, masks = drawn
        family = list(zip(owners, masks))
        universe = range(bits + extra_bit)  # the extra bit is in no mask
        want = outcome(oracles.ref_greedy_set_cover, universe,
                       [(o, [b for b in range(bits) if m >> b & 1]) for o, m in family])
        assert outcome(_greedy_cover, (1 << len(universe)) - 1, family) == want
