from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semidom.domination import DominationKind, exact_min, verify
from semidom.errors import InfeasibleError
from semidom.generators import SplitMix64, gen_interval_model
from semidom.graph import connected_components, is_connected
from semidom.intervals import (IntervalModel, canonicalize_intervals,
                               intersection_graph)
from semidom.interval_solver import (SINK, SOURCE, ArcClass, OverlapDigraph,
                                     _components, _window_constrained_path,
                                     build_overlap_digraph, build_split_digraph,
                                     shortest_constrained_path, solve_interval)

import oracles

SEMI = DominationKind.SEMITOTAL

P5_MODEL = IntervalModel(((1, 4), (3, 8), (5, 12), (9, 14), (13, 16)))


def canon(pairs):
    return canonicalize_intervals(IntervalModel(tuple(pairs)))[0]


def bounded_length_pairs(n, rng):
    # start step 1-2 and length 2-7: connected, with long runs of overlaps
    pairs, a = [], 0
    for _ in range(n):
        a += 1 + rng.randrange(2)
        pairs.append((a, a + 2 + rng.randrange(6)))
    return pairs


@st.composite
def small_models(draw):
    """Up to three short runs of intervals on an integer grid, shuffled.

    Small steps and lengths make touching endpoints, shared left endpoints
    and nested intervals common; runs lie far apart, so a model can have
    several components. Endpoints are ints, Fractions or floats.
    """
    scale = draw(st.sampled_from([int, lambda x: Fraction(x, 3), lambda x: x / 4]))
    pairs = []
    for group in range(draw(st.integers(1, 3))):
        a = 40 * group
        for _ in range(draw(st.integers(1, 10))):
            a += draw(st.integers(0, 2))
            pairs.append((scale(a), scale(a + draw(st.integers(1, 7)))))
    return IntervalModel(tuple(draw(st.permutations(pairs))))


def seeded_models():
    """gen_interval_model and bounded-length models from a drawn seed."""
    return st.one_of(
        st.builds(gen_interval_model, st.integers(1, 60), st.integers(0, 2**64 - 1)),
        st.builds(lambda n, seed: IntervalModel(tuple(bounded_length_pairs(n, SplitMix64(seed)))),
                  st.integers(1, 60), st.integers(0, 2**64 - 1)))


@given(st.one_of(small_models(), seeded_models()))
@settings(max_examples=300, deadline=None)
def test_components_match_definitions(m):
    # the sweep's runs, vertices and thresholds against brute force over each
    # component, which pins its same-component test and the suffix minimum
    # it takes across components
    c = canonicalize_intervals(m)[0]
    ivs = c.intervals
    comps = _components(ivs)
    assert ([list(range(start, stop)) for start, stop, *_ in comps]
            == connected_components(intersection_graph(c)))
    inf = float("inf")
    for start, stop, verts, a, f, g, first_end in comps:
        comp = ivs[start:stop]
        assert verts == [k for k in range(start, stop)
                         if not any(aj < ivs[k][0] and ivs[k][1] < bj for aj, bj in comp)]
        assert a == [ivs[k][0] for k in verts]
        for t, k in enumerate(verts):
            b = ivs[k][1]
            later = [bj for aj, bj in comp if aj > b]
            assert f[t] == (min(later) if later else inf)
            assert g[t] == max(bj for aj, bj in comp if aj < b)
        assert first_end == min(b for _, b in comp)
        if len(verts) >= 2:
            # what the window DP relies on: consecutive vertices overlap, and
            # the sink arcs (f = inf) leave a suffix that holds the last vertex
            assert all(ivs[v][0] < ivs[u][1] for u, v in zip(verts, verts[1:]))
            assert f[-1] == inf
            ends = [t for t in range(len(f)) if f[t] == inf]
            assert ends == list(range(ends[0], len(f)))


def assert_window_route_matches_reference(m, d):
    # solve_interval's path routine against the materialized digraphs
    (_, _, verts, a, f, g, first_end), = _components(m.intervals)
    assert (tuple(verts[t] + 1 for t in _window_constrained_path(a, f, g, first_end))
            == shortest_constrained_path(build_split_digraph(d)))


class TestBuildOverlapDigraph:
    def test_p5_model_arcs_match_independent_enumeration(self):
        d = build_overlap_digraph(canonicalize_intervals(P5_MODEL)[0])
        assert d.vertices == (0, 1, 2, 3, 4, 5, 6)
        got = {(i, j): cls.value for i, j, cls in d.arcs}
        assert got == {
            (0, 1): "A2_UNMARKED", (0, 2): "A2_UNMARKED",
            (1, 2): "A1", (2, 3): "A1", (3, 4): "A1", (4, 5): "A1",
            (1, 3): "A2_MARKED", (2, 4): "A2_MARKED", (3, 5): "A2_MARKED",
            (1, 4): "A2_UNMARKED", (2, 5): "A2_UNMARKED",
            (4, 6): "A2_UNMARKED", (5, 6): "A2_UNMARKED",
        }

    def test_two_interval_model_arcs(self):
        d = build_overlap_digraph(canon([(1, 4), (3, 6)]))
        got = {(i, j): cls.value for i, j, cls in d.arcs}
        assert got == {
            (0, 1): "A2_UNMARKED", (0, 2): "A2_UNMARKED",
            (1, 2): "A1",
            (1, 3): "A2_UNMARKED", (2, 3): "A2_UNMARKED",
        }

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_overlap_digraph(IntervalModel(((1, 4), (3, 6))))  # not canonical
        with pytest.raises(ValueError):
            build_overlap_digraph(IntervalModel(((0, 1), (1, 2))))  # touching
        with pytest.raises(ValueError):
            build_overlap_digraph(canon([(0, 1)]))  # too small
        with pytest.raises(ValueError):
            build_overlap_digraph(canon([(0, 9), (1, 2), (3, 4)]))  # container
        with pytest.raises(ValueError):
            build_overlap_digraph(canon([(0, 1), (5, 6)]))  # disconnected

    def test_seeded_models_match_brute_force(self):
        rng = SplitMix64(314)
        checked = 0
        while checked < 150:
            n = 2 + rng.randrange(11)
            m = gen_interval_model(n, rng.next_u64())
            try:
                d = build_overlap_digraph(m)
            except ValueError:  # container or disconnected model, not built
                continue
            verts, arcs = oracles.brute_overlap_arcs(m.intervals)
            assert list(d.vertices) == verts
            assert {(i, j): cls.value for i, j, cls in d.arcs} == arcs
            checked += 1

    def test_structural_invariants_on_seeded_models(self):
        rng = SplitMix64(2718)
        for _ in range(60):
            n = 2 + rng.randrange(10)
            m = gen_interval_model(n, rng.next_u64())
            try:
                d = build_overlap_digraph(m)
            except ValueError:
                continue
            ivs = d.intervals
            sink = d.n + 1
            for i, j, cls in d.arcs:
                assert i < j, "arcs must increase the index"
                ai, bi = ivs[i]
                aj, bj = ivs[j]
                if cls is ArcClass.A1:
                    assert ai < aj < bi < bj
                    assert 0 < i and j < sink
                else:
                    assert bi < aj
                    assert not any(bi < ivs[h][0] and ivs[h][1] < aj
                                   for h in range(len(ivs)))
                if i == 0 or j == sink:
                    assert cls is ArcClass.A2_UNMARKED


def tiny_digraph():
    # one non-sentinel vertex with the two sentinel arcs
    return OverlapDigraph(
        intervals=((-3, -2), (0, 1), (2, 3)),
        vertices=(0, 1, 2),
        arcs=((0, 1, ArcClass.A2_UNMARKED), (1, 2, ArcClass.A2_UNMARKED)),
    )


class TestBuildSplitDigraph:
    def test_single_vertex_digraph(self):
        dp = build_split_digraph(tiny_digraph())
        assert dp.nodes == (SOURCE, ("in", 1), ("out", 1), SINK)
        assert set(dp.arcs) == {
            (SOURCE, ("out", 1), 0),
            (("in", 1), ("out", 1), 0),
            (("in", 1), SINK, 1),
        }

    def test_rule_census_on_seeded_models(self):
        rng = SplitMix64(55)
        for _ in range(60):
            n = 2 + rng.randrange(10)
            m = gen_interval_model(n, rng.next_u64())
            try:
                d = build_overlap_digraph(m)
            except ValueError:
                continue
            dp = build_split_digraph(d)
            inner = len(d.vertices) - 2
            assert len(dp.nodes) == 2 * inner + 2
            sink = d.n + 1
            unit = sum(1 for *_, w in dp.arcs if w == 1)
            expected = sum(1 for i, j, cls in d.arcs
                           if i != 0 and (j == sink or cls is not None))
            assert unit == expected
            zero = sum(1 for *_, w in dp.arcs if w == 0)
            source_arcs = sum(1 for i, _, _ in d.arcs if i == 0)
            assert zero == inner + source_arcs


class TestShortestConstrainedPath:
    def test_p5_model_path(self):
        d = build_overlap_digraph(canonicalize_intervals(P5_MODEL)[0])
        s = shortest_constrained_path(build_split_digraph(d))
        assert s == (2, 4)

    def test_two_interval_path(self):
        d = build_overlap_digraph(canon([(1, 4), (3, 6)]))
        assert shortest_constrained_path(build_split_digraph(d)) == (1, 2)

    def test_no_two_consecutive_unmarked_arcs(self):
        rng = SplitMix64(808)
        for _ in range(80):
            n = 2 + rng.randrange(11)
            m = gen_interval_model(n, rng.next_u64())
            try:
                d = build_overlap_digraph(m)
            except ValueError:
                continue
            s = shortest_constrained_path(build_split_digraph(d))
            classes = {(i, j): cls for i, j, cls in d.arcs}
            walk = [0, *s, d.n + 1]
            kinds = [classes[(walk[t], walk[t + 1])] for t in range(len(walk) - 1)]
            for a, b in zip(kinds, kinds[1:]):
                assert not (a is ArcClass.A2_UNMARKED and b is ArcClass.A2_UNMARKED)


class TestSolveInterval:
    def test_empty_model_rejected(self):
        with pytest.raises(ValueError, match="^empty interval model$"):
            solve_interval(IntervalModel(()))

    def test_container_plus_smallest_other(self):
        assert solve_interval(IntervalModel(((0, 10), (2, 3), (4, 5)))) == (0, 1)

    def test_container_component_takes_smallest_other_id(self):
        # the container component alone gives (0, 1); beside another
        # component it must still pair the container with the smallest id
        assert solve_interval(IntervalModel(((0, 10), (5, 6), (1, 2)))) == (0, 1)
        m = IntervalModel(((0, 10), (5, 6), (1, 2), (20, 22), (21, 23)))
        assert solve_interval(m) == (0, 1, 3, 4)

    def test_p5_model(self):
        s = solve_interval(P5_MODEL)
        assert len(s) == 2
        assert verify(intersection_graph(P5_MODEL), s, SEMI).valid

    def test_singleton_component_infeasible(self):
        # the message names the smallest id left alone, as exact_min's does,
        # not the leftmost singleton
        for pairs, v in ((((0, 1),), 0), (((0, 5), (1, 2), (9, 10)), 2),
                         (((0, 1), (5, 6), (1, 2)), 1),
                         (((20, 21), (0, 1), (5, 6), (1, 2)), 0)):
            with pytest.raises(InfeasibleError, match=rf"^isolated vertex {v}$"):
                solve_interval(IntervalModel(pairs))

    def test_disconnected_components_solved_independently(self):
        m = IntervalModel(((0, 3), (2, 5), (10, 13), (12, 15)))
        s = solve_interval(m)
        assert s == (0, 1, 2, 3)
        assert verify(intersection_graph(m), s, SEMI).valid

    def test_rational_and_unsorted_input(self):
        m = IntervalModel(((7.5, 9.25), (1, 4), (3.5, 8)))
        s = solve_interval(m)
        g = intersection_graph(m)
        assert verify(g, s, SEMI).valid
        assert len(s) == len(exact_min(g, SEMI))

    def test_output_avoids_contained_intervals(self):
        # on a connected model without a universal container, minimum sets
        # never need an interval lying strictly inside another
        rng = SplitMix64(4242)
        checked = 0
        while checked < 80:
            n = 3 + rng.randrange(9)
            m = gen_interval_model(n, rng.next_u64())
            # in a canonical model only the first interval can contain all others
            if m.intervals[0][1] > max(b for _, b in m.intervals[1:]):
                continue
            if not is_connected(intersection_graph(m)):
                continue
            s = solve_interval(m)
            for k in s:
                ak, bk = m.intervals[k]
                assert not any(m.intervals[j][0] < ak and bk < m.intervals[j][1]
                               for j in range(n) if j != k)
            checked += 1

    def test_oracle_equivalence_on_seeded_models(self):
        rng = SplitMix64(616)
        solved = 0
        while solved < 100:
            n = 2 + rng.randrange(11)
            m = gen_interval_model(n, rng.next_u64())
            g = intersection_graph(m)
            try:
                s = solve_interval(m)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError, match=rf"^{exc}$"):
                    exact_min(g, SEMI)
                continue
            assert verify(g, s, SEMI).valid
            assert len(s) == len(exact_min(g, SEMI))
            solved += 1

    def test_union_matches_per_component_answers(self):
        # each component is solved alone on its intervals in union-id order
        rng = SplitMix64(2718)
        for _ in range(60):
            pairs, label = [], []
            while len(set(label)) < 2 + rng.randrange(3):
                n = 2 + rng.randrange(9)
                family = rng.randrange(3)
                if family == 0:
                    part = bounded_length_pairs(n, rng)
                elif family == 1:
                    part = list(gen_interval_model(n, rng.next_u64()).intervals)
                else:  # one interval properly containing all others
                    starts = [1 + rng.randrange(4 * n - 4) for _ in range(n - 1)]
                    part = [(0, 4 * n)] + [(a, a + 1 + rng.randrange(3)) for a in starts]
                if not is_connected(intersection_graph(IntervalModel(tuple(part)))):
                    continue
                shift = max((b for _, b in pairs), default=0) + 5
                lo = min(a for a, _ in part)
                pairs += [(a - lo + shift, b - lo + shift) for a, b in part]
                label += [len(set(label))] * n
            order = rng.sample_without_replacement(len(pairs), len(pairs))
            union = IntervalModel(tuple(pairs[k] for k in order))
            expected = []
            for c in set(label):
                ids = [pos for pos, k in enumerate(order) if label[k] == c]
                sub = IntervalModel(tuple(union.intervals[i] for i in ids))
                expected += [ids[k] for k in solve_interval(sub)]
            assert solve_interval(union) == tuple(sorted(expected))

    def test_deterministic(self):
        m = gen_interval_model(40, 9)
        assert solve_interval(m) == solve_interval(m)

    def test_window_route_matches_reference(self):
        # solve_interval's only path routine against the materialized digraphs
        rng = SplitMix64(11)
        checked = 0
        while checked < 150:
            n = 2 + rng.randrange(100)
            family = rng.randrange(3)
            if family == 0:
                m = gen_interval_model(n, rng.next_u64())
            elif family == 1:
                m = canon([(3 * i, 3 * i + n + (i % 7)) for i in range(n)])
            else:
                m = canon(bounded_length_pairs(n, rng))
            try:
                d = build_overlap_digraph(m)
            except ValueError:  # container or disconnected model
                continue
            assert_window_route_matches_reference(m, d)
            checked += 1

    @given(small_models())
    @settings(max_examples=300, deadline=None)
    def test_window_route_matches_reference_on_hypothesis_models(self, m):
        # touching, nested, Fraction and float intervals, several components
        c = canonicalize_intervals(m)[0]
        for start, stop, verts, *_ in _components(c.intervals):
            if len(verts) < 2:  # an isolated interval or a container
                continue
            sub = canon(c.intervals[start:stop])
            assert_window_route_matches_reference(sub, build_overlap_digraph(sub))

    @given(small_models())
    @settings(max_examples=400, deadline=None)
    def test_hypothesis_models_match_exact_oracle(self, m):
        c, ids = canonicalize_intervals(m)
        assert canonicalize_intervals(c) == (c, tuple(range(m.n)))
        g = intersection_graph(m)
        try:
            s = solve_interval(m)
        except InfeasibleError as exc:
            with pytest.raises(InfeasibleError, match=rf"^{exc}$"):
                exact_min(g, SEMI)
            with pytest.raises(InfeasibleError):
                solve_interval(c)
            return
        # c's answer mapped through ids solves m too; it differs from s only
        # where a container is paired with the smallest other id of m
        mapped = tuple(sorted(ids[k] for k in solve_interval(c)))
        assert len(mapped) == len(s) and verify(g, mapped, SEMI).valid
        # s depends on m only through (c, ids): c's endpoints placed at m's
        # ids canonicalize to the same pair and give the same answer
        ranked = [None] * m.n
        for pos, k in enumerate(ids):
            ranked[k] = c.intervals[pos]
        r = IntervalModel(tuple(ranked))
        assert canonicalize_intervals(r) == (c, ids)
        assert solve_interval(r) == s
        assert verify(g, s, SEMI).valid
        assert len(s) == len(exact_min(g, SEMI))
