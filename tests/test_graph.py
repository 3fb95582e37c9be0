import itertools
import math
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semidom.graph import (Graph, SplitPartition, bfs_distance, check_vertex_set,
                           connected_components, is_connected, neighborhood_within)
from semidom.intervals import (IntervalModel, canonicalize_intervals,
                               intersection_graph)
from semidom.generators import SplitMix64

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
TWO_EDGES = Graph(4, [(0, 1), (2, 3)])


@st.composite
def graphs(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_duplicate_error_comes_before_a_later_self_loop(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(3, [(0, 1), (0, 1), (2, 2)])

    def test_edges_are_stored_as_plain_normalized_tuples(self):
        Edge = namedtuple("Edge", "u v")
        g = Graph(4, [[1, 0], Edge(1, 2), Edge(3, 2), (0, 3)])
        assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert all(type(e) is tuple for e in g.edges)

    def test_adjacency_is_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 0), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)
        for u, v in g.edges:
            assert u in g.neighbors(v) and v in g.neighbors(u)


class TestCheckVertexSet:
    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match=r"^vertex id 1\.0 is not an integer$"):
            check_vertex_set(Graph(3), [1.0])
        # the first non-integer in input order, before any range check
        with pytest.raises(ValueError, match=r"^vertex id None is not an integer$"):
            check_vertex_set(P4, [7, None, "a"])
        with pytest.raises(ValueError, match=r"^vertex 7 out of range for n=4$"):
            check_vertex_set(P4, [9, 7, 1])


class TestBfsDistance:
    def test_path_endpoints(self):
        assert bfs_distance(P4, 0, 3) == 3

    def test_identity(self):
        assert bfs_distance(C4, 2, 2) == 0

    def test_disconnected_is_infinite(self):
        assert bfs_distance(TWO_EDGES, 0, 2) == math.inf

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            bfs_distance(P4, 0, 7)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_triangle_inequality(self, g):
        for u in range(g.n):
            for v in range(u, g.n):
                assert bfs_distance(g, u, v) == bfs_distance(g, v, u)
        for u, v, w in itertools.combinations(range(g.n), 3):
            duv, dvw, duw = (bfs_distance(g, u, v), bfs_distance(g, v, w),
                             bfs_distance(g, u, w))
            if duv < math.inf and dvw < math.inf:
                assert duw <= duv + dvw


class TestNeighborhoodWithin:
    def test_c4_radius2_is_everything(self):
        assert neighborhood_within(C4, 0, 2) == (0, 1, 2, 3)

    def test_radius0_is_self(self):
        assert neighborhood_within(P5, 3, 0) == (3,)

    def test_p5_radius2(self):
        assert neighborhood_within(P5, 0, 2) == (0, 1, 2)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            neighborhood_within(P5, 0, -1)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_radius1_is_closed_neighborhood(self, g):
        for v in range(g.n):
            assert neighborhood_within(g, v, 1) == tuple(sorted({v, *g.neighbors(v)}))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs(self, g):
        for v in range(g.n):
            for r in (0, 1, 2, 3):
                want = tuple(u for u in range(g.n) if bfs_distance(g, v, u) <= r)
                assert neighborhood_within(g, v, r) == want


class TestIsConnected:
    def test_cycle(self):
        assert is_connected(C4)

    def test_two_components(self):
        assert not is_connected(TWO_EDGES)

    def test_single_vertex(self):
        assert is_connected(Graph(1))

    def test_components(self):
        assert connected_components(TWO_EDGES) == [[0, 1], [2, 3]]


class TestCanonicalize:
    def test_already_distinct_keeps_overlap(self):
        m = IntervalModel(((1, 4), (3, 6)))
        c = canonicalize_intervals(m)
        assert c.canonical
        assert intersection_graph(c).edges == intersection_graph(m).edges

    def test_shared_endpoint_counts_as_intersection(self):
        m = IntervalModel(((1, 2), (2, 3)))
        assert intersection_graph(m).has_edge(0, 1)
        c = canonicalize_intervals(m)
        a0, b0 = c.intervals[0]
        a1, b1 = c.intervals[1]
        assert a1 < b0, "touching closed intervals must stay intersecting"
        assert intersection_graph(c).has_edge(0, 1)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalModel(((5, 5), (1, 2)))

    def test_endpoints_are_distinct_sorted_integers(self):
        m = IntervalModel(((Fraction(1, 2), Fraction(3, 2)), (1, 4), (0.25, 9.5)))
        c = canonicalize_intervals(m)
        endpoints = [x for iv in c.intervals for x in iv]
        assert all(isinstance(x, int) for x in endpoints)
        assert len(set(endpoints)) == 2 * c.n
        assert sorted(iv[0] for iv in c.intervals) == [iv[0] for iv in c.intervals]

    def test_permutation_maps_edges_exactly(self):
        m = IntervalModel(((5, 9), (1, 6), (8, 12)))
        c = canonicalize_intervals(m)
        raw_edges = {tuple(sorted((c.perm[u], c.perm[v])))
                     for u, v in intersection_graph(m).edges}
        assert raw_edges == set(intersection_graph(c).edges)

    def test_200_seeded_models_preserve_intersection_graph(self):
        rng = SplitMix64(2024)
        for trial in range(200):
            n = 1 + rng.randrange(30)
            pairs = []
            for _ in range(n):
                a = rng.randrange(50)
                b = a + 1 + rng.randrange(20)
                if rng.randrange(2):
                    pairs.append((Fraction(a, 2), Fraction(b, 2)))
                else:
                    pairs.append((a, b))
            m = IntervalModel(tuple(pairs))
            c = canonicalize_intervals(m)
            mapped = {tuple(sorted((c.perm[u], c.perm[v])))
                      for u, v in intersection_graph(m).edges}
            assert mapped == set(intersection_graph(c).edges), (trial, pairs)


class TestSplitPartition:
    def test_valid_partition(self):
        g = Graph(3, [(0, 1), (0, 2)])
        SplitPartition(clique=(0, 1), independent=(2,)).validate(g)

    def test_rejects_edge_inside_independent(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            SplitPartition(clique=(0,), independent=(1, 2)).validate(g)

    def test_rejects_non_clique(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            SplitPartition(clique=(0, 1, 2), independent=()).validate(g)

    def test_rejects_uncovered_vertex(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            SplitPartition(clique=(0, 1), independent=()).validate(g)
