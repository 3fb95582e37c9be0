import copy
import itertools
import math
import pickle
import random
import tracemalloc
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semidom.graph import (Graph, SplitPartition, bfs_distance, check_vertex_set,
                           closed_masks, connected_components, distance2_masks,
                           is_connected, neighborhood_within, open_masks)
from semidom.intervals import (IntervalModel, canonicalize_intervals,
                               intersection_edge_count, intersection_graph)
from semidom.generators import SplitMix64, gen_interval_model

import oracles

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

    def test_not_equal_to_a_non_graph(self):
        assert (Graph(1) == 1) is False

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

    @pytest.mark.parametrize("g", [Graph(0), Graph(3), C4, TWO_EDGES,
                                   intersection_graph(gen_interval_model(40, 3))])
    def test_pickle_and_copy_round_trip(self, g):
        g.edges  # a cached edge set travels as the edges it holds
        clones = [pickle.loads(pickle.dumps(g, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones + [copy.copy(g), copy.deepcopy(g)]:
            assert type(clone) is Graph and clone is not g and clone == g
            assert (clone.n, clone.m, clone.edges) == (g.n, g.m, g.edges)
            assert [clone.neighbors(v) for v in range(g.n)] == [g.neighbors(v)
                                                                for v in range(g.n)]


Edge = namedtuple("Edge", "u v")


class IndexFraction(Fraction):
    """A non-int vertex id that indexes a list, as numpy's integers do."""

    def __index__(self):
        return int(self)


def _outcome(build):
    """("ok", value) or ("error", exception type, message)."""
    try:
        return ("ok", build())
    except (TypeError, ValueError) as exc:
        return ("error", type(exc), str(exc))


def _same_as_reference(n, make_edges):
    """Graph(n, make_edges()) agrees with the edge-by-edge reference on
    every field, query and error; make_edges returns a fresh input."""
    ref = _outcome(lambda: oracles.ref_graph(n, make_edges()))
    got = _outcome(lambda: Graph(n, make_edges()))
    if ref[0] == "error":
        assert got == ref
        return
    assert got[0] == "ok", got
    m, edges, rows = ref[1]
    g = got[1]
    assert (g.n, g.m) == (n, m)
    assert g.edges == edges
    assert ({(e, type(e), type(e[0]), type(e[1])) for e in g.edges}
            == {(e, type(e), type(e[0]), type(e[1])) for e in edges})
    assert g.sorted_edges() == sorted(edges)
    assert [g.neighbors(v) for v in range(n)] == list(rows)
    assert [g.degree(v) for v in range(n)] == [len(r) for r in rows]
    for u, v in itertools.product(range(-1, n + 1), repeat=2):
        assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
    twin = Graph(n, sorted(edges, reverse=True))
    assert g == twin and hash(g) == hash(twin)
    assert g != Graph(n + 1, edges)
    if edges:
        fewer = Graph(n, sorted(edges)[1:])
        assert g != fewer and fewer != g


def _random_edge_input(rng):
    """(n, make_edges) with mixed edge shapes, containers and faults."""
    n = rng.randrange(8)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    items = [(v, u) if rng.random() < 0.3 else (u, v)
             for u, v in pairs[:rng.randrange(len(pairs) + 1)]]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        w = rng.randrange(max(n, 1))
        fault = rng.choice(("loop", "range", "dup", "short", "long"))
        if fault == "loop":
            bad = (w, w)
        elif fault == "range":
            bad = (rng.choice((-1, n, n + 1)), w)[::rng.choice((1, -1))]
        elif fault == "short":
            bad = (w,)
        elif fault == "long" or not items:
            bad = (w, w + 1, 0)
        else:  # a repeat of an earlier or later edge, maybe reversed
            bad = rng.choice(items)[::rng.choice((1, -1))]
        items.insert(rng.randrange(len(items) + 1), bad)
    shapes = [rng.choice((tuple, list, Edge._make)) if len(e) == 2 else tuple
              for e in items]
    container = rng.choice(("list", "tuple", "generator"))

    def make_edges():
        out = [shape(e) for shape, e in zip(shapes, items)]
        if container == "tuple":
            return tuple(out)
        return iter(out) if container == "generator" else out
    return n, make_edges


class TestGraphAgainstReference:
    def test_seeded_inputs(self):
        rng = random.Random(20171)
        for _ in range(3000):
            _same_as_reference(*_random_edge_input(rng))

    def test_named_cases(self):
        cases = [
            (-1, []),
            (0, []),
            (0, [(0, 1)]),
            (3, [[1, 0], Edge(2, 1)]),
            (4, [(0, 1), (0, 1), (9, 9)]),    # duplicate before a range fault
            (4, [(0, 1), (1, 0), (2,)]),      # duplicate before a short edge
            (4, [(0, 1), [1, 0], (1, 2, 3)]),  # duplicate before a long edge
            (4, [(2,), (0, 1), (0, 1)]),      # short edge before a duplicate
            (4, [(3, 3), (0, 1), (0, 1)]),    # self-loop before a duplicate
            (4, [(0, 1), (1, 2), 5]),         # an edge that is not a pair
            (4, [(0, 4)]),
            (4, [(-1, 2)]),
            (4, [Edge(3, 2), Edge(2, 3)]),
            (3, [(0, 1.5)]),                  # a non-integer id is a ValueError
            (3, [(0.0, 1)]),
            (3, [(0, "1")]),
            (3, [(0, 7.5)]),                  # the type is judged before the range
            (3, [(0, 1), (Fraction(1), 2)]),
            (3, [(IndexFraction(0), 1), (0, 5)]),  # an __index__ type is an integer
        ]
        for n, edges in cases:
            _same_as_reference(n, lambda: list(edges))
            _same_as_reference(n, lambda: (e for e in edges))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6),
           st.lists(st.one_of(st.tuples(st.integers(-1, 7), st.integers(-1, 7)),
                              st.lists(st.integers(-1, 7), min_size=1, max_size=3),
                              st.integers(0, 3)),
                    max_size=12),
           st.booleans())
    def test_hypothesis_inputs(self, n, items, one_shot):
        _same_as_reference(n, lambda: iter(items) if one_shot else list(items))

    def test_inconsistent_second_pass_still_raises(self):
        class Flaky:  # repeats an edge only on the first full pass
            repeated = False

            def __iter__(self):
                yield (0, 1)
                if not self.repeated:
                    self.repeated = True
                    yield (1, 0)
        with pytest.raises(ValueError, match=r"^duplicate edge at vertex 0$"):
            Graph(2, Flaky())


def test_complete_graph_construction_memory():
    n = 600
    edges = list(itertools.combinations(range(n), 2))
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    assert retained < 5 * 2**20, retained
    assert g.m == len(edges) and g.edges == set(edges)


def _same_intersection_graph(m):
    """intersection_graph(m) equals the edge-list reference in every field,
    row and query."""
    ref = oracles.ref_intersection_graph(m)
    g = intersection_graph(m)
    n = m.n
    assert g == ref and hash(g) == hash(ref)
    assert (g.n, g.m) == (ref.n, ref.m) == (n, len(ref.edges))
    assert g.edges == ref.edges
    assert g.sorted_edges() == ref.sorted_edges()
    for v in range(n):
        row = g.neighbors(v)
        assert type(row) is tuple and row == ref.neighbors(v)
    for u, v in itertools.product(range(-1, n + 1), repeat=2):
        assert g.has_edge(u, v) == ref.has_edge(u, v)
    assert intersection_edge_count(m) == ref.m
    return g


@st.composite
def interval_models(draw):
    """Unsorted intervals on a small grid, so touching endpoints, identical
    and nested intervals are common; runs far apart make several components.
    Endpoints are ints, Fractions or floats."""
    scale = draw(st.sampled_from([int, lambda x: Fraction(x, 3), lambda x: x / 4]))
    pairs = []
    for run in range(draw(st.integers(1, 3))):
        a = 100 * run
        for _ in range(draw(st.integers(0, 10))):
            a += draw(st.integers(0, 2))
            pairs.append((scale(a), scale(a + draw(st.integers(1, 7)))))
    return IntervalModel(tuple(draw(st.permutations(pairs))))


@st.composite
def mixed_interval_models(draw):
    """Like `interval_models`, but every endpoint, a multiple of 1/4, picks
    its own type, so one model compares ints, Fractions and floats."""
    def endpoint(quarters):
        forms = [Fraction(quarters, 4), quarters / 4]
        if quarters % 4 == 0:
            forms.append(quarters // 4)
        return draw(st.sampled_from(forms))

    pairs = []
    a = 0
    for _ in range(draw(st.integers(0, 14))):
        a += draw(st.integers(0, 6))
        pairs.append((endpoint(a), endpoint(a + draw(st.integers(1, 24)))))
    return IntervalModel(tuple(draw(st.permutations(pairs))))


class TestIntersectionGraphAgainstReference:
    def test_named_models(self):
        cases = {
            "empty": [],
            "single": [(0, 1)],
            "touching": [(0, 1), (1, 2), (2, 3)],
            "identical": [(0, 2), (0, 2), (0, 2)],
            "nested": [(0, 10), (2, 3), (4, 5), (2, 9)],
            "fractions": [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), 1)],
            "floats": [(0.5, 1.5), (1.5, 2.25), (2.5, 3.0)],
            "unsorted": [(7, 9), (0, 3), (5, 8), (2, 6)],
            "components": [(20, 21), (0, 2), (10, 12), (1, 3), (11, 13)],
        }
        edge_counts = {name: _same_intersection_graph(IntervalModel(tuple(pairs))).m
                       for name, pairs in cases.items()}
        assert edge_counts == {"empty": 0, "single": 0, "touching": 2, "identical": 3,
                               "nested": 5, "fractions": 1, "floats": 1,
                               "unsorted": 3, "components": 2}

    def test_seeded_models(self):
        for n in range(1, 41):
            _same_intersection_graph(gen_interval_model(n, n))

    @settings(max_examples=200, deadline=None)
    @given(interval_models())
    def test_hypothesis_models(self, m):
        _same_intersection_graph(m)

    @settings(max_examples=200, deadline=None)
    @given(mixed_interval_models())
    def test_edge_count_on_mixed_endpoint_types(self, m):
        assert intersection_edge_count(m) == oracles.ref_intersection_graph(m).m

    def test_edge_count_without_the_graph(self):
        m = gen_interval_model(2000, 0)
        tracemalloc.start()
        try:
            count = intersection_edge_count(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert count == 1_339_007


def test_intersection_graph_construction_memory():
    m = gen_interval_model(500, 3)
    tracemalloc.start()
    try:
        g = intersection_graph(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak
    assert g == oracles.ref_intersection_graph(m)


class TestCheckVertexSet:
    def test_rejects_non_integer_ids(self):
        with pytest.raises(ValueError, match=r"^vertex id 1\.0 is not an integer$"):
            check_vertex_set(Graph(3), [1.0])
        # the first non-integer in input order, before any range check
        with pytest.raises(ValueError, match=r"^vertex id None is not an integer$"):
            check_vertex_set(P4, [7, None, "a"])
        with pytest.raises(ValueError, match=r"^vertex 7 out of range for n=4$"):
            check_vertex_set(P4, [9, 7, 1])

    def test_index_ids_are_integers(self):
        # the ids Graph's edges accept, returned as plain ints
        got = check_vertex_set(P4, [oracles.IndexOnly(2), 0, oracles.IndexOnly(0)])
        assert got == (0, 2) and all(type(v) is int for v in got)
        with pytest.raises(ValueError, match=r"^vertex 7 out of range for n=4$"):
            check_vertex_set(P4, [oracles.IndexOnly(7)])
        with pytest.raises(ValueError, match=r"^vertex id None is not an integer$"):
            check_vertex_set(P4, [oracles.IndexOnly(1), None])


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

    def test_first_invalid_vertex_is_named(self):
        with pytest.raises(ValueError, match="vertex 7 out of range"):
            bfs_distance(P4, 7, 9)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, g):
        adj = oracles.adjacency(g.n, g.edges)
        for u in range(g.n):
            dist = oracles.bfs_all(adj, u)
            assert [bfs_distance(g, u, v) for v in range(g.n)] == [
                dist.get(v, math.inf) for v in range(g.n)]

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

    def test_vertex_is_checked_before_radius(self):
        with pytest.raises(ValueError, match="vertex 9 out of range"):
            neighborhood_within(P5, 9, -1)

    @given(graphs())
    @settings(max_examples=100, deadline=None)
    def test_radius1_is_closed_neighborhood(self, g):
        for v in range(g.n):
            assert neighborhood_within(g, v, 1) == tuple(sorted({v, *g.neighbors(v)}))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs(self, g):
        adj = oracles.adjacency(g.n, g.edges)
        for v in range(g.n):
            dist = oracles.bfs_all(adj, v)
            for r in (0, 1, 2, 3):
                want = tuple(sorted(u for u, d in dist.items() if d <= r))
                assert neighborhood_within(g, v, r) == want

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_masks_match_neighborhoods(self, g):
        def mask(vs):
            return sum(1 << u for u in vs)
        closed, opened, dist2 = closed_masks(g), open_masks(g), distance2_masks(g)
        for v in range(g.n):
            assert closed[v] == mask(neighborhood_within(g, v, 1))
            assert opened[v] == mask(g.neighbors(v))
            assert dist2[v] == mask(neighborhood_within(g, v, 2)) & ~(1 << v)


class TestIsConnected:
    def test_cycle(self):
        assert is_connected(C4)

    def test_two_components(self):
        assert not is_connected(TWO_EDGES)

    def test_single_vertex(self):
        assert is_connected(Graph(1))

    def test_empty_graph(self):
        assert is_connected(Graph(0))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, g):
        reached = oracles.bfs_all(oracles.adjacency(g.n, g.edges), 0)
        assert is_connected(g) == (len(reached) == g.n)

    def test_components(self):
        assert connected_components(TWO_EDGES) == [[0, 1], [2, 3]]

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_components_match_bfs(self, g):
        comps = connected_components(g)
        assert sorted(v for c in comps for v in c) == list(range(g.n))
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        for c in comps:
            assert c == [u for u in range(g.n) if bfs_distance(g, c[0], u) < math.inf]


class TestCanonicalize:
    def test_already_distinct_keeps_overlap(self):
        m = IntervalModel(((1, 4), (3, 6)))
        c, ids = canonicalize_intervals(m)
        assert canonicalize_intervals(c) == (c, (0, 1))
        assert intersection_graph(c).edges == intersection_graph(m).edges

    def test_shared_endpoint_counts_as_intersection(self):
        m = IntervalModel(((1, 2), (2, 3)))
        assert intersection_graph(m).has_edge(0, 1)
        c, _ = canonicalize_intervals(m)
        a0, b0 = c.intervals[0]
        a1, b1 = c.intervals[1]
        assert a1 < b0, "touching closed intervals must stay intersecting"
        assert intersection_graph(c).has_edge(0, 1)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            IntervalModel(((5, 5), (1, 2)))
        # NaN compares false both ways, so it must fail `a < b`, not pass `a >= b`
        with pytest.raises(ValueError, match="degenerate interval 1"):
            IntervalModel(((1, 4), (0, float("nan")), (0, 1)))

    def test_endpoints_are_distinct_sorted_integers(self):
        m = IntervalModel(((Fraction(1, 2), Fraction(3, 2)), (1, 4), (0.25, 9.5)))
        c, _ = canonicalize_intervals(m)
        endpoints = [x for iv in c.intervals for x in iv]
        assert all(isinstance(x, int) for x in endpoints)
        assert len(set(endpoints)) == 2 * c.n
        assert sorted(iv[0] for iv in c.intervals) == [iv[0] for iv in c.intervals]

    def test_permutation_maps_edges_exactly(self):
        m = IntervalModel(((5, 9), (1, 6), (8, 12)))
        c, ids = canonicalize_intervals(m)
        assert ids == (1, 0, 2)
        mapped = {tuple(sorted((ids[u], ids[v])))
                  for u, v in intersection_graph(c).edges}
        assert mapped == set(intersection_graph(m).edges)

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
            c, ids = canonicalize_intervals(m)
            mapped = {tuple(sorted((ids[u], ids[v])))
                      for u, v in intersection_graph(c).edges}
            assert mapped == set(intersection_graph(m).edges), (trial, pairs)


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
