import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from semidom.domination import (_MAX_MEMBERS, DominationKind, ViolationReason,
                                _search, exact_min, verify)
from semidom.errors import InfeasibleError, SizeCapError
from semidom.generators import (SplitMix64, gen_connected_graph, gen_named,
                                gen_split_graph)
from semidom.graph import Graph
from semidom.intervals import IntervalModel, intersection_graph
from semidom.reductions import GadgetKind, build_gadget

import oracles

DOM = DominationKind.DOMINATING
TOT = DominationKind.TOTAL
SEMI = DominationKind.SEMITOTAL

P4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
P5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
STAR = Graph(4, [(0, 1), (0, 2), (0, 3)])  # K_{1,3}, centre 0


class TestVerify:
    def test_p4_adjacent_pair_is_semitotal(self):
        assert verify(P4, (1, 2), SEMI).valid

    def test_c4_singleton_lacks_partner(self):
        report = verify(C4, (0,), SEMI)
        assert not report.valid
        assert (0, ViolationReason.NO_PARTNER_WITHIN_2) in report.violations
        assert (2, ViolationReason.UNDOMINATED) in report.violations

    def test_gp4_of_k2_pendant_pairs_are_semitotal(self):
        go = build_gadget(Graph(2, [(0, 1)]), GadgetKind.GP4)
        s = go.vertices_with_tag("w") + go.vertices_with_tag("y")
        assert verify(go.h, s, SEMI).valid

    def test_total_reason(self):
        report = verify(P4, (1,), TOT)
        assert not report.valid
        assert (1, ViolationReason.NOT_TOTALLY_DOMINATED) in report.violations
        assert (3, ViolationReason.NOT_TOTALLY_DOMINATED) in report.violations

    def test_members_do_not_need_domination(self):
        assert verify(P4, (0, 3), DOM).valid

    def test_out_of_range_member(self):
        # the message names the smallest bad id
        with pytest.raises(ValueError, match=r"^vertex 9 out of range for n=4$"):
            verify(P4, (9,), DOM)
        with pytest.raises(ValueError, match=r"^vertex -1 out of range for n=4$"):
            verify(P4, (2, 9, -1), SEMI)
        with pytest.raises(ValueError, match=r"^vertex 4 out of range for n=4$"):
            verify(P4, (4, 0), TOT)
        with pytest.raises(ValueError, match=r"^vertex 0 out of range for n=0$"):
            verify(Graph(0), (0,), DOM)

    def test_non_integer_member(self):
        with pytest.raises(ValueError, match=r"^vertex id 1\.0 is not an integer$"):
            verify(Graph(3), [1.0], DOM)
        with pytest.raises(ValueError, match=r"^vertex id '2' is not an integer$"):
            verify(P4, (0, "2", 9), SEMI)

    def test_index_member_is_an_integer(self):
        # an id with __index__, as numpy's integers have, is an integer
        assert verify(P4, [oracles.IndexOnly(1), oracles.IndexOnly(2)], SEMI).valid
        assert verify(P4, [oracles.IndexOnly(0)], SEMI) == verify(P4, [0], SEMI)

    def test_unknown_kind_rejected(self):
        # read as DOMINATING, a string or None would pass the centre of
        # K_{1,3} alone
        assert not verify(STAR, [0], SEMI).valid
        for kind in ("semitotal", None):
            with pytest.raises(ValueError, match=rf"^unknown domination kind {kind!r}$"):
                verify(STAR, [0], kind)

    def test_violations_enumerate_every_failure(self):
        report = verify(P5, (2,), SEMI)
        failing = {v for v, _ in report.violations}
        assert failing == {0, 2, 4}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_definition_on_random_subsets(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if data.draw(st.booleans())]
        members = sorted({v for v in range(n) if data.draw(st.booleans())})
        g = Graph(n, edges)
        for kind, name in ((DOM, "dominating"), (TOT, "total"), (SEMI, "semitotal")):
            report = verify(g, members, kind)
            assert report.valid == oracles.is_valid_set(n, edges, members, name)
            assert report.valid == (not report.violations)


KINDS = ((DOM, "dominating"), (TOT, "total"), (SEMI, "semitotal"))


def assert_report_matches_oracle(g, s):
    edges = g.sorted_edges()
    for kind, name in KINDS:
        report = verify(g, s, kind)
        got = [(v, reason.value) for v, reason in report.violations]
        assert got == oracles.violations(g.n, edges, s, name), (g.n, edges, s, name)
        assert report.valid == (not got)


def bounded_length_model_graph(n, rng):
    # start steps 0-3 and lengths 1-5: touching endpoints, nesting and gaps
    # that leave isolated intervals and several components
    pairs, a = [], 0
    for _ in range(n):
        a += rng.randrange(4)
        pairs.append((a, a + 1 + rng.randrange(5)))
    return intersection_graph(IntervalModel(tuple(pairs)))


class TestVerifyReports:
    """Full violation lists, in order, against the definition-level oracle."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_graphs(self, data):
        n = data.draw(st.integers(1, 12))
        pairs = list(itertools.combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [e for e, k in zip(pairs, keep) if k])
        s = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
        assert_report_matches_oracle(g, s)

    def test_seeded_interval_graphs(self):
        rng = SplitMix64(404)
        for _ in range(150):
            n = 1 + rng.randrange(40)
            g = bounded_length_model_graph(n, rng)
            density = rng.random()
            s = [v for v in range(n) if rng.random() < density]
            assert_report_matches_oracle(g, s)

    def test_edge_cases(self):
        isolated = Graph(5, [(0, 1), (1, 2)])  # 3 and 4 are isolated
        for g, s in ((P4, ()), (isolated, ()), (isolated, (1,)), (isolated, (0, 1, 3)),
                     (isolated, (4, 1, 4, 1, 3)), (isolated, range(5)), (C4, (0, 0, 0)),
                     (C4, (0, 0, 2, 2)), (Graph(1), ()), (Graph(1), (0,)), (Graph(0), ())):
            assert_report_matches_oracle(g, s)

    def test_memory_is_linear_on_a_long_path(self):
        # members 0, 3, ..., 29997 sit 3 apart, so none has a partner, and
        # only vertex 29999 is undominated; n-bit mask tables would take ~175 MB
        n = 30_000
        g = Graph(n, [(v, v + 1) for v in range(n - 1)])
        tracemalloc.start()
        try:
            report = verify(g, range(0, n, 3), SEMI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert len(report.violations) == n // 3 + 1
        assert report.violations[-2:] == ((29997, ViolationReason.NO_PARTNER_WITHIN_2),
                                          (29999, ViolationReason.UNDOMINATED))


class TestExactMin:
    def test_c4_semitotal_size(self):
        assert len(exact_min(C4, SEMI)) == 2

    def test_p5_hierarchy_values(self):
        assert len(exact_min(P5, DOM)) == 2
        assert len(exact_min(P5, SEMI)) == 2
        assert len(exact_min(P5, TOT)) == 3

    def test_gp4_of_k2_semitotal_is_two_fifths(self):
        go = build_gadget(Graph(2, [(0, 1)]), GadgetKind.GP4)
        assert len(exact_min(go.h, SEMI)) == 4 == 2 * go.h.n // 5

    def test_isolated_vertex_infeasible_for_total_kinds(self):
        g = Graph(3, [(0, 1)])
        for kind in (TOT, SEMI):
            with pytest.raises(InfeasibleError):
                exact_min(g, kind)
        assert exact_min(g, DOM) == (0, 2)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            exact_min(Graph(0), DOM)

    def test_unknown_kind_rejected(self):
        # searched as DOMINATING, a string or None would give (0,) on
        # K_{1,3}, whose semitotal optimum is (0, 1)
        assert exact_min(STAR, SEMI) == (0, 1)
        for kind in ("semitotal", None):
            with pytest.raises(ValueError, match=rf"^unknown domination kind {kind!r}$"):
                exact_min(STAR, kind)

    def test_matches_brute_force_including_tie_break(self):
        rng = SplitMix64(99)
        for trial in range(120):
            n = 2 + rng.randrange(7)
            g = gen_connected_graph(n, 0.35, rng.next_u64())
            edges = g.sorted_edges()
            for kind, name in ((DOM, "dominating"), (TOT, "total"), (SEMI, "semitotal")):
                got = exact_min(g, kind)
                want = oracles.brute_min(n, edges, name)
                assert got == want, (trial, n, edges, name)

    def test_returned_set_is_minimal(self):
        rng = SplitMix64(5)
        for _ in range(40):
            n = 3 + rng.randrange(7)
            g = gen_connected_graph(n, 0.3, rng.next_u64())
            for kind in (DOM, TOT, SEMI):
                s = exact_min(g, kind)
                assert verify(g, s, kind).valid
                for v in s:
                    rest = tuple(w for w in s if w != v)
                    assert not verify(g, rest, kind).valid, (g.sorted_edges(), kind, s, v)


def exact_or_error(f):
    try:
        return f()
    except (ValueError, InfeasibleError) as exc:
        return type(exc), str(exc)


def assert_matches_lex_search(n, edges):
    g = Graph(n, edges)
    for kind, name in KINDS:
        got = exact_or_error(lambda: exact_min(g, kind))
        want = exact_or_error(lambda: oracles.lex_exact_min(n, edges, name))
        assert got == want, (n, edges, name)


class TestExactSearch:
    """The two-phase search against the plain lexicographic search in oracles."""

    def test_seeded_graphs_including_disconnected_and_isolated(self):
        rng = SplitMix64(2024)
        for _ in range(300):
            n = rng.randrange(13)
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            assert_matches_lex_search(n, edges)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_graphs(self, data):
        n = data.draw(st.integers(0, 12))
        pairs = list(itertools.combinations(range(n), 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        assert_matches_lex_search(n, [e for e, k in zip(pairs, keep) if k])

    def test_bench_pool_semitotal(self):
        for s in range(10):
            g = gen_connected_graph(30, 0.08, s)
            want = oracles.lex_exact_min(g.n, g.sorted_edges(), "semitotal")
            assert exact_min(g, SEMI) == want, s

    def test_bench_pool_dominating_and_total(self):
        for s in range(39):
            g = gen_connected_graph(30, 0.08, s)
            for kind, name in ((DOM, "dominating"), (TOT, "total")):
                want = oracles.lex_exact_min(g.n, g.sorted_edges(), name)
                assert exact_min(g, kind) == want, (s, name)

    def test_interleaved_disjoint_unions_and_isolated_vertices(self):
        # 2-3 random graphs whose ids interleave, so each component is
        # relabelled by a monotone map that is not a shift; some parts are
        # single vertices, isolated in the union
        rng = SplitMix64(808)
        isolated = 0
        for _ in range(250):
            n = 2 + rng.randrange(11)
            parts = 2 + rng.randrange(2)
            label = [rng.randrange(parts) for _ in range(n)]
            p = rng.random()
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if label[u] == label[v] and rng.random() < p]
            isolated += any(not any(v in e for e in edges) for v in range(n))
            assert_matches_lex_search(n, edges)
        assert isolated > 50

    def test_bench_pool_node_count(self):
        # the lonely members' candidate sets join the packing bound; without
        # them the pool needed up to 1,237 nodes (s = 15), with them 724
        # (s = 10); skipping the candidates that a failed sibling stands in
        # for brings the largest count down to 215 (s = 10), and settling
        # nodes with one member left at once to 183
        for s in range(39):
            g = gen_connected_graph(30, 0.08, s)
            assert len(exact_min(g, SEMI, max_nodes=800)) >= 2, s

    def test_bench_pool_search_tree_pinned(self):
        # nodes each pool graph's search visits, seed by seed; a change that
        # only makes nodes cheaper keeps every count, so update these only
        # with a deliberate change to the tree. SEMI s = 27, 28 and 36 took
        # 118, 49 and 128 nodes with a bound on the number of lonely members
        # one new member can pair; no other pool tree changed without it
        pins = {
            SEMI: (48, 54, 104, 95, 66, 133, 49, 46, 73, 82, 183, 55, 42, 55,
                   60, 64, 37, 28, 38, 42, 24, 63, 70, 50, 31, 74, 31, 121, 51,
                   30, 64, 41, 78, 52, 85, 49, 136, 29, 39),
            DOM: (39, 38, 91, 62, 56, 44, 27, 35, 66, 27, 92, 45, 24, 28, 27,
                  32, 28, 18, 27, 46, 18, 35, 45, 34, 28, 41, 26, 41, 41, 23, 60,
                  38, 41, 38, 60, 34, 17, 18, 34),
            TOT: (21, 39, 34, 35, 61, 17, 46, 30, 35, 34, 52, 16, 20, 37, 17,
                  20, 17, 34, 34, 26, 32, 32, 38, 44, 41, 32, 24, 50, 18, 14,
                  16, 24, 27, 18, 30, 35, 19, 37, 31),
        }
        # the counts before a node with one member left settled it at once
        # and the lexicographic phase shared its failures across positions;
        # both only cut failing subtrees, so no graph may need more nodes
        parent = {
            SEMI: (54, 58, 109, 96, 70, 149, 63, 57, 81, 88, 215, 69, 48, 61,
                   67, 76, 38, 33, 44, 45, 29, 69, 72, 57, 34, 78, 35, 131, 52,
                   37, 71, 50, 83, 58, 91, 61, 138, 34, 41),
            DOM: (46, 41, 98, 77, 66, 54, 31, 40, 80, 31, 104, 50, 28, 33, 28,
                  36, 30, 22, 34, 57, 21, 39, 47, 40, 30, 49, 30, 47, 45, 25, 64,
                  44, 45, 45, 74, 42, 20, 23, 36),
            TOT: (23, 47, 36, 39, 70, 20, 50, 35, 40, 39, 55, 17, 23, 42, 21,
                  21, 18, 41, 42, 31, 37, 36, 45, 53, 46, 37, 30, 53, 20, 21,
                  20, 29, 30, 22, 32, 43, 26, 41, 33),
        }
        assert (sum(pins[SEMI]), max(pins[SEMI])) == (2472, 183)
        assert (sum(parent[SEMI]), max(parent[SEMI])) == (2742, 215)
        for kind, counts in pins.items():
            assert all(c <= p for c, p in zip(counts, parent[kind])), kind
        for s in range(39):
            g = gen_connected_graph(30, 0.08, s)
            for kind, counts in pins.items():
                need = counts[s]
                assert exact_min(g, kind, max_nodes=need) == exact_min(g, kind), (s, kind)
                with pytest.raises(SizeCapError, match=rf"budget of {need - 1} nodes$"):
                    exact_min(g, kind, max_nodes=need - 1)

    def test_failed_sibling_needs_the_partner_condition(self):
        # on the path 0-1-3-2, 2 dominates all that 3 would below member 0,
        # but 3 partners 0 and 2 does not, so 2 cannot stand in for 3;
        # skipping 3 would lose (0, 3) and give (1, 2). A node with one
        # member left no longer branches, so the path never reaches the
        # rule; on the tree below it does, and without the partner
        # condition the size search misses every 3-member set
        path = Graph(4, [(0, 1), (1, 3), (2, 3)])
        assert exact_min(path, SEMI) == (0, 3)
        tree = Graph(8, [(0, 7), (1, 2), (2, 6), (3, 4), (4, 5), (4, 7), (6, 7)])
        assert exact_min(tree, SEMI) == (2, 4, 7)

    def test_failures_stand_in_across_positions(self):
        # SEMITOTAL on this tree: 0 fails at position 0; at position 1, below
        # member 1, the candidate 2 dominates nothing new and has only 1 and
        # 3 within distance 2, as 0 has, so 0 stands in for it
        assert_matches_lex_search(5, [(0, 3), (1, 2), (1, 3), (3, 4)])
        # these 2,000 graphs, each solved for all three kinds, give 203
        # graph/kind cases with a candidate that only a failure at an
        # earlier position rules out (283 skips)
        rng = SplitMix64(1)
        for _ in range(2000):
            n = 5 + rng.randrange(6)
            p = rng.random()
            assert_matches_lex_search(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < p])

    def test_a_chosen_member_never_stands_in(self):
        # at position 2 below (0, 1) the candidate 2 dominates nothing new
        # and partners only 1 and 6, both within distance 2 of 1; were the
        # chosen 1 taken as a failure, it would stand in for 2 and lose the
        # answer (0, 1, 2, 7) for (0, 1, 3, 6), but 1 is in the set already
        edges = [(0, 3), (0, 4), (1, 2), (1, 6), (3, 5), (3, 7), (4, 5), (5, 7),
                 (6, 8), (7, 8)]
        assert exact_min(Graph(9, edges), SEMI) == (0, 1, 2, 7)
        assert_matches_lex_search(9, edges)

    def test_nested_neighbourhoods_match_lex_search(self):
        # split graphs, GP4 gadgets and graphs with true twins nest many
        # neighbourhoods, so a failed candidate often stands in for a later
        # sibling or a later id of the lexicographic phase
        rng = SplitMix64(1313)
        graphs = []
        for s in range(60):
            p, q = 1 + rng.randrange(5), 1 + rng.randrange(9)
            graphs.append(gen_split_graph(p, q, 0.1 + 0.8 * rng.random(), s)[0])
        # GP4 gadgets of 3-5-vertex bases have 15-25 vertices
        graphs += [gen_named("gp4", base, s) for base in (3, 4, 5) for s in range(10)]
        for _ in range(120):
            n = 2 + rng.randrange(7)
            adj = [set(gen_connected_graph(n, 0.35, rng.next_u64()).neighbors(v))
                   for v in range(n)]
            while len(adj) < 14 and rng.random() < 0.8:  # a true twin of a vertex
                v = rng.randrange(len(adj))
                w = len(adj)
                adj.append(adj[v] | {v})
                for u in adj[w]:
                    adj[u].add(w)
            # relabelled, so that twins do not always take the last ids
            perm = rng.sample_without_replacement(len(adj), len(adj))
            graphs.append(Graph(len(adj), [(perm[u], perm[v]) for u in range(len(adj))
                                           for v in adj[u] if u < v]))
        for g in graphs:
            assert_matches_lex_search(g.n, g.sorted_edges())

    def test_reach_at_n60_in_nodes(self):
        # nodes each graph's search visits, seed by seed; for SEMI and DOM
        # also the nodes it needed before a failed sibling stood in for
        # later candidates, which no graph may exceed
        nodes = {SEMI: (13_467, 10_800, 1_483), DOM: (5_412, 8_971, 997),
                 TOT: (1_619, 2_449, 1_609)}
        before = {SEMI: (25_620, 10_809, 1_944), DOM: (25_954, 13_069, 2_681)}
        for kind, counts in before.items():
            assert all(c <= b for c, b in zip(nodes[kind], counts)), kind
        for s in range(3):
            g = gen_connected_graph(60, 0.08, s)
            for kind, counts in nodes.items():
                found, spent = _search(g, kind, None, 0)
                assert spent == counts[s], (kind, s)
                assert exact_min(g, kind, max_nodes=spent) == found, (kind, s)

    def test_components_are_searched_one_at_a_time(self):
        # searched as one instance, this 90-vertex union passes 10^5 nodes
        graphs = [gen_connected_graph(30, 0.08, s) for s in range(3)]
        edges = [(u + 30 * i, v + 30 * i)
                 for i, g in enumerate(graphs) for u, v in g.sorted_edges()]
        want = tuple(v + 30 * i for i, g in enumerate(graphs)
                     for v in oracles.lex_exact_min(30, g.sorted_edges(), "semitotal"))
        assert exact_min(Graph(90, edges), SEMI, max_nodes=20_000) == want

    def test_one_node_budget_across_components(self):
        def least_budget(g):
            lo, hi = 1, 10_000  # smallest budget under which g solves
            while lo < hi:
                mid = (lo + hi) // 2
                try:
                    exact_min(g, SEMI, max_nodes=mid)
                    hi = mid
                except SizeCapError:
                    lo = mid + 1
            return lo

        a, b = gen_connected_graph(12, 0.3, 4), gen_connected_graph(9, 0.3, 5)
        union = Graph(21, a.sorted_edges() + [(u + 12, v + 12) for u, v in b.sorted_edges()])
        need = least_budget(a) + least_budget(b)
        assert least_budget(union) == need
        with pytest.raises(SizeCapError,
                           match=rf"^exact search exceeded its budget of {need - 1} nodes$"):
            exact_min(union, SEMI, max_nodes=need - 1)

    def test_member_cap(self):
        # the search recurses once per member, so a larger optimum is refused
        # before the recursion limit is reached
        long_path = gen_named("path", 3100)
        for kind in (DOM, TOT, SEMI):
            with pytest.raises(SizeCapError, match=rf"^exact search needs more than "
                               rf"{_MAX_MEMBERS} members in one component$"):
                exact_min(long_path, kind)
        # P_3k has one minimum dominating set, the middle of each triple
        at_cap = gen_named("path", 3 * _MAX_MEMBERS)
        assert exact_min(at_cap, DOM) == tuple(range(1, 3 * _MAX_MEMBERS, 3))

    def test_node_budget(self):
        g = gen_connected_graph(60, 0.08, 0)
        with pytest.raises(SizeCapError, match=r"budget of 1000 nodes"):
            exact_min(g, SEMI, max_nodes=1000)
        small = gen_connected_graph(12, 0.3, 1)
        for kind in (DOM, TOT, SEMI):
            assert exact_min(small, kind, max_nodes=10**6) == exact_min(small, kind)
        with pytest.raises(ValueError, match="budget"):
            exact_min(small, SEMI, max_nodes=0)


class TestInvariants:
    def test_hierarchy_on_seeded_graphs(self):
        rng = SplitMix64(17)
        for _ in range(100):
            n = 2 + rng.randrange(9)
            g = gen_connected_graph(n, 0.3, rng.next_u64())
            gamma = len(exact_min(g, DOM))
            semi = len(exact_min(g, SEMI))
            total = len(exact_min(g, TOT))
            assert gamma <= semi <= total

    def test_semitotal_needs_two_vertices(self):
        rng = SplitMix64(23)
        for _ in range(50):
            n = 2 + rng.randrange(8)
            g = gen_connected_graph(n, 0.5, rng.next_u64())
            assert len(exact_min(g, SEMI)) >= 2

    def test_edge_monotonicity_semitotal(self):
        # adding an edge can only keep or shrink the optimum
        rng = SplitMix64(31)
        done = 0
        while done < 100:
            n = 3 + rng.randrange(7)
            g = gen_connected_graph(n, 0.3, rng.next_u64())
            missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                       if not g.has_edge(u, v)]
            if not missing:
                continue
            extra = missing[rng.randrange(len(missing))]
            g2 = Graph(n, list(g.edges) + [extra])
            assert len(exact_min(g2, SEMI)) <= len(exact_min(g, SEMI))
            done += 1
