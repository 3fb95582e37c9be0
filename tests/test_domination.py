import inspect
import itertools
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semidom import domination
from semidom.approx import approx_semitotal
from semidom.domination import (_MAX_MEMBERS, DominationKind, ViolationReason,
                                _search, exact_min, verify, verify_intervals)
from semidom.errors import InfeasibleError, SizeCapError
from semidom.generators import (SplitMix64, gen_connected_graph, gen_interval_model,
                                gen_named, gen_split_graph)
from semidom.graph import Graph, closed_masks, distance2_masks, open_masks
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


def bounded_model(n, rng):
    # start steps 0-3 and lengths 1-5: touching endpoints, nesting and gaps
    # that leave isolated intervals and several components
    pairs, a = [], 0
    for _ in range(n):
        a += rng.randrange(4)
        pairs.append((a, a + 1 + rng.randrange(5)))
    return IntervalModel(tuple(pairs))


def bounded_length_model_graph(n, rng):
    return intersection_graph(bounded_model(n, rng))


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


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def assert_model_verdicts_match(model, *sets):
    g = intersection_graph(model)
    for s, kind in itertools.product(sets, DominationKind):
        assert verify_intervals(model, s, kind) == verify(g, s, kind), (model, s, kind)


def half_unit(x, rng):
    # x / 2 as an int (x even), a Fraction or a float: equal values of
    # different types touch
    pick = rng.randrange(3)
    if pick == 0 and x % 2 == 0:
        return x // 2
    return Fraction(x, 2) if pick < 2 else x / 2


def mixed_model(n, rng):
    # starts step 0-3 and lengths 1-6 half-units, with a gap of 8 before a
    # new group now and then: touching endpoints, nesting, several
    # components and isolated intervals, in any order
    pairs, x = [], 0
    for _ in range(n):
        x += rng.randrange(4) + (8 if rng.randrange(10) == 0 else 0)
        pairs.append((half_unit(x, rng), half_unit(x + 1 + rng.randrange(6), rng)))
    order = sorted(range(n), key=lambda _: rng.random())
    return IntervalModel(tuple(pairs[i] for i in order))


class TestVerifyIntervals:
    """`verify_intervals(m, s, kind) == verify(intersection_graph(m), s, kind)`,
    errors included."""

    def test_seeded_models(self):
        rng = SplitMix64(31)
        for case in range(150):
            n = 1 + rng.randrange(200 if case % 8 == 0 else 30)
            model = mixed_model(n, rng)
            density = rng.random()
            s = [v for v in range(n) if rng.random() < density]
            s += [s[rng.randrange(len(s))] for _ in range(rng.randrange(3))] if s else []
            assert_model_verdicts_match(model, s, [], range(n))

    def test_generated_and_bounded_length_models(self):
        rng = SplitMix64(32)
        for n in (1, 2, 5, 40, 200):
            for model in (gen_interval_model(n, n), bounded_model(n, rng)):
                s = [v for v in range(n) if rng.random() < 0.3]
                assert_model_verdicts_match(model, s)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_models(self, data):
        scale = data.draw(st.sampled_from([int, lambda x: Fraction(x, 3), lambda x: x / 4]))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 8)),
                                   max_size=16))
        model = IntervalModel(tuple((scale(a), scale(a + d)) for a, d in pairs))
        n = len(pairs)
        s = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2)) if n else []
        assert_model_verdicts_match(model, s)

    def test_edge_cases(self):
        empty = IntervalModel(())
        chain = IntervalModel(((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))
        nested = IntervalModel(((0, 10), (1, 2), (3, 4), (5, 6), (8, 9)))
        apart = IntervalModel(((0, 1), (2, 3), (Fraction(5, 2), 2.75), (9, 10)))
        for model, s in ((empty, ()), (chain, ()), (chain, (0, 4)), (chain, (2,)),
                         (chain, (1, 3, 1, 3)), (nested, (1, 3)), (nested, (1, 4)),
                         (nested, (0,)), (apart, (0, 2, 3)), (apart, range(4))):
            assert_model_verdicts_match(model, s)

    def test_errors_match(self):
        chain = IntervalModel(((0, 1), (1, 2), (2, 3)))
        for model, s, kind in ((chain, (0,), "semitotal"), (chain, (9,), None),
                               (chain, (9,), SEMI), (chain, (1, 9, -1), DOM),
                               (chain, (0, "2", 9), TOT), (chain, [1.0], SEMI),
                               (IntervalModel(()), (0,), DOM)):
            expected = outcome(verify, intersection_graph(model), s, kind)
            assert isinstance(expected, tuple) and expected[0] is ValueError
            assert outcome(verify_intervals, model, s, kind) == expected

    def test_one_shot_member_iterators(self):
        chain = IntervalModel(((0, 1), (1, 2), (2, 3)))
        for kind in DominationKind:
            assert (verify_intervals(chain, iter((1, 1)), kind)
                    == verify(intersection_graph(chain), [1], kind))

    def test_large_models_in_n_log_n(self):
        # 200,000 identical intervals have about 2e10 edges; the 1e5 chain
        # (3i, 3i + 4 + i % 3) is the north-star interval input
        same = IntervalModel(((0, 1),) * 200_000)
        chain = IntervalModel(tuple((3 * i, 3 * i + 4 + i % 3) for i in range(100_000)))
        t0 = time.perf_counter()
        assert verify_intervals(same, (0, 1), SEMI).valid
        report = verify_intervals(chain, range(0, 100_000, 2), SEMI)
        assert time.perf_counter() - t0 < 10
        assert report.valid
        assert verify_intervals(same, (0,), SEMI).violations == (
            (0, ViolationReason.NO_PARTNER_WITHIN_2),)


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
        # with a deliberate change to the tree
        pins = {
            SEMI: (37, 51, 87, 81, 49, 81, 40, 28, 47, 38, 166, 35, 32, 41, 44,
                   62, 26, 25, 35, 42, 26, 59, 52, 43, 29, 72, 23, 155, 32, 26,
                   38, 29, 76, 35, 62, 49, 105, 26, 37),
            DOM: (30, 35, 71, 62, 40, 30, 21, 18, 45, 23, 81, 26, 18, 18, 23,
                  21, 19, 15, 24, 41, 19, 30, 45, 26, 26, 39, 21, 33, 15, 20, 22,
                  22, 32, 27, 47, 32, 15, 15, 25),
            TOT: (19, 40, 34, 36, 59, 16, 46, 29, 40, 28, 54, 16, 20, 37, 15,
                  19, 16, 28, 29, 26, 32, 33, 39, 21, 41, 31, 29, 32, 17, 13,
                  14, 25, 26, 17, 27, 35, 22, 33, 31),
        }
        # the counts before dominated candidates left `allowed` and leaves
        # with no chosen member within distance 2 went last on ties. That
        # changes which branch goes first, not only which failing subtrees
        # are cut, so a graph may rise: SEMI s = 20 (24 -> 26) and 27 (121
        # -> 155), DOM s = 20 (18 -> 19), TOT s = 1, 3, 8, 10, 21, 22, 26,
        # 31 and 36 (by 1-5 nodes). No kind's sum or largest count may rise.
        # SEMI s = 27, 28 and 36 took 118, 49 and 128 nodes with a bound on
        # the number of lonely members one new member can pair
        head = {
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
        # both only cut failing subtrees, so no graph needed more nodes
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
        assert (sum(pins[SEMI]), max(pins[SEMI])) == (2021, 166)
        assert (sum(head[SEMI]), max(head[SEMI])) == (2472, 183)
        assert (sum(parent[SEMI]), max(parent[SEMI])) == (2742, 215)
        rose = {SEMI: [20, 27], DOM: [20], TOT: [1, 3, 8, 10, 21, 22, 26, 31, 36]}
        for kind, counts in pins.items():
            assert all(h <= p for h, p in zip(head[kind], parent[kind])), kind
            assert sum(counts) <= sum(head[kind]) and max(counts) <= max(head[kind]), kind
            assert [s for s in range(39) if counts[s] > head[kind][s]] == rose[kind], kind
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

    def test_a_forced_member_with_no_partner_left_fails_at_once(self):
        # SEMITOTAL: 2 dominates 4 (N[4] lies in N[2], and 0 lies within
        # distance 2 of 2), so 4 is never a candidate. The lexicographic
        # phase tries 1 as the first member, so 0 is out of `allowed`; below
        # it the branch on 3 fails, and in the branch on 5 vertex 4 has 2 as
        # its only candidate left. 2 joins as a forced member, and 0, 3 and
        # 4, all it has within distance 2, are out: the lonely 2 has no
        # candidate, and that node fails in its item scan, the one exit no
        # other test reaches. No graph with at most 7 vertices reaches it
        g = Graph(12, [(0, 3), (0, 5), (1, 9), (1, 11), (2, 3), (2, 4), (3, 4), (5, 11),
                       (6, 8), (6, 9), (7, 8), (7, 10), (8, 10)])
        src, _ = inspect.getsourcelines(domination)
        exit_line = 1 + next(i for i, line in enumerate(src, 1)
                             if line.strip() == "if not cands:")
        assert src[exit_line - 1].strip() == "return 0"
        run: set[int] = set()

        def trace(frame, event, arg):
            if frame.f_code.co_filename != domination.__file__:
                return None
            if event == "line":
                run.add(frame.f_lineno)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            found, spent = _search(g, SEMI, None, 0)
        finally:
            sys.settrace(previous)
        assert exit_line in run
        assert (found, spent) == ((3, 5, 8, 9), 23)
        assert_matches_lex_search(g.n, g.sorted_edges())

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
        # later candidates, which no graph may exceed. Dropping dominated
        # candidates took TOT s = 1 from 2,449 to 2,446 and s = 2 from 1,609
        # to 1,632 nodes, and left SEMI and DOM as they were
        nodes = {SEMI: (13_467, 10_800, 1_483), DOM: (5_412, 8_971, 997),
                 TOT: (1_619, 2_446, 1_632)}
        before = {SEMI: (25_620, 10_809, 1_944), DOM: (25_954, 13_069, 2_681)}
        for kind, counts in before.items():
            assert all(c <= b for c, b in zip(nodes[kind], counts)), kind
        for s in range(3):
            g = gen_connected_graph(60, 0.08, s)
            for kind, counts in nodes.items():
                found, spent = _search(g, kind, None, 0)
                assert spent == counts[s], (kind, s)
                assert exact_min(g, kind, max_nodes=spent) == found, (kind, s)

    def test_reach_per_class_in_nodes(self):
        # one graph per hard class of the paper (planar GP4, split, chordal
        # bipartite BIPARTITE and APX gadgets), with the nodes its search
        # visits and the nodes it visited before dominated candidates left
        # `allowed`, which also bounds the search; a change that makes a
        # class worse fails here
        gp4 = gen_named("gp4", 48, 1)
        cases = [
            ("gp4 48", gp4, SEMI, 194, 1_421),
            ("gp4 48", gp4, TOT, 146, 3_070),
            ("GP4 gadget", build_gadget(gen_connected_graph(40, 0.3, 2), GadgetKind.GP4).h,
             TOT, 624, 43_735),
            ("split", gen_split_graph(200, 400, 0.01, 0)[0], SEMI, 340, 1_768),
            ("BIPARTITE gadget",
             build_gadget(gen_connected_graph(48, 3 / 48, 1), GadgetKind.BIPARTITE).h,
             SEMI, 3_826, 4_316),
            ("APX gadget", build_gadget(gen_connected_graph(24, 0.2, 0), GadgetKind.APX).h,
             SEMI, 1_251, 1_435),
        ]
        for name, g, kind, count, before in cases:
            assert count <= before, name
            found, spent = _search(g, kind, before, 0)
            assert spent == count, (name, kind)
            assert exact_min(g, kind, max_nodes=spent) == found, (name, kind)

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
        with pytest.raises(ValueError, match=r"^node budget must be positive, got 0$"):
            exact_min(small, SEMI, max_nodes=0)


def kept(g, kind):
    """The candidates `_search` keeps on g, as a sorted list."""
    total = kind is TOT
    cover = open_masks(g) if total else closed_masks(g)
    partner = distance2_masks(g) if kind is SEMI else None
    mask = domination._kept(g, cover, partner, total)
    return [v for v in range(g.n) if mask >> v & 1]


class TestDominatedCandidates:
    """The candidates no lexicographically smallest optimum holds leave the
    search before it starts; `TestExactSearch` checks the answers on
    hypothesis graphs and on the pool's DOM and TOT sides."""

    def test_kept_on_a_path_and_stars(self):
        # on P_5 the end 4 lies under 3 (under 2 for TOTAL, N(4) in N(2)),
        # and for SEMITOTAL 0 and 1 lie within distance 2 of 3
        for kind in (DOM, TOT, SEMI):
            assert kept(P5, kind) == [0, 1, 2, 3], kind
        # K_{1,1} to K_{1,7}: every leaf lies under the centre, and under
        # leaf 1 for TOTAL. SEMITOTAL keeps leaf 1: no vertex below it but
        # the centre lies within distance 2 of the centre, and dropping it
        # would leave the centre no partner
        for n in range(2, 9):
            star = gen_named("star", n)
            assert kept(star, DOM) == [0], n
            assert kept(star, TOT) == kept(star, SEMI) == [0, 1], n
        k2 = Graph(2, [(0, 1)])
        assert (kept(k2, DOM), kept(k2, TOT), kept(k2, SEMI)) == ([0], [0, 1], [0, 1])

    def test_every_graph_up_to_five_vertices(self):
        # every labelled graph with 1-5 vertices, 1,099 graphs in three kinds
        cases = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                assert_matches_lex_search(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                cases += 3
        assert cases == 3297

    def test_stars(self):
        for n in range(2, 9):
            star = gen_named("star", n)
            assert_matches_lex_search(n, star.sorted_edges())
            assert exact_min(star, SEMI) == exact_min(star, TOT) == (0, 1), n

    def test_graphs_with_k2_components(self):
        # 1-3 K_2 components beside a random graph, the ids interleaved
        rng = SplitMix64(2525)
        for _ in range(150):
            pairs = 1 + rng.randrange(3)
            rest = rng.randrange(8)
            n = 2 * pairs + rest
            perm = rng.sample_without_replacement(n, n)
            edges = [(perm[2 * i], perm[2 * i + 1]) for i in range(pairs)]
            p = rng.random()
            edges += [(perm[2 * pairs + u], perm[2 * pairs + v])
                      for u in range(rest) for v in range(u + 1, rest) if rng.random() < p]
            assert_matches_lex_search(n, [(min(e), max(e)) for e in edges])

    def test_bench_pool_semitotal_past_seed_9(self):
        # the pool's seeds 0-9 run in TestExactSearch
        for s in range(10, 39):
            g = gen_connected_graph(30, 0.08, s)
            want = oracles.lex_exact_min(g.n, g.sorted_edges(), "semitotal")
            assert exact_min(g, SEMI) == want, s


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

    def test_index_id_graph_gives_the_int_graph_answers(self):
        # Graph stores ids that have __index__, as numpy's integers do, as
        # plain ints, so the solvers' bit shifts see ints; n >= 64 is where
        # a shift by a numpy id would overflow
        g = gen_connected_graph(64, 0.08, 1)
        same = Graph(g.n, [(oracles.IndexFraction(u), oracles.IndexFraction(v))
                           for u, v in g.sorted_edges()])
        assert same == g
        for kind in (DOM, TOT, SEMI):
            assert (exact_min(same, kind, max_nodes=10_000)
                    == exact_min(g, kind, max_nodes=10_000)), kind
        found = approx_semitotal(same)
        assert found == approx_semitotal(g)
        assert verify(same, found, SEMI) == verify(g, found, SEMI)
