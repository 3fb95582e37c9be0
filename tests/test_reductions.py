from collections import deque

import pytest

from semidom.domination import DominationKind, exact_min, verify
from semidom.errors import SizeCapError
from semidom.generators import (SplitMix64, gen_connected_graph, gen_named,
                                gen_split_graph)
from semidom.graph import Graph, SplitPartition
from semidom.reductions import (GadgetKind, build_gadget, check_reduction,
                                extend_solution, extract_solution,
                                min_vertex_cover)

import oracles

DOM = DominationKind.DOMINATING
TOT = DominationKind.TOTAL
SEMI = DominationKind.SEMITOTAL

K2 = Graph(2, [(0, 1)])
P3 = gen_named("path", 3)
C4 = gen_named("cycle", 4)


def two_colorable(g):
    color = {}
    for s in range(g.n):
        if s in color:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            w = queue.popleft()
            for x in g.neighbors(w):
                if x not in color:
                    color[x] = 1 - color[w]
                    queue.append(x)
                elif color[x] == color[w]:
                    return False
    return True


class TestBuildGadget:
    def test_gp4_counts(self):
        go = build_gadget(K2, GadgetKind.GP4)
        assert (go.h.n, go.h.m) == (10, 9)

    def test_gp4_role_map_is_stable(self):
        go = build_gadget(K2, GadgetKind.GP4)
        assert go.roles == {
            0: ("original", 0), 1: ("original", 1),
            2: ("w", 0), 3: ("w", 1), 4: ("x", 0), 5: ("x", 1),
            6: ("y", 0), 7: ("y", 1), 8: ("z", 0), 9: ("z", 1),
        }

    def test_p3_role_maps_and_edges_are_pinned(self):
        golden = {
            GadgetKind.GP4: (
                {0: ("original", 0), 1: ("original", 1), 2: ("original", 2),
                 3: ("w", 0), 4: ("w", 1), 5: ("w", 2), 6: ("x", 0), 7: ("x", 1),
                 8: ("x", 2), 9: ("y", 0), 10: ("y", 1), 11: ("y", 2),
                 12: ("z", 0), 13: ("z", 1), 14: ("z", 2)},
                [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8),
                 (6, 9), (7, 10), (8, 11), (9, 12), (10, 13), (11, 14)]),
            GadgetKind.BIPARTITE: (
                {0: ("original", 0), 1: ("original", 1), 2: ("original", 2),
                 3: ("x", 0), 4: ("x", 1), 5: ("x", 2), 6: ("y", 0), 7: ("y", 1),
                 8: ("y", 2), 9: ("z", 0), 10: ("z", 1), 11: ("z", 2),
                 12: ("u", 0), 13: ("u", 1), 14: ("u", 2), 15: ("w", 0),
                 16: ("w", 1), 17: ("w", 2)},
                [(0, 1), (0, 9), (1, 2), (1, 10), (2, 11), (3, 6), (4, 7), (5, 8),
                 (6, 9), (7, 10), (8, 11), (9, 12), (10, 13), (11, 14), (12, 15),
                 (13, 16), (14, 17)]),
            GadgetKind.LN: (
                {0: ("original", 0), 1: ("original", 1), 2: ("original", 2),
                 3: ("x", 0), 4: ("x", 1), 5: ("x", 2), 6: ("y", None),
                 7: ("z", None)},
                [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (4, 6), (5, 6),
                 (6, 7)]),
            GadgetKind.APX: (
                {0: ("original", 0), 1: ("original", 1), 2: ("original", 2),
                 3: ("u", 0), 4: ("u", 1), 5: ("u", 2), 6: ("x", 0), 7: ("x", 1),
                 8: ("x", 2), 9: ("y", 0), 10: ("y", 1), 11: ("y", 2),
                 12: ("z", 0), 13: ("z", 1), 14: ("z", 2), 15: ("w", 0),
                 16: ("w", 1), 17: ("w", 2), 18: ("edge", 0), 19: ("edge", 1)},
                [(0, 3), (0, 18), (1, 4), (1, 18), (1, 19), (2, 5), (2, 19),
                 (3, 6), (3, 12), (3, 15), (4, 7), (4, 13), (4, 16), (5, 8),
                 (5, 14), (5, 17), (6, 9), (7, 10), (8, 11), (9, 12), (10, 13),
                 (11, 14)]),
        }
        for kind, (roles, edges) in golden.items():
            go = build_gadget(P3, kind)
            assert go.roles == roles, kind
            assert go.h.sorted_edges() == edges, kind

    def test_split_role_map_and_edges_are_pinned(self):
        g = Graph(3, [(0, 1), (0, 2)])
        go = build_gadget(g, GadgetKind.SPLIT, SplitPartition((0, 1), (2,)))
        assert go.roles == {
            0: ("original", 0), 1: ("original", 1), 2: ("original", 2),
            3: ("x", 0), 4: ("x", 1), 5: ("y", 2), 6: ("w", None),
            7: ("z", None), 8: ("r", None), 9: ("s", None), 10: ("t", None),
        }
        assert go.h.sorted_edges() == [
            (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 9), (1, 4), (1, 5),
            (1, 6), (1, 9), (2, 5), (3, 6), (4, 6), (5, 6), (5, 9), (5, 10),
            (6, 7), (6, 9), (8, 9), (9, 10),
        ]

    def test_bipartite_of_c4(self):
        go = build_gadget(C4, GadgetKind.BIPARTITE)
        assert go.h.n == 24
        assert go.h.m == C4.m + 5 * 4

    def test_bipartite_requires_nontrivial_source(self):
        with pytest.raises(ValueError):
            build_gadget(Graph(1), GadgetKind.BIPARTITE)

    def test_split_counts(self):
        g, part = Graph(2, [(0, 1)]), SplitPartition((0,), (1,))
        go = build_gadget(g, GadgetKind.SPLIT, part)
        assert go.h.n == 2 * 2 + 5 == 9

    def test_split_requires_partition(self):
        with pytest.raises(ValueError):
            build_gadget(K2, GadgetKind.SPLIT)

    def test_apx_of_p3(self):
        go = build_gadget(P3, GadgetKind.APX)
        assert go.h.n == 20
        assert go.h.max_degree() == 4

    def test_rejects_disconnected_source(self):
        with pytest.raises(ValueError):
            build_gadget(Graph(4, [(0, 1), (2, 3)]), GadgetKind.LN)

    def test_counts_on_seeded_sources(self):
        rng = SplitMix64(1001)
        for _ in range(100):
            n = 1 + rng.randrange(7)
            g = gen_connected_graph(n, 0.4, rng.next_u64())
            m = g.m
            gp4 = build_gadget(g, GadgetKind.GP4).h
            assert (gp4.n, gp4.m) == (5 * n, m + 4 * n)
            ln = build_gadget(g, GadgetKind.LN).h
            assert (ln.n, ln.m) == (2 * n + 2, m + 2 * n + 1)
            apx = build_gadget(g, GadgetKind.APX).h
            assert (apx.n, apx.m) == (6 * n + m, 6 * n + 2 * m)
            assert apx.max_degree() == max(g.max_degree() + 1, 4)
            if n >= 2:
                bip = build_gadget(g, GadgetKind.BIPARTITE).h
                assert (bip.n, bip.m) == (6 * n, m + 5 * n)

    def test_split_counts_on_seeded_sources(self):
        rng = SplitMix64(1002)
        for _ in range(100):
            p = 1 + rng.randrange(4)
            q = rng.randrange(4)
            g, part = gen_split_graph(p, q, 0.5, rng.next_u64())
            go = build_gadget(g, GadgetKind.SPLIT, part)
            assert go.h.n == 2 * g.n + 5

    def test_bipartite_gadget_preserves_bipartiteness(self):
        rng = SplitMix64(1003)
        for _ in range(40):
            n = 2 + rng.randrange(6)
            g = gen_connected_graph(n, 0.4, rng.next_u64())
            if not two_colorable(g):
                continue
            assert two_colorable(build_gadget(g, GadgetKind.BIPARTITE).h)

    def test_split_gadget_is_split(self):
        rng = SplitMix64(1004)
        for _ in range(40):
            p = 1 + rng.randrange(3)
            q = rng.randrange(4)
            g, part = gen_split_graph(p, q, 0.6, rng.next_u64())
            go = build_gadget(g, GadgetKind.SPLIT, part)
            n = g.n
            clique_h = (list(part.clique)
                        + go.vertices_with_tag("y")
                        + go.vertices_with_tag("s") + go.vertices_with_tag("w"))
            indep_h = (list(part.independent)
                       + go.vertices_with_tag("x")
                       + go.vertices_with_tag("r") + go.vertices_with_tag("t")
                       + go.vertices_with_tag("z"))
            SplitPartition(tuple(sorted(clique_h)),
                           tuple(sorted(indep_h))).validate(go.h)


class TestExtendSolution:
    def test_bipartite_c4(self):
        go = build_gadget(C4, GadgetKind.BIPARTITE)
        dh = extend_solution(go, (0, 2))
        assert len(dh) == 2 * 4 + 2
        assert verify(go.h, dh, SEMI).valid

    def test_split_adds_two(self):
        g, part = gen_split_graph(3, 2, 0.5, 11)
        go = build_gadget(g, GadgetKind.SPLIT, part)
        dg = exact_min(g, DOM)
        dh = extend_solution(go, dg)
        assert len(dh) == len(dg) + 2
        assert verify(go.h, dh, SEMI).valid

    def test_gp4_total(self):
        go = build_gadget(K2, GadgetKind.GP4)
        dh = extend_solution(go, (0, 1))
        assert len(dh) == 2 * 2 + 2
        assert verify(go.h, dh, TOT).valid

    def test_ln_adds_hub(self):
        go = build_gadget(P3, GadgetKind.LN)
        dh = extend_solution(go, (1,))
        assert dh == (1, 2 * 3)
        assert verify(go.h, dh, SEMI).valid

    def test_apx_vertex_cover(self):
        go = build_gadget(P3, GadgetKind.APX)
        dh = extend_solution(go, (1,))
        assert len(dh) == 1 + 2 * 3
        assert verify(go.h, dh, SEMI).valid

    def test_rejects_invalid_source_solution(self):
        go = build_gadget(C4, GadgetKind.BIPARTITE)
        with pytest.raises(ValueError):
            extend_solution(go, (0,))
        go = build_gadget(P3, GadgetKind.APX)
        with pytest.raises(ValueError):
            extend_solution(go, (0,))  # covers only one of two edges


class TestExtractSolution:
    def test_bipartite_round_trip_bound(self):
        go = build_gadget(C4, GadgetKind.BIPARTITE)
        dh = exact_min(go.h, SEMI)
        dg = extract_solution(go, dh)
        assert verify(C4, dg, DOM).valid
        assert len(dg) <= len(dh) - 2 * 4

    def test_apx_recovers_min_cover_of_p3(self):
        go = build_gadget(P3, GadgetKind.APX)
        dh = exact_min(go.h, SEMI)
        assert len(dh) == 2 * 3 + 1
        vc = extract_solution(go, dh)
        assert oracles.brute_min_vertex_cover_size(3, P3.sorted_edges()) == len(vc) == 1

    def test_split_extend_extract_round_trip(self):
        rng = SplitMix64(77)
        for _ in range(30):
            p = 1 + rng.randrange(3)
            q = rng.randrange(4)
            g, part = gen_split_graph(p, q, 0.5, rng.next_u64())
            go = build_gadget(g, GadgetKind.SPLIT, part)
            dg = exact_min(g, DOM)
            back = extract_solution(go, extend_solution(go, dg))
            assert verify(g, back, DOM).valid
            assert len(back) <= len(dg)

    def test_gp4_extract_bound(self):
        go = build_gadget(P3, GadgetKind.GP4)
        dh = exact_min(go.h, TOT)
        dg = extract_solution(go, dh)
        assert verify(P3, dg, TOT).valid
        assert len(dg) <= len(dh) - 2 * 3

    def test_ln_extract_is_dominating(self):
        rng = SplitMix64(88)
        for _ in range(30):
            n = 1 + rng.randrange(6)
            g = gen_connected_graph(n, 0.4, rng.next_u64())
            go = build_gadget(g, GadgetKind.LN)
            dh = exact_min(go.h, SEMI)
            assert verify(g, extract_solution(go, dh), DOM).valid

    def test_extract_rejects_invalid_gadget_solution(self):
        go = build_gadget(C4, GadgetKind.BIPARTITE)
        with pytest.raises(ValueError):
            extract_solution(go, (0, 1))

    def test_split_extract_repairs_cliqueless_solution(self):
        # clique {0,1}, independent {2}, vertex 1 has no independent neighbor
        g = Graph(3, [(0, 1), (0, 2)])
        part = SplitPartition((0, 1), (2,))
        go = build_gadget(g, GadgetKind.SPLIT, part)
        w = go.vertices_with_tag("w")[0]
        s = go.vertices_with_tag("s")[0]
        dh = (2, w, s)  # valid on H yet selects no clique or pendant-x vertex
        assert verify(go.h, dh, SEMI).valid
        dg = extract_solution(go, dh)
        assert verify(g, dg, DOM).valid
        assert len(dg) <= len(dh) - 2
        assert dg == (0,)

    def test_extend_then_extract_bounds_all_kinds(self):
        rng = SplitMix64(123)
        for _ in range(12):
            n = 2 + rng.randrange(2)
            g = gen_connected_graph(n, 0.6, rng.next_u64())
            cases = [
                (GadgetKind.GP4, exact_min(g, TOT), TOT, 2 * n),
                (GadgetKind.BIPARTITE, exact_min(g, DOM), DOM, 2 * n),
                (GadgetKind.LN, exact_min(g, DOM), DOM, 0),
                (GadgetKind.APX, min_vertex_cover(g), None, 2 * n),
            ]
            for kind, dg, check, offset in cases:
                go = build_gadget(g, kind)
                dh = extend_solution(go, dg)
                need = TOT if kind is GadgetKind.GP4 else SEMI
                assert verify(go.h, dh, need).valid, (kind, g.sorted_edges())
                back = extract_solution(go, dh)
                assert len(back) <= len(dh) - offset
                if check is not None:
                    assert verify(g, back, check).valid
                else:
                    assert all(a in back or b in back for a, b in g.edges)

    def test_extract_from_oracle_minimum_per_kind(self):
        rng = SplitMix64(99)
        for _ in range(15):
            n = 2 + rng.randrange(3)
            g = gen_connected_graph(n, 0.5, rng.next_u64())
            for kind, check, offset in (
                (GadgetKind.BIPARTITE, DOM, 2 * n),
                (GadgetKind.LN, DOM, None),
            ):
                go = build_gadget(g, kind)
                dh = exact_min(go.h, SEMI)
                dg = extract_solution(go, dh)
                assert verify(g, dg, check).valid
                if offset is not None:
                    assert len(dg) <= len(dh) - offset


class TestCheckReduction:
    def test_gp4_of_k2(self):
        report = check_reduction(K2, GadgetKind.GP4)
        assert report.holds
        assert report.details["semitotal_h"] == 4

    def test_split_pair(self):
        g, part = Graph(2, [(0, 1)]), SplitPartition((0,), (1,))
        report = check_reduction(g, GadgetKind.SPLIT, part)
        assert report.holds
        assert report.details["semitotal_h"] == 3

    def test_bipartite_of_p3(self):
        report = check_reduction(P3, GadgetKind.BIPARTITE)
        assert report.holds
        assert report.details["semitotal_h"] == 7

    def test_details_are_pinned_in_order(self):
        # key order is the order of the check-reduction JSON
        head = [("n", 3), ("m", 2)]
        cases = [
            (P3, GadgetKind.GP4, None,
             [("h_n", 15), ("h_m", 14), ("semitotal_h", 6), ("total_h", 8),
              ("total_g", 2)]),
            (P3, GadgetKind.BIPARTITE, None,
             [("h_n", 18), ("h_m", 17), ("semitotal_h", 7), ("gamma_g", 1)]),
            (P3, GadgetKind.LN, None,
             [("h_n", 8), ("h_m", 9), ("semitotal_h", 2), ("gamma_g", 1)]),
            (P3, GadgetKind.APX, None,
             [("h_n", 20), ("h_m", 22), ("semitotal_h", 7), ("tau_g", 1)]),
            (Graph(3, [(0, 1), (0, 2)]), GadgetKind.SPLIT,
             SplitPartition((0, 1), (2,)),
             [("h_n", 11), ("h_m", 20), ("semitotal_h", 3), ("gamma_g", 1)]),
        ]
        for g, kind, part, tail in cases:
            report = check_reduction(g, kind, part)
            assert report.holds, kind
            assert list(report.details.items()) == head + tail, kind

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            check_reduction(gen_named("path", 9), GadgetKind.BIPARTITE)

    def test_min_vertex_cover_examples(self):
        assert min_vertex_cover(P3) == (1,)
        assert min_vertex_cover(Graph(3)) == ()
        assert len(min_vertex_cover(C4)) == 2

    def test_l_reduction_alpha7_on_checkable_sources(self):
        # degree <= 3 sources with at least one edge: optimum transfer per
        # the alpha=7 bound
        seen = 0
        for g in (K2, P3, gen_named("cycle", 3), Graph(3, [(0, 1), (0, 2)])):
            if g.max_degree() > 3 or g.m == 0:
                continue
            tau = len(min_vertex_cover(g))
            h = build_gadget(g, GadgetKind.APX).h
            assert len(exact_min(h, SEMI)) <= 7 * tau
            seen += 1
        assert seen >= 3
