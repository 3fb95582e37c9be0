import math
from fractions import Fraction
from itertools import compress

import pytest

import oracles
from semidom import generators
from semidom.generators import (SplitMix64, gen_connected_graph,
                                gen_interval_model, gen_named, gen_split_graph)
from semidom.graph import Graph, is_connected
from semidom.intervals import canonicalize_intervals, intersection_graph
from semidom.reductions import GadgetKind, build_gadget


class TestSplitMix64:
    def test_reference_stream_seed_zero(self):
        # published SplitMix64 test vector
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535, 7960286522194355700, 487617019471545679]

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_random_in_unit_interval(self):
        rng = SplitMix64(9)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_randrange_rejects_empty_range(self):
        with pytest.raises(ValueError, match=r"^randrange needs a positive bound$"):
            SplitMix64(0).randrange(0)

    def test_sample_is_distinct_and_in_range(self):
        rng = SplitMix64(13)
        got = rng.sample_without_replacement(20, 8)
        assert len(set(got)) == 8
        assert all(0 <= x < 20 for x in got)

    def test_sample_rejects_negative_size(self):
        rng = SplitMix64(13)
        for k in (-1, -3):
            with pytest.raises(ValueError):
                rng.sample_without_replacement(10, k)
        with pytest.raises(ValueError):
            rng.sample_without_replacement(10, 11)
        assert rng.sample_without_replacement(10, 0) == []

    def test_sample_matches_scalar_reference(self):
        # k = 0, k = bound, and gen_interval_model's (4n, 2n) across blocks
        L = generators._LANES
        for seed in (0, 1, 2**63, 2**64 - 1):
            for bound, k in ((0, 0), (10, 0), (1, 1), (L + 1, L + 1), (5, 5),
                             (4, 2), (4 * 7, 2 * 7), (4 * L, 2 * L), (4 * 1000, 2 * 1000)):
                bulk, scalar = SplitMix64(seed), SplitMix64(seed)
                assert bulk.sample_without_replacement(bound, k) == \
                    oracles.ref_sample_without_replacement(scalar, bound, k), (seed, bound, k)
                assert bulk.next_u64() == scalar.next_u64(), (seed, bound, k)


class TestBulkDraws:
    """`SplitMix64._draws_below` and `_next_u64s` against the scalar stream
    they replace."""

    SEEDS = (0, 1, 2**63, 2**64 - 1)  # the last wraps the state at once
    L = generators._LANES
    COUNTS = (0, 1, L - 1, L, L + 1, 3001, 40 * L + 3)  # the last spans 41 blocks
    # 0.5 * 2**53 is an integer; ints and Fractions are taken exactly
    PROBABILITIES = (0.0, 1.0, 0.5, 3 / 800, 1e-300, Fraction(1, 3), 0, 1, Fraction(7, 9))

    def test_matches_scalar_draws(self):
        for seed in self.SEEDS:
            for count in self.COUNTS:
                for p in self.PROBABILITIES:
                    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
                    got = bulk._draws_below(count, p)
                    assert got == [k for k in range(count) if scalar.random() < p], \
                        (seed, count, p)
                    assert bulk.next_u64() == scalar.next_u64(), (seed, count, p)

    def test_next_u64s_matches_scalar_draws(self):
        for seed in self.SEEDS:
            for count in (0, 1, self.L - 1, self.L, self.L + 1, 40 * self.L + 3):
                bulk, scalar = SplitMix64(seed), SplitMix64(seed)
                assert bulk._next_u64s(count) == [scalar.next_u64() for _ in range(count)], \
                    (seed, count)
                assert bulk.next_u64() == scalar.next_u64(), (seed, count)

    def test_blocks_on_both_sides_of_the_scan_threshold(self, monkeypatch):
        # draws that expect at most _SCAN_HITS hits a block (p <= t / L) are
        # read by bit scan, denser ones by bytes; near t hits a block, each
        # read meets blocks with at most t hits and blocks with more
        t = generators._SCAN_HITS
        count = 40 * self.L + 3
        byte_reads = []
        monkeypatch.setattr(generators, "compress",
                            lambda *args: byte_reads.append(1) or compress(*args))
        for seed in range(4):
            for p, bytes_read in ((Fraction(t - 1, self.L), False),
                                  (Fraction(t, self.L), False),
                                  (Fraction(t + 1, self.L), True)):
                byte_reads.clear()
                bulk, scalar = SplitMix64(seed), SplitMix64(seed)
                draws = [scalar.random() < p for _ in range(41 * self.L)]
                per_block = [sum(draws[b:b + self.L]) for b in range(0, 41 * self.L, self.L)]
                assert any(0 < h <= t for h in per_block), (seed, p)
                assert any(h > t for h in per_block), (seed, p)
                assert bulk._draws_below(count, p) == [
                    k for k in range(count) if draws[k]], (seed, p)
                assert bool(byte_reads) == bytes_read, (seed, p)
                after = SplitMix64(seed)
                for _ in range(count):
                    after.random()
                assert bulk.next_u64() == after.next_u64(), (seed, p)

    def test_scanned_hits_past_count_are_dropped(self):
        # seed 1's first block hits lanes 98 and 160 at p = 3/800, which
        # takes the bit scan; both lie past count = 1, so neither is returned
        assert SplitMix64(1)._draws_below(self.L, 3 / 800) == [98, 160]
        bulk, scalar = SplitMix64(1), SplitMix64(1)
        assert bulk._draws_below(1, 3 / 800) == []
        scalar.random()
        assert bulk.next_u64() == scalar.next_u64()

    def test_p_next_to_a_drawn_value(self):
        # a draw is a hit for any p above it, however close, and for no p at
        # or below it, so ceil(p * 2**53) must round exactly
        rng = SplitMix64(3)
        draws = [rng.random() for _ in range(600)]
        tiny = Fraction(1, 2**80)
        for k in (0, 255, 256, 599):
            x = draws[k]
            for p in (x, math.nextafter(x, 1.0), Fraction(x) + tiny, Fraction(x) - tiny):
                assert SplitMix64(3)._draws_below(600, p) == [
                    j for j, y in enumerate(draws) if y < p], (k, p)


class TestGenConnectedGraph:
    def test_golden_edge_set(self):
        g = gen_connected_graph(8, 0.3, 7)
        assert g.sorted_edges() == [(0, 2), (0, 3), (0, 6), (1, 3), (1, 5),
                                    (3, 7), (4, 5), (5, 7)]

    def test_single_vertex(self):
        g = gen_connected_graph(1, 0.5, 0)
        assert (g.n, g.m) == (1, 0)

    def test_full_probability_is_complete(self):
        g = gen_connected_graph(5, 1.0, 0)
        assert g.m == 10

    def test_determinism(self):
        assert (gen_connected_graph(8, 0.3, 7).edges
                == gen_connected_graph(8, 0.3, 7).edges)

    def test_always_connected(self):
        rng = SplitMix64(2)
        for _ in range(60):
            n = 1 + rng.randrange(12)
            p = rng.random() * 0.4
            assert is_connected(gen_connected_graph(n, p, rng.next_u64()))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            gen_connected_graph(3, 1.5, 0)

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match=r"^need at least one vertex$"):
            gen_connected_graph(0, 0.5, 0)

    def test_matches_bridge_at_a_time_reference(self):
        for n in (1, 2, 3, 5, 8, 13, 40):
            for p in (0.0, 0.02, 0.1, 0.3, 1.0):
                for seed in range(4):
                    got = gen_connected_graph(n, p, seed).sorted_edges()
                    assert got == oracles.ref_gen_connected_graph(n, p, seed), (n, p, seed)

    def test_rows_match_a_validated_build(self):
        # the rows filled as the pairs are drawn, bridges included, equal
        # those of Graph(n, edges) on the reference edge list: p = 0 (every
        # vertex its own component), p = 1, and sparse draws with many
        # components
        rng = SplitMix64(16)
        cases = [(n, p) for n in (1, 2, 7, 60) for p in (0.0, 1.0)]
        cases += [(1 + rng.randrange(120), rng.random() * 0.08) for _ in range(40)]
        for n, p in cases:
            seed = rng.next_u64()
            g = gen_connected_graph(n, p, seed)
            ref = Graph(n, oracles.ref_gen_connected_graph(n, p, seed))
            assert g == ref and g.m == ref.m, (n, p, seed)

    def test_builds_the_graph_at_most_twice(self, monkeypatch):
        built = []

        def counting_graph(*args, **kwargs):
            built.append(args[0])
            return Graph(*args, **kwargs)

        monkeypatch.setattr(generators, "Graph", counting_graph)
        g = gen_connected_graph(200, 0.002, 0)  # 159 components as drawn
        assert is_connected(g) and built == [200, 200]
        built.clear()
        gen_connected_graph(20, 1.0, 0)  # connected as drawn
        assert built == [20]


class TestGenIntervalModel:
    def test_golden_model(self):
        m = gen_interval_model(5, 3)
        assert m.intervals == ((0, 3), (1, 7), (2, 5), (4, 8), (6, 9))

    def test_single_interval(self):
        assert gen_interval_model(1, 0).n == 1

    def test_rejects_no_intervals(self):
        with pytest.raises(ValueError, match=r"^need at least one interval$"):
            gen_interval_model(0, 0)

    def test_determinism(self):
        assert gen_interval_model(12, 3).intervals == gen_interval_model(12, 3).intervals

    def test_matches_scalar_reference(self):
        # sizes whose 2n draws end inside, at and just past a block
        for n in (1, 2, 3, 64, 127, 128, 129, 500):
            for seed in (0, 5, 2**64 - 1):
                assert gen_interval_model(n, seed) == oracles.ref_gen_interval_model(n, seed), \
                    (n, seed)

    def test_output_is_canonical(self):
        rng = SplitMix64(66)
        for _ in range(40):
            n = 1 + rng.randrange(15)
            m = gen_interval_model(n, rng.next_u64())
            assert canonicalize_intervals(m) == (m, tuple(range(n)))
            endpoints = [x for iv in m.intervals for x in iv]
            assert all(isinstance(x, int) for x in endpoints)
            assert len(set(endpoints)) == 2 * n
            lefts = [a for a, _ in m.intervals]
            assert lefts == sorted(lefts)
            assert all(a < b for a, b in m.intervals)


class TestGenSplitGraph:
    def test_golden(self):
        g, part = gen_split_graph(3, 2, 0.5, 9)
        assert g.sorted_edges() == [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (2, 4)]
        assert part.clique == (0, 1, 2)
        assert part.independent == (3, 4)

    def test_k2_shape(self):
        g, part = gen_split_graph(1, 1, 1.0, 0)
        assert g.sorted_edges() == [(0, 1)]
        assert (part.clique, part.independent) == ((0,), (1,))

    def test_pure_clique(self):
        g, part = gen_split_graph(3, 0, 0.5, 0)
        assert g.m == 3
        assert part.independent == ()

    def test_matches_draw_at_a_time_reference(self):
        cases = [(p, q, density) for p in (1, 2, 3, 7) for q in (0, 1, 2, 5, 30)
                 for density in (0.0, 0.05, 0.5, 1.0)]
        # q far above p: at density 0 every independent vertex is attached;
        # at the low densities most are, each below ids drawn before it
        cases += [(p, 400, density) for p in (1, 2, 5) for density in (0.0, 0.002, 0.02, 0.5)]
        for p, q, density in cases:
            for seed in range(4):
                g, part = gen_split_graph(p, q, density, seed)
                assert g.sorted_edges() == oracles.ref_gen_split_graph(
                    p, q, density, seed), (p, q, density, seed)
                assert all(list(row) == sorted(set(row)) for row in g._adj)
                assert part.clique == tuple(range(p))

    def test_one_graph_from_rows(self, monkeypatch):
        built = oracles.count_graphs(monkeypatch, generators)
        gen_split_graph(4, 30, 0.1, 3)
        assert built == [((), True)]

    def test_argument_errors(self):
        for args, message in (((0, 1, .5, 0), r"clique part must be nonempty"),
                              ((1, -1, .5, 0), r"independent part size must be nonnegative"),
                              ((1, 1, 1.5, 0), r"density out of range: 1\.5")):
            with pytest.raises(ValueError, match=rf"^{message}$"):
                gen_split_graph(*args)

    def test_partition_always_valid_and_no_isolates(self):
        rng = SplitMix64(5)
        for _ in range(60):
            p = 1 + rng.randrange(5)
            q = rng.randrange(5)
            g, part = gen_split_graph(p, q, rng.random(), rng.next_u64())
            part.validate(g)
            for v in range(p, p + q):
                assert g.degree(v) >= 1


class TestGenNamed:
    def test_path(self):
        g = gen_named("path", 4)
        assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]

    def test_cycle(self):
        g = gen_named("cycle", 4)
        assert g.m == 4

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            gen_named("cycle", 2)

    def test_size_zero_rejected(self):
        for family, message in (("path", "path"), ("star", "star"),
                                ("complete", "complete graph")):
            with pytest.raises(ValueError, match=rf"^{message} needs size >= 1$"):
                gen_named(family, 0)

    def test_star_and_complete(self):
        assert gen_named("star", 5).degree(0) == 4
        assert gen_named("complete", 4).m == 6

    def test_gp4_counts(self):
        g = gen_named("gp4", 2, seed=1)
        assert g.n == 10
        base = gen_connected_graph(2, 0.5, 1)
        assert g.edges == build_gadget(base, GadgetKind.GP4).h.edges

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_named("hypercube", 3)


def test_interval_models_feed_the_solver():
    m = gen_interval_model(30, 4)
    g = intersection_graph(m)
    assert g.n == 30
