import re
import time
from fractions import Fraction

import pytest

from semidom import formats
from semidom.formats import (edgelist_header, parse_edgelist, parse_intervals,
                             parse_partition, parse_vertex_set, write_edgelist,
                             write_intervals, write_partition)
from semidom.generators import gen_connected_graph, gen_named
from semidom.graph import Graph, SplitPartition
from semidom.intervals import IntervalModel, intersection_graph


class TestEdgelist:
    def test_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert parse_edgelist(write_edgelist(g)) == g

    def test_writer_matches_the_edge_tuple_form(self):
        # the writer built from the rows gives the text of the edge tuples
        def tuple_form(g):
            lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.sorted_edges()]
            return "\n".join(lines) + "\n"
        graphs = [Graph(0), Graph(1), Graph(5, [(1, 3)]), Graph(4, [(2, 3), (0, 3)]),
                  gen_named("complete", 9), gen_named("star", 7)]
        graphs += [gen_connected_graph(n, p, s) for n in (2, 17, 60)
                   for p in (0.05, 0.3) for s in range(3)]
        for g in graphs:
            assert write_edgelist(g) == tuple_form(g), g
        assert write_edgelist(Graph(0)) == "0 0\n"
        assert write_edgelist(Graph(3, [(0, 2)])) == "3 1\n0 2\n"

    def test_comments_and_blank_lines(self):
        g = parse_edgelist("# a comment\n\n3 2\n0 1\n# inline\n1 2\n")
        assert g.sorted_edges() == [(0, 1), (1, 2)]

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_edgelist("3\n0 1\n")

    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            parse_edgelist("3 2\n0 1\n")

    def test_requires_u_less_than_v(self):
        with pytest.raises(ValueError):
            parse_edgelist("3 1\n1 0\n")

    def test_malformed_edge_line(self):
        with pytest.raises(ValueError, match=r"^malformed edge line: '0 1 2'$"):
            parse_edgelist("2 1\n0 1 2\n")

    def test_empty_file(self):
        with pytest.raises(ValueError):
            parse_edgelist("# nothing\n")

    def test_vertex_count_limit(self, monkeypatch):
        # headers just past the limit: without it each would still cost
        # 0.7 s or more and 64 MB or more, so the test stays cheap if it fails
        for header in ("1000001 0", "2000000 0", "1000001 1\n0 1"):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=r"more than the limit of 1000000$"):
                parse_edgelist(header + "\n")
            assert time.perf_counter() - t0 < 0.5
        monkeypatch.setattr(formats, "_MAX_VERTICES", 10)
        assert parse_edgelist("10 1\n0 9\n") == Graph(10, [(0, 9)])
        with pytest.raises(ValueError, match=r"^edge list declares 11 vertices"):
            parse_edgelist("11 0\n")

    @pytest.mark.parametrize("text", ["# nothing\n", "3\n0 1\n", "3 1 1\n",
                                      "x 1\n", "2000000 0\n"])
    def test_header_fails_as_the_parser_does(self, text):
        with pytest.raises(ValueError) as parsed:
            parse_edgelist(text)
        with pytest.raises(ValueError) as header:
            edgelist_header(text)
        assert str(header.value) == str(parsed.value)

    def test_header_reads_no_edge_line(self):
        assert edgelist_header("# c\n\n 5 2 \n0 x\n") == (5, 2)


class TestIntervals:
    def test_round_trip_integers(self):
        m = IntervalModel(((0, 3), (1, 7)))
        assert parse_intervals(write_intervals(m)).intervals == m.intervals

    def test_decimals_parse_exactly(self):
        m = parse_intervals("2\n0.5 2.5\n1 4\n")
        assert m.intervals == ((Fraction(1, 2), Fraction(5, 2)), (1, 4))
        m = parse_intervals("2\n-1.5e-2 1e3\n2.5 4\n")
        assert m.intervals == ((Fraction(-3, 200), 1000), (Fraction(5, 2), 4))

    def test_round_trip_is_exact_for_fractions_and_floats(self):
        tiny = Fraction(1, 10**20)
        third = Fraction(1, 3)
        for m in (IntervalModel(((third, third + tiny),)),
                  IntervalModel(((0, third), (third + tiny, 1))),
                  IntervalModel(((0.1, 2.0), (Fraction(7, 2), 5)))):
            text = write_intervals(m)
            back = parse_intervals(text)
            assert back.intervals == tuple((Fraction(a), Fraction(b))
                                           for a, b in m.intervals), text
            assert intersection_graph(back) == intersection_graph(m)
        assert write_intervals(IntervalModel(((0, Fraction(4, 2)), (1, 7)))) == "2\n0 2\n1 7\n"

    def test_huge_exponent_rejected_fast(self):
        for token in ("1e4000000", "1E-4000000", "2.5e+4301"):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match=re.escape(repr(token))):
                parse_intervals(f"1\n0 {token}\n")
            assert time.perf_counter() - t0 < 0.5

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            parse_intervals("1\n2 2\n")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError, match="'1/0'"):
            parse_intervals("1\n1/0 2\n")

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            parse_intervals("3\n0 1\n2 3\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match=r"^expected header 'n', got '2 3'$"):
            parse_intervals("2 3\n0 1\n1 2\n")

    def test_negative_header(self):
        # refused as a count, as the edge-list header's n is, not as a
        # mismatch with the number of lines
        with pytest.raises(ValueError, match=r"^interval count must be nonnegative, got -3$"):
            parse_intervals("-3\n")

    def test_malformed_interval_line(self):
        with pytest.raises(ValueError, match=r"^malformed interval line: '0 1 2'$"):
            parse_intervals("1\n0 1 2\n")

    def test_empty_file(self):
        with pytest.raises(ValueError, match=r"^empty interval file$"):
            parse_intervals("")

    def test_exponent_without_digits_rejected(self):
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: '1e'$"):
            parse_intervals("1\n0 1e\n")


class TestVertexSetAndPartition:
    def test_vertex_set_whitespace(self):
        assert parse_vertex_set("0 2\n5\n# skip\n") == [0, 2, 5]

    def test_partition_round_trip(self):
        part = SplitPartition((0, 1), (2,))
        assert parse_partition(write_partition(part)) == part

    def test_partition_empty_independent(self):
        part = parse_partition("clique 0 1 2\nindependent\n")
        assert part.independent == ()

    def test_partition_unknown_label(self):
        with pytest.raises(ValueError):
            parse_partition("core 0 1\n")

    def test_partition_requires_clique_line(self):
        with pytest.raises(ValueError):
            parse_partition("independent 0\n")

    def test_partition_repeated_label(self):
        with pytest.raises(ValueError, match="repeats the 'clique' line"):
            parse_partition("clique 0 1\nclique 2\nindependent 3\n")
        # labels are case-insensitive, so these two lines repeat one label
        with pytest.raises(ValueError, match="repeats the 'independent' line"):
            parse_partition("clique 0\nindependent 1\nIndependent 2\n")
