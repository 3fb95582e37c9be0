import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from semidom import formats
from semidom.formats import (edgelist_header, parse_edgelist, parse_intervals,
                             parse_partition, parse_vertex_set, write_edgelist,
                             write_intervals, write_partition)
from semidom.generators import gen_connected_graph, gen_named, gen_split_graph
from semidom.graph import Graph, SplitPartition
from semidom.intervals import IntervalModel, intersection_graph

import oracles


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


def _outcome(parse, text):
    """What parsing `text` gives: the parsed value, or the ValueError's text."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _noise(rng, lines):
    """The lines with blank and comment lines slipped in, each line padded
    with spaces or tabs, joined by one line ending drawn for the file."""
    out = []
    for line in lines:
        if rng.random() < 0.15:
            out.append(rng.choice(["", "   ", "# note", "  #x y z"]))
        out.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t "]))
    return rng.choice(["\n", "\r\n", "\r"]).join(out) + rng.choice(["", "\n"])


def _edge_list_text(rng):
    """A seeded edge-list text: a random simple graph in random line order,
    and with probability one or more faults a parser must report."""
    n = rng.randrange(0, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    rng.shuffle(pairs)
    lines = [f"{u} {v}" for u, v in pairs]
    head = [n, len(lines)]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        fault = rng.randrange(8)
        k = rng.randrange(len(lines) + 1)
        if fault == 0:
            head[1] += rng.choice([-1, 1])
        elif fault == 1:
            head[0] = rng.choice([-n - 1, -1, max(n - 2, 0)])
        elif fault == 2 and pairs:
            lines.insert(k, lines[rng.randrange(len(lines))])  # a duplicate
            head[1] += 1
        elif fault == 3:
            lines.insert(k, f"{rng.randrange(-3, n)} {n + rng.randrange(3)}")
            head[1] += 1
        elif fault == 4:
            lines.insert(k, f"{-rng.randrange(1, 4)} {rng.randrange(-1, n + 1)}")
            head[1] += 1
        elif fault == 5:
            u = rng.randrange(max(n, 1))
            lines.insert(k, f"{u} {u - rng.randrange(2)}")  # u >= v
            head[1] += 1
        elif fault == 6:
            lines.insert(k, rng.choice(["0 x", "1.0 2", "0 1 2", "3", "a b", "0 ٣"]))
            head[1] += 1
        elif fault == 7 and lines:
            lines[rng.randrange(len(lines))] += rng.choice([" 9", " #", ""])
    if rng.random() < 0.03:
        head = rng.choice([[n], [n, 0, 1], ["x", 0], [n, "0.5"]])
    return _noise(rng, [" ".join(map(str, head))] + lines)


class TestEdgelistAgainstReference:
    """parse_edgelist gives the token-list parser's graph or error text."""

    NAMED = {
        "comments, blanks and CRLF": "# c\r\n\r\n4 3\r\n0 1\r\n  # x\r\n1 2\r\n\r\n2 3\r\n",
        "lines out of order": "5 4\n3 4\n0 2\n1 3\n0 1\n",
        "ids past the small-int cache": "1000 3\n998 999\n0 999\n300 999\n",
        "other line breaks": "3 2\x0b0 1\x1c1 2\u2028",
        "count short and a malformed line": "3 3\n0 1\n0 1 2\n",
        "count long and a bad token": "3 1\n0 1\n0 x\n",
        "malformed after out of range": "3 2\n0 5\n1\n",
        "non-integer after out of range": "3 2\n0 5\n0 1.5\n",
        "duplicate before out of range": "4 3\n0 1\n0 1\n2 9\n",
        "duplicate after out of range": "4 3\n0 1\n2 9\n0 1\n",
        "duplicate written apart": "4 3\n0 1\n2 3\n0 1\n",
        "negative n, no edges": "-2 0\n",
        "negative n with edges": "-2 1\n0 1\n",
        "negative n and a malformed line": "-2 1\n0 1 2\n",
        "negative n and a wrong count": "-2 2\n0 1\n",
        "u > v": "3 1\n1 0\n",
        "u = v": "3 1\n1 1\n",
        "u > v after out of range": "3 2\n0 7\n2 1\n",
        "negative ends": "3 1\n-3 -1\n",
        "negative u": "3 1\n-1 2\n",
        "non-integer tokens": "3 1\n0 x\n",
        "decimal token": "3 1\n0.0 1\n",
        "header only": "3 0\n",
        "empty": "",
        "bad header": "3\n0 1\n",
        "header too large": "1000001 0\n",
    }

    @pytest.mark.parametrize("name", NAMED)
    def test_named_texts(self, name):
        text = self.NAMED[name]
        want = _outcome(oracles.ref_parse_edgelist, text)
        assert _outcome(parse_edgelist, text) == want

    def test_named_faults_read_as_before(self):
        # the first fault in the documented order, as the reference gives it
        got = {name: _outcome(parse_edgelist, self.NAMED[name])
               for name in ("count short and a malformed line", "malformed after out of range",
                            "duplicate before out of range", "duplicate after out of range",
                            "negative n with edges", "negative n and a malformed line",
                            "negative ends")}
        assert got == {
            "count short and a malformed line": "ValueError: expected 3 edge lines, found 2",
            "malformed after out of range": "ValueError: malformed edge line: '1'",
            "duplicate before out of range": "ValueError: duplicate edge (0, 1)",
            "duplicate after out of range": "ValueError: edge (2,9) out of range for n=4",
            "negative n with edges": "ValueError: vertex count must be nonnegative, got -2",
            "negative n and a malformed line": "ValueError: malformed edge line: '0 1 2'",
            "negative ends": "ValueError: edge (-3,-1) out of range for n=3",
        }

    def test_seeded_texts(self):
        outcomes = set()
        for seed in range(3000):
            text = _edge_list_text(random.Random(seed))
            want = _outcome(oracles.ref_parse_edgelist, text)
            assert _outcome(parse_edgelist, text) == want, (seed, text)
            outcomes.add(want.split(" ")[1] if isinstance(want, str) else "graph")
        # every kind of outcome came up
        assert outcomes == {"graph", "expected", "edge", "malformed", "edges",
                            "duplicate", "vertex", "invalid"}, outcomes

    def test_rows_are_sorted_tuples_sharing_one_int_per_vertex(self):
        g = parse_edgelist("1000 4\n998 999\n0 999\n300 999\n300 998\n")
        assert g._adj[999] == (0, 300, 998) and g._adj[300] == (998, 999)
        assert all(type(row) is tuple for row in g._adj)
        assert g._adj[999][1] is g._adj[998][0]  # both are vertex 300
        assert g._adj[300][1] is g._adj[0][0]  # both are vertex 999

    def test_parse_memory_per_edge(self):
        # K_633: 200,028 edges; the text is made before tracing starts
        text = write_edgelist(gen_named("complete", 633))
        tracemalloc.start()
        try:
            g = parse_edgelist(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 200_028
        assert peak < 150 * g.m, peak / g.m
        assert retained < 20 * g.m, retained / g.m

    def test_chunked_parse_and_header_memory(self):
        # K_633 again: the lines are split one chunk at a time, so the parse
        # holds little beside the rows, and the header reads one chunk
        text = write_edgelist(gen_named("complete", 633))
        tracemalloc.start()
        try:
            g = parse_edgelist(text)
            _, peak = tracemalloc.get_traced_memory()
            del g
            tracemalloc.reset_peak()
            assert edgelist_header(text) == (633, 200_028)
            _, header_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 200_028, peak / 200_028
        assert header_peak < 1_000_000, header_peak

    @staticmethod
    def _parse_peak_per_edge(text: str, m: int) -> float:
        tracemalloc.start()
        try:
            g = parse_edgelist(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == m
        return peak / m

    def test_lone_cr_line_ends_parse_in_chunks(self):
        # a chunk is also cut after a \r that ends a line on its own, so a
        # file with no \n is not read as one chunk
        text = write_edgelist(gen_named("complete", 633)).replace("\n", "\r")
        assert "\n" not in text and len(list(formats._chunks(text))) > 20
        assert self._parse_peak_per_edge(text, 200_028) < 40

    def test_lone_cr_split_graph_parse_memory(self):
        # the 1,573,871-edge split graph that CI solves under ulimit -v, with
        # \r line ends
        g, _ = gen_split_graph(1500, 1000, 0.3, 0)
        text = write_edgelist(g).replace("\n", "\r")
        del g
        assert self._parse_peak_per_edge(text, 1_573_871) < 40

    def test_header_splits_only_a_short_prefix(self, monkeypatch):
        text = write_edgelist(gen_named("complete", 633))
        handed = []

        def recording(chunk):
            handed.append(chunk)
            return chunk_lines(chunk)

        chunk_lines = formats._chunk_lines
        monkeypatch.setattr(formats, "_chunk_lines", recording)
        assert edgelist_header(text) == (633, 200_028)
        assert sum(map(len, handed)) < 100, handed
        # comment lines before the header are read in chunks that double
        handed.clear()
        comments = "# a comment line of forty characters ..\n" * 1000
        assert edgelist_header(comments + text) == (633, 200_028)
        assert sum(map(len, handed)) < 2 * len(comments) + 100
        assert len(handed) < 12


class TestChunkedReader:
    """The reader splits the text into chunks, and takes a chunk of lines
    `u v\\n` in bulk; each fault is still reported as the reference does."""

    # texts in the bulk form, each line `u v\n` of ASCII digits
    CANONICAL = {
        "u = v": "3 2\n0 1\n1 1\n",
        "u > v": "3 2\n0 1\n2 1\n",
        "v = n": "3 2\n0 1\n1 3\n",
        "repeat before out of range": "4 3\n0 1\n0 1\n2 4\n",
        "repeat after out of range": "4 3\n0 1\n2 4\n0 1\n",
        "repeat written apart": "4 3\n0 1\n2 3\n0 1\n",
        "repeat next to itself": "4 3\n0 1\n0 1\n2 3\n",
        "too few lines": "3 3\n0 1\n1 2\n",
        "too many lines": "3 1\n0 1\n1 2\n",
        "header n above the limit": "1000001 1\n0 1\n",
        "a 4,301-digit id": "3 1\n0 " + "1" * 4301 + "\n",
        "a 4,301-digit edge count": "3 " + "1" * 4301 + "\n0 1\n",
        "leading zeros": "3 2\n00 01\n001 0002\n",
        "lines out of order": "4 3\n2 3\n0 1\n0 3\n",
        "header only": "3 0\n",
    }

    @pytest.mark.parametrize("name", CANONICAL)
    def test_canonical_texts(self, name):
        text = self.CANONICAL[name]
        assert formats._CANONICAL.fullmatch(text)
        assert _outcome(parse_edgelist, text) == _outcome(oracles.ref_parse_edgelist, text)

    @pytest.mark.parametrize("chunk", [1, 5, 16])
    def test_seeded_texts_in_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(formats, "_CHUNK", chunk)
        for seed in range(3000):
            text = _edge_list_text(random.Random(seed))
            want = _outcome(oracles.ref_parse_edgelist, text)
            assert _outcome(parse_edgelist, text) == want, (chunk, seed, text)

    # one line of a long canonical text replaced, late in the text, by a
    # fault or by a line in another form
    LATE_LINES = ["5 5", "7 2", "0 999", "0 x", "0 1 2", "3", "-1 4", "# note", "",
                  "  3 9", "3\t9", "3 9\r", "٣ 9"]

    @pytest.mark.parametrize("late", LATE_LINES)
    def test_one_late_line_in_small_chunks(self, monkeypatch, late):
        monkeypatch.setattr(formats, "_CHUNK", 64)
        g = gen_connected_graph(60, 0.3, 4)
        lines = write_edgelist(g).splitlines()
        for k in (len(lines) // 2, len(lines) - 3, len(lines) - 1):
            for extra in (False, True):  # in place of a line, or added
                edited = lines[:k] + [late] + lines[k + (not extra):]
                text = "\n".join(edited) + "\n"
                want = _outcome(oracles.ref_parse_edgelist, text)
                assert _outcome(parse_edgelist, text) == want, (late, k, extra)
        # a comment, a blank line or a line end of another kind changes no edge
        text = write_edgelist(g)
        cut = text.rindex("\n", 0, len(text) - 40) + 1
        for insert in ("# note\n", "\n", "\t\n"):
            assert parse_edgelist(text[:cut] + insert + text[cut:]) == g
        assert parse_edgelist(text[:cut - 1] + "\r\n" + text[cut:]) == g
        assert parse_edgelist(text.replace("\n", "\r\n")) == g

    def test_data_lines_at_every_chunk_size(self, monkeypatch):
        # every line break str.splitlines knows, \r\n among them, and
        # mixtures such as \r\r\n and \n\r, around blank and comment lines
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                  "\u2028", "\u2029", "\r\r\n", "\n\r"]
        pieces = ["0 1", "12 345", "# c", "", "  ", "\t7\t8 ", "x", "9"]
        texts = []
        for seed in range(60):
            rng = random.Random(seed)
            texts.append("".join(rng.choice(pieces) + rng.choice(breaks)
                                 for _ in range(rng.randrange(1, 12)))
                         + rng.choice(["", "5 6"]))
        texts += ["".join(breaks), "\r\n" * 5, "a\r\nb\rc\n\rd"]
        for chunk in range(1, 41):
            monkeypatch.setattr(formats, "_CHUNK", chunk)
            for text in texts:
                assert list(formats._data_lines(text)) == oracles._ref_data_lines(text), \
                    (chunk, text)


def _interval_text(rng):
    """A seeded interval text: random endpoints written as integers,
    decimals or fractions, and with probability one or more faults."""
    tokens = ["0", "1", "2", "-1", "0.5", "1/3", "2/3", "1e1", "-2.5e-1", "7/2"]
    lines = [f"{rng.choice(tokens)} {rng.choice(tokens)}" for _ in range(rng.randrange(6))]
    head = [len(lines)]
    for _ in range(rng.choice([0, 1, 1, 2])):
        k = rng.randrange(len(lines) + 1)
        if rng.random() < 0.25:
            head[0] += rng.choice([-1, 1])
        else:
            lines.insert(k, rng.choice(["0 1/0", "0 x", "0 1e", "1e5000 2", "0 1 2",
                                        "3", "2 2", "3 1", "1/2 0.5"]))
            head[0] += 1
    if rng.random() < 0.05:
        head = rng.choice([[-1], ["x"], [1, 2], [-len(lines)]])
    return _noise(rng, [" ".join(map(str, head))] + lines)


class TestIntervalsAgainstReference:
    def test_seeded_texts(self):
        outcomes = set()
        for seed in range(2000):
            text = _interval_text(random.Random(seed))
            want = _outcome(oracles.ref_parse_intervals, text)
            assert _outcome(parse_intervals, text) == want, (seed, text)
            outcomes.add(want.split(" ")[1] if isinstance(want, str) else "model")
        assert outcomes == {"model", "expected", "interval", "malformed",
                            "endpoint", "invalid", "Invalid", "degenerate"}, outcomes

    @pytest.mark.parametrize("text", [
        "3\n0 1\n0 1 2\n",  # wrong count before a malformed line
        "1\n0 x\n0 1\n",  # wrong count before a bad endpoint
        "2\n2 2\n0 x\n",  # a bad endpoint before a degenerate interval
        "2\n0 1\n1/0 2\n",
        "1\r\n# c\r\n\r\n 0.5  3/2 \r\n",
    ])
    def test_fault_order(self, text):
        assert _outcome(parse_intervals, text) == _outcome(oracles.ref_parse_intervals, text)


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
