"""Text file formats: edge lists, interval models, vertex sets, partitions.

All formats are line-based; blank lines and lines starting with `#` are
ignored. Edge lists start with `n m`, n at most 10^6, followed by m lines
`u v` (0-based, u < v). Interval files start with `n` followed by n lines `a b`; endpoints
are integers, decimals or `p/q` fractions, and are written as integers or
exact `p/q`. Vertex-set files are whitespace-separated ids. Partition files
hold two labelled lines, `clique ...ids` and `independent ...ids`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, islice

from .graph import Graph, SplitPartition, _raise_first_bad_edge
from .intervals import IntervalModel


# Largest vertex count an edge-list header may declare. The graph holds
# one adjacency row per vertex before any edge is read, so this bounds the
# memory a header alone can ask for.
_MAX_VERTICES = 10**6

# Largest decimal exponent magnitude accepted in an endpoint. Fraction
# expands the exponent into an exact integer, so it bounds the work of one
# token; 4300 is CPython's default limit on digits in int conversion.
_MAX_EXPONENT = 4300

# About how many characters of the text a parser holds split into lines or
# tokens at a time
_CHUNK = 1 << 16

# A chunk of lines in the form write_edgelist writes: `u v\n`, ASCII digits
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)*")

# A line end a chunk may be cut after: a \n, or a \r not followed by a \n
_LINE_END = re.compile(r"\n|\r(?!\n)")

# About how many characters the first chunk of a header read holds
_HEADER_CHUNK = 64


def _chunks(text: str, size: int = 0) -> Iterator[str]:
    r"""The text in pieces of about _CHUNK characters, each but the last cut
    just after a `\n` or a lone `\r`. A cut there cannot split a `\r\n`, so
    the lines of the pieces, in order, are the lines of the text. Given a
    size, the first piece is about that long, and each next one twice the
    one before, up to _CHUNK."""
    start, end = 0, len(text)
    size = size or _CHUNK
    while start < end:
        found = _LINE_END.search(text, start + size - 1)
        cut = found.end() if found else end
        yield text[start:cut]
        start, size = cut, min(2 * size, _CHUNK)


def _chunk_lines(chunk: str) -> Iterator[list[str]]:
    for line in chunk.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line.split()


def _data_lines(text: str, size: int = 0) -> Iterator[list[str]]:
    """The tokens of each line that is neither blank nor a comment, in
    order, read one chunk at a time (see _chunks), so the list of all lines
    is never held."""
    return chain.from_iterable(map(_chunk_lines, _chunks(text, size)))


def _edgelist_header(lines: Iterator[list[str]]) -> tuple[int, int]:
    head = next(lines, None)
    if head is None:
        raise ValueError("empty edge-list file")
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {' '.join(head)!r}")
    n, m = int(head[0]), int(head[1])
    if n > _MAX_VERTICES:
        raise ValueError(f"edge list declares {n} vertices, more than the "
                         f"limit of {_MAX_VERTICES}")
    return n, m


def edgelist_header(text: str) -> tuple[int, int]:
    """The `n m` header of an edge list, checked as parse_edgelist checks
    it, without parsing any edge line: the lines are split from chunks that
    start short and double, so only a prefix a little longer than the lines
    up to the header is split."""
    return _edgelist_header(_data_lines(text, _HEADER_CHUNK))


def _data_body(lines: Iterator[list[str]], expected: int, what: str, read) -> Iterator:
    """`read(parts)` of each data line left, in order. A wrong line count is
    raised before the ValueError of any line, so after a bad line the rest
    are counted; the lines are still read only once."""
    count = 0
    try:
        for count, parts in enumerate(lines, 1):
            yield read(parts)
    except ValueError:
        count += sum(1 for _ in lines)
        if count == expected:
            raise
    if count != expected:
        raise ValueError(f"expected {expected} {what} lines, found {count}")


def _edge(parts: list[str]) -> tuple[int, int]:
    if len(parts) != 2:
        raise ValueError(f"malformed edge line: {' '.join(parts)!r}")
    u, v = int(parts[0]), int(parts[1])
    if not u < v:
        raise ValueError(f"edges must be written u v with u < v, got {u} {v}")
    return u, v


def parse_edgelist(text: str) -> Graph:
    """The graph of an edge list, read in one pass straight into its
    adjacency rows, which share one int object per vertex.

    A file's first fault is reported in this order: the header, the line
    count, the first bad line, a negative n, then the first edge out of
    range or repeated. Only a fault found in the pass reads the text again,
    line by line, and that read is the one that reports it.
    """
    found = _edge_rows(text)
    if found is None:
        return _parse_by_lines(text)
    n, rows = found
    return Graph(n, _rows=rows)


def _edge_rows(text: str) -> tuple[int, list[list[int]]] | None:
    r"""n and the sorted adjacency rows of an edge list with no fault, or
    None at its first fault of any kind. A chunk of the text in the
    canonical form `u v\n` is split into ints in bulk; any other chunk is
    read line by line.

    Edges listed in increasing (u, v) order, as write_edgelist lists them,
    fill each row in sorted order, smaller neighbours first, and cannot
    repeat, so only a text in another order has its rows sorted and
    searched for a repeated neighbour.
    """
    rows = None  # until the header is read
    last, in_order = -1, True  # the key u * n + v of the last edge
    try:
        for chunk in _chunks(text):
            canonical = _CANONICAL.fullmatch(chunk)
            if canonical:
                ends = map(int, chunk.split())
                pairs = zip(ends, ends)
            else:
                pairs = _chunk_lines(chunk)
            if rows is None:
                head = next(pairs, None)
                if head is None:  # only blank and comment lines so far
                    continue
                if len(head) != 2:
                    return None
                n, m = map(int, head)
                if not 0 <= n <= _MAX_VERTICES:
                    return None
                ids = list(range(n))
                rows = [[] for _ in ids]
            for u, v in pairs if canonical else map(_edge, pairs):
                if not 0 <= u < v < n:
                    return None
                rows[u].append(ids[v])
                rows[v].append(ids[u])
                key = u * n + v
                if key <= last:
                    in_order = False
                last = key
    except ValueError:
        return None
    # each edge read adds two row entries
    if rows is None or sum(map(len, rows)) != 2 * m:
        return None
    if not in_order:
        if sum(map(len, map(set, rows))) != 2 * m:  # a repeated edge
            return None
        for row in rows:
            row.sort()
    return n, rows


def _parse_by_lines(text: str) -> Graph:
    """parse_edgelist's graph, or its error, read one data line at a time."""
    lines = _data_lines(text)
    n, m = _edgelist_header(lines)
    ids = list(range(n))
    rows: list[list[int]] = [[] for _ in ids]
    for u, v in _data_body(lines, m, "edge", _edge):
        # checked before indexing, as a negative id would index from the
        # end; an edge out of range is left out, and so shows in the count
        if 0 <= u and v < n:
            rows[u].append(ids[v])
            rows[v].append(ids[u])
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    # fewer than 2m distinct row entries: an edge out of range or repeated
    if sum(map(len, map(set, rows))) < 2 * m:
        _raise_first_bad_edge(n, map(_edge, islice(_data_lines(text), 1, None)))
    for row in rows:
        row.sort()
    return Graph(n, _rows=rows)


def edgelist_rows(g: Graph) -> Iterator[str]:
    """The text of write_edgelist(g) in pieces: the header `n m`, then one
    string per adjacency row, of its edges to larger neighbours."""
    yield f"{g.n} {g.m}\n"
    for u, row in enumerate(g._adj):
        yield "".join([f"{u} {v}\n" for v in row[bisect_right(row, u):]])


def write_edgelist(g: Graph) -> str:
    """The header `n m`, then each edge as `u v`, u < v, in sorted order.
    The text is joined from one string per adjacency row: a string or a
    tuple per edge would take several times the size of the text on a
    dense graph."""
    return "".join(edgelist_rows(g))


def _parse_number(token: str) -> int | Fraction:
    try:
        return int(token)
    except ValueError:
        pass
    _, marker, exponent = token.upper().rpartition("E")
    try:
        too_large = bool(marker) and abs(int(exponent)) > _MAX_EXPONENT
    except ValueError:  # not an exponent; Fraction judges the token
        too_large = False
    if too_large:
        raise ValueError(f"endpoint {token!r} has an exponent beyond "
                         f"{_MAX_EXPONENT} in magnitude")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"endpoint {token!r} has a zero denominator") from None


def _format_number(x) -> str:
    """An endpoint as an integer or an exact `p/q` that parses back equal."""
    if isinstance(x, int):
        return str(x)
    return str(Fraction(x))


def _interval(parts: list[str]) -> tuple[int | Fraction, int | Fraction]:
    if len(parts) != 2:
        raise ValueError(f"malformed interval line: {' '.join(parts)!r}")
    return _parse_number(parts[0]), _parse_number(parts[1])


def parse_intervals(text: str) -> IntervalModel:
    """The interval model of a file, read in one pass. A file's first fault
    is reported in this order: the header, the line count, the first bad
    line, then the first degenerate interval."""
    lines = _data_lines(text)
    head = next(lines, None)
    if head is None:
        raise ValueError("empty interval file")
    if len(head) != 1:
        raise ValueError(f"expected header 'n', got {' '.join(head)!r}")
    n = int(head[0])
    if n < 0:
        raise ValueError(f"interval count must be nonnegative, got {n}")
    return IntervalModel(tuple(_data_body(lines, n, "interval", _interval)))


def write_intervals(m: IntervalModel) -> str:
    lines = [str(m.n)]
    lines += [f"{_format_number(a)} {_format_number(b)}" for a, b in m.intervals]
    return "\n".join(lines) + "\n"


def parse_vertex_set(text: str) -> list[int]:
    ids = []
    for parts in _data_lines(text):
        ids.extend(int(tok) for tok in parts)
    return ids


def parse_partition(text: str) -> SplitPartition:
    found: dict[str, list[int]] = {}
    for parts in _data_lines(text):
        label, ids = parts[0].lower(), [int(tok) for tok in parts[1:]]
        if label not in ("clique", "independent"):
            raise ValueError(f"unknown partition label: {label!r}")
        if label in found:
            raise ValueError(f"partition file repeats the {label!r} line")
        found[label] = ids
    if "clique" not in found:
        raise ValueError("partition file is missing the 'clique' line")
    return SplitPartition(clique=tuple(sorted(found["clique"])),
                          independent=tuple(sorted(found.get("independent", []))))


def write_partition(part: SplitPartition) -> str:
    return ("clique " + " ".join(str(v) for v in part.clique) + "\n"
            + "independent " + " ".join(str(v) for v in part.independent) + "\n")
