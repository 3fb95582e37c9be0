"""Seeded instance generators for tests, acceptance suites and benchmarks.

Randomness comes from a self-contained SplitMix64 stream rather than a
platform RNG, so the same seed yields bit-identical instances on every
machine and Python version. Golden tests pin the outputs.
"""

from __future__ import annotations

import math
import struct
from bisect import insort
from collections.abc import Iterator
from fractions import Fraction
from itertools import compress

from .graph import Graph, SplitPartition, connected_components
from .intervals import IntervalModel, canonicalize_intervals

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The bulk draws run _LANES draws side by side, one per 128-bit lane of a
# Python int: a 64-bit value, its product with a 64-bit constant and a carry
# into bit 64 all fit in a lane, so one big-integer operation applies each
# step of the SplitMix64 mix to every lane. The constants have closed forms
# in the lane radix x = 2**128, built with shifts and two exact divisions.
_LANES = 256
_ONES = ((1 << 128 * _LANES) - 1) // ((1 << 128) - 1)  # 1 in every lane
_LANE_MASK = _ONES * _MASK64  # the low 64 bits of every lane
# lane i holds (i + 1) * gamma: sum (i+1) x^i = (L x^(L+1) - (L+1) x^L + 1) / (x-1)^2
_RAMP = (((_LANES << 128 * (_LANES + 1)) - ((_LANES + 1) << 128 * _LANES) + 1)
         // ((1 << 128) - 1) ** 2 * _GAMMA)
# adding _STEP and masking moves every lane _LANES states on; no lane's sum
# reaches bit 65, so the mask drops each carry before it meets the next lane
_STEP = _ONES * (_LANES * _GAMMA & _MASK64)
_CARRIES = _ONES << 64  # bit 64 of every lane
# Draws whose blocks hold at most this many hits on average find them by bit
# scan, under a microsecond per hit; denser draws read every lane's carry as
# a byte, which costs about as much as 17 scans whatever the hits. The choice
# is made once per call: counting one block's hits (int.bit_count) costs
# 2-4 microseconds, more than the wrong choice costs a block near the
# crossover (BENCH_gen.json, bit_scan).
_SCAN_HITS = 16
# A block's 256 lanes as 512 little-endian u64 words, lane i's draw in word
# 2i. A fixed byte order, unlike memoryview.cast("Q"), keeps the draws the
# same on every platform.
_LANE_WORDS = struct.Struct(f"<{2 * _LANES}Q")


class SplitMix64:
    """SplitMix64: state advances by the golden-gamma constant, output is the
    finalizer mix of the new state. Reference: Steele, Lea & Flood's
    splittable PRNG family (public-domain constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def sample_without_replacement(self, bound: int, k: int) -> list[int]:
        """k distinct values from range(bound), via partial Fisher-Yates."""
        if k < 0:
            raise ValueError("sample size must be nonnegative")
        if k > bound:
            raise ValueError("sample larger than population")
        pool = list(range(bound))
        # swap i takes the i-th draw modulo bound - i, as randrange would
        for i, u in enumerate(self._next_u64s(k)):
            j = i + u % (bound - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def _mixed_blocks(self, count: int) -> Iterator[int]:
        """The next `count` outputs of `next_u64()`, _LANES per block, each
        block one int whose lane i holds output i of the block in its low 64
        bits; the stream then stands where `count` calls of `next_u64()`
        leave it, from the first block on.

        The lanes come before the final mask: bits 64-96 of each lane are
        zero, and bits 97-127 hold the next lane's low bits. The lane states
        are one int, stepped from block to block by adding _STEP and masking,
        so a block costs no product with the state. The last block's lanes
        past `count` hold the draws that follow.
        """
        lanes = (_ONES * self._state + _RAMP) & _LANE_MASK
        self._state = (self._state + count * _GAMMA) & _MASK64
        for _ in range(0, count, _LANES):
            z = ((lanes ^ (lanes >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
            z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
            yield z ^ (z >> 31)
            lanes = (lanes + _STEP) & _LANE_MASK

    def _next_u64s(self, count: int) -> list[int]:
        """`[self.next_u64() for _ in range(count)]`, drawn in bulk."""
        out: list[int] = []
        for z in self._mixed_blocks(count):
            # the top lane has no next lane, so its bits 64-127 are zero and
            # a block fits in 16 * _LANES bytes; the odd words hold the next
            # lanes' low bits and are dropped
            out += _LANE_WORDS.unpack(z.to_bytes(16 * _LANES, "little"))[::2]
        del out[count:]
        return out

    def _draws_below(self, count: int, p: float | Fraction) -> list[int]:
        """The indices k < count for which the k-th call of `random()` would
        return a value `< p`, in increasing order; the stream then stands
        where `count` such calls leave it.

        random() is (u >> 11) / 2**53 for the draw u, so random() < p exactly
        when u < T = ceil(p * 2**53) << 11, with p taken exactly as a
        Fraction. A lane holding u + 2**64 - T carries into bit 64 exactly
        when u >= T.

        Each block of `_mixed_blocks` leaves bits 64-96 of every lane zero
        and the next lane's low bits in bits 97-127, so adding the offset
        carries into bit 64 and no further: bits 97-127 never reach bit 64.
        Hence the carry bits of a block, compared once with _CARRIES, tell
        whether every lane missed, and such a block skips the per-lane
        extraction; at p = 3/800 that is (1 - p)**_LANES, about 38% of the
        blocks. A block that hits reads its hits off the carries XOR
        _CARRIES, whose set bits are the bits 128i + 64 of the lanes i that
        hit: one bit_length() per hit when a block expects at most
        _SCAN_HITS hits (_LANES * p of them; a block that hits at p = 3/800
        holds 1.6 on average), else one byte read of all the lanes.
        """
        limit = math.ceil(Fraction(p) * (1 << 53)) << 11
        offset = _ONES * ((1 << 64) - limit)
        hits: list[int] = []
        scan = _LANES * limit <= _SCAN_HITS << 64  # hits a block expects, at most _SCAN_HITS
        for base, z in zip(range(0, count, _LANES), self._mixed_blocks(count)):
            # bits 97-127 of each lane lie above the carry bit that is kept,
            # so no mask is needed
            z = (z + offset) & _CARRIES
            if z != _CARRIES:
                z ^= _CARRIES  # bit 128i + 64 is set when lane i hits
                if scan:
                    # top lane first; only the last block has lanes past count
                    found = []
                    while z:
                        top = z.bit_length() - 1
                        z ^= 1 << top
                        k = base + (top >> 7)
                        if k < count:
                            found.append(k)
                    hits += reversed(found)
                else:
                    # byte 16i + 8 holds lane i's bit 64
                    hits += compress(range(base, count),
                                     z.to_bytes(16 * _LANES, "little")[8::16])
        return hits


def gen_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style graph, patched to connectivity with random bridges.

    The bridges are drawn in one sweep over the components of the random
    draw, so the graph is built at most twice.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability out of range: {p}")
    rng = SplitMix64(seed)
    # one draw per pair (u, v), u < v, in row-major order; row u's pairs
    # have the indices below row_end that the earlier rows do not take.
    # Row v gets its smaller neighbours while the earlier rows are drawn,
    # then its larger ones, so every row comes out sorted.
    rows: list[list[int]] = [[] for _ in range(n)]
    u, row_end = 0, n - 1
    for k in rng._draws_below(n * (n - 1) // 2, p):
        while k >= row_end:
            u += 1
            row_end += n - 1 - u
        v = k - row_end + n
        rows[u].append(v)
        rows[v].append(u)
    g = Graph(n, _rows=list(rows))  # a copy: `rows` stays lists for the bridges
    comps = connected_components(g)
    if len(comps) == 1:
        return g
    # each bridge joins the component holding vertex 0, grown so far and
    # kept sorted, to the component with the next smallest first member;
    # the two ends lie in different components, so the edge is new
    merged = comps[0]
    for comp in comps[1:]:
        a = merged[rng.randrange(len(merged))]
        b = comp[rng.randrange(len(comp))]
        insort(rows[a], b)
        insort(rows[b], a)
        merged = sorted(merged + comp)
    return Graph(n, _rows=rows)


def gen_interval_model(n: int, seed: int) -> IntervalModel:
    """n intervals with endpoints sampled from 4n distinct integers, canonicalized."""
    if n < 1:
        raise ValueError("need at least one interval")
    rng = SplitMix64(seed)
    vals = rng.sample_without_replacement(4 * n, 2 * n)
    pairs = tuple((a, b) if a < b else (b, a) for a, b in zip(vals[::2], vals[1::2]))
    return canonicalize_intervals(IntervalModel(pairs))[0]


def gen_split_graph(p_clique: int, q_ind: int, density: float,
                    seed: int) -> tuple[Graph, SplitPartition]:
    """Random split graph: clique 0..p-1, independent p..p+q-1, random cross
    edges, and every otherwise-isolated independent vertex attached to a
    random clique vertex."""
    if p_clique < 1:
        raise ValueError("clique part must be nonempty")
    if q_ind < 0:
        raise ValueError("independent part size must be nonnegative")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density out of range: {density}")
    rng = SplitMix64(seed)
    n = p_clique + q_ind
    # the clique's rows as slices of one id list, sharing its int objects
    ids = list(range(n))
    rows = [ids[:v] + ids[v + 1:p_clique] for v in range(p_clique)] + [[] for _ in range(q_ind)]
    # one draw per pair (u, w), in order of w and then of u, so both rows
    # of each drawn edge stay sorted
    for k in rng._draws_below(p_clique * q_ind, density):
        w, u = divmod(k, p_clique)
        rows[u].append(ids[p_clique + w])
        rows[p_clique + w].append(ids[u])
    for w in range(p_clique, n):
        if not rows[w]:
            rows[w].append(rng.randrange(p_clique))
            rows[rows[w][0]].append(ids[w])
    # a clique row is two sorted runs, its clique ids and drawn ends, then
    # its attachments, so one sort merges them (insort would move the drawn
    # ends above each attachment, O(q^2) at p = 1)
    rows[:p_clique] = map(sorted, rows[:p_clique])
    g = Graph(n, _rows=rows)
    part = SplitPartition(clique=tuple(range(p_clique)),
                          independent=tuple(range(p_clique, n)))
    return g, part


def gen_named(family: str, size: int, seed: int = 0) -> Graph:
    """Standard families; gp4 hangs a 4-edge path off every vertex of a
    random connected base of the given size."""
    if family == "path":
        if size < 1:
            raise ValueError("path needs size >= 1")
        return Graph(size, [(i, i + 1) for i in range(size - 1)])
    if family == "cycle":
        if size < 3:
            raise ValueError("cycle needs size >= 3")
        return Graph(size, [(i, i + 1) for i in range(size - 1)] + [(0, size - 1)])
    if family == "star":
        if size < 1:
            raise ValueError("star needs size >= 1")
        return Graph(size, [(0, i) for i in range(1, size)])
    if family == "complete":
        if size < 1:
            raise ValueError("complete graph needs size >= 1")
        # rows straight from one id list, sharing its int objects: an edge
        # list would hold two ints and a tuple per edge before the rows exist
        ids = list(range(size))
        return Graph(size, _rows=[ids[:v] + ids[v + 1:] for v in range(size)])
    if family == "gp4":
        from .reductions import GadgetKind, build_gadget
        base = gen_connected_graph(size, 0.5, seed)
        return build_gadget(base, GadgetKind.GP4).h
    raise ValueError(f"unknown family: {family}")
