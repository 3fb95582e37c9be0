"""Answer checker of the semidom benchmark.

It judges an answer from the definitions alone and never calls
`semidom.verify`: a set is a semitotal dominating set when every vertex
outside it has a neighbour inside, and every member has another member
within distance 2. Interval instances are checked by sweeps over the model,
graph instances by breadth-first search over the edge list.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate

from workloads import Instance


def digest(members) -> str:
    """Short stable digest of an answer set, for pinning answers."""
    text = ",".join(str(v) for v in sorted(members))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def interval_problems(intervals, members) -> list[str]:
    """Violations of semitotal domination on the closed-interval model.

    Domination: interval x meets a member iff, among members with a <= b_x,
    the largest right end reaches a_x. Partner: the intervals meeting u
    cover one interval [L_u, R_u], and a member lies within distance 2 of u
    iff it meets [L_u, R_u].
    """
    dset = set(members)
    by_a = sorted(members, key=lambda v: intervals[v][0])
    d_a = [intervals[v][0] for v in by_a]
    # running best and second-best right end, as (b, id), over by_a prefixes
    top1, top2 = [], []
    best, second = (float("-inf"), -1), (float("-inf"), -1)
    for v in by_a:
        cand = (intervals[v][1], v)
        if cand > best:
            best, second = cand, best
        elif cand > second:
            second = cand
        top1.append(best)
        top2.append(second)
    problems = []
    for x, (a, b) in enumerate(intervals):
        if x in dset:
            continue
        k = bisect_right(d_a, b)
        if k == 0 or top1[k - 1][0] < a:
            problems.append(f"undominated {x}")

    all_a = sorted(iv[0] for iv in intervals)
    max_b = list(accumulate((iv[1] for iv in sorted(intervals)), max))
    by_b = sorted(intervals, key=lambda iv: iv[1])
    all_b = [iv[1] for iv in by_b]
    min_a = list(accumulate((iv[0] for iv in reversed(by_b)), min))[::-1]
    for u in sorted(dset):
        a, b = intervals[u]
        right = max_b[bisect_right(all_a, b) - 1]
        left = min_a[bisect_left(all_b, a)]
        k = bisect_right(d_a, right)
        if k == 0:
            problems.append(f"no partner {u}")
            continue
        bval, vid = top1[k - 1]
        if vid == u:
            bval, vid = top2[k - 1]
        if vid < 0 or bval < left:
            problems.append(f"no partner {u}")
    return problems


def graph_problems(n: int, edges, members) -> list[str]:
    """Violations of semitotal domination, by BFS on the edge list."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dset = set(members)
    problems = [f"undominated {x}" for x in range(n)
                if x not in dset and not any(y in dset for y in adj[x])]
    for u in sorted(dset):
        dist = {u: 0}
        queue = deque([u])
        found = False
        while queue and not found:
            w = queue.popleft()
            if dist[w] == 2:
                continue
            for y in adj[w]:
                if y not in dist:
                    dist[y] = dist[w] + 1
                    if y in dset:
                        found = True
                        break
                    queue.append(y)
        if not found:
            problems.append(f"no partner {u}")
    return problems


def answer_problems(inst: Instance, members, pins: dict[str, str]) -> list[str]:
    """Every reason to reject `members` as the answer for `inst`."""
    members = list(members)
    if len(set(members)) != len(members):
        return ["repeated member"]
    if any(not (isinstance(v, int) and 0 <= v < inst.n) for v in members):
        return ["member out of range"]
    if inst.intervals:
        problems = interval_problems(inst.intervals, members)
    else:
        problems = graph_problems(inst.n, inst.edges, members)
    pinned = pins.get(inst.pin)
    if pinned is not None and pinned != digest(members):
        problems.append(f"answer differs from the pinned one ({pinned})")
    return problems
