"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Tolerances are exact (0) unless a criterion states a runtime or
ratio bound.
"""

import io
import itertools
import json
import math
import time
from contextlib import redirect_stdout
from functools import lru_cache

from semidom.approx import algo_dom_set, approx_semitotal, greedy_dominating_set
from semidom.cli import main as cli_main
from semidom.domination import DominationKind, exact_min, verify
from semidom.errors import InfeasibleError
from semidom.generators import (SplitMix64, gen_connected_graph,
                                gen_interval_model, gen_named, gen_split_graph)
from semidom.graph import Graph, is_connected
from semidom.intervals import intersection_graph
from semidom.interval_solver import solve_interval
from semidom.reductions import (_LAYOUT, GadgetKind, build_gadget,
                                check_reduction, min_vertex_cover)

import oracles

DOM = DominationKind.DOMINATING
TOT = DominationKind.TOTAL
SEMI = DominationKind.SEMITOTAL


def report(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@lru_cache(maxsize=None)
def all_connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        g = Graph(n, edges)
        if is_connected(g):
            out.append(g)
    return tuple(out)


def test_criterion_1_hierarchy():
    t0 = time.perf_counter()
    rng = SplitMix64(101)
    for trial in range(500):
        n = 2 + rng.randrange(9)
        g = gen_connected_graph(n, 0.2 + rng.random() * 0.5, rng.next_u64())
        gamma = len(exact_min(g, DOM))
        semi = len(exact_min(g, SEMI))
        total = len(exact_min(g, TOT))
        assert gamma <= semi <= total, (trial, g.sorted_edges())
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 120,
           f"gamma <= gamma_t2 <= gamma_t on 500 graphs in {elapsed:.1f}s (< 120s)")


def test_criterion_2_interval_correctness():
    t0 = time.perf_counter()
    rng = SplitMix64(202)
    solved = 0
    infeasible_agreed = 0
    while solved < 300:
        n = 2 + rng.randrange(11)
        m = gen_interval_model(n, rng.next_u64())
        g = intersection_graph(m)
        try:
            s = solve_interval(m)
        except InfeasibleError:
            try:
                exact_min(g, SEMI)
                assert False, f"solver infeasible but oracle solved: {m.intervals}"
            except InfeasibleError:
                infeasible_agreed += 1
            continue
        assert verify(g, s, SEMI).valid, m.intervals
        assert len(s) == len(exact_min(g, SEMI)), m.intervals
        solved += 1
    elapsed = time.perf_counter() - t0
    report(2, elapsed < 300,
           f"300 models match the oracle exactly ({infeasible_agreed} infeasible "
           f"agreed) in {elapsed:.1f}s (< 300s)")


def test_criterion_3_interval_complexity():
    times = {}
    for n in (500, 1000, 2000):
        m = gen_interval_model(n, 77)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            solve_interval(m)
            best = min(best, time.perf_counter() - t0)
        times[n] = best
    # a dense worst case still has to clear the absolute budget
    from semidom.intervals import IntervalModel
    dense = IntervalModel(tuple((2 * i, 2 * i + 2000) for i in range(2000)))
    t0 = time.perf_counter()
    solve_interval(dense)
    dense_time = time.perf_counter() - t0
    r1 = times[1000] / max(times[500], 1e-9)
    r2 = times[2000] / max(times[1000], 1e-9)
    ok = times[2000] < 5.0 and dense_time < 5.0 and r1 <= 5.0 and r2 <= 5.0
    report(3, ok,
           f"n=2000 in {times[2000]*1000:.1f}ms (dense {dense_time:.2f}s, < 5s); "
           f"ratios {r1:.2f}, {r2:.2f} (<= 5)")


def test_criterion_3_chain_budget():
    # every chain interval is a digraph vertex, so this times the DP itself
    from semidom.intervals import IntervalModel
    n = 100_000
    chain = IntervalModel(tuple((3 * i, 3 * i + 4 + i % 3) for i in range(n)))
    t0 = time.perf_counter()
    s = solve_interval(chain)
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 5.0, f"chain n={n} in {elapsed:.2f}s (< 5s), |S|={len(s)}")


def test_sparse_generator_budget():
    # n(n-1)/2 = 4.5M seeded draws for the large sparse graphs of aim 1
    t0 = time.perf_counter()
    g = gen_connected_graph(3000, 1 / 3000, 0)
    elapsed = time.perf_counter() - t0
    report("generator", elapsed < 2.5 and is_connected(g),
           f"gen_connected_graph(3000, 1/3000) in {elapsed:.2f}s (< 2.5s), m={g.m}")


def test_exact_oracle_pool_budget():
    # the 39 graphs of the benchmark's graph-exact pool, solved in one budget
    t0 = time.perf_counter()
    sizes = [len(exact_min(gen_connected_graph(30, 0.08, s), SEMI)) for s in range(39)]
    elapsed = time.perf_counter() - t0
    report("exact-pool", elapsed < 2.0,
           f"39 graphs of n=30 in {elapsed:.2f}s (< 2s), sizes {min(sizes)}-{max(sizes)}")


def test_criterion_4_gp4_identities():
    rng = SplitMix64(404)
    for trial in range(50):
        n = 2 + rng.randrange(3)
        base = gen_connected_graph(n, 0.3 + rng.random() * 0.5, rng.next_u64())
        h = build_gadget(base, GadgetKind.GP4).h
        semi_h = len(exact_min(h, SEMI))
        assert semi_h == 2 * n, (trial, base.sorted_edges())
        total_h = len(exact_min(h, TOT))
        total_base = len(exact_min(base, TOT))
        assert total_h == 2 * n + total_base, (trial, base.sorted_edges())
    report(4, True, "gamma_t2(GP4)=2n and gamma_t(GP4)=2n+gamma_t(base), 50 bases")


def test_criterion_5_gadget_equalities():
    t0 = time.perf_counter()
    checked = 0
    for n in range(2, 5):
        for g in all_connected_graphs(n):
            gamma = len(exact_min(g, DOM))
            h = build_gadget(g, GadgetKind.BIPARTITE).h
            assert len(exact_min(h, SEMI)) == 2 * n + gamma, g.sorted_edges()
            checked += 1
    t_bip = time.perf_counter() - t0

    t0 = time.perf_counter()
    rng = SplitMix64(505)
    split_checked = 0
    while split_checked < 40:
        p = 1 + rng.randrange(5)
        q = 1 + rng.randrange(6 - p) if p < 6 else 1
        if p + q > 6:
            continue
        g, part = gen_split_graph(p, q, rng.random(), rng.next_u64())
        rep = check_reduction(g, GadgetKind.SPLIT, part)
        assert rep.holds, (g.sorted_edges(), part, rep.details)
        split_checked += 1
    t_split = time.perf_counter() - t0

    t0 = time.perf_counter()
    apx_checked = 0
    for n in range(1, 4):
        for g in all_connected_graphs(n):
            if g.m > 3:
                continue
            h = build_gadget(g, GadgetKind.APX).h
            tau = len(min_vertex_cover(g))
            assert len(exact_min(h, SEMI)) == tau + 2 * n, g.sorted_edges()
            apx_checked += 1
    t_apx = time.perf_counter() - t0

    ok = t_bip < 60 and t_split < 60 and t_apx < 60
    report(5, ok,
           f"BIPARTITE {checked} sources ({t_bip:.1f}s), SPLIT {split_checked} "
           f"({t_split:.1f}s), APX {apx_checked} ({t_apx:.1f}s), each < 60s")


def test_gadget_identities_at_the_caps():
    # beside criterion 5: every kind's identity on seeded sources of the
    # largest size check_reduction takes, each kind within its own budget
    lines = []
    for kind in GadgetKind:
        cap = _LAYOUT[kind].cap
        if kind is GadgetKind.SPLIT:
            sources = [gen_split_graph(cap // 2, cap - cap // 2, p, s)
                       for p, s in ((0.1, 0), (0.3, 1), (0.6, 2))]
        else:
            sources = [(gen_named("path", cap), None)] + [
                (gen_connected_graph(cap, p, s), None)
                for p, s in ((3 / cap, 0), (0.6, 2))]
        t0 = time.perf_counter()
        for g, part in sources:
            assert g.n == cap
            rep = check_reduction(g, kind, part)
            assert rep.holds, (kind, g.sorted_edges(), rep.details)
        elapsed = time.perf_counter() - t0
        assert elapsed < 20, (kind, elapsed)
        lines.append(f"{kind.value} n={cap} x{len(sources)} {elapsed:.2f}s")
    t0 = time.perf_counter()
    assert check_reduction(gen_connected_graph(24, 0.3, 0), GadgetKind.APX).holds
    t_apx = time.perf_counter() - t0
    report("gadget-caps", t_apx < 1,
           f"{', '.join(lines)} (each < 20s); APX n=24 p=0.3 {t_apx:.3f}s (< 1s)")


def test_criterion_6_approx_guarantee():
    rng = SplitMix64(606)
    for trial in range(300):
        n = 2 + rng.randrange(11)
        g = gen_connected_graph(n, 0.15 + rng.random() * 0.5, rng.next_u64())
        s = approx_semitotal(g)
        assert verify(g, s, SEMI).valid, (trial, g.sorted_edges())
        opt = len(exact_min(g, SEMI))
        bound = (2 + 3 * math.log(g.max_degree() + 1)) * opt
        assert len(s) <= bound, (trial, g.sorted_edges(), len(s), bound)
    report(6, True,
           "approximation verified semitotal and within (2+3ln(D+1))*opt on 300 graphs")


def test_criterion_7_subroutine_guarantees():
    rng = SplitMix64(606)  # same suite as criterion 6
    for trial in range(300):
        n = 2 + rng.randrange(11)
        g = gen_connected_graph(n, 0.15 + rng.random() * 0.5, rng.next_u64())
        d = greedy_dominating_set(g)
        assert verify(g, d, DOM).valid
        bound = (1 + math.log(g.max_degree() + 1)) * len(exact_min(g, DOM))
        assert len(d) <= bound, (trial, g.sorted_edges())

    rng = SplitMix64(707)
    for trial in range(60):
        nx = 1 + rng.randrange(8)
        universe = list(range(nx))
        nsets = 1 + rng.randrange(11)
        family = [set(x for x in universe if rng.randrange(2)) for _ in range(nsets)]
        family.append(set(universe))
        family = [s for s in family if s]
        p = max(len(s) for s in family)
        opt = oracles.brute_min_cover(universe, family)
        # greedy cover, recomputed here straight from the instance
        uncovered = set(universe)
        picks = 0
        while uncovered:
            best = max(family, key=lambda s: len(s & uncovered))
            uncovered -= best
            picks += 1
        assert picks <= (1 + math.log(p)) * opt + 1e-9, (trial, family)
    report(7, True,
           "greedy dominating within (1+ln(D+1))*gamma on 300 graphs; greedy cover "
           "within (1+ln p)*opt on 60 brute-forced instances")


def test_criterion_8_algorithm2_soundness():
    rng = SplitMix64(808)
    for trial in range(100):
        n = 1 + rng.randrange(10)
        g = gen_connected_graph(n, 0.2 + rng.random() * 0.4, rng.next_u64())
        d = algo_dom_set(g, 2)
        assert verify(g, d, DOM).valid, (trial, g.sorted_edges())

    t0 = time.perf_counter()
    count = 0
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            gamma = len(exact_min(g, DOM))
            h = build_gadget(g, GadgetKind.LN).h
            assert len(exact_min(h, SEMI)) <= gamma + 1, g.sorted_edges()
            count += 1
    elapsed = time.perf_counter() - t0
    report(8, True,
           f"algo-dom-set dominating on 100 graphs; gamma_t2(pendant-star gadget) "
           f"<= gamma+1 on all {count} connected graphs n<=6 ({elapsed:.1f}s)")


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(args))
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


SOLVE_SCHEMA = {"algorithm": str, "n": int, "m": int, "size": int, "set": list,
                "verified": bool, "elapsedMs": (int, float), "extra": dict}
VERIFY_SCHEMA = {"algorithm": str, "kind": str, "n": int, "m": int, "size": int,
                 "set": list, "valid": bool, "violations": list}


def check_schema(doc, schema):
    assert set(doc) == set(schema), (sorted(doc), sorted(schema))
    for key, typ in schema.items():
        assert isinstance(doc[key], typ), (key, doc[key])


def test_criterion_9_cli_round_trip(tmp_path):
    instances = 0
    runs = 0
    rng = SplitMix64(909)
    # interval instances: interval + exact solvers, then verify
    for i in range(20):
        f = tmp_path / f"m{i}.txt"
        size = 2 + rng.randrange(11)
        code, doc = run_cli("gen", "--family", "intervals", "--size", str(size),
                            "--seed", str(1000 + i), "--output", str(f))
        assert code == 0
        sets = {}
        errors = {}
        for algo in ("interval", "exact"):
            code, doc = run_cli("solve", "--algo", algo, "--format", "intervals",
                                "--input", str(f))
            if code == 3:  # singleton component: both algos must agree
                sets[algo] = None
                errors[algo] = doc["error"]
                runs += 1
                continue
            assert code == 0, (algo, doc)
            check_schema(doc, SOLVE_SCHEMA)
            sets[algo] = doc["set"]
            runs += 1
        assert (sets["interval"] is None) == (sets["exact"] is None)
        assert errors.get("interval") == errors.get("exact"), errors
        if sets["interval"] is not None:
            sfile = tmp_path / f"m{i}.set"
            sfile.write_text(" ".join(map(str, sets["interval"])) + "\n")
            code, doc = run_cli("verify", "--input", str(f), "--format",
                                "intervals", "--set", str(sfile), "--kind",
                                "semitotal")
            assert code == 0 and doc["valid"] is True
            check_schema(doc, VERIFY_SCHEMA)
            runs += 1
        instances += 1
    # graph instances: exact + approx solvers, then verify
    for i in range(24):
        f = tmp_path / f"g{i}.txt"
        size = 2 + rng.randrange(11)
        p = 0.2 + rng.random() * 0.5
        code, doc = run_cli("gen", "--family", "random", "--size", str(size),
                            "--p", str(p), "--seed", str(2000 + i),
                            "--output", str(f))
        assert code == 0
        for algo in ("exact", "approx"):
            code, doc = run_cli("solve", "--algo", algo, "--input", str(f))
            assert code == 0, (algo, doc)
            check_schema(doc, SOLVE_SCHEMA)
            assert doc["verified"] is True
            runs += 1
        sfile = tmp_path / f"g{i}.set"
        sfile.write_text(" ".join(map(str, doc["set"])) + "\n")
        code, doc = run_cli("verify", "--input", str(f), "--set", str(sfile),
                            "--kind", "semitotal")
        assert code == 0 and doc["valid"] is True
        runs += 1
        instances += 1
    # named families
    for i, (family, size) in enumerate(itertools.islice(
            itertools.cycle([("path", 5), ("cycle", 6), ("star", 5),
                             ("complete", 4), ("gp4", 2)]), 6)):
        f = tmp_path / f"n{i}.txt"
        code, doc = run_cli("gen", "--family", family, "--size", str(size),
                            "--seed", str(i), "--output", str(f))
        assert code == 0
        code, doc = run_cli("solve", "--algo", "exact", "--input", str(f))
        assert code == 0 and doc["verified"] is True
        check_schema(doc, SOLVE_SCHEMA)
        runs += 1
        instances += 1
    report(9, instances >= 50,
           f"{instances} instances, {runs} CLI runs, all exit 0 with stable schemas")
