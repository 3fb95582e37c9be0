"""Tests of the benchmark itself: generators, answer checker, tracing.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import semidom
import semidom.cli
from answers import answer_problems, digest, graph_problems, interval_problems
from semidom import (DominationKind, SplitMix64, bfs_distance, exact_min,
                     gen_connected_graph, solve_interval)
from spans import COUNTS, SPAN_NAMES, Tracer, layer_metrics, per_layer_units, self_times
from workloads import (SMALL_COMPONENTS, WORKLOADS, Instance, bounded_length_model,
                       write_pool)

BENCH = Path(__file__).resolve().parents[1]

GOLDEN = {
    "interval-sparse": "985852ad0b6fbe24",
    "interval-dense": "94e709d0327715c4",
    "graph-approx": "0bd1c835370ee8cc",
    "graph-exact": "11e15dd50932aa2a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pool_is_deterministic(name):
    texts = [inst.text for inst in WORKLOADS[name].pool(7)]
    again = [inst.text for inst in WORKLOADS[name].pool(7)]
    assert texts == again
    got = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
    assert got == GOLDEN[name]


def test_seed_changes_pool_except_exact():
    for name, wl in WORKLOADS.items():
        same = [i.text for i in wl.pool(1)] == [i.text for i in wl.pool(2)]
        assert same == (name == "graph-exact"), name


def test_bounded_length_components():
    model = bounded_length_model(300, 5)
    comps = semidom.connected_components(semidom.intersection_graph(model))
    assert [len(c) for c in comps] == [*SMALL_COMPONENTS, 300 - sum(SMALL_COMPONENTS)]


def _interval_edges(intervals):
    return [(i, j) for i in range(len(intervals)) for j in range(i + 1, len(intervals))
            if intervals[i][0] <= intervals[j][1] and intervals[j][0] <= intervals[i][1]]


def _far_vertex(g, member, members):
    dist = {v: bfs_distance(g, member, v) for v in range(g.n) if v not in members}
    return max(dist, key=lambda v: (dist[v], -v))


def _corruptions(g, members):
    """Each member dropped, and each member swapped for the vertex farthest from it."""
    for v in members:
        rest = [u for u in members if u != v]
        yield rest
        yield rest + [_far_vertex(g, v, set(members))]


def test_checker_rejects_corrupted_interval_answers():
    model = bounded_length_model(160, 3)
    ivs = model.intervals
    g = semidom.intersection_graph(model)
    answer = list(solve_interval(model))
    inst = Instance(pin="t", n=model.n, text="", intervals=ivs)
    assert answer_problems(inst, answer, {}) == []
    for bad in _corruptions(g, answer):
        assert answer_problems(inst, bad, {}), bad


def test_checker_rejects_corrupted_graph_answers():
    g = gen_connected_graph(30, 0.08, 3)
    answer = list(exact_min(g, DominationKind.SEMITOTAL))
    inst = Instance(pin="t", n=g.n, text="", edges=tuple(g.sorted_edges()))
    assert answer_problems(inst, answer, {}) == []
    for bad in _corruptions(g, answer):
        assert answer_problems(inst, bad, {}), bad


def test_checker_rejects_answer_that_differs_from_pin():
    g = gen_connected_graph(12, 0.3, 1)
    inst = Instance(pin="p", n=g.n, text="", edges=tuple(g.sorted_edges()))
    valid = list(range(g.n))
    assert answer_problems(inst, valid, {"p": digest(valid)}) == []
    assert answer_problems(inst, valid, {"p": digest(valid[1:])})
    assert answer_problems(inst, valid + [valid[0]], {}) == ["repeated member"]
    assert answer_problems(inst, [g.n], {}) == ["member out of range"]


def test_interval_sweep_agrees_with_graph_bfs():
    rng = SplitMix64(11)
    for trial in range(300):
        n = 2 + rng.randrange(12)
        pairs = []
        for _ in range(n):
            a = rng.randrange(20)
            pairs.append((a, a + 1 + rng.randrange(6)))
        members = [v for v in range(n) if rng.randrange(3) == 0]
        edges = _interval_edges(pairs)
        assert (not interval_problems(pairs, members)) == \
            (not graph_problems(n, edges, members)), (pairs, members)


def test_self_times_on_synthetic_tree():
    # root 0..10 with children 1..4 and 5..9; the first child has a child 2..3
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("c", 5.0, 9.0, 0, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    # overlapping and overhanging children are counted once and clipped
    spans = [("root", 0.0, 10.0, -1, 0), ("a", 1.0, 6.0, 0, 0),
             ("b", 4.0, 12.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_spans():
    spans = [
        ("cli.main", 0.0, 1.0, -1, 0),
        ("domination.verify", 0.25, 0.75, 0, 0),
        ("cli.main", 2.0, 5.0, -1, 1),
        ("domination.exact_min", 2.0, 4.0, 2, 1),
    ]
    counts = dict.fromkeys(COUNTS, 0) | {"domination.exact_min.size": 6}
    m = layer_metrics(spans, counts)
    assert m["cli.main.calls"] == (1.0, "count")
    assert m["cli.main.self_ms"][0] == pytest.approx(750.0)
    assert m["cli.main.share"][0] == pytest.approx(1.5 / 4.0)
    assert m["domination.verify.calls"][0] == 0.5
    assert m["domination.exact_min.share"][0] == pytest.approx(0.5)
    assert m["domination.exact_min.size"] == (3.0, "count")
    assert set(m) | {"trace_overhead_ratio"} == set(per_layer_units())


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "semidom" or name.startswith("semidom."):
            for key, value in vars(mod).items():
                if callable(value):
                    out[(name, key)] = value
    out[("Graph", "__init__")] = semidom.Graph.__init__
    return out


def test_traced_run_records_spans_and_restores_wrappers(tmp_path, capsys):
    wl = WORKLOADS["interval-sparse"]
    inst = Instance(pin="x", n=200, text=semidom.formats.write_intervals(
        bounded_length_model(200, 1)))
    [path] = write_pool([inst], tmp_path)
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert semidom.cli.intersection_graph is not before[("semidom.cli", "intersection_graph")]
        tracer.request = 0
        assert semidom.cli.main([*wl.argv, "--input", str(path)]) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "graph.Graph", "intervals.intersection_graph",
            "interval_solver.solve_interval", "domination.verify"} <= names
    assert names <= set(SPAN_NAMES)
    doc = json.loads(capsys.readouterr().out)
    assert tracer.counts["interval_solver.solve_interval.size"] == doc["size"]


def test_wrappers_restored_after_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_matches_definitions():
    from report import benchmark_spec
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec == benchmark_spec(WORKLOADS.values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "graph-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
