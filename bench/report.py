"""Run every workload once untraced and once traced, and record the results.

    python3 bench/report.py [--seed N]

Prints every metric by name with its unit (each run checks its answers),
then writes `BENCHMARK.json` at the repository root from the definitions
below and `bench/baseline.json` with the measured numbers, the machine they
were measured on and the layer-to-end-to-end predictions.
"""

import argparse
import json
import platform
import subprocess
import sys

from spans import per_layer_units
from worker import BENCH, END_TO_END, import_semidom

RUN_SECONDS = 20

# share of the parent's median by which a metric may worsen before a
# change counts as a regression
BOUNDS = {
    "latency_ms_p50": 0.2,
    "latency_ms_tail": 0.25,
    "requests_per_s": 0.2,
    "setup_s": 0.25,
    "peak_rss_mb": 0.15,
}
BETTER = {"requests_per_s": "higher"}

# which end-to-end numbers each layer's self time should move, per workload
PREDICTIONS = [
    {"layer": "interval_solver.solve_interval.self_ms",
     "moves": ["latency_ms_p50", "requests_per_s"], "on": ["interval-sparse"],
     "not_on": ["interval-dense", "graph-approx", "graph-exact"]},
    {"layer": "intervals.intersection_graph.self_ms + graph.Graph.self_ms",
     "moves": ["latency_ms_p50", "requests_per_s", "peak_rss_mb"],
     "on": ["interval-dense", "interval-sparse"],
     "not_on": ["graph-approx", "graph-exact"]},
    {"layer": "domination.verify.self_ms + graph.*_masks.self_ms",
     "moves": ["latency_ms_p50", "requests_per_s"], "on": ["interval-dense"],
     "not_on": ["interval-sparse", "graph-approx"]},
    {"layer": "approx.greedy_dominating_set.self_ms",
     "moves": ["latency_ms_p50", "requests_per_s"], "on": ["graph-approx"],
     "not_on": ["interval-sparse", "interval-dense", "graph-exact"]},
    {"layer": "domination.exact_min.self_ms",
     "moves": ["latency_ms_p50", "requests_per_s"], "on": ["graph-exact"],
     "not_on": ["interval-sparse", "interval-dense", "graph-approx"]},
    {"layer": "formats.parse_*, intervals.canonicalize_intervals, cli.main self_ms",
     "moves": [], "on": [],
     "not_on": ["interval-sparse", "interval-dense", "graph-approx", "graph-exact"]},
]


def benchmark_spec(workloads) -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": name, "unit": unit,
                        "better": BETTER.get(name, "lower"), "bound": BOUNDS[name]}
                       for name, (unit, _) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in per_layer_units().items()],
    }


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import_semidom()
    from workloads import WORKLOADS
    spec = benchmark_spec(WORKLOADS.values())
    measured = {}
    for name in WORKLOADS:
        measured[name] = {"untraced": run(name, args.seed, 0),
                          "traced": run(name, args.seed, 1)}
        if not all(r["correct"] for r in measured[name].values()):
            print(f"error: {name} gave rejected answers", file=sys.stderr)
            return 1
    (BENCH.parent / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    baseline = {
        "machine": {"python": platform.python_version(), "cpu": platform.processor()
                    or platform.machine(), "cores_used": 1},
        "seed": args.seed,
        "run_seconds": RUN_SECONDS,
        "meaning": {name: meaning for name, (_, meaning) in END_TO_END.items()},
        "predictions": PREDICTIONS,
        "results": measured,
    }
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
