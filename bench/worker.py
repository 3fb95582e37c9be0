"""One benchmark run of one workload, in its own process.

Set-up imports semidom from the checkout's `src`, builds and writes the
instance pool and sends one warm-up request; it is repeated and its median
reported. The measured phase is a closed loop with one client: whole passes
over the pool, each request sent in-process through `semidom.cli.main` once
the previous one returned, until `--seconds` have passed. Answers are
checked after the loop. With `--trace 1` the time is split between an
untraced and a traced loop and the per-layer metrics are reported.

Times are reported at reference speed. On a machine whose cores are shared
with other tenants, speed drifts by tens of percent over minutes, which
would swamp any regression bound. So between requests the client times a
fixed mix of pure-Python work, `reference()`, and every measured time t is
reported as t * REF_NOMINAL_S / r, where r is the median of the reference
times measured around it: the time the work would take on a machine that
runs the reference in REF_NOMINAL_S. The raw wall-clock figures are printed
beside them.

The last line of stdout is the result, as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / ".out"

SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
REF_NOMINAL_S = 0.005
REF_WINDOW = 10

# name -> (unit, meaning); the end-to-end metrics of an untraced run
END_TO_END = {
    "latency_ms_p50": ("ms", "median time of one solve request, cli.main call to "
                             "return, at reference speed"),
    "latency_ms_tail": ("ms", f"p{TAIL_PERCENTILE} time of one solve request, at "
                              "reference speed"),
    "requests_per_s": ("1/s", "requests completed over the summed request time, "
                              "at reference speed"),
    "setup_s": ("s", "import, pool generation and writing, warm-up request; median "
                     f"of {SETUP_REPEATS}, at reference speed"),
    "peak_rss_mb": ("MB", "ru_maxrss of the workload's process"),
}


def import_semidom():
    """Import semidom from the checkout's `src`, never from anywhere else."""
    if not (SRC / "semidom" / "__init__.py").is_file():
        raise SystemExit(f"error: no semidom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import semidom.cli
    if Path(semidom.__file__).resolve().parent != SRC / "semidom":
        raise SystemExit(f"error: semidom imported from {semidom.__file__}")
    return semidom.cli


def reference() -> float:
    """Seconds a fixed mix of pure-Python work takes now: the machine's speed.

    The mix follows what the solvers do (integer arithmetic, big-integer
    bit operations, tuple allocation and sorting, set and dict inserts), so
    a slower machine slows it about as much as it slows a request.
    """
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    mask = 0
    for i in range(800):
        mask |= 1 << (i * 37 % 800)
        total += (mask & ~(1 << i)).bit_count()
    pairs = sorted(((i * 2654435761) & 0xFFFFF, i) for i in range(4000))
    edges = {(i, i * 7 % 2000) for i in range(2000)}
    groups: dict[int, tuple] = {}
    for i in range(3000):
        key = (i * 2654435761) & 0xFFF
        groups[key] = groups.get(key, ()) + (i,)
    del pairs, edges, groups
    return time.perf_counter() - start


def request(cli, argv):
    """Send one request; return (seconds, exit code, parsed JSON or None)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
    except Exception:  # a crash is a failed request, not a failed run
        traceback.print_exc(file=sys.stderr)
        return 0.0, -1, None
    try:
        doc = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        doc = None
    return elapsed, code, doc


def closed_loop(cli, jobs, seconds: float, tracer=None) -> list[tuple]:
    """Whole passes over `jobs`, (pool index, argv) pairs, until `seconds` have passed.

    Returns, per request, (pool index, seconds, scale, exit code, doc), where
    scale converts the request's time to reference speed. It uses the median
    of the REF_WINDOW reference times around the request, so that one
    disturbed reference does not distort it.
    """
    results = []
    refs = [reference()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not results:
        for i, argv in jobs:
            if tracer is not None:
                tracer.request = len(results)
            elapsed, code, doc = request(cli, argv)
            refs.append(reference())  # request k ran between refs[k] and refs[k + 1]
            results.append((i, elapsed, code, doc))
    half = REF_WINDOW // 2
    out = []
    for k, (i, elapsed, code, doc) in enumerate(results):
        ref = statistics.median(refs[max(0, k + 1 - half):k + 1 + half])
        out.append((i, elapsed, REF_NOMINAL_S / ref, code, doc))
    return out


def failures(pool, results, pins) -> list[bool]:
    """Judge every request; identical answers to one instance are checked once."""
    from answers import answer_problems, digest
    verdicts: dict[tuple[int, str], bool] = {}
    failed = []
    for i, _, _, code, doc in results:
        if code != 0 or doc is None or doc.get("verified") is not True:
            failed.append(True)
            continue
        key = (i, digest(doc["set"]))
        if key not in verdicts:
            problems = answer_problems(pool[i], doc["set"], pins)
            for p in problems[:5]:
                print(f"rejected {pool[i].pin}: {p}", file=sys.stderr)
            verdicts[key] = not problems
        failed.append(not verdicts[key])
    return failed


def tail(times: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE time (nearest rank) and the samples beyond it."""
    ordered = sorted(times)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def setup(cli, wl, seed: int, work: Path):
    """Build and write the pool and send the warm-up request, SETUP_REPEATS times.

    Returns the request argv per pool file, the pool, and the median set-up
    time at reference speed.
    """
    from workloads import write_pool
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        refs = [reference() for _ in range(REF_WINDOW // 2)]
        start = time.perf_counter()
        pool = wl.pool(seed)
        paths = write_pool(pool, work)
        argvs = [[*wl.argv, "--input", str(p)] for p in paths]
        request(cli, argvs[0])
        elapsed = time.perf_counter() - start
        refs += [reference() for _ in range(REF_WINDOW // 2)]
        times.append(elapsed * REF_NOMINAL_S / statistics.median(refs))
    return argvs, pool, statistics.median(times)


def untraced_metrics(results, failed, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run; prints the raw wall-clock figures too."""
    ok = [r for r, bad in zip(results, failed) if not bad]
    completed = len(ok)
    ok = ok or results  # every request failed: report their times anyway
    norm = [r[1] * r[2] for r in ok]
    raw = [r[1] for r in ok]
    tail_s, beyond = tail(norm)
    print(f"latency_ms_tail is p{TAIL_PERCENTILE} of {len(norm)} requests, "
          f"{beyond} beyond it")
    print(f"wall clock: p50 {statistics.median(raw) * 1000:.6g} ms, "
          f"p{TAIL_PERCENTILE} {tail(raw)[0] * 1000:.6g} ms, "
          f"reference {REF_NOMINAL_S / statistics.median(r[2] for r in ok) * 1000:.4g} ms "
          f"(nominal {REF_NOMINAL_S * 1000:g} ms)")
    return {
        "latency_ms_p50": (statistics.median(norm) * 1000.0, "ms"),
        "latency_ms_tail": (tail_s * 1000.0, "ms"),
        "requests_per_s": (completed / sum(norm) if completed else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(cli, jobs, seconds: float, wl_name: str):
    """Untraced then traced loop, each for half the time; per-layer metrics."""
    from spans import Tracer, layer_metrics
    results = closed_loop(cli, jobs, seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        traced = closed_loop(cli, jobs, seconds / 2, tracer)
    metrics = layer_metrics(tracer.spans, tracer.counts, [r[2] for r in traced])
    metrics["trace_overhead_ratio"] = (
        statistics.median(r[1] * r[2] for r in traced)
        / statistics.median(r[1] * r[2] for r in results), "ratio")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{wl_name}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return results + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli = import_semidom()
    import_s = time.perf_counter() - start
    import_s *= REF_NOMINAL_S / statistics.median(reference() for _ in range(REF_WINDOW // 2))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    pins = json.loads((BENCH / "pins.json").read_text()).get(wl.name, {})

    work = OUT / f"pool-{os.getpid()}"
    try:
        argvs, pool, setup_s = setup(cli, wl, args.seed, work)
        first = args.seed % len(argvs)  # the seed also picks where the loop starts
        jobs = list(enumerate(argvs))
        jobs = jobs[first:] + jobs[:first]
        if args.trace:
            results, metrics = traced_run(cli, jobs, args.seconds, wl.name)
        else:
            results = closed_loop(cli, jobs, args.seconds)
        failed = failures(pool, results, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    nfailed = sum(failed)
    print(f"workload {wl.name}: seed {args.seed}, {len(pool)} instances, "
          f"{len(results)} requests, {nfailed} failed "
          f"(failed_ratio {nfailed / len(results):.4f})")
    if not args.trace:
        metrics = untraced_metrics(results, failed, import_s + setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": nfailed == 0,
        "attempted": len(results),
        "failed": nfailed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
