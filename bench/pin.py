"""Pin the program's current answers for the benchmark's instance pools.

    python3 bench/pin.py [SEED ...]      (default: seeds 0-31)

Solves every instance of every workload's pool for each seed through
`semidom.cli.main`, checks each answer from the definitions, and writes
`bench/pins.json`: workload -> instance -> answer digest. A later run
rejects an answer whose digest differs, so a change that keeps answers
valid but alters the chosen sets or their tie-breaks is caught. The
graph-exact pool does not depend on the seed and is pinned once.
"""

import json
import shutil
import sys

from worker import BENCH, OUT, import_semidom, request

DEFAULT_SEEDS = range(32)


def main(seeds) -> int:
    cli = import_semidom()
    from answers import answer_problems, digest
    from workloads import WORKLOADS, write_pool
    pins = {}
    work = OUT / "pin"
    try:
        for wl in WORKLOADS.values():
            pins[wl.name] = {}
            for seed in seeds[:1] if wl.name == "graph-exact" else seeds:
                pool = wl.pool(seed)
                for inst, path in zip(pool, write_pool(pool, work)):
                    _, code, doc = request(cli, [*wl.argv, "--input", str(path)])
                    if code != 0 or not doc["verified"]:
                        raise SystemExit(f"{wl.name} {inst.pin}: exit {code}")
                    problems = answer_problems(inst, doc["set"], {})
                    if problems:
                        raise SystemExit(f"{wl.name} {inst.pin}: {problems[:3]}")
                    pins[wl.name][inst.pin] = digest(doc["set"])
            print(f"{wl.name}: {len(pins[wl.name])} answers pinned", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or list(DEFAULT_SEEDS)))
