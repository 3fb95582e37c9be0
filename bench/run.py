"""Entry point of the semidom benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a fresh child process, so that the child's memory
high-water mark belongs to this workload alone, and waits for it. The
child's last line of stdout is the result.
"""

import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 170

if __name__ == "__main__":
    worker = Path(__file__).resolve().parent / "worker.py"
    try:
        code = subprocess.run([sys.executable, str(worker), *sys.argv[1:]],
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S} s", file=sys.stderr)
        code = 1
    sys.exit(code)
