"""Checks on the benchmark itself.

    python3 perfbench/selfcheck.py [--seed N]

- Two traced runs of each workload with the same seed report identical
  exact counts (calls, nodes, tabloids kept).
- A different seed gives a different sequence of queries.
- Every pool holds distinct queries, and a pass runs each of them once.

Exits 1 on the first failed check.  Takes about two traced half-pools per
workload, a minute or two in all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import TRACE_ROUNDS, WORKLOADS  # noqa: E402
from workloads import ROUNDS, WORKLOADS as POOLS, make_rounds  # noqa: E402


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "traced", "--rounds", str(TRACE_ROUNDS)],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600,
    ).stdout.splitlines()[-1]
    result = json.loads(out)
    return {name: value for name, (value, unit) in result["layers"].items() if unit == "count"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed

    for workload in WORKLOADS:
        queries = [q for members in POOLS[workload] for q in members]
        if len(set(queries)) != len(queries):
            print(f"FAIL {workload}: a query appears twice in the pool")
            return 1
        rounds = make_rounds(workload, seed)
        argv = [q.argv for batch in rounds for q in batch]
        if len(rounds) != ROUNDS or sorted(argv) != sorted(q.argv for q in queries):
            print(f"FAIL {workload}: a pass does not run every query of the pool once")
            return 1
        other = [q.argv for batch in make_rounds(workload, seed + 1) for q in batch]
        if other == argv:
            print(f"FAIL {workload}: seeds {seed} and {seed + 1} give the same queries")
            return 1
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        if first != second:
            changed = {k: (first[k], second[k]) for k in first if first[k] != second.get(k)}
            print(f"FAIL {workload}: counts differ between two runs of seed {seed}: {changed}")
            return 1
        print(f"ok   {workload}: {len(argv)} distinct queries, seed {seed + 1} reorders them, "
              f"counts repeat: {first}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
