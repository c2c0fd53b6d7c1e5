"""Check that traced counts repeat exactly across processes.

Run from the repository root:

    python3 bench/check_determinism.py --workload token --seed 1

Runs ``bench/run.py --trace 1`` once under each PYTHONHASHSEED in HASHSEEDS,
one run at a time, and compares every count metric (queries, distinct
queries, paths, CNF size, ...) and the verdict check of each run with the
first. Exits with code 1 on any difference outside HASH_ORDER_COUNTS. A count
is only evidence for a change if it repeats exactly here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HASHSEEDS = ("1", "2", "3")

# Counts that may differ and are reported but not failed on. Solver's
# ``set(a) == set(b)`` stops at the first element of ``a`` missing from ``b``,
# in hash order, so how many outermost Term.__eq__ calls it makes before that
# depends on PYTHONHASHSEED; trace.spans includes those calls.
HASH_ORDER_COUNTS = {"terms.eq.calls", "trace.spans"}


def traced_counts(workload: str, seed: int, hashseed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] == "count"}
    counts["correct"] = result["correct"]
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    runs = {h: traced_counts(args.workload, args.seed, h) for h in HASHSEEDS}
    first, *rest = HASHSEEDS
    differ = [(h, k, runs[first][k], runs[h].get(k))
              for h in rest for k in runs[first] if runs[h].get(k) != runs[first][k]]
    for h, k, a, b in differ:
        known = " (hash order, not failed on)" if k in HASH_ORDER_COUNTS else ""
        print(f"PYTHONHASHSEED={h}: {k} = {b}, but {a} under {first}{known}")
    failed = [d for d in differ if d[1] not in HASH_ORDER_COUNTS]
    verdict = ("differ" if failed else
               "identical apart from hash-order counts" if differ else "identical")
    print(f"{args.workload} seed {args.seed}: {len(runs[first])} counts "
          f"{verdict} under PYTHONHASHSEED {', '.join(HASHSEEDS)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
