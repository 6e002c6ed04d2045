"""Steadiness self-check of the traced runs.

Usage, from the repository root:  python3 perfbench/selfcheck.py [--seed N] [workload ...]

For each workload, runs ``run.py --trace 1`` twice on one seed and
checks that every count and ratio metric (units count, bytes, ratio;
trace.overhead_frac excepted, being a ratio of times) is identical
across the two runs, and that each per-layer metric the workload is
built to exercise is nonzero.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

from run import EXPECT_NONZERO  # noqa: E402

TIMING_RATIOS = {"trace.overhead_frac"}


def traced(workload: str, seed: int) -> tuple[dict, bool]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    layer = next(json.loads(l[len("# per_layer "):]) for l in lines if l.startswith("# per_layer "))
    return layer, json.loads(lines[-1])["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description="steadiness self-check of traced runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(EXPECT_NONZERO))
    args = parser.parse_args()
    ok = True
    for wl in args.workloads:
        (first, c1), (second, c2) = traced(wl, args.seed), traced(wl, args.seed)
        steady = [k for k, m in first.items()
                  if m["unit"] in ("count", "bytes", "ratio") and k not in TIMING_RATIOS]
        differ = [k for k in steady if first[k] != second.get(k)]
        zero = [k for k in EXPECT_NONZERO[wl] if first.get(k, {}).get("value", 0) == 0]
        print(f"{wl}: {len(steady)} count/ratio metrics, differing: {differ or 'none'}; "
              f"expected nonzero but zero or absent: {zero or 'none'}; correct: {c1 and c2}")
        ok &= not differ and not zero and c1 and c2
    print("selfcheck:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
