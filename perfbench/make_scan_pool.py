"""Rebuild ``scan_pool.json``, the stratified pool of seeded scan configurations.

Usage, from the repository root:  python3 perfbench/make_scan_pool.py

The pool holds 48 random 4-vertex configurations (2-D and 3-D, 3-8
edges, drawn from a fixed seed).  A ``bound --all`` scan costs 0.03 s
to 5 s depending on whether it stops early, so the configurations are
sorted by the cost of one scan and split into six strata of equal size.
A workload seed then takes one configuration from each stratum, redrawn
until their recorded costs sum to about the strata's mean total (see
``workloads.build_scan``), which keeps the cost of a pass, and so every
run's throughput, comparable across seeds.  The strata only steer which inputs a seed draws; the
answers are checked the same way for every configuration.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from crnlocus import EGraph, global_lower_bound  # noqa: E402

from indep import net_json  # noqa: E402
from workloads import SCAN_STRATA, _scan_config  # noqa: E402

POOL_SEED = "scan-pool"
PER_SHAPE = 4


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = []
    for dim in (2, 3):
        for n_edges in range(3, 9):
            for rep in range(PER_SHAPE):
                g = _scan_config(rng, dim, n_edges)
                eg = EGraph(g.n, g.vertices, g.edges)
                costs = []
                for _ in range(2):
                    t0 = time.perf_counter()
                    result = global_lower_bound(eg)
                    costs.append(time.perf_counter() - t0)
                label = f"{dim}d-{n_edges}e-{rep}"
                pool.append({"label": label, "graph": net_json(g), "examined": result.examined,
                             "cost_s": round(min(costs), 3)})
                print(label, result.examined, round(min(costs), 3), flush=True)
    pool.sort(key=lambda c: c["cost_s"])
    size = len(pool) // SCAN_STRATA
    strata = [pool[i * size : (i + 1) * size] for i in range(SCAN_STRATA)]
    (HERE / "scan_pool.json").write_text(json.dumps({"seed": POOL_SEED, "strata": strata}, indent=1))


if __name__ == "__main__":
    main()
