"""Print the ROADMAP baseline table from the benchmark's own job runner.

Usage, from the repository root:  python3 perfbench/baseline.py [--repeats N]

Cases: ``bound --all`` on the fixtures g_k4 and g_cyc, and ``bound G G``
on seeded random 3-D weakly reversible networks with about 35, 90 and
160 edges.  Each case runs N times through ``crnlocus.cli.main`` in this
process, its answer is checked like a workload job, and the median is
printed.  This is a report: it gates nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORK, Runner  # noqa: E402
from workloads import Job, Workload, fixture_cyc, fixture_k4, wr_network  # noqa: E402

from indep import net_json  # noqa: E402


def cases() -> Workload:
    files, jobs = {}, []
    for label, g in (("g_k4", fixture_k4()), ("g_cyc", fixture_cyc())):
        files[f"{label}.json"] = net_json(g)
        jobs.append(Job(f"scan/{label}", "cli", ("bound", "--all", f"{label}.json"), {"g": g}))
    rng = random.Random("baseline")
    for size in (35, 90, 160):
        g = wr_network(rng, size, half=False)
        name = f"pair-e{size}.json"
        files[name] = net_json(g)
        jobs.append(Job(f"pair/e{size}", "cli", ("bound", name, name),
                        {"g": g, "g1": g, "nonempty": True}))
    return Workload("baseline", 0, jobs, files, [])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    wl = cases()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        for name, doc in wl.files.items():
            (workdir / name).write_text(json.dumps(doc))
        runner = Runner(wl, workdir)
        print(f"{'case':<28} {'|E(G)|':>7} {'median s':>10}  runs")
        for job in wl.jobs:
            times = [runner.run(job) for _ in range(args.repeats)]
            edges = job.info["g"].num_edges
            label = f"bound --all {job.id[5:]}" if job.id.startswith("scan/") else f"bound G G, {job.id[5:]}"
            print(f"{label:<28} {edges:>7} {statistics.median(times):>10.3f}  "
                  + " ".join(f"{t:.3f}" for t in times), flush=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    for e in runner.errors:
        print(f"FAIL {e}")
    return 1 if runner.errors else 0


if __name__ == "__main__":
    sys.exit(main())
