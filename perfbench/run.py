"""crnlocus benchmark: seeded workloads through the CLI entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan|pair|maps --seed N --seconds S --trace 0|1

Each workload is a pass of jobs generated from the seed (see
``workloads.py``).  Every job calls ``crnlocus.cli.main(argv)`` in this
process with ``--output json`` and stdout captured, except the maps
workload's ``ode_trajectory`` jobs, which call the library because the
CLI has no such command.  Load is a closed loop with one caller in one
thread: the next job starts when the previous one returns.  Whole
passes are repeated until about S seconds of job time are measured.

Every answer is checked without crnlocus (``checks.py``).  Inputs on
which crnlocus is known to fail are kept out of the timed jobs and run
once as untimed probes, reported on ``# known_defect`` lines.  For the
reference seed the compared fields must also equal ``reference.json``.
``correct`` is false when an answer is wrong; a job that raises or exits
nonzero counts in ``failed`` (and fail_frac) without an answer to judge.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:

* setup_s: fresh interpreter until crnlocus.cli and numpy are imported,
  scaled to the reference machine speed: the median over SETUP_SPAWNS
  spawns of its time over that of an adjacent numpy-only spawn, times
  REF_NUMPY_SPAWN_S (see ``measure_setup``);
* jobs_per_s_cal: jobs per second of job time, scaled to the reference
  machine speed by the interleaved calibration (see ``Calibration``);
* peak_rss_mb: high-water resident memory of this process.

It also prints, as report lines, the unscaled setup_raw_s, the
wall-clock jobs_per_s, job_p50_s and job_tail_s (the highest percentile
with at least ten jobs beyond it), fail_frac and approx_frac (answers
in approximate mode over answers that report a mode).  Medians and
tails depend on which jobs a seed draws more than throughput does, so
they are reported, not gated.

--trace 1 runs one pass, each job once untraced and once traced, and
reports the per-layer metrics of ``tracer.py`` and trace.overhead_frac,
the traced jobs_per_s over the untraced one.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means crnlocus could not be
found or imported, 3 that the generator's preconditions failed.

``--record-reference`` runs one pass of the reference seed and rewrites
that workload's entry in ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_SPAWNS = 11
TAIL_BEYOND = 10

CAL_SHARE = 0.1  # calibration time as a share of the time measured
REF_SLICE_S = 0.003  # one calibration slice on the reference machine (2 vCPUs, Python 3.11.7)

REF_NUMPY_SPAWN_S = 0.2  # numpy-only spawn on the reference machine

SETUP_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "import numpy, crnlocus.cli; print(time.perf_counter())"
)
GAUGE_PROBE = "import sys, time, numpy; print(time.perf_counter())"

# The per-layer metrics declared in BENCHMARK.json: those defined, and for
# times nonzero, on every workload.  The rest go to the "# per_layer" line.
PER_LAYER = (
    "egraph.self_s", "egraph.wr_check.calls", "egraph.wr_check.hit_ratio", "egraph.subgraph.calls",
    "exactla.self_s", "exactla.rank.calls", "exactla.rank.self_s", "exactla.kernel.calls",
    "exactla.kernel.self_s", "exactla.span.calls", "exactla.span.self_s", "exactla.cells",
    "exactla.density",
    "equiv.self_s", "equiv.d0.calls", "equiv.j0.calls", "equiv.restrict.calls",
    "equiv.restrict.self_s", "equiv.realize.self_s",
    "cone.self_s", "cone.jr.calls", "cone.simplex.calls", "cone.member.self_s",
    "toric.decide.calls", "toric.birch.calls", "toric.ode.samples",
    "locus.self_s", "locus.pair.calls",
    "cli.parse_s", "cli.emit_s", "cli.output_bytes", "trace.overhead_frac",
)
# Per-layer metrics each workload is built to exercise; a zero is reported.
EXPECT_NONZERO = {
    "scan": (
        "egraph.self_s", "egraph.wr_check.calls", "egraph.wr_check.hit_ratio",
        "egraph.subgraph.calls", "exactla.self_s", "exactla.rank.calls", "exactla.rank.self_s",
        "exactla.kernel.calls", "exactla.kernel.self_s", "exactla.span.calls",
        "exactla.span.self_s", "exactla.cells", "exactla.density", "equiv.self_s",
        "equiv.d0.calls", "equiv.d0.repeat_ratio", "equiv.j0.calls", "equiv.restrict.calls",
        "equiv.restrict.self_s", "cone.self_s", "cone.jr.calls", "cone.member.self_s",
        "locus.self_s", "locus.pair.calls", "locus.pair.p50_s", "locus.pair.applicable_ratio",
        "cli.parse_s", "cli.emit_s", "cli.output_bytes",
    ),
    "pair": (
        "exactla.self_s", "exactla.rank.calls", "exactla.rank.self_s", "exactla.kernel.calls",
        "exactla.kernel.self_s", "exactla.span.calls", "exactla.span.self_s", "exactla.cells",
        "exactla.density", "equiv.self_s", "equiv.j0.calls", "equiv.restrict.calls",
        "equiv.restrict.self_s", "cone.self_s", "cone.jr.calls", "cone.simplex.calls",
        "cone.simplex.self_s", "cone.empty_ratio", "locus.pair.calls", "locus.pair.p50_s",
    ),
    "maps": (
        "exactla.ortho.self_s", "exactla.det.self_s", "equiv.realize.self_s", "toric.self_s",
        "toric.tree.self_s", "toric.decide.calls", "toric.witness.exact_ratio",
        "toric.birch.calls", "toric.birch.self_s", "toric.birch.exact_ratio",
        "toric.ode.self_s", "toric.ode.samples", "locus.psi.self_s", "cli.parse_s",
    ),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description="crnlocus benchmark")
    p.add_argument("--workload", required=True, choices=("scan", "pair", "maps"))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    return p.parse_args(argv)


def _calibration_slice() -> None:
    """Fixed pure-Python exact arithmetic: Bareiss steps on an 8x8 integer
    matrix and Fraction products, the kind of work crnlocus does."""
    for _ in range(6):
        a = [[(i * 7 + j * 3) % 11 - 5 + (i == j) * 13 for j in range(8)] for i in range(8)]
        prev = 1
        for c in range(7):
            p = a[c][c]
            for i in range(c + 1, 8):
                f = a[i][c]
                for j in range(c, 8):
                    a[i][j] = (a[i][j] * p - f * a[c][j]) // prev
            prev = p
        s = Fraction(0)
        for i in range(60):
            s += Fraction(a[7][7] % 97 + i, i + 1) * Fraction(i + 2, 3)


class Calibration:
    """Machine speed sampled between measurements.

    The shared machine's speed drifts by tens of percent within minutes.
    Slices of fixed work run between jobs, so that their time stays
    CAL_SHARE of the time measured; ``factor`` is the mean slice time over
    REF_SLICE_S, above 1 while the machine runs slower than the reference.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.slices = 0

    def keep_up(self, measured_s: float) -> None:
        while self.slices == 0 or self.seconds < CAL_SHARE * measured_s:
            t0 = time.perf_counter()
            _calibration_slice()
            self.seconds += time.perf_counter() - t0
            self.slices += 1

    @property
    def factor(self) -> float:
        return self.seconds / self.slices / REF_SLICE_S


def measure_setup() -> tuple[float, float]:
    """(setup_s at reference speed, raw median seconds) from spawning a fresh
    interpreter to crnlocus.cli and numpy imported.

    Spawn and import times swing by half within minutes on the shared
    machine, far more than one run's samples show, so each setup spawn is
    paired with an adjacent numpy-only spawn as a speed gauge, and the
    median ratio is scaled by REF_NUMPY_SPAWN_S.  Work added to the import
    of crnlocus still raises the ratio.  The first pair is discarded: it
    may write bytecode caches that every later invocation finds in place.
    """

    def spawn(code: str, *args: str) -> float:
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        return float(done.stdout.split()[-1]) - t0

    raw, ratios = [], []
    for _ in range(SETUP_SPAWNS + 1):
        full = spawn(SETUP_PROBE, str(SRC))
        raw.append(full)
        ratios.append(full / spawn(GAUGE_PROBE))
    return REF_NUMPY_SPAWN_S * statistics.median(ratios[1:]), statistics.median(raw[1:])


class Runner:
    """Executes jobs in process and checks their answers."""

    def __init__(self, workload, workdir: Path):
        import checks
        from crnlocus import cli, egraph, equiv, toric

        self.wl = workload
        self.workdir = workdir
        self.checks = checks
        self.cli, self.egraph, self.equiv, self.toric = cli, egraph, equiv, toric
        self.first: dict[str, dict] = {}  # job id -> compared fields of its first answer
        self.errors: list[str] = []
        self.latencies: list[float] = []
        self.output_bytes = 0
        self.failed = 0  # raised, exited nonzero or answered wrong
        self.wrong = 0  # answered wrong
        self.modes: list[str] = []

    def _invoke(self, job):
        if job.kind == "cli":
            argv = ["--output", "json"] + [
                str(self.workdir / a) if a in self.wl.files else a for a in job.args
            ]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        g = self.egraph.parse_egraph((self.workdir / job.args[0]).read_text())
        k = self.equiv.edge_vector_from_json(g, (self.workdir / job.args[1]).read_text())
        info = job.info
        return 0, self.toric.ode_trajectory(g, k, info["x0"], info["t_end"], info["dt"]), ""

    def run(self, job, record: bool = True) -> float:
        """Run one job, check it, and return its latency in seconds."""
        t0 = time.perf_counter()
        try:
            code, payload, err = self._invoke(job)
            failure = None if code == 0 else f"exit code {code}: {err.strip()[:200]}"
        except Exception as e:  # a raising job is a failed job, not a failed benchmark
            payload, failure = None, f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        if failure is None:
            failure = self._check(job, payload)
            self.wrong += failure is not None
        if record:
            self.latencies.append(seconds)
            if isinstance(payload, str):
                self.output_bytes += len(payload.encode())
        if failure is not None:
            self.failed += record
            self.errors.append(f"{job.id}: {failure}")
        return seconds

    def _check(self, job, payload) -> str | None:
        try:
            fields = self.checks.check(job, payload)
        except (self.checks.CheckError, KeyError, TypeError, ValueError) as e:
            return f"wrong answer: {type(e).__name__}: {e}"
        if fields["mode"] is not None:
            self.modes.append(fields["mode"])
        first = self.first.setdefault(job.id, fields)
        differs = self.checks.fields_match(first, fields)
        return None if differs is None else f"answer changed between runs: {differs}"

    def compared_fields(self) -> list[tuple[str, dict]]:
        return [(job.id, self.first[job.id]) for job in self.wl.jobs if job.id in self.first]


def _reference_check(runner: Runner, wl) -> tuple[bool, str]:
    import checks

    if wl.seed != REFERENCE_SEED:
        return True, f"no reference answers for seed {wl.seed} (reference seed is {REFERENCE_SEED})"
    recorded = json.loads(REFERENCE.read_text()).get(wl.name, {}) if REFERENCE.exists() else {}
    bad = []
    for job in wl.jobs:
        ref = recorded.get(job.id)
        if ref is None:
            bad.append(f"{job.id}: no reference answer")
        elif ref["inputs"] != checks.inputs_digest(job, wl.files):
            bad.append(f"{job.id}: inputs differ from the recorded ones")
        elif job.id in runner.first:
            differs = checks.fields_match(ref["fields"], runner.first[job.id])
            if differs:
                bad.append(f"{job.id}: {differs}")
    if bad:
        runner.errors.extend(f"reference: {b}" for b in bad)
        return False, f"reference answers: {len(bad)} of {len(wl.jobs)} jobs differ"
    return True, f"reference answers: all {len(wl.jobs)} jobs match (seed {REFERENCE_SEED})"


def _tail(latencies: list[float]):
    """Highest percentile with at least TAIL_BEYOND jobs beyond it, or None."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return sorted(latencies)[rank - 1], 100.0 * rank / n, n


def _timed(runner: Runner, wl, seconds: float, cal: Calibration) -> int:
    """Whole passes until about `seconds` of job time; returns the pass count."""
    passes = 1
    done = 0
    measured = 0.0
    while done < passes:
        before = sum(runner.latencies)
        for job in wl.jobs:
            measured += runner.run(job)
            cal.keep_up(measured)
        done += 1
        if done == 1:
            passes = max(1, round(seconds / (sum(runner.latencies) - before)))
    return passes


def _traced(runner: Runner, wl) -> tuple[dict, float, list[str]]:
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    untraced = traced = 0.0
    for job in wl.jobs:
        untraced += runner.run(job, record=False)
        tracer.begin_job()
        tracer.install()
        try:
            traced += runner.run(job)
        finally:
            tracer.uninstall()
    metrics, missing, undefined = layer_metrics(tracer)
    metrics["cli.output_bytes"] = (runner.output_bytes, "bytes")
    metrics["trace.overhead_frac"] = (untraced / traced, "ratio")
    notes = [f"per-layer metric absent, function gone: {m}" for m in missing]
    notes += [f"per-layer metric undefined on this workload (no calls to measure): {m}" for m in undefined]
    return metrics, untraced + traced, notes


def _probe(runner: Runner, job) -> str:
    """Run a known-defect input once, untimed and not counted, and say
    whether the defect still shows (see ``defects.py``)."""
    try:
        code, payload, err = runner._invoke(job)
    except Exception as e:
        return f"{job.id}: still raises {type(e).__name__}: {e}"
    if code != 0:
        return f"{job.id}: exits {code}: {err.strip()[:200]}"
    try:
        runner.checks.check(job, payload)
    except (runner.checks.CheckError, KeyError, TypeError, ValueError) as e:
        return f"{job.id}: answers, but the answer fails its check: {e}"
    return f"{job.id}: no longer fails, and the answer passes its check"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> int:
    import checks
    import workloads

    try:
        wl = workloads.build(args.workload, args.seed)
    except workloads.PreconditionError as e:
        print(f"error: workload {args.workload} seed {args.seed}: {e}", file=sys.stderr)
        return 3
    run_cal = Calibration()
    setup_s, setup_raw = (measure_setup() if args.trace == 0 and not args.record_reference
                          else (None, None))
    workdir = WORK / f"{wl.name}-{wl.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, doc in wl.files.items():
            (workdir / name).write_text(json.dumps(doc))
        runner = Runner(wl, workdir)
        if args.record_reference:
            return _record(runner, wl)
        for job in wl.warmup:
            runner.run(job, record=False)
        if args.trace:
            layer, _, notes = _traced(runner, wl)
            passes = 1
        else:
            passes = _timed(runner, wl, args.seconds, run_cal)
            notes = []
        probes = [_probe(runner, job) for job in wl.probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    ref_ok, ref_note = _reference_check(runner, wl)
    lat = runner.latencies
    attempted = len(lat)
    print(f"# crnlocus benchmark: workload={wl.name} seed={wl.seed} trace={args.trace} "
          f"passes={passes} jobs={attempted} ({len(wl.jobs)} per pass)")
    exact_digest, approx_digest = checks.digests(runner.compared_fields())
    print(f"# answers digest: exact={exact_digest} approx={approx_digest}")
    print(f"# {ref_note}")
    for e in runner.errors[:20]:
        print(f"# FAIL {e}")
    if wl.name == "maps":
        for note in probes or ["no base state of this seed stalls it"]:
            print(f"# known_defect birch_point Newton stall, untimed probe: {note}")
    modes = runner.modes
    approx = sum(m == "approximate" for m in modes)
    print(f"# fail_frac = {runner.failed / attempted:.6g} ratio ({runner.failed} of {attempted} jobs)")
    print(f"# approx_frac = {approx / len(modes) if modes else 0:.6g} ratio "
          f"({approx} of {len(modes)} answers that report a mode)")
    if args.trace:
        for note in notes:
            print(f"# {note}")
        zero = [m for m in EXPECT_NONZERO[wl.name] if m in layer and layer[m][0] == 0]
        print(f"# per-layer metrics expected nonzero on {wl.name} but zero: {zero or 'none'}")
        print("# per_layer " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in layer.items()}))
        metrics = {k: layer[k] for k in PER_LAYER if k in layer}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s_cal": (attempted / sum(lat) * run_cal.factor, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"# end_to_end {name} = {_fmt(value)} {unit}")
        print(f"# calibration factor = {run_cal.factor:.6g} (mean slice {1e3 * run_cal.factor * REF_SLICE_S:.4g} ms"
              f" over reference {1e3 * REF_SLICE_S:.4g} ms; {run_cal.slices} slices)")
        print(f"# report setup_raw_s = {setup_raw:.6g} s (median spawn to import, unscaled)")
        print(f"# report jobs_per_s = {attempted / sum(lat):.6g} 1/s (wall clock, uncalibrated)")
        print(f"# report job_p50_s = {statistics.median(lat):.6g} s (wall clock)")
        tail = _tail(lat)
        if tail is None:
            print(f"# report job_tail_s = n/a ({attempted} jobs; needs more than {TAIL_BEYOND})")
        else:
            print(f"# report job_tail_s = {tail[0]:.6g} s (p{tail[1]:.1f} of {tail[2]} jobs, wall clock)")
    correct = runner.wrong == 0 and ref_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _record(runner: Runner, wl) -> int:
    import checks

    if wl.seed != REFERENCE_SEED:
        print(f"error: reference answers are recorded for seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    for job in wl.jobs:
        runner.run(job)
    if runner.errors:
        for e in runner.errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[wl.name] = {
        job.id: {"inputs": checks.inputs_digest(job, wl.files), "fields": runner.first[job.id]}
        for job in wl.jobs
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(wl.jobs)} reference answers for {wl.name}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "crnlocus" / "cli.py").is_file():
        print(f"error: crnlocus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import crnlocus.cli  # noqa: F401
    except ImportError as e:
        print(f"error: cannot import crnlocus: {e}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
