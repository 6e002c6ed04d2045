"""Per-layer tracing of crnlocus from outside the package.

One layer per module.  ``Tracer.install`` wraps the public functions
of each layer module, plus the few private ones a metric names, and
patches each wrapper into every crnlocus namespace that holds the
original, so a name imported across modules (``locus`` does
``from .cone import jr_dimension``) is traced wherever it is called.
``uninstall`` restores the originals.  Private helpers, methods and the
scalar helpers ``frac``, ``vec`` and ``dot`` are not wrapped: their
time counts as self time of the traced function that called them, so
the dense ``matvec`` inside ``restrict_to_kernel`` is equiv time.

Spans are aggregated as they close instead of being stored: each
function keeps a call count, self time and inclusive time, where self
time is the span's duration minus the durations of the traced calls it
made.  Tens of thousands of small ``rank`` calls per scan job therefore
cost constant memory.  Observers that derive counts from arguments or
results run outside every span, and their time is charged to no layer.

A metric whose functions no longer exist is left out and listed in
``missing``; it never stops the run.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict

LAYERS = ("egraph", "exactla", "equiv", "cone", "toric", "locus", "cli")
UNTRACED = {"exactla.frac", "exactla.vec", "exactla.dot"}
PRIVATE_TRACED = {
    "egraph._mask_is_weakly_reversible",
    "cone._phase1_simplex",
    "cli._load_graph",
    "cli._load_vector",
    "cli._emit",
}


def _matrix_cells(tracer: "Tracer", args, result) -> None:
    m = args[0]
    tracer.counts["cells"] += m.rows * m.cols
    tracer.counts["nonzero"] += sum(1 for e in m.entries if e)


def _wr_hit(tracer: "Tracer", args, result) -> None:
    tracer.counts["wr_hits"] += bool(result)


def _d0_seen(tracer: "Tracer", args, result) -> None:
    g = args[0]
    key = (g.n, g.vertices, g.edges)
    if key in tracer.seen_graphs:
        tracer.counts["d0_repeats"] += 1
    tracer.seen_graphs.add(key)


def _cone_empty(tracer: "Tracer", args, result) -> None:
    tracer.counts["cone_empty"] += result.status == "empty"


def _toric(tracer: "Tracer", args, result) -> None:
    if result.toric:
        tracer.counts["toric_true"] += 1
        tracer.counts["toric_exact"] += result.witness.mode == "exact"


def _birch(tracer: "Tracer", args, result) -> None:
    tracer.counts["birch_exact"] += result.mode == "exact"


def _ode(tracer: "Tracer", args, result) -> None:
    tracer.counts["ode_samples"] += len(result)


def _pair(tracer: "Tracer", args, result, seconds: float) -> None:
    tracer.pair_seconds.append(seconds)
    tracer.counts["pair_applicable"] += bool(result.applicable)


OBSERVERS = {
    "exactla.rank": _matrix_cells,
    "exactla.kernel_basis": _matrix_cells,
    "exactla.solve_particular": _matrix_cells,
    "egraph.is_weakly_reversible": _wr_hit,
    "egraph._mask_is_weakly_reversible": _wr_hit,
    "equiv.d0_basis": _d0_seen,
    "cone.jr_dimension": _cone_empty,
    "toric.is_toric": _toric,
    "toric.birch_point": _birch,
    "toric.ode_trajectory": _ode,
}
TIMED_OBSERVERS = {"locus.pair_lower_bound": _pair}


class Tracer:
    def __init__(self) -> None:
        self.modules = {name: importlib.import_module(f"crnlocus.{name}") for name in LAYERS}
        self.namespaces = [importlib.import_module("crnlocus"), *self.modules.values()]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, inclusive
        self.counts: dict[str, int] = defaultdict(int)
        self.pair_seconds: list[float] = []
        self.seen_graphs: set = set()
        self.targets = self._find_targets()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _find_targets(self) -> dict[str, object]:
        """key "layer.name" -> the original function."""
        targets = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                key = f"{layer}.{name}"
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if key in PRIVATE_TRACED or not (name.startswith("_") or key in UNTRACED):
                    targets[key] = obj
        return targets

    def has(self, key: str) -> bool:
        return key in self.targets

    def begin_job(self) -> None:
        self.seen_graphs.clear()

    def install(self) -> None:
        for key, original in self.targets.items():
            wrapped = self._wrap(key, original)
            for ns in self.namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        stack, stat, perf = self._stack, self.stats[key], time.perf_counter
        observe, timed_observe = OBSERVERS.get(key), TIMED_OBSERVERS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = perf() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[0]
                stat[2] += dt
                if ok and observe is not None:
                    observe(tracer, args, result)
                if ok and timed_observe is not None:
                    timed_observe(tracer, args, result, dt)
                if stack:
                    stack[-1][0] += perf() - t0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced


class Missing(Exception):
    pass


class _Reader:
    """Reads aggregated stats; raises Missing for a function that no longer exists."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer

    def _key(self, key: str) -> list:
        if not self.t.has(key):
            raise Missing(key)
        return self.t.stats[key]

    def calls(self, *keys: str) -> int:
        return sum(self._key(k)[0] for k in keys)

    def self_s(self, *keys: str) -> float:
        return sum(self._key(k)[1] for k in keys)

    def incl_s(self, *keys: str) -> float:
        return sum(self._key(k)[2] for k in keys)

    def layer_self(self, layer: str) -> float:
        return sum(st[1] for k, st in self.t.stats.items() if k.split(".", 1)[0] == layer)


def _ratio(num: float, den: float):
    if den == 0:
        raise ZeroDivisionError
    return num / den


# (metric, unit, value from a _Reader and the tracer's counts).  A metric built
# from counts alone reads its functions' calls first, as the first element of
# a pair, only so that a deleted function leaves the metric missing.
METRICS = [
    ("egraph.self_s", "s", lambda r, c: r.layer_self("egraph")),
    ("egraph.wr_check.calls", "count",
     lambda r, c: r.calls("egraph.is_weakly_reversible", "egraph._mask_is_weakly_reversible")),
    ("egraph.wr_check.hit_ratio", "ratio",
     lambda r, c: _ratio(c["wr_hits"], r.calls("egraph.is_weakly_reversible",
                                               "egraph._mask_is_weakly_reversible"))),
    ("egraph.subgraph.calls", "count", lambda r, c: r.calls("egraph.edge_subgraph")),
    ("exactla.self_s", "s", lambda r, c: r.layer_self("exactla")),
    ("exactla.rank.calls", "count", lambda r, c: r.calls("exactla.rank")),
    ("exactla.rank.self_s", "s", lambda r, c: r.self_s("exactla.rank")),
    ("exactla.kernel.calls", "count", lambda r, c: r.calls("exactla.kernel_basis")),
    ("exactla.kernel.self_s", "s", lambda r, c: r.self_s("exactla.kernel_basis")),
    ("exactla.span.calls", "count", lambda r, c: r.calls("exactla.subspace_from_span")),
    ("exactla.span.self_s", "s", lambda r, c: r.self_s("exactla.subspace_from_span")),
    ("exactla.det.self_s", "s", lambda r, c: r.self_s("exactla.det")),
    ("exactla.ortho.self_s", "s", lambda r, c: r.self_s("exactla.orthogonalize")),
    ("exactla.cells", "count",
     lambda r, c: (r.calls("exactla.rank", "exactla.kernel_basis", "exactla.solve_particular"),
                   c["cells"])[1]),
    ("exactla.density", "ratio",
     lambda r, c: (r.calls("exactla.rank", "exactla.kernel_basis", "exactla.solve_particular"),
                   _ratio(c["nonzero"], c["cells"]))[1]),
    ("equiv.self_s", "s", lambda r, c: r.layer_self("equiv")),
    ("equiv.d0.calls", "count", lambda r, c: r.calls("equiv.d0_basis")),
    ("equiv.d0.repeat_ratio", "ratio",
     lambda r, c: _ratio(c["d0_repeats"], r.calls("equiv.d0_basis"))),
    ("equiv.j0.calls", "count", lambda r, c: r.calls("equiv.j0_basis")),
    ("equiv.restrict.calls", "count", lambda r, c: r.calls("equiv.restrict_to_kernel")),
    ("equiv.restrict.self_s", "s", lambda r, c: r.self_s("equiv.restrict_to_kernel")),
    ("equiv.realize.self_s", "s",
     lambda r, c: r.self_s("equiv.realize_with_diagnostic", "equiv.realize_on")),
    ("cone.self_s", "s", lambda r, c: r.layer_self("cone")),
    ("cone.jr.calls", "count", lambda r, c: r.calls("cone.jr_dimension")),
    ("cone.simplex.calls", "count", lambda r, c: r.calls("cone._phase1_simplex")),
    ("cone.simplex.self_s", "s", lambda r, c: r.self_s("cone._phase1_simplex", "cone.positive_point")),
    ("cone.empty_ratio", "ratio",
     lambda r, c: _ratio(c["cone_empty"], r.calls("cone.jr_dimension"))),
    ("cone.member.self_s", "s",
     lambda r, c: r.self_s("cone.membership_failure", "cone.is_member_jr")),
    ("toric.self_s", "s", lambda r, c: r.layer_self("toric")),
    ("toric.tree.self_s", "s", lambda r, c: r.self_s("toric.tree_constants")),
    ("toric.decide.calls", "count", lambda r, c: r.calls("toric.is_toric")),
    ("toric.witness.exact_ratio", "ratio",
     lambda r, c: (r.calls("toric.is_toric"), _ratio(c["toric_exact"], c["toric_true"]))[1]),
    ("toric.birch.calls", "count", lambda r, c: r.calls("toric.birch_point")),
    ("toric.birch.self_s", "s", lambda r, c: r.self_s("toric.birch_point")),
    ("toric.birch.exact_ratio", "ratio",
     lambda r, c: _ratio(c["birch_exact"], r.calls("toric.birch_point"))),
    ("toric.ode.self_s", "s", lambda r, c: r.self_s("toric.ode_trajectory")),
    ("toric.ode.samples", "count", lambda r, c: (r.calls("toric.ode_trajectory"), c["ode_samples"])[1]),
    ("locus.self_s", "s", lambda r, c: r.layer_self("locus")),
    ("locus.pair.calls", "count", lambda r, c: r.calls("locus.pair_lower_bound")),
    ("locus.pair.p50_s", "s",
     lambda r, c: (r.calls("locus.pair_lower_bound"), statistics.median(r.t.pair_seconds))[1]),
    ("locus.pair.applicable_ratio", "ratio",
     lambda r, c: _ratio(c["pair_applicable"], r.calls("locus.pair_lower_bound"))),
    ("locus.psi.self_s", "s",
     lambda r, c: r.self_s("locus.psi_map", "locus.psi_hat_inverse", "locus.psi_small")),
    ("cli.parse_s", "s", lambda r, c: r.incl_s("cli._load_graph", "cli._load_vector")),
    ("cli.emit_s", "s", lambda r, c: r.incl_s("cli._emit")),
]


def layer_metrics(tracer: Tracer) -> tuple[dict, list[str], list[str]]:
    """({metric: (value, unit)}, metrics whose functions are gone, metrics with no base)."""
    reader = _Reader(tracer)
    out, missing, undefined = {}, [], []
    for name, unit, fn in METRICS:
        try:
            out[name] = (fn(reader, tracer.counts), unit)
        except Missing as e:
            missing.append(f"{name} ({e.args[0]})")
        except (ZeroDivisionError, statistics.StatisticsError):
            undefined.append(name)
    return out, missing, undefined
