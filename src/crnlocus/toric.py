"""Complex-balance membership, tree constants, steady states, trajectories.

A positive rate vector makes a weakly reversible graph complex balanced
exactly when the per-linkage-class tree constants K_i (rooted
spanning-tree weight sums, computed as principal minors of the weighted
out-Laplacian) are consistent with a positive state: x^(y_i - y_r) =
K_i / K_r within each class.  Consistency of that log-linear system is
decided exactly through multiplicative identities: for every integer
combination of the relations that cancels their exponents (the zero
rows of the one elimination that also builds the witness), the
corresponding product of tree-constant ratios must equal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .egraph import EGraph, NotWeaklyReversibleError, is_weakly_reversible, linkage_classes
from .equiv import EdgeVector, mass_action_field
from .exactla import (
    RationalMatrix,
    Vec,
    _log,
    bareiss,
    det,
    frac,
    integer_rows,
    kernel_basis,
    orthogonalize,
    solve_particular,
    subspace_from_span,
    vec,
)
from .jsonutil import rationals_to_json

_ZERO = Fraction(0)
_ONE = Fraction(1)

NEWTON_GRAD_TOL = 1e-12
NEWTON_MAX_ITER = 200
ODE_DT_MIN = 1e-9


class ConvergenceError(RuntimeError):
    """An iterative solver hit its cap; the last iterate is attached."""

    def __init__(self, message: str, last_iterate: tuple[float, ...]):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class TreeConstants:
    """Per-vertex rooted spanning-tree weight sums, grouped by linkage class.

    Unscaled principal-minor values; only within-class ratios are
    meaningful, and those are invariant under per-class uniform scaling
    of the rate vector.
    """

    values: tuple[Fraction, ...]
    classes: tuple[tuple[int, ...], ...]

    def ratio(self, i: int, j: int) -> Fraction:
        return self.values[i] / self.values[j]


def tree_constants(g: EGraph, k: EdgeVector) -> TreeConstants:
    """Matrix-Tree constants of a weakly reversible, positively weighted graph.

    K_i is the principal minor of the class's weighted out-Laplacian L with
    row and column i removed: the weight sum of spanning trees oriented
    toward vertex i.  By the Matrix-Tree theorem K spans the kernel of L^T,
    which is one-dimensional on a strongly connected class.  Its reduced
    echelon basis vector v has v_r = 1 at the class's first vertex r, as
    every K_i is positive, so the minor K_r gives K_i = K_r * v_i.
    """
    if not is_weakly_reversible(g):
        raise NotWeaklyReversibleError("tree constants require a weakly reversible graph")
    if not k.is_strictly_positive:
        raise ValueError("tree constants require strictly positive rates")
    values: list[Fraction] = [_ZERO] * g.num_vertices
    classes = [tuple(c) for c in linkage_classes(g)]
    for cls in classes:
        pos = {v: i for i, v in enumerate(cls)}
        m = len(cls)
        lap = [[_ZERO] * m for _ in range(m)]
        for ei, (s, t) in enumerate(g.edges):
            if s in pos:
                lap[pos[s]][pos[s]] += k.values[ei]
                lap[pos[s]][pos[t]] -= k.values[ei]
        kernel = kernel_basis(RationalMatrix.from_rows(list(zip(*lap)), cols=m))
        if kernel.dim != 1:
            raise RuntimeError("the out-Laplacian of a strongly connected class must have corank 1")
        root = det(RationalMatrix.from_rows([row[1:] for row in lap[1:]], cols=m - 1))
        for v, c in zip(cls, kernel.basis[0]):
            values[v] = root * c
            if values[v] <= 0:
                raise RuntimeError("tree constant must be positive on a weakly reversible class")
    return TreeConstants(tuple(values), tuple(classes))


@dataclass(frozen=True)
class SteadyState:
    """A positive steady state, exact when derivable in the rationals."""

    x: tuple
    mode: str  # "exact" | "approximate"
    residual: float | None = None

    def to_json_dict(self) -> dict:
        if self.mode == "exact":
            xs = rationals_to_json(self.x)
        else:
            xs = [float(v) for v in self.x]
        return {"mode": self.mode, "x": xs, "residual": self.residual}


@dataclass(frozen=True)
class ToricDecision:
    """Outcome of the complex-balance membership test, with witness when true."""

    toric: bool
    witness: SteadyState | None = None
    constants: TreeConstants | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.toric


def _relation_system(g: EGraph, tc: TreeConstants) -> tuple[list[Vec], list[Fraction]]:
    """Rows (y_i - y_r) and ratios K_i/K_r over each linkage class."""
    rows: list[Vec] = []
    ratios: list[Fraction] = []
    for cls in tc.classes:
        r = cls[0]
        for i in cls[1:]:
            rows.append(tuple(a - b for a, b in zip(g.vertices[i], g.vertices[r])))
            ratios.append(tc.ratio(i, r))
    return rows, ratios


def _int_nth_root(a: int, n: int) -> int | None:
    if a < 0:
        return None
    if a in (0, 1) or n == 1:
        return a
    if n >= a.bit_length():  # then 2**n > a, and no integer root exists
        return None
    lo, hi = 0, 1
    while hi**n < a:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < a:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == a else None


def _fraction_nth_root(x: Fraction, n: int) -> Fraction | None:
    if n < 0:
        x = 1 / x
        n = -n
    num = _int_nth_root(x.numerator, n)
    den = _int_nth_root(x.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _exact_witness(rows: list[Vec], ratios: list[Fraction], n: int) -> SteadyState | None:
    """Decide x^rows = ratios in positive reals and solve it with free
    coordinates 1; None when the system is inconsistent.

    Integer row operations act multiplicatively on the ratios, so the
    elimination stays exact: an identity block appended to the integer
    rows records which integer combination of the original rows each
    eliminated row is, and its ratio is the matching product of powers.
    The identity blocks of the rows whose exponents eliminate to zero
    span the integer left kernel, so the system is consistent exactly
    when each of those rows has ratio 1.
    A pivot with coefficient d needs an exact rational d-th root to
    back-substitute.  When some pivot has none, the same echelon rows are
    back-substituted in logs and the witness is approximate; its floats
    raise OverflowError when a coordinate leaves the floating-point range.
    """
    m = len(rows)
    bases = [ratio ** math.lcm(*(x.denominator for x in row)) for row, ratio in zip(rows, ratios)]
    work = [row + [int(i == k) for k in range(m)] for i, row in enumerate(integer_rows(rows))]
    pivots, _ = bareiss(work, n)
    # A row divided by its content is still an integer combination of the
    # original rows, with smaller exponents.
    for row in work:
        content = math.gcd(*row)
        if content > 1:
            row[:] = [x // content for x in row]

    def ratio_of(row: list[int]) -> Fraction:
        out = _ONE
        for base, e in zip(bases, row[n:]):
            if e:
                out *= base**e
        return out

    if any(ratio_of(row) != 1 for row in work[len(pivots) :]):
        return None
    echelon = [(row, c, ratio_of(row)) for row, c in reversed(list(zip(work, pivots)))]
    x = [_ONE] * n
    for row, c, rhs in echelon:
        for j in range(c + 1, n):
            if row[j]:
                rhs /= x[j] ** row[j]
        root = _fraction_nth_root(rhs, row[c])
        if root is None:
            break
        x[c] = root
    else:
        return SteadyState(tuple(x), "exact")
    logs = [0.0] * n
    for row, c, ratio in echelon:
        known = sum(row[j] * logs[j] for j in range(c + 1, n) if row[j])
        logs[c] = (_log(ratio) - known) / row[c]
    approx = tuple(math.exp(v) for v in logs)
    if not all(approx):
        raise OverflowError("witness coordinate below the floating-point range")
    return SteadyState(approx, "approximate")


def is_toric(g: EGraph, k: EdgeVector) -> ToricDecision:
    """Decide whether (g, k) is complex balanced at some positive state.

    The decision itself is exact for any rational data.  The witness
    state is exact when back-substitution stays rational (always when
    every pivot has coefficient +-1), and otherwise the log-space
    back-substitution of the same elimination, flagged "approximate"
    with its relative balance residual.
    """
    if not k.is_strictly_positive:
        raise ValueError("toric membership is defined for strictly positive rates")
    try:
        tc = tree_constants(g, k)
    except NotWeaklyReversibleError:
        return ToricDecision(False, reason="graph is not weakly reversible")
    witness = _exact_witness(*_relation_system(g, tc), g.n)
    if witness is None:
        return ToricDecision(False, constants=tc, reason="tree-constant ratios are inconsistent")
    if witness.mode == "approximate":
        witness = replace(witness, residual=_cb_relative_residual(g, k, witness.x))
    return ToricDecision(True, witness=witness, constants=tc)


def _cb_relative_residual(g: EGraph, k: EdgeVector, x: Sequence) -> float:
    """Largest per-vertex |inflow - outflow| / max(inflow, outflow).

    Each flux k_e x^y is taken in logs and every vertex's terms are scaled
    by its largest one, so rates and states beyond the floating-point
    range still give a finite residual.
    """
    logx = [_log(v) for v in x]
    logflux = [
        _log(kv) + sum(float(y) * lx for y, lx in zip(g.vertices[s], logx) if y)
        for kv, (s, _) in zip(k.values, g.edges)
    ]
    worst = 0.0
    for out, inc in zip(g.out_edges, g.in_edges):  # no vertex is isolated
        top = max(logflux[ei] for ei in out + inc)
        o = sum(math.exp(logflux[ei] - top) for ei in out)
        i = sum(math.exp(logflux[ei] - top) for ei in inc)
        worst = max(worst, abs(o - i) / max(o, i))
    return worst


def birch_point(g: EGraph, xstar: Sequence, x0: Sequence) -> SteadyState:
    """The unique positive point of x0's affine class with log x - log x* orthogonal
    to the stoichiometric subspace.

    When x* already lies in x0's class (checked exactly for rational
    inputs), it is returned unchanged in exact mode.  Otherwise a damped
    Newton iteration minimizes the Lyapunov function
    sum x_i (ln x_i - ln x*_i - 1) over the class, which is strictly
    convex with gradient ln x - ln x*.  Each Newton system is solved
    exactly on the rational values of its float entries, and a step is
    accepted by an Armijo test on the Newton decrement, with an allowance
    for the rounding of the function itself, so steps near the minimum
    are never all rejected.
    """
    if len(xstar) != g.n or len(x0) != g.n:
        raise ValueError("state length differs from ambient dimension")
    for v in list(xstar) + list(x0):
        if not (v > 0):
            raise ValueError("states must be strictly positive")
    s_basis = subspace_from_span(g.reaction_vectors, g.n)
    all_rational = all(isinstance(v, (int, Fraction)) for v in list(xstar) + list(x0))
    if all_rational:
        diff = [frac(a) - frac(b) for a, b in zip(xstar, x0)]
        if s_basis.contains(diff):
            return SteadyState(vec(xstar), "exact", residual=0.0)
    if s_basis.dim == 0:
        return SteadyState(tuple(float(v) for v in x0), "approximate", residual=0.0)

    basis = [[float(v) for v in b] for b in orthogonalize(s_basis.basis)]
    xs = [float(v) for v in xstar]
    x = [float(v) for v in x0]
    log_xs = [math.log(v) for v in xs]
    h = lyapunov_value(x, xs)
    for _ in range(NEWTON_MAX_ITER):
        gap = [math.log(a) - b for a, b in zip(x, log_xs)]
        grad = [sum(p * q for p, q in zip(b, gap)) for b in basis]
        size = max(abs(v) for v in grad)
        if size <= NEWTON_GRAD_TOL:
            return SteadyState(tuple(x), "approximate", residual=size)
        hess = [[sum(p * q / a for p, q, a in zip(b, c, x)) for c in basis] for b in basis]
        step = solve_particular(
            RationalMatrix.from_rows([[Fraction(v) for v in row] for row in hess]),
            [Fraction(-v) for v in grad],
        )
        if step is None:
            raise ConvergenceError("singular Newton system", tuple(x))
        step = [float(v) for v in step]
        decrement = -sum(p * q for p, q in zip(grad, step))
        dx = [sum(t * b[i] for t, b in zip(step, basis)) for i in range(g.n)]
        slack = 1e-15 * sum(abs(a * (d - 1.0)) for a, d in zip(x, gap))
        alpha = 1.0
        for _ in range(80):
            trial = [a + alpha * d for a, d in zip(x, dx)]
            if all(v > 0 for v in trial):
                trial_h = lyapunov_value(trial, xs)
                if trial_h <= h - 1e-4 * alpha * decrement + slack:
                    x, h = trial, trial_h
                    break
            alpha *= 0.5
        else:
            raise ConvergenceError("line search failed to make progress", tuple(x))
    raise ConvergenceError(
        f"no convergence within {NEWTON_MAX_ITER} Newton iterations", tuple(x)
    )


def ode_trajectory(
    g: EGraph,
    k: EdgeVector,
    x0: Sequence,
    t_end: float,
    dt: float,
) -> list[tuple[float, tuple[float, ...]]]:
    """Classical fixed-step RK4 sampling of the mass-action dynamics.

    The float field is built once per trajectory and evaluated at every
    stage.  A step that leaves the positive orthant is rejected and
    retried with a halved step; below ODE_DT_MIN the integration aborts.
    Every step starts again from dt, which must be finite and positive,
    and t_end must be finite, so the integration ends.
    """
    if not (dt > 0 and math.isfinite(dt) and math.isfinite(t_end)):
        raise ValueError(f"need a finite dt > 0 and a finite t_end, got dt={dt}, t_end={t_end}")
    for v in x0:
        if not (v > 0):
            raise ValueError("initial state must be strictly positive")
    f = mass_action_field(g, k)

    def ok(state: tuple[float, ...]) -> bool:
        return all(v > 0 and math.isfinite(v) for v in state)

    def rk4(x: tuple[float, ...], h: float) -> tuple[float, ...] | None:
        # a stage state outside the positive orthant rejects the whole step
        k1 = f(x)
        s2 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1))
        if not ok(s2):
            return None
        k2 = f(s2)
        s3 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2))
        if not ok(s3):
            return None
        k3 = f(s3)
        s4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
        if not ok(s4):
            return None
        k4 = f(s4)
        nxt = tuple(
            xi + h / 6.0 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
        )
        return nxt if ok(nxt) else None

    x = tuple(float(v) for v in x0)
    t = 0.0
    samples = [(t, x)]
    while t < t_end - 1e-15:
        step = min(dt, t_end - t)
        while True:
            nxt = rk4(x, step)
            if nxt is not None:
                break
            step *= 0.5
            if step < ODE_DT_MIN:
                raise ConvergenceError("step size collapsed below dt_min", x)
        x = nxt
        t += step
        samples.append((t, x))
    return samples


def lyapunov_value(x: Sequence, xstar: Sequence) -> float:
    """sum x_i (ln x_i - ln x*_i - 1); non-increasing along complex-balanced flows."""
    return float(
        sum(float(a) * (math.log(float(a)) - math.log(float(b)) - 1.0) for a, b in zip(x, xstar))
    )
