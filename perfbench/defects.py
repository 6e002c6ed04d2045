"""A known crnlocus defect that the maps workload keeps out of its timed jobs.

``birch_point`` (toric.py) minimizes the entropy sum x (ln x - ln x* - 1)
over x0's class by damped Newton.  Its line search accepts a step only
if the entropy rises by at most 1e-18.  Near the minimum the rounding
error of the entropy (about 1e-16 of its size) exceeds the decrease a
step can make, so on about one draw in thirty of the maps workload's
half-integer base states every trial step is rejected, or shrunk until
it changes nothing, while the gradient is still above NEWTON_GRAD_TOL
(1e-12).  ``psi inverse`` then raises ConvergenceError after 200
iterations, on inputs with entries between 1/16 and 10.

A benchmark run must contain no failing operation, so ``build_maps``
redraws such a base state and keeps the stalling input as a probe:
``run.py`` runs each probe once per run, untimed and not counted, and
prints whether the defect still shows on a ``# known_defect`` line.

``birch_stalls`` predicts the stall by repeating the program's
iteration in floats, from the same canonical basis of S and the same
witness.  It imports no crnlocus code, so the timed inputs of a seed
stay the same when ``birch_point`` changes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from indep import Net

# The constants of crnlocus' birch_point at the time the defect was recorded.
GRAD_TOL = 1e-12
MAX_ITER = 200
HALVINGS = 80
RISE_TOL = 1e-18


def _canonical_basis(g: Net) -> list[list[Fraction]]:
    """Reduced row echelon basis of S, orthogonalized by Gram-Schmidt
    without normalization, the basis birch_point works in."""
    rows = [list(g.reaction(ei)) for ei in range(g.num_edges)]
    rows = [r for r in rows if any(r)]
    r = 0
    for c in range(g.n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    out: list[list[Fraction]] = []
    for b in rows[:r]:
        v = list(b)
        for prev in out:
            coef = sum(x * y for x, y in zip(b, prev)) / sum(y * y for y in prev)
            if coef:
                v = [a - coef * p for a, p in zip(v, prev)]
        out.append(v)
    return out


def _entropy(x: np.ndarray, xstar: np.ndarray) -> float:
    return float(np.sum(x * (np.log(x) - np.log(xstar) - 1.0)))


def birch_stalls(g: Net, xhat: Sequence[Fraction], x0: Sequence[Fraction]) -> bool:
    """Whether birch_point's Newton iteration stalls for a complex-balanced
    state xhat of a network whose S is the plane sum(y) = 0.

    For such a network the program's exact witness is xhat scaled to last
    coordinate 1 (its free coordinate).
    """
    basis_q = _canonical_basis(g)
    if len(basis_q) != g.n - 1 or any(sum(b) != 0 for b in basis_q):
        raise ValueError("birch_stalls expects S to be the plane sum(y) = 0")
    witness = [v / xhat[-1] for v in xhat]
    if sum(witness) == sum(x0):
        return False  # the witness lies in x0's class: returned exactly, no Newton
    basis = np.array([[float(v) for v in b] for b in basis_q], dtype=float).T
    xs = np.array([float(v) for v in witness], dtype=float)
    x = np.array([float(v) for v in x0], dtype=float)
    log_xs = np.log(xs)
    h = _entropy(x, xs)
    for _ in range(MAX_ITER):
        grad = basis.T @ (np.log(x) - log_xs)
        if float(np.max(np.abs(grad))) <= GRAD_TOL:
            return False
        hess = basis.T @ (basis / x[:, None])
        dx = basis @ np.linalg.solve(hess, -grad)
        alpha = 1.0
        for _ in range(HALVINGS):
            trial = x + alpha * dx
            if np.all(trial > 0):
                trial_h = _entropy(trial, xs)
                if trial_h <= h + RISE_TOL:
                    x, h = trial, trial_h
                    break
            alpha *= 0.5
        else:
            return True
    return True
