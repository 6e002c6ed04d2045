"""The realizable-flux cone of a graph pair, decided with exact arithmetic.

For a weakly reversible graph g1 and a target graph g, the cone of
interest is the set of strictly positive, per-vertex-balanced fluxes on
g1 whose vector field is expressible on g with sign-unrestricted
weights.  That cone is the intersection of a linear subspace (assembled
here row by row) with the open positive orthant, so its dimension is
the subspace dimension when a strictly positive point exists and zero
otherwise.  Positivity is decided by an exact rational phase-1 simplex
with Bland's rule; emptiness comes with a nonnegative certificate
vector orthogonal to the subspace.  When only the dimension and the
verdict are needed, ``cone_dimension`` reads both off one integer
elimination and runs the simplex only when that does not decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .egraph import EGraph, NotWeaklyReversibleError, is_weakly_reversible
from .equiv import (
    EdgeVector,
    balance_rows,
    j0_basis,
    realize_with_diagnostic,
    vertex_imbalance,
    vertex_rows,
)
from .exactla import (
    RationalMatrix,
    Subspace,
    Vec,
    bareiss,
    combine,
    dot,
    integer_rows,
    kernel_basis,
    subspace_from_span,
)
from .jsonutil import rationals_to_json

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of the strictly-positive-point search in a subspace.

    Feasible: ``point`` lies in the subspace with every entry >= 1 and
    ``coefficients`` are its basis coordinates.  Infeasible:
    ``certificate`` is a nonnegative, nonzero vector orthogonal to every
    basis vector, which rules out any strictly positive point.
    """

    feasible: bool
    point: Vec | None = None
    coefficients: Vec | None = None
    certificate: Vec | None = None


def _phase1_simplex(
    a: list[list[Fraction]], nvars: int
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Minimize the sum of artificials for A u + z = 1, u >= 0, z >= 0.

    ``a`` holds the d x nvars coefficient rows.  Returns the optimal
    objective value, the u part of the optimal point, and the dual
    vector y (one multiplier per row) read off the final tableau.
    Bland's rule (smallest eligible index) guarantees termination.
    """
    d = len(a)
    width = nvars + d + 1
    tableau: list[list[Fraction]] = []
    for i in range(d):
        row = list(a[i]) + [_ZERO] * d + [_ONE]
        row[nvars + i] = _ONE
        tableau.append(row)
    basis = [nvars + i for i in range(d)]
    # Reduced costs for min sum(z): start from cost row (0...0,1...1,0)
    # minus the sum of constraint rows (artificials are basic).
    obj = [_ZERO] * width
    for j in range(nvars):
        obj[j] = -sum((tableau[i][j] for i in range(d)), _ZERO)
    obj[width - 1] = -sum((tableau[i][width - 1] for i in range(d)), _ZERO)

    while True:
        enter = next((j for j in range(width - 1) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best: Fraction | None = None
        for i in range(d):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][width - 1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 simplex objective is bounded; no ratio row found")
        prow = tableau[leave]
        pval = prow[enter]
        if pval != 1:
            inv = _ONE / pval
            for j in range(width):
                if prow[j]:
                    prow[j] *= inv
        for i in range(d):
            if i == leave:
                continue
            f = tableau[i][enter]
            if f:
                irow = tableau[i]
                for j in range(width):
                    if prow[j]:
                        irow[j] -= f * prow[j]
        f = obj[enter]
        if f:
            for j in range(width):
                if prow[j]:
                    obj[j] -= f * prow[j]
        basis[leave] = enter

    value = -obj[width - 1]
    u = [_ZERO] * nvars
    for i, bv in enumerate(basis):
        if bv < nvars:
            u[bv] = tableau[i][width - 1]
    # Reduced cost of artificial j is 1 - y_j.
    y = [_ONE - obj[nvars + j] for j in range(d)]
    return value, u, y


def positive_point(s: Subspace) -> PositivityResult:
    """Search s for a point with every component >= 1 (exact simplex).

    Scale invariance of a linear subspace makes ">= 1 componentwise"
    equivalent to the existence of a strictly positive point.
    """
    d = s.ambient
    m = s.dim
    if d == 0:
        return PositivityResult(feasible=False, certificate=())
    # Variables: c+ (m), c- (m), slack (d); rows: W c+ - W c- - slack = 1.
    nvars = 2 * m + d
    rows: list[list[Fraction]] = []
    for i in range(d):
        row = [_ZERO] * nvars
        for j, b in enumerate(s.basis):
            row[j] = b[i]
            row[m + j] = -b[i]
        row[2 * m + i] = -_ONE
        rows.append(row)
    value, u, y = _phase1_simplex(rows, nvars)
    if value == 0:
        coeffs = tuple(u[j] - u[m + j] for j in range(m))
        point = combine(coeffs, s.basis, d)
        if any(p < 1 for p in point):
            raise RuntimeError("simplex returned an invalid feasible point")
        return PositivityResult(feasible=True, point=point, coefficients=coeffs)
    cert = tuple(y)
    if any(c < 0 for c in cert) or all(c == 0 for c in cert):
        raise RuntimeError("simplex infeasibility certificate is not nonnegative/nonzero")
    for b in s.basis:
        if dot(cert, b) != 0:
            raise RuntimeError("simplex infeasibility certificate is not orthogonal to the span")
    return PositivityResult(feasible=False, certificate=cert)


def balance_subspace(g: EGraph) -> Subspace:
    """Kernel of the per-vertex flux balance rows alone."""
    return kernel_basis(RationalMatrix.from_rows(balance_rows(g), cols=g.num_edges))


def is_complex_balanced_flux(g: EGraph, j: EdgeVector) -> bool:
    """Strictly positive flux with equal in- and out-flow at every vertex."""
    if not j.is_strictly_positive:
        return False
    return not any(vertex_imbalance(g, j.values))


def out_span_normals(g: EGraph) -> dict[Vec, list[list[int]]]:
    """Integer normals of the complement of the span of g's outgoing
    directions, keyed by the coordinates of each vertex with out-edges.

    A vertex of g1 keyed here may carry a net vector orthogonal to these
    normals; a vertex not keyed (absent from g, or a sink of g) must carry
    a zero net vector.
    """
    out: dict[Vec, list[list[int]]] = {}
    for vi, edges in enumerate(g.out_edges):
        if edges:
            span = RationalMatrix.from_rows([g.reaction_vectors[ei] for ei in edges], cols=g.n)
            out[g.vertices[vi]] = integer_rows(kernel_basis(span).basis)
    return out


def reduced_jr_rows(
    g1: EGraph, normals_at: Mapping[Vec, Sequence[Sequence[int]]]
) -> tuple[list[list[int]], bool]:
    """Integer constraint rows of the cone subspace in fraction-free reduced
    echelon form, zero rows dropped, plus the balance-only flag.

    ``normals_at`` is ``out_span_normals(g)``.  The kernel of the rows is
    the cone subspace, so its dimension is |E(g1)| minus the row count.
    """
    vertex = vertex_rows(g1, normals_at)
    rows = vertex + balance_rows(g1)
    del rows[len(bareiss(rows, g1.num_edges, reduced=True)[0]) :]
    return rows, not vertex


def farkas_row(rows: Sequence[Sequence[int]]) -> Sequence[int] | None:
    """A nonzero row with every entry >= 0, or every entry <= 0, if any.

    Such a row of the row space is orthogonal to every point of the
    kernel, so no strictly positive point lies in the kernel.
    """
    return next((r for r in rows if any(r) and (min(r) >= 0 or max(r) <= 0)), None)


def cone_dimension(g1: EGraph, normals_at: Mapping[Vec, Sequence[Sequence[int]]]) -> int | None:
    """Dimension of the cone of the weakly reversible g1 against the target
    whose ``out_span_normals`` are given, or None when the cone is empty.

    Decided exactly from one integer elimination: a balance-only system
    is nonempty because g1 is weakly reversible, a sign-definite row is
    a certificate of emptiness, and the simplex decides the rest.
    """
    rows, balance_only = reduced_jr_rows(g1, normals_at)
    if not balance_only:
        if farkas_row(rows) is not None:
            return None
        kernel = kernel_basis(RationalMatrix.from_rows(rows, cols=g1.num_edges))
        if not positive_point(kernel).feasible:
            return None
    return g1.num_edges - len(rows)


def _cone_subspace(g1: EGraph, g: EGraph) -> tuple[Subspace, bool]:
    """The linear subspace underlying the cone, in canonical reduced
    echelon form, plus the balance-only flag.

    The subspace is the kernel of ``reduced_jr_rows``; canonicalizing it
    fixes the basis that the simplex pivots on.
    """
    if g1.n != g.n:
        raise ValueError(f"ambient dimensions differ: {g1.n} vs {g.n}")
    if not is_weakly_reversible(g1):
        raise NotWeaklyReversibleError(
            "the realization-source graph must be weakly reversible; "
            "a non-weakly-reversible graph admits no positive balanced flux"
        )
    rows, balance_only = reduced_jr_rows(g1, out_span_normals(g))
    kernel = kernel_basis(RationalMatrix.from_rows(rows, cols=g1.num_edges))
    return subspace_from_span(kernel.basis, g1.num_edges), balance_only


def jr_subspace(g1: EGraph, g: EGraph) -> Subspace:
    """The constraint subspace whose positive part is the realizable-flux cone.

    Rows: zero net vector at g1-vertices outside g; net vector confined
    to the span of g's outgoing directions at shared vertices; per-vertex
    flux balance everywhere on g1.
    """
    return _cone_subspace(g1, g)[0]


def _cycle_flux(g1: EGraph) -> EdgeVector:
    """A strictly positive balanced flux on a weakly reversible graph.

    Each edge is completed to a directed cycle by a return path inside
    its strongly connected component; summing the indicator fluxes of
    all these cycles balances every vertex and covers every edge.
    """
    succ: list[list[tuple[int, int]]] = [[] for _ in g1.vertices]
    for ei, (s, t) in enumerate(g1.edges):
        succ[s].append((t, ei))
    values = [_ZERO] * g1.num_edges

    def path_edges(src: int, dst: int) -> list[int]:
        prev: dict[int, tuple[int, int]] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            nxt = []
            for v in frontier:
                for w, ei in succ[v]:
                    if w not in seen:
                        seen.add(w)
                        prev[w] = (v, ei)
                        nxt.append(w)
            if dst in seen:
                break
            frontier = nxt
        if dst not in seen:
            raise NotWeaklyReversibleError("no return path; graph is not weakly reversible")
        out = []
        cur = dst
        while cur != src:
            v, ei = prev[cur]
            out.append(ei)
            cur = v
        return out

    for ei, (s, t) in enumerate(g1.edges):
        values[ei] += 1
        for back in path_edges(t, s):
            values[back] += 1
    return EdgeVector(g1, values)


@dataclass(frozen=True)
class ConeResult:
    """Dimension and positivity data for a realizable-flux cone."""

    tilde_basis: Subspace
    status: str  # "empty" | "nonempty"
    dim: int
    witness: EdgeVector | None = None
    certificate: Vec | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "dim": self.dim,
            "tilde_dim": self.tilde_basis.dim,
            "witness": rationals_to_json(self.witness.values) if self.witness else None,
        }


def membership_failure(g1: EGraph, g: EGraph, j: EdgeVector) -> str | None:
    """None for cone members, else the first violated defining condition."""
    if j.graph != g1:
        raise ValueError("flux vector is indexed by a different graph")
    if not j.is_strictly_positive:
        raise ValueError("cone membership is defined for strictly positive fluxes")
    for vi, r in enumerate(vertex_imbalance(g1, j.values)):
        if r != 0:
            return (
                f"per-vertex flux balance fails at vertex {vi} "
                f"{tuple(str(c) for c in g1.vertices[vi])} (inflow - outflow = {r})"
            )
    realized, obstruction = realize_with_diagnostic(g1, j, g)
    if realized is None:
        return (
            "net vector at vertex "
            f"{tuple(str(c) for c in obstruction)} is not expressible on the target graph"
        )
    return None


def is_member_jr(g1: EGraph, g: EGraph, j: EdgeVector) -> bool:
    """Cone membership: strictly positive, balanced on g1, realizable on g."""
    return membership_failure(g1, g, j) is None


def jr_dimension(g1: EGraph, g: EGraph) -> ConeResult:
    """ConeResult for the pair: subspace dimension plus a verified witness.

    When the constraint system consists of balance rows alone, a
    cycle-completion flux is used as the positive witness; otherwise the
    exact simplex decides positivity.  Every witness is re-verified by
    the membership test before it is reported.
    """
    tilde, balance_only = _cone_subspace(g1, g)
    if balance_only:
        witness = _cycle_flux(g1)
        if not tilde.contains(witness.values):
            raise RuntimeError("cycle flux fell outside the balance kernel")
    else:
        res = positive_point(tilde)
        if not res.feasible:
            return ConeResult(
                tilde_basis=tilde, status="empty", dim=0, certificate=res.certificate
            )
        witness = EdgeVector(g1, res.point)
    if not is_member_jr(g1, g, witness):
        raise RuntimeError("cone witness failed the membership re-check")
    return ConeResult(tilde_basis=tilde, status="nonempty", dim=tilde.dim, witness=witness)


def hat_jr_dimension(g1: EGraph, g: EGraph) -> int:
    """Dimension of the cone subspace extended by J0(g1) directions.

    Equals the plain cone dimension whenever the cone is nonempty; the
    equality is asserted because its failure would indicate a
    constraint-assembly bug.
    """
    result = jr_dimension(g1, g)
    if result.status == "empty":
        raise ValueError("the extended cone dimension is defined for nonempty cones")
    joined = subspace_from_span(
        list(result.tilde_basis.basis) + list(j0_basis(g1).basis), g1.num_edges
    )
    if joined.dim != result.dim:
        raise RuntimeError(
            "internal inconsistency: J0(g1) escapes the cone subspace "
            f"({joined.dim} != {result.dim}); constraint assembly is buggy"
        )
    return joined.dim
