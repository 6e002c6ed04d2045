"""The realizable-flux cone of a graph pair, decided with exact arithmetic.

For a weakly reversible graph g1 and a target graph g, the cone of
interest is the set of strictly positive, per-vertex-balanced fluxes on
g1 whose vector field is expressible on g with sign-unrestricted
weights.  That cone is the intersection of a linear subspace J~R with
the open positive orthant, so its dimension is the subspace dimension
when a strictly positive point exists and zero otherwise.

J~R is built as J0 is: J0 is D0, the sum of the vertices' local
kernels, restricted to flux balance, and J~R is the sum of the kernels
L_v of the vertices' cone rows restricted to balance (both sums are
embedded by ``equiv.embed_kernels``).  The cone rows of v touch only its
out-edges: their dot products with the normals of g's outgoing span at
v, or their coordinates where g has no out-edges at v.

The cone factors by vertex (the Matrix-Tree argument of Craciun,
Dickenstein, Shiu and Sturmfels, "Toric dynamical systems", 2009).  The
cone is nonempty iff every L_v holds a positive vector, and then its
subspace has dimension sum dim L_v - |V1| + l1, for l1 linkage
classes.  Proof: positive kappa_v in each L_v are the rates of a Markov
chain on g1, whose strongly connected classes have positive stationary
pi, so j_e = pi_s kappa_e is positive, balanced and in every L_v.  The
balance map sends the sum of the L_v into the vectors that sum to zero
on each class, of dimension |V1| - l1, and the generator rows B kappa_v
already span that.  The converse holds as the vertex rows are
block-diagonal by source vertex.

So one per-vertex decision, ``local_certificate``, serves the scan of
``bound --all`` and the report (``jr_dimension``).  It reads the
reduced rows of a vertex off the reduced echelon basis of L_v, from the
one elimination that built it: a sign-definite row proves the local
cone empty, and otherwise the simplex runs on L_v.  An emptiness
certificate is local: supported on one vertex's out-edges and checked
against that L_v.  The subspace of an empty cone then has the integer
dimension sum dim L_v minus the rank of their balance images; only a
nonempty cone with rows builds the canonical basis of J~R, on which the
simplex pivots for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .egraph import EGraph, NotWeaklyReversibleError, bfs, is_weakly_reversible, linkage_classes
from .equiv import (
    EdgeVector,
    balance_rows,
    balanced_dimension,
    embed_kernels,
    local_kernel,
    realize_with_diagnostic,
    restrict_to_kernel,
    vertex_imbalance,
)
from .exactla import (
    RationalMatrix,
    Subspace,
    Vec,
    combine,
    dot,
    integer_rows,
    kernel_basis,
    vec,
)
from .jsonutil import rational_str, rationals_to_json

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of the strictly-positive-point search in a subspace.

    Feasible: ``point`` lies in the subspace with every entry >= 1.
    Infeasible: ``certificate`` is a nonnegative, nonzero vector
    orthogonal to every basis vector, which rules out any strictly
    positive point.
    """

    feasible: bool
    point: Vec | None = None
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
    if value != 0:
        return _certified_empty(tuple(y), s)
    point = combine([u[j] - u[m + j] for j in range(m)], s.basis, d)
    if any(p < 1 for p in point):
        raise RuntimeError("simplex returned an invalid feasible point")
    return PositivityResult(feasible=True, point=point)


def _certified_empty(cert: Vec, s: Subspace) -> PositivityResult:
    """The infeasible result, once ``cert`` is checked to be a nonnegative,
    nonzero vector orthogonal to every basis vector of s."""
    if any(c < 0 for c in cert) or not any(cert):
        raise RuntimeError("infeasibility certificate is not nonnegative/nonzero")
    if any(dot(cert, b) for b in s.basis):
        raise RuntimeError("infeasibility certificate is not orthogonal to the span")
    return PositivityResult(feasible=False, certificate=cert)


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


def local_certificate(kernel: Subspace) -> Vec | None:
    """One vertex's local cone, decided from its canonical kernel L_v: None
    when L_v holds a strictly positive point, else a certificate of
    emptiness.  The reduced row of each column p that leads no basis vector
    is 1 at p and -b[p] at the leading column of each basis vector b; one
    with every b[p] <= 0 is the certificate, and otherwise the simplex runs."""
    n = kernel.ambient
    if kernel.dim == n:
        return None
    leads = [next(j for j, x in enumerate(b) if x) for b in kernel.basis]
    for p in sorted(set(range(n)).difference(leads)):
        if all(b[p] <= 0 for b in kernel.basis):
            row = [_ZERO] * n
            row[p] = _ONE
            for lead, b in zip(leads, kernel.basis):
                row[lead] = -b[p]
            return tuple(row)
    return positive_point(kernel).certificate


def _pair_kernels(g1: EGraph, g: EGraph) -> list[tuple[list[int], Subspace]]:
    """The local cone kernels L_v of g1's vertices against the out-span
    normals of g, once g1 is checked weakly reversible and then in g's
    ambient space."""
    if not is_weakly_reversible(g1):
        raise NotWeaklyReversibleError(
            "the realization-source graph must be weakly reversible; "
            "a non-weakly-reversible graph admits no positive balanced flux"
        )
    g.check_same_ambient(g1)
    normals_at = out_span_normals(g)
    at = zip(g1.vertices, g1.out_edges)
    return [(out, local_kernel(g1, out, normals_at.get(v))) for v, out in at if out]


def jr_subspace(g1: EGraph, g: EGraph) -> Subspace:
    """The constraint subspace whose positive part is the realizable-flux cone.

    Rows: zero net vector at g1-vertices outside g; net vector confined
    to the span of g's outgoing directions at shared vertices; per-vertex
    flux balance everywhere on g1.
    """
    return restrict_to_kernel(embed_kernels(g1, _pair_kernels(g1, g)), balance_rows(g1))


def _cycle_flux(g1: EGraph) -> EdgeVector:
    """A strictly positive, integral, balanced flux on the weakly reversible g1.

    The sum over the edges s -> t of the cycles s -> t -> root -> s closed
    by a BFS in-tree and out-tree, in linear time, rooted at the smallest
    vertex of each linkage class: an in-tree edge carries one unit per
    edge whose head lies below it, an out-tree edge one per edge whose
    tail does.
    """
    values = [1] * g1.num_edges
    for cls in linkage_classes(g1):
        for edges_at, far in ((g1.in_edges, 0), (g1.out_edges, 1)):
            order, parent = bfs(g1, cls[0], (edges_at, far))
            below = {v: len(edges_at[v]) for v in order}
            for w in reversed(order[1:]):
                v, ei = parent[w]
                values[ei] += below[w]
                below[v] += below[w]
    return EdgeVector(g1, values)


@dataclass(frozen=True)
class ConeResult:
    """Dimension and positivity data for a realizable-flux cone: ``tilde_dim``
    is the dimension of its subspace, ``dim`` that or 0 for an empty cone."""

    tilde_dim: int
    status: str  # "empty" | "nonempty"
    dim: int
    witness: EdgeVector | None = None
    certificate: Vec | None = None

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "dim": self.dim,
            "tilde_dim": self.tilde_dim,
            "witness": rationals_to_json(self.witness.values) if self.witness else None,
        }


def membership_failure(g1: EGraph, g: EGraph, j: EdgeVector) -> str | None:
    """None for cone members, else the first violated defining condition."""
    g1.check_same_ambient(g)
    if j.graph != g1:
        raise ValueError("flux vector is indexed by a different graph")
    if not j.is_strictly_positive:
        raise ValueError("cone membership is defined for strictly positive fluxes")
    for vi, r in enumerate(vertex_imbalance(g1, j.values)):
        if r != 0:
            return (
                f"per-vertex flux balance fails at vertex {vi} "
                f"{tuple(rational_str(c) for c in g1.vertices[vi])} "
                f"(inflow - outflow = {rational_str(r)})"
            )
    realized, obstruction = realize_with_diagnostic(g1, j, g)
    if realized is None:
        return (
            "net vector at vertex "
            f"{tuple(rational_str(c) for c in obstruction)} is not expressible on the target graph"
        )
    return None


def is_member_jr(g1: EGraph, g: EGraph, j: EdgeVector) -> bool:
    """Cone membership: strictly positive, balanced on g1, realizable on g."""
    return membership_failure(g1, g, j) is None


def jr_dimension(g1: EGraph, g: EGraph) -> ConeResult:
    """ConeResult for the pair: dimension plus a verified witness or certificate.

    With no cone rows at any vertex the cone is cut by balance alone:
    nonempty as g1 is weakly reversible, of dimension |E1| - |V1| + l1,
    with the cycle flux as its witness and no basis.  Otherwise the first
    vertex whose local cone is empty gives the certificate, checked against
    its L_v, with no basis; when every vertex passes, the exact simplex on
    the canonical basis of J~R gives the witness.  Every witness is
    re-verified by the membership test before it is reported.
    """
    kernels = _pair_kernels(g1, g)
    if all(kernel.dim == len(out) for out, kernel in kernels):
        witness = _cycle_flux(g1)
        if any(vertex_imbalance(g1, witness.values)):
            raise RuntimeError("cycle flux fell outside the balance kernel")
        tilde_dim = g1.num_edges - g1.num_vertices + len(linkage_classes(g1))
    else:
        for out, kernel in kernels:
            local = local_certificate(kernel)
            if local is not None:
                at = dict(zip(out, _certified_empty(local, kernel).certificate))
                cert = vec(at.get(e, 0) for e in range(g1.num_edges))
                return ConeResult(balanced_dimension(g1, kernels), "empty", 0, certificate=cert)
        tilde = restrict_to_kernel(embed_kernels(g1, kernels), balance_rows(g1))
        tilde_dim = tilde.dim
        res = positive_point(tilde)
        if not res.feasible:
            raise RuntimeError("the simplex found the cone empty, against the per-vertex lemma")
        witness = EdgeVector(g1, res.point)
    if not is_member_jr(g1, g, witness):
        raise RuntimeError("cone witness failed the membership re-check")
    return ConeResult(tilde_dim=tilde_dim, status="nonempty", dim=tilde_dim, witness=witness)
