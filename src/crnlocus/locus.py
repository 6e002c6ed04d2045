"""Coordinate maps into the sign-unrestricted disguised locus, and the
dimension lower bound they support.

The forward map takes (flux on g1, positive state, D0(g)-coordinates)
to (rates on g, J0(g1)-coordinates): rates realize the flux-at-state
system on g, shifted inside D0(g) until their coordinates against the
canonical orthogonal D0 basis match the requested ones.  The inverse
direction recovers the triple from a rate vector with a known
complex-balanced realization, through the Birch point of the requested
affine class.

The lower bound for a pair (g, g1) is
    dim(cone) + dim(S_g1) + dim(D0(g)) - dim(J0(g1)),
capped at |E(g)|; the global bound maximizes the capped value over the
weakly reversible subgraphs of the complete graph on g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cone import (
    ConeResult,
    jr_dimension,
    local_certificate,
    membership_failure,
    out_span_normals,
)
from .egraph import (
    EGraph,
    NotWeaklyReversibleError,
    check_enumerable,
    complete_graph,
    edge_subgraph,
    stoich_dim,
    wr_masks_by_size,
)
from .equiv import (
    EdgeVector,
    balance_image,
    d0_basis,
    d0_dimension,
    is_dynamically_equivalent,
    j0_basis,
    j0_dimension,
    local_kernel,
    realize_on,
    state_power,
)
from .exactla import (
    Rat,
    Vec,
    bareiss,
    combine,
    coords_in_basis,
    integer_rows,
    orthogonalize,
    subspace_from_span,
    vec,
)
from .jsonutil import rationals_to_json
from .toric import SteadyState, birch_point, is_toric


class PsiDomainError(ValueError):
    """An argument of a coordinate map violates its domain."""


def canonical_d0_obasis(g: EGraph) -> tuple[Vec, ...]:
    """The canonical orthogonal (unnormalized) basis of D0(g)."""
    return orthogonalize(d0_basis(g).basis)


def canonical_j0_obasis(g: EGraph) -> tuple[Vec, ...]:
    """The canonical orthogonal (unnormalized) basis of J0(g)."""
    return orthogonalize(j0_basis(g).basis)


def psi_small(g1: EGraph, g: EGraph, j: EdgeVector) -> Vec:
    """J0(g1)-coordinates of a cone member against the canonical orthogonal basis.

    The flux domain of the maps is the strictly positive members of the cone.
    """
    g1.check_same_ambient(g)
    failure = (
        membership_failure(g1, g, j) if j.is_strictly_positive else "it is not strictly positive"
    )
    if failure is not None:
        raise PsiDomainError(f"flux vector is not a cone member: {failure}")
    return coords_in_basis(j.values, canonical_j0_obasis(g1))


@dataclass(frozen=True)
class PsiOutput:
    """Image of the forward map: rates on g and J0(g1)-coordinates."""

    k: EdgeVector
    q: Vec
    mode: str  # "exact" | "approximate"

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "k": self.k.to_json_dict(),
            "q": rationals_to_json(self.q),
        }


def _shift_to_coords(values: Sequence[Fraction], basis: Sequence[Vec], targets: Vec) -> Vec:
    """Shift ``values`` along the pairwise-orthogonal ``basis`` until its
    coordinates against that basis equal ``targets``."""
    deltas = [t - c for t, c in zip(targets, coords_in_basis(values, basis))]
    return tuple(a + b for a, b in zip(values, combine(deltas, basis, len(values))))


def _validate_state(g: EGraph, x: Sequence[Rat], what: str) -> tuple[Fraction, ...]:
    xs = vec(x)
    if len(xs) != g.n:
        raise PsiDomainError(f"{what} has {len(xs)} entries, ambient dimension is {g.n}")
    if not all(v > 0 for v in xs):
        raise PsiDomainError(f"{what} must be strictly positive")
    return xs


def psi_map(
    g1: EGraph,
    g: EGraph,
    j: EdgeVector,
    x: Sequence[Rat],
    p: Sequence[Rat],
    x0: Sequence[Rat] | None = None,
) -> PsiOutput:
    """Forward map: (cone member, positive state, D0(g)-coordinates) -> (rates, q).

    The output rates are dynamically equivalent to the flux-at-state
    system on g1 and have the requested coordinates against the
    canonical orthogonal D0(g) basis, which pins them uniquely.  With an
    x0, the state is additionally checked to lie in x0's affine class.
    Exact for integer vertex coordinates; otherwise the state powers are
    rounded through floats (in logs past their range, ``state_power``)
    and the output is flagged approximate.
    """
    q = psi_small(g1, g, j)
    xs = _validate_state(g1, x, "state")
    b_basis = canonical_d0_obasis(g)
    ps = vec(p)
    if len(ps) != len(b_basis):
        raise PsiDomainError(
            f"coordinate vector has length {len(ps)}, dim D0 is {len(b_basis)}"
        )
    if x0 is not None:
        x0s = _validate_state(g1, x0, "base state")
        s_basis = subspace_from_span(g1.reaction_vectors, g1.n)
        if not s_basis.contains([a - b for a, b in zip(xs, x0s)]):
            raise PsiDomainError("state does not lie in the base state's affine class")
    exact = g1.has_integer_coordinates()
    powers = [state_power(xs, y, exact) for y in g1.vertices]
    k1 = EdgeVector(g1, [v / powers[s] for v, (s, _) in zip(j.values, g1.edges)])
    k_part = realize_on(g1, k1, g)
    if k_part is None:
        raise PsiDomainError("internal: cone member failed to realize at the given state")
    k = EdgeVector(g, _shift_to_coords(k_part.values, b_basis, ps))
    return PsiOutput(k=k, q=q, mode="exact" if exact else "approximate")


@dataclass(frozen=True)
class PsiPreimage:
    """Recovered (flux, state, D0-coordinates) triple.  ``mode`` is "exact"
    exactly when the state and its powers are exact, so j_hat is too."""

    j_hat: EdgeVector
    x: SteadyState
    p: Vec
    mode: str  # "exact" | "approximate"

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "j_hat": self.j_hat.to_json_dict(),
            "x": self.x.to_json_dict(),
            "p": rationals_to_json(self.p),
        }


def psi_hat_inverse(
    g1: EGraph,
    g: EGraph,
    k: EdgeVector,
    k1: EdgeVector,
    q_hat: Sequence[Rat],
    x0: Sequence[Rat],
) -> PsiPreimage:
    """Invert the extended forward map at (k, q_hat).

    The caller supplies the complex-balanced realization (g1, k1) of
    (g, k); its Birch point in x0's affine class gives the state, the
    flux at that state gives the base flux, and the q_hat coordinates
    shift it along the canonical orthogonal J0(g1) basis.  The shifted
    flux may leave the positive orthant only along those directions.
    The preimage is exact when the Birch point is and the vertex
    coordinates are integers; otherwise its powers are rounded through
    floats, as in ``psi_map``, and it is flagged approximate.
    """
    g1.check_same_ambient(g)
    if k.graph != g:
        raise PsiDomainError("rate vector is not indexed by the target graph")
    if k1.graph != g1:
        raise PsiDomainError("realization rate vector is not indexed by the source graph")
    if not k1.is_strictly_positive:
        raise PsiDomainError("realization rates must be strictly positive")
    if not is_dynamically_equivalent(g, k, g1, k1):
        raise PsiDomainError("supplied rate vectors are not dynamically equivalent")
    decision = is_toric(g1, k1)
    if not decision:
        raise PsiDomainError(f"realization is not complex balanced: {decision.reason}")
    x0s = _validate_state(g1, x0, "base state")
    x = birch_point(g1, decision.witness.x, x0s)
    exact = x.mode == "exact"
    xs = vec(x.x) if exact else tuple(Fraction(float(v)) for v in x.x)
    power_exact = exact and g1.has_integer_coordinates()
    powers = [state_power(xs, y, power_exact) for y in g1.vertices]
    j1 = [v * powers[s] for v, (s, _) in zip(k1.values, g1.edges)]
    a_basis = canonical_j0_obasis(g1)
    qh = vec(q_hat)
    if len(qh) != len(a_basis):
        raise PsiDomainError(
            f"q_hat has length {len(qh)}, dim J0 is {len(a_basis)}"
        )
    j_hat = EdgeVector(g1, _shift_to_coords(j1, a_basis, qh))
    p = coords_in_basis(k.values, canonical_d0_obasis(g))
    return PsiPreimage(j_hat=j_hat, x=x, p=p, mode="exact" if power_exact else "approximate")


@dataclass(frozen=True)
class BoundReport:
    """All terms of the pair lower bound, with provenance flags."""

    g_edge_count: int
    g1_weakly_reversible: bool
    dim_d0: int
    applicable: bool
    reason: str | None = None
    cone: ConeResult | None = None
    dim_jr: int | None = None
    dim_s: int | None = None
    dim_j0: int | None = None
    raw_bound: int | None = None
    capped_bound: int | None = None

    @property
    def formula(self) -> str | None:
        if not self.applicable:
            return None
        return (
            f"dim_jr + dim_s + dim_d0 - dim_j0 = "
            f"{self.dim_jr} + {self.dim_s} + {self.dim_d0} - {self.dim_j0} = "
            f"{self.raw_bound}; capped at |E| = {self.g_edge_count} -> {self.capped_bound}"
        )

    def to_json_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "reason": self.reason,
            "g_edge_count": self.g_edge_count,
            "g1_weakly_reversible": self.g1_weakly_reversible,
            "dim_jr": self.dim_jr,
            "dim_s": self.dim_s,
            "dim_d0": self.dim_d0,
            "dim_j0": self.dim_j0,
            "raw_bound": self.raw_bound,
            "capped_bound": self.capped_bound,
            "formula": self.formula,
            "cone": self.cone.to_json_dict() if self.cone else None,
        }


def pair_lower_bound(g: EGraph, g1: EGraph) -> BoundReport:
    """Lower bound on the locus dimension for the pair (g, g1).

    Not applicable (flagged, never raised) when g1 is not weakly
    reversible or the realizable-flux cone is empty.  The dimensions of
    D0(g), S_g1 and J0(g1) come from integer ranks, and no basis is built
    for them; the cone comes with a verified witness.
    """
    dim_d0 = d0_dimension(g)
    try:
        cone = jr_dimension(g1, g)
    except NotWeaklyReversibleError:
        return BoundReport(
            g_edge_count=g.num_edges,
            g1_weakly_reversible=False,
            dim_d0=dim_d0,
            applicable=False,
            reason="realization graph is not weakly reversible",
        )
    if cone.status == "empty":
        return BoundReport(
            g_edge_count=g.num_edges,
            g1_weakly_reversible=True,
            dim_d0=dim_d0,
            applicable=False,
            reason="realizable-flux cone is empty",
            cone=cone,
        )
    dim_s = stoich_dim(g1)
    dim_j0 = j0_dimension(g1)
    raw = cone.dim + dim_s + dim_d0 - dim_j0
    return BoundReport(
        g_edge_count=g.num_edges,
        g1_weakly_reversible=True,
        dim_d0=dim_d0,
        applicable=True,
        cone=cone,
        dim_jr=cone.dim,
        dim_s=dim_s,
        dim_j0=dim_j0,
        raw_bound=raw,
        capped_bound=min(raw, g.num_edges),
    )


@dataclass(frozen=True)
class SubgraphBoundRow:
    mask: int
    edge_count: int
    applicable: bool
    dim_jr: int | None
    raw_bound: int | None
    capped_bound: int | None

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class GlobalBoundResult:
    """Best capped bound over the weakly reversible subgraphs of g's complete graph."""

    best: BoundReport | None
    best_mask: int | None
    best_subgraph: EGraph | None
    table: tuple[SubgraphBoundRow, ...]
    examined: int
    exhausted: bool

    def to_json_dict(self) -> dict:
        return {
            "best": self.best.to_json_dict() if self.best else None,
            "best_mask": self.best_mask,
            "best_subgraph": self.best_subgraph.to_json_dict() if self.best_subgraph else None,
            "examined": self.examined,
            "exhausted": self.exhausted,
            "table": [r.to_json_dict() for r in self.table],
        }


def _vertex_terms(gc: EGraph, vi: int, kept: int, normals: list[list[int]] | None) -> tuple | None:
    """Vertex ``vi``'s terms in a mask keeping its out-edges ``kept`` (bits):
    None when its local cone is empty, else the local cone dimension, its
    local D0 pushed through the balance map, its reaction rows reduced to
    a basis, and the bits of ``vi`` and its heads."""
    out = [ei for ei in gc.out_edges[vi] if kept >> ei & 1]
    cone = local_kernel(gc, out, normals)
    if local_certificate(cone) is not None:
        return None
    reaction = integer_rows(gc.reaction_vectors[ei] for ei in out)
    del reaction[len(bareiss(reaction, gc.n)[0]) :]
    group = sum(1 << gc.edges[ei][1] for ei in out) | 1 << vi
    return cone.dim, integer_rows(balance_image(gc, out, local_kernel(gc, out))), reaction, group


def _class_count(groups: Sequence[int]) -> int:
    """Connected components of the union of the vertex sets ``groups`` (bits);
    the classes stay disjoint, so their sum is their union."""
    classes: list[int] = []
    for group in groups:
        joined = [c for c in classes if c & group]
        classes = [c for c in classes if not c & group] + [group | sum(joined)]
    return len(classes)


def global_lower_bound(g: EGraph, cap: int | None = None) -> GlobalBoundResult:
    """Maximize the capped pair bound over weakly reversible subgraphs of g's
    complete graph.

    Subgraphs are scanned by edge count, then ascending bitmask, which is
    the tie-break order (fewest edges, then bitmask).  The scan stops
    early once the theoretical maximum |E(g)| is reached: no later
    subgraph can beat it, and none can win the tie.  ``cap`` (at least 0)
    limits the number of weakly reversible subgraphs examined.

    The scan reads masks of the complete graph and builds no graph per
    mask.  By the lemma of the ``cone`` module, a cone is nonempty iff the
    kernel L_v of each vertex's rows holds a positive vector, and then
    dim J~R = sum dim L_v - |V1| + l1, for l1 linkage classes: positive
    rates in the L_v make a Markov chain whose stationary flux is in the
    cone, and whose generator rows span the balance image.  dim S is the
    rank of the reaction rows, and dim J0 the sum of the local D0
    dimensions minus the rank of their balance images.  Each vertex's
    terms depend only on the out-edges the mask keeps there, so they are
    built once per kept set.  Only a subgraph that beats the incumbent
    becomes a graph, and its full ``pair_lower_bound`` report must agree.
    """
    m = g.num_vertices
    check_enumerable(m * (m - 1), cap)
    gc = complete_graph(g)
    # Terms that depend on g alone, and per-vertex data of the complete graph.
    normals_at = out_span_normals(g)
    normals = [normals_at.get(v) for v in gc.vertices]
    dim_d0 = d0_dimension(g)
    out_bits = [sum(1 << ei for ei in out) for out in gc.out_edges]
    local: dict[int, tuple | None] = {}  # kept bits -> _vertex_terms
    best: BoundReport | None = None
    best_mask: int | None = None
    best_sub: EGraph | None = None
    rows: list[SubgraphBoundRow] = []
    examined = 0
    exhausted = True
    target = g.num_edges
    # One mask beyond the cap tells whether the scan was cut short.
    for mask in wr_masks_by_size(gc, None if cap is None else cap + 1):
        if cap is not None and examined >= cap:
            exhausted = False
            break
        examined += 1
        nedges = mask.bit_count()
        # Every vertex a weakly reversible mask touches keeps out-edges, so
        # the parts are one per vertex of the subgraph.
        parts = []
        for vi, bits in enumerate(out_bits):
            kept = mask & bits
            if kept:
                if kept not in local:
                    local[kept] = _vertex_terms(gc, vi, kept, normals[vi])
                parts.append(local[kept])
                if parts[-1] is None:
                    break
        if parts[-1] is None:
            rows.append(SubgraphBoundRow(mask, nedges, False, None, None, None))
            continue
        cone_dims, d0_images, reactions, groups = zip(*parts)
        dim_jr = sum(cone_dims) - len(parts) + _class_count(groups)
        dim_s = len(bareiss([list(r) for block in reactions for r in block], gc.n)[0])
        images = [list(r) for block in d0_images for r in block]
        dim_j0 = len(images) - len(bareiss(images, m)[0])
        raw = dim_jr + dim_s + dim_d0 - dim_j0
        capped = min(raw, target)
        rows.append(SubgraphBoundRow(mask, nedges, True, dim_jr, raw, capped))
        if best is None or capped > best.capped_bound:
            sub = edge_subgraph(gc, [ei for ei in range(gc.num_edges) if mask >> ei & 1])
            report = pair_lower_bound(g, sub)
            terms = (True, dim_jr, dim_s, dim_d0, dim_j0)
            reported = (
                report.applicable, report.dim_jr, report.dim_s, report.dim_d0, report.dim_j0
            )
            if reported != terms:
                raise RuntimeError(
                    f"internal inconsistency: the report for subgraph mask {mask} has terms "
                    f"{reported}, the per-vertex terms gave {terms}"
                )
            best, best_mask, best_sub = report, mask, sub
            if capped >= target:
                exhausted = False
                break
    return GlobalBoundResult(best, best_mask, best_sub, tuple(rows), examined, exhausted)
