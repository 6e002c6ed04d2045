"""Net reaction vectors, D0/J0 subspaces, equivalence tests, realization.

Two weighted graphs generate the same vector field exactly when, at
every vertex of either graph, the weighted sums of outgoing reaction
vectors agree (a vertex absent from one graph contributes the empty
sum, i.e. zero).  D0(G) collects the edge weightings whose per-vertex
net vanishes; J0(G) additionally requires per-vertex flux balance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .egraph import EGraph
from .exactla import (
    RationalMatrix,
    Rat,
    Subspace,
    Vec,
    _log,
    bareiss,
    dot,
    frac,
    integer_rows,
    kernel_basis,
    solve_particular,
    vec,
)
from .jsonutil import load_json, rationals_from_json, rationals_to_json

_ZERO = Fraction(0)
_ONE = Fraction(1)

# An approximate state power past the float range is built as a float
# mantissa times 2**e for |e| up to this many bits (about 2,500 digits).
POWER_MAX_BITS = 8192


class VectorGraphMismatchError(ValueError):
    """A serialized edge vector does not belong to the supplied graph."""


@dataclass(frozen=True)
class EdgeVector:
    """Exact rational weights indexed by the edges of one graph."""

    graph: EGraph
    values: tuple[Fraction, ...]

    def __init__(self, graph: EGraph, values: Sequence[Rat]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "values", vec(values))
        if len(self.values) != graph.num_edges:
            raise ValueError(
                f"edge vector has {len(self.values)} entries for a graph with "
                f"{graph.num_edges} edges"
            )

    @property
    def is_strictly_positive(self) -> bool:
        return all(v > 0 for v in self.values)

    @staticmethod
    def uniform(graph: EGraph, value: Rat = 1) -> "EdgeVector":
        return EdgeVector(graph, [frac(value)] * graph.num_edges)

    def to_json_dict(self) -> dict:
        return {"graph_hash": self.graph.content_hash, "values": rationals_to_json(self.values)}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def edge_vector_from_json(graph: EGraph, text: str | dict) -> EdgeVector:
    """Parse the edge-vector wire format, checking the embedded graph hash."""
    data = load_json(text) if isinstance(text, str) else text
    if not isinstance(data, dict) or "graph_hash" not in data or "values" not in data:
        raise ValueError("edge vector JSON must carry 'graph_hash' and 'values'")
    if data["graph_hash"] != graph.content_hash:
        raise VectorGraphMismatchError(
            f"edge vector was produced for graph {str(data['graph_hash'])[:12]}..., "
            f"not for the supplied graph {graph.content_hash[:12]}..."
        )
    return EdgeVector(graph, rationals_from_json(data["values"]))


def net_vectors(g: EGraph, w: EdgeVector) -> dict[Vec, Vec]:
    """Per-source-vertex weighted sums of reaction vectors, keyed by coordinates.

    Vertices with no outgoing edges map to zero (empty-sum convention).
    """
    if w.graph is not g and w.graph != g:
        raise ValueError("edge vector is indexed by a different graph")
    out: dict[Vec, Vec] = {}
    for vi, coords in enumerate(g.vertices):
        acc = [_ZERO] * g.n
        for ei in g.out_edges[vi]:
            c = w.values[ei]
            if c:
                rv = g.reaction_vectors[ei]
                for j in range(g.n):
                    acc[j] += c * rv[j]
        out[coords] = tuple(acc)
    return out


def _nets_agree(a: Mapping[Vec, Vec], b: Mapping[Vec, Vec], n: int) -> bool:
    zero = (_ZERO,) * n
    for key in a.keys() | b.keys():
        if a.get(key, zero) != b.get(key, zero):
            return False
    return True


def is_dynamically_equivalent(g: EGraph, k: EdgeVector, g2: EGraph, k2: EdgeVector) -> bool:
    """Equal per-vertex net reaction vectors over the union of vertex sets."""
    g.check_same_ambient(g2)
    return _nets_agree(net_vectors(g, k), net_vectors(g2, k2), g.n)


def state_power(x: Sequence, y: Vec, exact: bool) -> Fraction:
    """The state power x**y as a Fraction: exact (for integer exponents)
    with ``exact``, else through a float power.  One that overflows, or
    underflows to 0, is taken in logs as a float mantissa times a power of
    two of at most ``POWER_MAX_BITS`` bits; where a coordinate has no
    float, from logs of numerators and denominators."""
    if exact:
        return math.prod((Fraction(xi) ** int(yi) for xi, yi in zip(x, y) if int(yi)), start=_ONE)
    try:
        power = math.prod((float(xi) ** float(yi) for xi, yi in zip(x, y)), start=1.0)
        if 0 < power < math.inf:
            return Fraction(power)
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: 0.0 ** -y
        pass
    try:
        log2 = sum(float(b) * math.log2(a) for a, b in zip(x, y) if b)
    except (OverflowError, ValueError):  # some float(a) overflows or is 0
        log2 = sum(float(b) * _log(a) for a, b in zip(x, y) if b) / math.log(2)
    e = math.floor(log2)
    if abs(e) > POWER_MAX_BITS:
        raise OverflowError(f"state power 2^{log2:.6g} is past 2^{POWER_MAX_BITS} in size")
    return Fraction(2.0 ** (log2 - e)) * Fraction(2) ** e


def mass_action_field(g: EGraph, k: EdgeVector) -> Callable[[Sequence], tuple]:
    """The polynomial vector field of (g, k), in floats, as a function of the
    positive state.

    The rates, source exponents and reaction vectors are converted to
    floats once, when the field is built, so a caller that evaluates it
    at many states, such as an ODE integrator, pays for the conversion
    once.  Each call still checks the state's length and positivity.
    """
    n = g.n
    terms = [
        (
            float(k.values[ei]),
            tuple(float(y) for y in g.vertices[s]),
            tuple(float(r) for r in g.reaction_vectors[ei]),
        )
        for ei, (s, _) in enumerate(g.edges)
    ]

    def field(x: Sequence) -> tuple:
        if len(x) != n:
            raise ValueError(f"state has {len(x)} entries, ambient dimension is {n}")
        for xi in x:
            if not (xi > 0):
                raise ValueError(f"state must be strictly positive, got {xi}")
        acc = [0.0] * n
        for rate, y, rv in terms:
            power = 1.0
            for xi, yi in zip(x, y):
                power *= float(xi) ** yi
            c = rate * power
            for j in range(n):
                acc[j] += c * rv[j]
        return tuple(acc)

    return field


def _imbalance(g: EGraph, edges: Sequence[int], flux: Sequence) -> list:
    """Inflow minus outflow at every vertex of g of a flux on ``edges``."""
    out = [_ZERO] * g.num_vertices
    for ei, f in zip(edges, flux, strict=True):
        if f:
            s, t = g.edges[ei]
            out[t] += f
            out[s] -= f
    return out


def vertex_imbalance(g: EGraph, flux: Sequence) -> list:
    """Inflow minus outflow of an edge flux at every vertex."""
    return _imbalance(g, range(g.num_edges), flux)


def _local_rows(
    g: EGraph, edges: Sequence[int], normals: Sequence[Sequence[Rat]] | None = None
) -> list[list[Fraction]]:
    """Rows over ``edges``, out-edges of one vertex: the reaction-vector
    coordinates, or their dot products with each normal."""
    rvs = [g.reaction_vectors[ei] for ei in edges]
    if normals is None:
        return [[rv[r] for rv in rvs] for r in range(g.n)]
    return [[dot(c, rv) for rv in rvs] for c in normals]


def d0_dimension(g: EGraph) -> int:
    """dim D0(g) from integer ranks: the system is block-diagonal by source
    vertex, so it is the sum of |out(v)| - rank of the out-directions at v."""
    return sum(
        len(out) - len(bareiss(integer_rows(_local_rows(g, out)), len(out))[0])
        for out in g.out_edges
        if out
    )


def local_kernel(
    g: EGraph, edges: Sequence[int], normals: Sequence[Sequence[Rat]] | None = None
) -> Subspace:
    """The canonical kernel of the local rows over ``edges``, out-edges of
    one vertex: with no normals the local D0, and with the out-span normals
    of a target graph the local cone space L_v."""
    return kernel_basis(RationalMatrix.from_rows(_local_rows(g, edges, normals), cols=len(edges)))


def embed_kernels(g: EGraph, kernels: Sequence[tuple[Sequence[int], Subspace]]) -> Subspace:
    """The sum of local kernels, each given with its vertex's out-edges, as
    its canonical basis.  The kernels lie on disjoint edges, and a vertex's
    out-edges ascend, so their reduced echelon bases, embedded at the
    out-edges and ordered by leading edge, are the reduced echelon basis of
    the sum."""
    by_lead: list[tuple[int, Vec]] = []
    for out, kernel in kernels:
        for lead, kv in zip(kernel.leads, kernel.basis):
            v = [_ZERO] * g.num_edges
            for ei, x in zip(out, kv):
                v[ei] = x
            by_lead.append((out[lead], tuple(v)))
    return Subspace(g.num_edges, tuple(v for _, v in sorted(by_lead)))


def balance_image(g: EGraph, edges: Sequence[int], kernel: Subspace) -> list[list[Fraction]]:
    """A local kernel at ``edges``, out-edges of one vertex, pushed through
    the balance map: per basis vector, the row of its inflow minus outflow
    at each vertex of g."""
    return [_imbalance(g, edges, kv) for kv in kernel.basis]


def balanced_dimension(g: EGraph, kernels: Sequence[tuple[Sequence[int], Subspace]]) -> int:
    """The dimension of the sum of local kernels restricted to flux balance,
    from an integer rank: the sum of their dimensions minus the rank of
    their balance images."""
    images = integer_rows(row for out, kernel in kernels for row in balance_image(g, out, kernel))
    return len(images) - len(bareiss(images, g.num_vertices)[0])


def restrict_to_kernel(g: EGraph, kernels: Sequence[tuple[Sequence[int], Subspace]]) -> Subspace:
    """The sum of local kernels, each given with its vertex's out-edges,
    restricted to flux balance, as its canonical basis.

    The local basis vectors ordered by leading edge are the canonical
    basis of the sum (``embed_kernels``); the balanced combinations of
    them are the kernel of their balance images, one column per vector.
    Reduced echelon combinations of a reduced echelon basis are again
    reduced echelon, and only they are embedded in the edge space.
    """
    terms = sorted(
        (out[lead], out, kv, image)
        for out, kernel in kernels
        for lead, kv, image in zip(kernel.leads, kernel.basis, balance_image(g, out, kernel))
    )
    images = [image for *_, image in terms]
    combos = kernel_basis(RationalMatrix.from_rows(list(zip(*images)), cols=len(terms)))
    basis = []
    for t in combos.basis:
        v = [_ZERO] * g.num_edges
        for c, (_, out, kv, _) in zip(t, terms):
            if c:
                for ei, x in zip(out, kv):
                    if x:
                        v[ei] += c * x
        basis.append(tuple(v))
    return Subspace(g.num_edges, tuple(basis))


def _d0_kernels(g: EGraph) -> list[tuple[Sequence[int], Subspace]]:
    """The local D0 of each vertex with out-edges, with its out-edges."""
    return [(out, local_kernel(g, out)) for out in g.out_edges if out]


def j0_dimension(g: EGraph) -> int:
    """dim J0(g) from integer ranks: J0 is D0, the sum of the local D0s,
    restricted to balance."""
    return balanced_dimension(g, _d0_kernels(g))


def d0_basis(g: EGraph) -> Subspace:
    """Canonical basis of D0(g): weightings with zero net vector at every vertex."""
    return embed_kernels(g, _d0_kernels(g))


def j0_basis(g: EGraph) -> Subspace:
    """Canonical basis of J0(g) = D0(g) intersected with per-vertex flux balance."""
    return restrict_to_kernel(g, _d0_kernels(g))


def realize_with_diagnostic(
    g_src: EGraph, w_src: EdgeVector, g_tgt: EGraph
) -> tuple[EdgeVector | None, Vec | None]:
    """realize_on plus the coordinates of the first obstructing vertex."""
    g_src.check_same_ambient(g_tgt)
    nets = net_vectors(g_src, w_src)
    zero = (_ZERO,) * g_src.n
    for coords, net in nets.items():
        if coords not in g_tgt.coord_index and net != zero:
            return None, coords
    values = [_ZERO] * g_tgt.num_edges
    for vi, coords in enumerate(g_tgt.vertices):
        out = g_tgt.out_edges[vi]
        target = nets.get(coords, zero)
        if not out:
            if target != zero:
                return None, coords
            continue
        local = RationalMatrix.from_rows(_local_rows(g_tgt, out), cols=len(out))
        sol = solve_particular(local, target)
        if sol is None:
            return None, coords
        for pos, ei in enumerate(out):
            values[ei] = sol[pos]
    return EdgeVector(g_tgt, values), None


def realize_on(g_src: EGraph, w_src: EdgeVector, g_tgt: EGraph) -> EdgeVector | None:
    """Sign-unrestricted weights on g_tgt matching (g_src, w_src)'s net vectors.

    Returns the canonical particular solution (free components zero in
    the reduced echelon sense); other solutions differ by D0(g_tgt).
    Returns None when some vertex equation is inconsistent, i.e. the
    net vector falls outside the span of g_tgt's outgoing directions.
    """
    realized, _ = realize_with_diagnostic(g_src, w_src, g_tgt)
    return realized
