"""Independent oracles: deliberately naive re-implementations used to
cross-check the library's optimized paths.  Nothing here imports the
functions it checks; ``basis_pair_terms`` checks the integer ranks of
the mask scan and of ``pair_lower_bound``, which builds no basis for
them, against exact bases, with the cone subspace from the monolithic
construction ``monolithic_jr_subspace``; ``per_subgraph_global_bound``
checks the mask scan of ``global_lower_bound`` by building a graph per
mask; ``local_cone_blocks`` and ``has_positive_kernel_point`` check the
per-vertex cone lemma against ``jr_dimension``; and ``rk4_every_stage`` checks
``ode_trajectory`` against the one-shot ``mass_action_rhs``, which the
direct right-hand-side oracles check in turn.

Also here are helpers that only tests call, with the bodies they had in
the package: ``hat_jr_dimension`` (the cone subspace joined with J0),
``balance_rows``, ``balance_subspace``, ``enumerate_wr_subgraphs``,
``check_complex_balanced_at`` with its tolerance ``CB_REL_TOL``,
``mass_action_rhs``, and the subspace comparisons ``is_subspace_of`` and
``spans_same``; ``rank_contains`` is the rank-based membership oracle for
``Subspace.contains``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterator, Sequence

from crnlocus import (
    EGraph,
    EdgeVector,
    RationalMatrix,
    Subspace,
    jr_dimension,
    jr_subspace,
    kernel_basis,
    positive_point,
    subspace_from_span,
)
from crnlocus.egraph import (
    check_enumerable,
    complete_graph,
    edge_subgraph,
    iter_wr_edge_masks,
    stoich_dim,
    wr_masks_by_size,
)
from crnlocus.equiv import (
    d0_basis,
    d0_dimension,
    j0_basis,
    j0_dimension,
    mass_action_field,
    state_power,
    vertex_imbalance,
)
from crnlocus.locus import GlobalBoundResult, SubgraphBoundRow, pair_lower_bound
from crnlocus.exactla import Vec, dot, vec
from crnlocus.toric import ODE_DT_MIN, ConvergenceError, _cb_relative_residual

CB_REL_TOL = 1e-10


def is_subspace_of(s: Subspace, other: Subspace) -> bool:
    """Every basis vector of s lies in other."""
    if s.ambient != other.ambient:
        raise ValueError("ambient dimensions differ")
    return all(other.contains(b) for b in s.basis)


def spans_same(s: Subspace, other: Subspace) -> bool:
    return is_subspace_of(s, other) and is_subspace_of(other, s)


def rank_contains(s: Subspace, v: Sequence) -> bool:
    """v lies in s exactly when appending it leaves the naive RREF rank at
    dim s."""
    if len(v) != s.ambient:
        raise ValueError("vector length differs from ambient dimension")
    return len(naive_rref(list(s.basis) + [list(v)])[1]) == s.dim


def balance_rows(g: EGraph) -> list[list[int]]:
    """One row per vertex: incoming minus outgoing edge weights."""
    rows = [[0] * g.num_edges for _ in range(g.num_vertices)]
    for ei, (s, t) in enumerate(g.edges):
        rows[t][ei] += 1
        rows[s][ei] -= 1
    return rows


def balance_subspace(g: EGraph) -> Subspace:
    """Kernel of the per-vertex flux balance rows alone."""
    return kernel_basis(RationalMatrix.from_rows(balance_rows(g), cols=g.num_edges))


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
        list(jr_subspace(g1, g).basis) + list(j0_basis(g1).basis), g1.num_edges
    )
    if joined.dim != result.dim:
        raise RuntimeError(
            "internal inconsistency: J0(g1) escapes the cone subspace "
            f"({joined.dim} != {result.dim}); constraint assembly is buggy"
        )
    return joined.dim


def enumerate_wr_subgraphs(g: EGraph, cap: int | None = None) -> Iterator[EGraph]:
    """Every weakly reversible subgraph of g, as graphs on the edge endpoints.

    Deterministic ascending-bitmask order over g's edge sequence; stops
    after ``cap`` graphs when a cap is given.
    """
    for mask in iter_wr_edge_masks(g, cap):
        yield edge_subgraph(g, [i for i in range(g.num_edges) if mask >> i & 1])


def check_complex_balanced_at(g: EGraph, k: EdgeVector, x: Sequence) -> bool:
    """Per-vertex inflow equals outflow at state x, for strictly positive rates.

    Exact comparison when the vertex coordinates are integers and both k
    and x are rational; otherwise the relative residual is held to
    CB_REL_TOL.
    """
    if not k.is_strictly_positive:
        raise ValueError("complex balance is defined for strictly positive rates")
    for xi in x:
        if not (xi > 0):
            raise ValueError("state must be strictly positive")
    exact = g.has_integer_coordinates() and all(isinstance(v, (int, Fraction)) for v in x)
    if exact:
        flux = [kv * state_power(x, g.vertices[s], True) for kv, (s, _) in zip(k.values, g.edges)]
        return not any(vertex_imbalance(g, flux))
    return _cb_relative_residual(g, k, x) <= CB_REL_TOL


def mass_action_rhs(g: EGraph, k: EdgeVector, x: Sequence) -> tuple:
    """The polynomial vector field of (g, k) evaluated at the positive state x.

    Returns exact Fractions, summed edge by edge with exact powers, when
    the vertex coordinates are integers and x is rational; otherwise
    floats, from one call of the field ``mass_action_field`` builds (the
    numeric type is the approximate-mode flag).
    """
    if not (g.has_integer_coordinates() and all(isinstance(xi, (int, Fraction)) for xi in x)):
        return mass_action_field(g, k)(x)
    if len(x) != g.n:
        raise ValueError(f"state has {len(x)} entries, ambient dimension is {g.n}")
    if not all(xi > 0 for xi in x):
        raise ValueError(f"state must be strictly positive, got {x}")
    acc = [Fraction(0)] * g.n
    for rate, (s, _), rv in zip(k.values, g.edges, g.reaction_vectors):
        c = rate * state_power(x, g.vertices[s], True)
        for j in range(g.n):
            acc[j] += c * rv[j]
    return tuple(acc)


def reachability_weakly_reversible(g: EGraph) -> bool:
    """All-pairs-reachability definition: every edge closes a directed cycle."""
    m = g.num_vertices
    reach = [[False] * m for _ in range(m)]
    for s, t in g.edges:
        reach[s][t] = True
    changed = True
    while changed:
        changed = False
        for a in range(m):
            for b in range(m):
                if reach[a][b]:
                    for c_ in range(m):
                        if reach[b][c_] and not reach[a][c_]:
                            reach[a][c_] = True
                            changed = True
    return all(reach[t][s] for s, t in g.edges)


def _mask_wr_by_reachability(g: EGraph, mask: int) -> bool:
    sub_edges = [g.edges[i] for i in range(g.num_edges) if mask >> i & 1]
    touched = sorted({v for e in sub_edges for v in e})
    remap = {v: i for i, v in enumerate(touched)}
    sub = EGraph(g.n, [g.vertices[v] for v in touched],
                 [(remap[s], remap[t]) for s, t in sub_edges])
    return reachability_weakly_reversible(sub)


def brute_wr_edge_masks(g: EGraph) -> list[int]:
    """Filter every nonempty edge subset with the reachability oracle."""
    return [mask for mask in range(1, 1 << g.num_edges) if _mask_wr_by_reachability(g, mask)]


def brute_wr_masks_up_to_size(g: EGraph, size: int) -> list[int]:
    """Weakly reversible edge subsets of at most ``size`` edges, by (edge count, mask)."""
    out = []
    for k in range(1, size + 1):
        masks = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(g.num_edges), k))
        out += [mask for mask in masks if _mask_wr_by_reachability(g, mask)]
    return out


def d0_constraint_matrix(g: EGraph) -> RationalMatrix:
    """Stacked per-vertex blocks whose kernel is D0(g): n rows per vertex."""
    rows: list[list[Fraction]] = []
    for vi in range(g.num_vertices):
        block = [[Fraction(0)] * g.num_edges for _ in range(g.n)]
        for ei in g.out_edges[vi]:
            rv = g.reaction_vectors[ei]
            for r in range(g.n):
                block[r][ei] = rv[r]
        rows.extend(block)
    return RationalMatrix.from_rows(rows, cols=g.num_edges)


def global_reduction_d0_basis(g: EGraph) -> Subspace:
    """D0(g) as the kernel of each vertex's out-directions, embedded in the
    edge space, then one reduction of all of them together to the
    canonical basis."""
    vectors = []
    for out in g.out_edges:
        rows = [[g.reaction_vectors[ei][r] for ei in out] for r in range(g.n)]
        for kv in kernel_basis(RationalMatrix.from_rows(rows, cols=len(out))).basis:
            v = [Fraction(0)] * g.num_edges
            for ei, x in zip(out, kv):
                v[ei] = x
            vectors.append(tuple(v))
    return subspace_from_span(vectors, g.num_edges)


def monolithic_jr_subspace(g1: EGraph, g: EGraph) -> Subspace:
    """The cone subspace as the naive kernel of every constraint row
    stacked into one matrix: zero net vector at g1-vertices outside g or
    without out-edges there, net vector orthogonal to the complement of
    g's outgoing span at shared vertices, balance everywhere on g1."""
    rows = []
    for vi, coords in enumerate(g1.vertices):
        dirs = []
        if coords in g.coord_index:
            dirs = [g.reaction_vectors[ei] for ei in g.out_edges[g.coord_index[coords]]]
        units = [tuple(Fraction(r == i) for r in range(g.n)) for i in range(g.n)]
        normals = naive_kernel(dirs, g.n) if dirs else units
        for c in normals:
            row = [Fraction(0)] * g1.num_edges
            for ei in g1.out_edges[vi]:
                row[ei] = sum((a * b for a, b in zip(c, g1.reaction_vectors[ei])), Fraction(0))
            rows.append(row)
    rows += [[Fraction((t == v) - (s == v)) for s, t in g1.edges] for v in range(g1.num_vertices)]
    return naive_kernel_subspace(rows, g1.num_edges)


def basis_pair_terms(g: EGraph, g1: EGraph) -> tuple:
    """(applicable, dim_jr, dim_s, dim_d0, dim_j0) of the pair bound for a
    weakly reversible g1, from exact bases rather than integer ranks:
    ``monolithic_jr_subspace`` with ``positive_point`` for the cone,
    ``stoich_dim``, ``d0_basis`` and ``j0_basis``.  dim_jr is None when
    the cone is empty; the other terms are given either way."""
    cone = monolithic_jr_subspace(g1, g)
    applicable = positive_point(cone).feasible
    return (
        applicable,
        cone.dim if applicable else None,
        stoich_dim(g1),
        d0_basis(g).dim,
        j0_basis(g1).dim,
    )


def per_subgraph_global_bound(g: EGraph, cap: int | None = None) -> GlobalBoundResult:
    """``global_lower_bound`` with a graph per mask: every weakly reversible
    subgraph of the complete graph becomes an ``edge_subgraph``, and its
    terms come from ``positive_point`` on its ``monolithic_jr_subspace``,
    ``stoich_dim`` and ``j0_dimension``."""
    m = g.num_vertices
    check_enumerable(m * (m - 1), cap)
    gc = complete_graph(g)
    dim_d0 = d0_dimension(g)
    best = best_mask = best_sub = None
    rows = []
    examined = 0
    exhausted = True
    target = g.num_edges
    for mask in wr_masks_by_size(gc, None if cap is None else cap + 1):
        if cap is not None and examined >= cap:
            exhausted = False
            break
        sub = edge_subgraph(gc, [i for i in range(gc.num_edges) if mask >> i & 1])
        examined += 1
        cone = monolithic_jr_subspace(sub, g)
        if not positive_point(cone).feasible:
            rows.append(SubgraphBoundRow(mask, sub.num_edges, False, None, None, None))
            continue
        dim_jr = cone.dim
        raw = dim_jr + stoich_dim(sub) + dim_d0 - j0_dimension(sub)
        capped = min(raw, target)
        rows.append(SubgraphBoundRow(mask, sub.num_edges, True, dim_jr, raw, capped))
        if best is None or capped > best.capped_bound:
            best, best_mask, best_sub = pair_lower_bound(g, sub), mask, sub
            if capped >= target:
                exhausted = False
                break
    return GlobalBoundResult(best, best_mask, best_sub, tuple(rows), examined, exhausted)


def random_wr_subgraph(rng: random.Random, g: EGraph) -> EGraph:
    """The union of 1 to 3 random cycles of the complete graph on g's
    vertices: weakly reversible, since every edge lies on a cycle."""
    gc = complete_graph(g)
    edges = set()
    for _ in range(rng.randint(1, 3)):
        cycle = rng.sample(range(g.num_vertices), rng.randint(2, g.num_vertices))
        edges.update(gc.edges.index(e) for e in zip(cycle, cycle[1:] + cycle[:1]))
    return edge_subgraph(gc, sorted(edges))


def local_cone_blocks(g1: EGraph, g: EGraph) -> list[list[list[Fraction]]]:
    """Per vertex of g1, the rows over its out-edges whose kernel is its
    local cone: dot products with the normals of g's outgoing span at that
    point (the naive kernel of g's out-directions there), or the
    reaction-vector coordinates where g has no out-edges at that point."""
    blocks = []
    for vi, out in enumerate(g1.out_edges):
        rvs = [g1.reaction_vectors[ei] for ei in out]
        wi = g.coord_index.get(g1.vertices[vi])
        if wi is not None and g.out_edges[wi]:
            normals = naive_kernel([g.reaction_vectors[ei] for ei in g.out_edges[wi]], g.n)
            blocks.append([[dot(c, rv) for rv in rvs] for c in normals])
        else:
            blocks.append([[rv[r] for rv in rvs] for r in range(g.n)])
    return blocks


def has_positive_kernel_point(rows, ncols: int) -> bool:
    """Whether the kernel of ``rows`` holds a strictly positive vector, by
    enumerating supports.  The nonnegative vectors of a subspace are sums
    of its nonnegative elementary vectors (those of minimal support), so
    a positive one exists iff their supports cover every column; a support
    carries one iff the kernel on those columns is a line spanned by a
    vector whose entries are all nonzero and of one sign."""
    covered: set[int] = set()
    for size in range(1, ncols + 1):
        for cols in itertools.combinations(range(ncols), size):
            kernel = naive_kernel([[r[j] for j in cols] for r in rows], size)
            if len(kernel) == 1 and (all(x > 0 for x in kernel[0]) or all(x < 0 for x in kernel[0])):
                covered.update(cols)
    return len(covered) == ncols


def naive_consistent(rows, ratios) -> bool:
    """Exact consistency of sum_j row_ij * u_j = log(ratio_i): every vector
    of the naive kernel of the transposed rows, cleared to integers,
    must give prod ratio_i^c_i = 1."""
    if not rows:
        return True
    transposed = [[Fraction(row[j]) for row in rows] for j in range(len(rows[0]))]
    for c in naive_kernel(transposed, len(rows)):
        scale = math.lcm(*(x.denominator for x in c))
        prod = Fraction(1)
        for ci, ratio in zip(c, ratios):
            prod *= Fraction(ratio) ** int(ci * scale)
        if prod != 1:
            return False
    return True


def random_four_vertex_graph(rng: random.Random, n: int, den: int = 1) -> EGraph:
    """Four distinct points with coordinates in (1/den)Z, |coordinate| <= 2,
    joined by 3 to 8 random edges that touch every point."""
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < 4:
        points.add(tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(n)))
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    while True:
        edges = sorted(rng.sample(pairs, rng.randint(3, 8)))
        if len({v for e in edges for v in e}) == 4:
            return EGraph(n, sorted(points), edges)


def random_m_vertex_graph(rng: random.Random, m: int, n: int, den: int = 1) -> EGraph:
    """m distinct points with coordinates in (1/den)Z, |coordinate| <= 2,
    joined by m to 2m random edges that touch every point."""
    points: set[tuple[Fraction, ...]] = set()
    while len(points) < m:
        points.add(tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(n)))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    while True:
        edges = sorted(rng.sample(pairs, rng.randint(m, 2 * m)))
        if len({v for e in edges for v in e}) == m:
            return EGraph(n, sorted(points), edges)


def direct_net_vectors(g: EGraph, values) -> dict:
    """Per-vertex net vectors by direct summation over the edge list."""
    out = {}
    for vi, coords in enumerate(g.vertices):
        acc = [Fraction(0)] * g.n
        for ei, (s, t) in enumerate(g.edges):
            if s == vi:
                for r in range(g.n):
                    acc[r] += Fraction(values[ei]) * (g.vertices[t][r] - g.vertices[s][r])
        out[coords] = tuple(acc)
    return out


def matvec(m: RationalMatrix, x) -> tuple[Fraction, ...]:
    """M x by direct summation over every entry."""
    if len(x) != m.cols:
        raise ValueError("matvec dimension mismatch")
    return tuple(
        sum((a * Fraction(b) for a, b in zip(m.row(i), x)), Fraction(0)) for i in range(m.rows)
    )


def direct_flux_imbalance(g: EGraph, values) -> list[Fraction]:
    """Per-vertex inflow minus outflow by direct summation over the edge list."""
    out = [Fraction(0)] * g.num_vertices
    for ei, (s, t) in enumerate(g.edges):
        out[t] += Fraction(values[ei])
        out[s] -= Fraction(values[ei])
    return out


def dense_orthogonalize(vectors: Sequence[Vec]) -> tuple[Vec, ...]:
    """Gram-Schmidt without normalization, every product taken over every
    index: same span, pairwise-orthogonal."""
    out: list[Vec] = []
    for b in vectors:
        g = list(b)
        for prev in out:
            c = dot(b, prev) / dot(prev, prev)
            if c:
                for j in range(len(g)):
                    g[j] -= c * prev[j]
        out.append(tuple(g))
    return tuple(out)


def dense_coords_in_basis(v, basis) -> Vec:
    """Coordinates <v,b_i>/<b_i,b_i>, every product over every index."""
    w = vec(v)
    out = []
    for b in basis:
        bb = vec(b)
        out.append(dot(w, bb) / dot(bb, bb))
    return tuple(out)


def rk4_every_stage(g: EGraph, k: EdgeVector, x0, t_end: float, dt: float):
    """Fixed-step RK4 that evaluates the one-shot ``mass_action_rhs`` at every
    stage; a step whose stage or end state leaves the positive orthant is
    halved, each step starting again from dt."""

    def ok(state):
        return all(v > 0 and math.isfinite(v) for v in state)

    def rk4(x, h):
        k1 = mass_action_rhs(g, k, x)
        s2 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k1))
        if not ok(s2):
            return None
        k2 = mass_action_rhs(g, k, s2)
        s3 = tuple(xi + 0.5 * h * ki for xi, ki in zip(x, k2))
        if not ok(s3):
            return None
        k3 = mass_action_rhs(g, k, s3)
        s4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
        if not ok(s4):
            return None
        k4 = mass_action_rhs(g, k, s4)
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


def direct_mass_action_rhs(g: EGraph, kvals, x):
    """Direct exact evaluation of the polynomial right-hand side."""
    acc = [Fraction(0)] * g.n
    for ei, (s, t) in enumerate(g.edges):
        mono = Fraction(1)
        for xi, yi in zip(x, g.vertices[s]):
            mono *= Fraction(xi) ** int(yi)
        for r in range(g.n):
            acc[r] += Fraction(kvals[ei]) * mono * (g.vertices[t][r] - g.vertices[s][r])
    return tuple(acc)


def direct_float_mass_action_rhs(g: EGraph, kvals, x):
    """Float evaluation of the right-hand side edge by edge, converting each
    rate, exponent and reaction-vector coordinate where it is used."""
    acc = [0.0] * g.n
    for ei, (s, t) in enumerate(g.edges):
        mono = 1.0
        for xi, yi in zip(x, g.vertices[s]):
            mono *= float(xi) ** float(yi)
        c = float(kvals[ei]) * mono
        for r in range(g.n):
            acc[r] += c * float(g.vertices[t][r] - g.vertices[s][r])
    return tuple(acc)


def enumerate_rooted_in_trees(g: EGraph, kvals, root: int, cls: list[int]) -> Fraction:
    """Tree constant by explicit enumeration: one outgoing edge per
    non-root vertex, keeping only choices whose paths all reach the root."""
    choices = []
    for v in cls:
        if v == root:
            continue
        outs = [ei for ei, (s, t) in enumerate(g.edges) if s == v and t in cls]
        choices.append(outs)
    total = Fraction(0)
    for combo in itertools.product(*choices):
        nxt = {}
        for ei in combo:
            s, t = g.edges[ei]
            nxt[s] = t
        ok = True
        for v in cls:
            if v == root:
                continue
            seen = set()
            cur = v
            while cur != root:
                if cur in seen or cur not in nxt:
                    ok = False
                    break
                seen.add(cur)
                cur = nxt[cur]
            if not ok:
                break
        if ok:
            w = Fraction(1)
            for ei in combo:
                w *= Fraction(kvals[ei])
            total += w
    return total


def numeric_toric_search(g: EGraph, kvals, trials: int = 400, seed: int = 7) -> float:
    """Best complex-balance residual over random multistart numeric solves.

    Gradient-free: random positive starts refined by coordinate descent
    on the summed squared per-vertex imbalance.  Returns the smallest
    residual found; a genuinely toric pair gets within ~1e-8, an
    inconsistent one stalls orders of magnitude higher.
    """
    rng = random.Random(seed)

    def residual(x):
        total = 0.0
        for vi in range(g.num_vertices):
            out = sum(
                float(kvals[ei]) * _powf(x, g.vertices[g.edges[ei][0]])
                for ei in range(g.num_edges)
                if g.edges[ei][0] == vi
            )
            inc = sum(
                float(kvals[ei]) * _powf(x, g.vertices[g.edges[ei][0]])
                for ei in range(g.num_edges)
                if g.edges[ei][1] == vi
            )
            total += (out - inc) ** 2
        return total

    best = float("inf")
    for _ in range(trials):
        x = [rng.uniform(0.05, 4.0) for _ in range(g.n)]
        cur = residual(x)
        step = 0.5
        for _ in range(250):
            improved = False
            for i in range(g.n):
                for direction in (1.0 + step, 1.0 / (1.0 + step)):
                    trial = list(x)
                    trial[i] *= direction
                    r = residual(trial)
                    if r < cur:
                        x, cur = trial, r
                        improved = True
            if not improved:
                step *= 0.5
                if step < 1e-12:
                    break
        best = min(best, cur)
    return best ** 0.5


def _powf(x, y) -> float:
    out = 1.0
    for xi, yi in zip(x, y):
        out *= float(xi) ** float(yi)
    return out


def random_small_egraph(rng: random.Random, max_vertices: int = 4, n: int = 2) -> EGraph:
    """A random integer-coordinate graph with no isolated vertices."""
    while True:
        m = rng.randint(2, max_vertices)
        coords = set()
        while len(coords) < m:
            coords.add(tuple(rng.randint(-2, 2) for _ in range(n)))
        verts = sorted(coords)
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        rng.shuffle(pairs)
        edges = sorted(pairs[: rng.randint(1, min(len(pairs), 2 * m))])
        touched = sorted({v for e in edges for v in e})
        if not edges:
            continue
        remap = {v: i for i, v in enumerate(touched)}
        return EGraph(n, [verts[v] for v in touched], [(remap[s], remap[t]) for s, t in edges])


def random_wr_egraph(rng: random.Random, max_vertices: int = 4, n: int = 2) -> EGraph:
    """A random weakly reversible graph: bidirected closure of a random graph."""
    g = random_small_egraph(rng, max_vertices, n)
    edges = sorted(set(g.edges) | {(t, s) for s, t in g.edges})
    return EGraph(g.n, g.vertices, edges)


def random_rational(rng: random.Random, lo: int = -4, hi: int = 4, den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_positive_rational(rng: random.Random, hi: int = 5, den: int = 4) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def random_edge_vector(g: EGraph, rng: random.Random, positive: bool = False) -> EdgeVector:
    if positive:
        return EdgeVector(g, [random_positive_rational(rng) for _ in range(g.num_edges)])
    return EdgeVector(g, [random_rational(rng) for _ in range(g.num_edges)])


def naive_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan on Fractions: the nonzero
    rows and their pivot columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def naive_kernel(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """One kernel vector per free column of the naive RREF, entry 1 there."""
    rref, pivots = naive_rref(rows)
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for row, p in zip(rref, pivots):
                v[p] = -row[f]
            out.append(tuple(v))
    return out


def naive_kernel_subspace(rows, ncols: int) -> Subspace:
    """The naive kernel as a Subspace: the naive RREF of its free-column
    vectors."""
    rref, _ = naive_rref(naive_kernel(rows, ncols))
    return Subspace(ncols, tuple(tuple(r) for r in rref))


def naive_solve(rows, rhs, ncols: int) -> tuple[Fraction, ...] | None:
    """Particular solution from the RREF of [rows | rhs], free variables
    zero, or None when the last column is a pivot."""
    rref, pivots = naive_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(rref, pivots):
        x[p] = row[ncols]
    return tuple(x)


def cofactor_det(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * Fraction(x) * cofactor_det(minor)
    return total


def random_engine_matrix(rng: random.Random, kind: str) -> list[list[Fraction]]:
    """A seeded matrix that stresses one path of the elimination engine:
    "sparse" (mostly zero), "deficient" (rows that are combinations of
    others), "negative" (negative pivots) or "swap" (zero leading entries
    that force row swaps)."""
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    if kind == "sparse":
        return [[random_rational(rng) if rng.random() < 0.25 else Fraction(0)
                 for _ in range(ncols)] for _ in range(nrows)]
    if kind == "deficient":
        base = [[random_rational(rng) for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
        return [[sum((random_rational(rng) * b[j] for b in base), Fraction(0)) for j in range(ncols)]
                for _ in range(nrows)]
    if kind == "negative":
        return [[-abs(random_rational(rng)) if j == i else random_rational(rng)
                 for j in range(ncols)] for i in range(nrows)]
    if kind == "swap":
        return [[Fraction(0) if j <= nrows - 1 - i else random_rational(rng)
                 for j in range(ncols)] for i in range(nrows)]
    raise ValueError(kind)


def naive_exact_witness(rows, ratios, n: int):
    """Solve x^rows = ratios in positive rationals with free coordinates 1
    by gcd-reduced pairwise integer row elimination, each operation
    applied multiplicatively to the ratios; None when a pivot needs an
    irrational root or a zero row keeps a ratio other than 1."""

    def int_root(a: int, d: int) -> int | None:
        if a < 0:
            return None
        lo, hi = 0, 1 << (a.bit_length() // d + 1)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid**d <= a:
                lo = mid
            else:
                hi = mid - 1
        return lo if lo**d == a else None

    def nth_root(x: Fraction, d: int) -> Fraction | None:
        if d < 0:
            x, d = 1 / x, -d
        num, den = int_root(x.numerator, d), int_root(x.denominator, d)
        return None if num is None or den is None else Fraction(num, den)

    work = []
    for row, ratio in zip(rows, ratios):
        scale = math.lcm(*(Fraction(x).denominator for x in row))
        work.append(([int(x * scale) for x in row], ratio**scale))
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][0][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow, pratio = work[r]
        p = prow[c]
        for i in range(r + 1, len(work)):
            irow, iratio = work[i]
            f = irow[c]
            if f:
                g_ = math.gcd(p, f)
                a, b = p // g_, f // g_
                if a < 0:
                    a, b = -a, -b
                work[i] = ([a * irow[j] - b * prow[j] for j in range(n)], iratio**a / pratio**b)
        pivots.append((r, c))
        r += 1
    if any(ratio != 1 for _, ratio in work[r:]):
        return None
    x = [Fraction(1)] * n
    for r_idx, c in reversed(pivots):
        row, rhs = work[r_idx]
        for j in range(c + 1, n):
            if row[j]:
                rhs /= x[j] ** row[j]
        root = nth_root(rhs, row[c])
        if root is None:
            return None
        x[c] = root
    return tuple(x)
