"""Independent oracles: deliberately naive re-implementations used to
cross-check the library's optimized paths.  Nothing here imports the
functions it checks; ``basis_pair_terms`` checks the integer-rank scan
against the library's exact-basis path.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from crnlocus import EGraph, EdgeVector, jr_dimension
from crnlocus.egraph import stoich_dim
from crnlocus.equiv import d0_basis, j0_basis


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


def reachability_components(g: EGraph) -> list[list[int]]:
    """Classes of mutually reachable vertices, each sorted, ordered by smallest member."""
    succ = [[] for _ in g.vertices]
    for s, t in g.edges:
        succ[s].append(t)
    reach = []
    for v in range(g.num_vertices):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    classes = {tuple(sorted(u for u in reach[v] if v in reach[u])) for v in range(g.num_vertices)}
    return [list(c) for c in sorted(classes)]


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


def basis_pair_terms(g: EGraph, g1: EGraph) -> tuple:
    """(applicable, dim_jr, dim_s, dim_d0, dim_j0) of the pair bound for a
    weakly reversible g1, from exact bases rather than integer ranks:
    ``d0_basis``, ``jr_dimension`` (cone subspace, simplex and verified
    witness), ``stoich_dim`` and ``j0_basis``.  dim_jr is None when the
    cone is empty; the other terms are given either way."""
    cone = jr_dimension(g1, g)
    applicable = cone.status == "nonempty"
    return (
        applicable,
        cone.dim if applicable else None,
        stoich_dim(g1),
        d0_basis(g).dim,
        j0_basis(g1).dim,
    )


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


def direct_flux_imbalance(g: EGraph, values) -> list[Fraction]:
    """Per-vertex inflow minus outflow by direct summation over the edge list."""
    out = [Fraction(0)] * g.num_vertices
    for ei, (s, t) in enumerate(g.edges):
        out[t] += Fraction(values[ei])
        out[s] -= Fraction(values[ei])
    return out


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
