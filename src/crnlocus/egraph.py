"""Euclidean embedded graphs: directed graphs whose vertices are points of Q^n.

An edge (i, j) is a reaction from vertex i to vertex j; its reaction
vector is vertices[j] - vertices[i].  Graphs are immutable and
validated on construction: no self-loops, no duplicate edges or
vertices, no isolated vertices.

Canonical edge order is lexicographic by (source index, target index);
all derived graphs (complete graphs, enumerated subgraphs) are emitted
in that order, and edge-indexed vectors align with the owning graph's
edge sequence.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .exactla import RationalMatrix, Rat, Vec, rank, vec
from .jsonutil import compact_dumps, load_json, rational_from_json, rationals_to_json

WR_ENUMERATION_EDGE_LIMIT = 24
# Cut pairs double per vertex: on K_7 a weakly reversible mask walks its 63 in
# 4.4 to 7.5 us, against 6.5 to 6.6 us for the closure, and on K_8 it loses.
CUT_PAIR_VERTEX_LIMIT = 6


class GraphValidationError(ValueError):
    """A graph (or its serialization) violates a structural invariant."""


class NotWeaklyReversibleError(ValueError):
    """An operation that requires weak reversibility was given a graph without it."""


class EnumerationLimitError(ValueError):
    """Subgraph enumeration was requested beyond the hard edge-count limit."""


@dataclass(frozen=True)
class EGraph:
    """A directed graph embedded in Q^n.

    Fields:
        n: ambient dimension.
        vertices: ordered vertex coordinates, each a length-n tuple of Fractions.
        edges: ordered (source index, target index) pairs.
    """

    n: int
    vertices: tuple[Vec, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, vertices: Sequence[Sequence[Rat]], edges: Sequence[Sequence[int]]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", tuple(vec(v) for v in vertices))
        object.__setattr__(self, "edges", tuple((int(s), int(t)) for s, t in edges))
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise GraphValidationError(f"ambient dimension must be >= 1, got {self.n}")
        for i, v in enumerate(self.vertices):
            if len(v) != self.n:
                raise GraphValidationError(
                    f"vertex {i} has {len(v)} coordinates, expected {self.n}: {v}"
                )
        seen: dict[Vec, int] = {}
        for i, v in enumerate(self.vertices):
            if v in seen:
                raise GraphValidationError(f"duplicate vertex: {i} repeats {seen[v]} at {v}")
            seen[v] = i
        m = len(self.vertices)
        seen_edges: set[tuple[int, int]] = set()
        touched: set[int] = set()
        for idx, (s, t) in enumerate(self.edges):
            if not (0 <= s < m and 0 <= t < m):
                raise GraphValidationError(f"edge {idx} = ({s},{t}) has an index out of range")
            if s == t:
                raise GraphValidationError(f"edge {idx} = ({s},{t}) is a self-loop")
            if (s, t) in seen_edges:
                raise GraphValidationError(f"duplicate edge: ({s},{t})")
            seen_edges.add((s, t))
            touched.add(s)
            touched.add(t)
        for i in range(m):
            if i not in touched:
                raise GraphValidationError(f"isolated vertex: {i} at {self.vertices[i]}")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices grouped by source vertex."""
        out: list[list[int]] = [[] for _ in self.vertices]
        for idx, (s, _) in enumerate(self.edges):
            out[s].append(idx)
        return tuple(tuple(o) for o in out)

    @cached_property
    def in_edges(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in self.vertices]
        for idx, (_, t) in enumerate(self.edges):
            inc[t].append(idx)
        return tuple(tuple(o) for o in inc)

    @cached_property
    def cut_pairs(self) -> tuple[tuple[int, int], ...] | None:
        """(edges leaving U, edges entering U) as edge bitmasks, one pair for
        each vertex set U that holds vertex 0 and is not every vertex; None
        past CUT_PAIR_VERTEX_LIMIT vertices."""
        m = self.num_vertices
        if m > CUT_PAIR_VERTEX_LIMIT:
            return None
        pairs = []
        for cut in range(1, (1 << m) - 1, 2):
            leaving = entering = 0
            for idx, (s, t) in enumerate(self.edges):
                if cut >> s & 1 and not cut >> t & 1:
                    leaving |= 1 << idx
                elif cut >> t & 1 and not cut >> s & 1:
                    entering |= 1 << idx
            pairs.append((leaving, entering))
        return tuple(pairs)

    @cached_property
    def reaction_vectors(self) -> tuple[Vec, ...]:
        """target - source, one per edge, in edge order."""
        return tuple(
            tuple(b - a for a, b in zip(self.vertices[s], self.vertices[t]))
            for s, t in self.edges
        )

    @cached_property
    def coord_index(self) -> dict[Vec, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    def check_same_ambient(self, other: "EGraph") -> None:
        """Pair quantities are defined only for two graphs in one Q^n."""
        if self.n != other.n:
            raise ValueError(f"ambient dimensions differ: {self.n} vs {other.n}")

    def has_integer_coordinates(self) -> bool:
        return all(c.denominator == 1 for v in self.vertices for c in v)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [rationals_to_json(v) for v in self.vertices],
            "edges": [[s, t] for s, t in self.edges],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 of the canonical compact serialization."""
        return hashlib.sha256(compact_dumps(self.to_json_dict()).encode("utf-8")).hexdigest()


def parse_egraph(text: str) -> EGraph:
    """Parse the graph JSON wire format, preserving edge order.

    Raises GraphValidationError on malformed syntax or any structural
    violation, naming the offending element.
    """
    try:
        data = load_json(text)
    except json.JSONDecodeError as e:
        raise GraphValidationError(f"malformed JSON: {e}") from e
    except ValueError as e:
        raise GraphValidationError(str(e)) from e
    if not isinstance(data, dict):
        raise GraphValidationError("top-level JSON value must be an object")
    for key in ("n", "vertices", "edges"):
        if key not in data:
            raise GraphValidationError(f"missing field {key!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise GraphValidationError(f"field 'n' must be an integer, got {n!r}")
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise GraphValidationError("'vertices' and 'edges' must be lists")
    vertices = []
    for i, row in enumerate(data["vertices"]):
        if not isinstance(row, list):
            raise GraphValidationError(f"vertex {i} must be a list of rationals")
        try:
            vertices.append(
                [rational_from_json(c, f"vertex {i} coordinate {j}") for j, c in enumerate(row)]
            )
        except ValueError as e:
            raise GraphValidationError(str(e)) from e
    edges = []
    for i, pair in enumerate(data["edges"]):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise GraphValidationError(f"edge {i} must be a pair of vertex indices, got {pair!r}")
        edges.append((pair[0], pair[1]))
    return EGraph(n, vertices, edges)


def bfs(
    g: EGraph, root: int, *walks: tuple[Sequence[Sequence[int]], int]
) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Breadth-first search from ``root`` along the given edge directions.

    Each walk pairs an adjacency with the edge end it steps to:
    ``(g.out_edges, 1)`` walks forward, ``(g.in_edges, 0)`` backward, and
    both together ignore direction.  Returns the vertices in visiting
    order and, for each, its (parent, edge); the root's is (root, -1).
    """
    parent = {root: (root, -1)}
    order = [root]
    for v in order:
        for edges_at, far in walks:
            for ei in edges_at[v]:
                if (w := g.edges[ei][far]) not in parent:
                    parent[w] = (v, ei)
                    order.append(w)
    return order, parent


def linkage_classes(g: EGraph) -> list[list[int]]:
    """Connected components of the underlying undirected graph.

    Vertex indices, each class sorted, classes ordered by smallest member.
    """
    seen: set[int] = set()
    classes = []
    for root in range(g.num_vertices):
        if root not in seen:
            order, _ = bfs(g, root, (g.out_edges, 1), (g.in_edges, 0))
            seen.update(order)
            classes.append(sorted(order))
    return classes


def is_weakly_reversible(g: EGraph) -> bool:
    """True iff every linkage class is strongly connected: the out-tree and
    the in-tree of its smallest vertex, which stay inside it, both cover it."""
    return all(
        len(bfs(g, c[0], (g.out_edges, 1))[0]) == len(c) == len(bfs(g, c[0], (g.in_edges, 0))[0])
        for c in linkage_classes(g)
    )


def complete_graph(g: EGraph) -> EGraph:
    """The complete directed graph on g's vertex set, edges in canonical order."""
    m = g.num_vertices
    edges = [(i, j) for i in range(m) for j in range(m) if i != j]
    return EGraph(g.n, g.vertices, edges)


def edge_subgraph(g: EGraph, edge_indices: Sequence[int]) -> EGraph:
    """The subgraph on the given edges; vertices are the edge endpoints, reindexed."""
    idxs = sorted(set(edge_indices))
    touched = sorted({v for i in idxs for v in g.edges[i]})
    remap = {v: k for k, v in enumerate(touched)}
    return EGraph(
        g.n,
        [g.vertices[v] for v in touched],
        [(remap[g.edges[i][0]], remap[g.edges[i][1]]) for i in idxs],
    )


def _mask_is_weakly_reversible(g: EGraph, mask: int) -> bool:
    """True iff the edge subset F given by ``mask`` is weakly reversible.

    Lemma: F is weakly reversible iff, for every vertex set U, F has an
    edge leaving U exactly when it has an edge entering U.  (=>) An edge
    leaving U lies on a cycle of F, and the cycle re-enters U.  (<=) If
    the edge s->t lies on no cycle, let U be the vertices that reach s:
    t is not in U, s->t leaves U, and no edge enters U, since its source
    would reach s.  Swapping U and its complement swaps leaving and
    entering, so the sets U that hold vertex 0 suffice, and vertices F
    does not touch change nothing.  Up to CUT_PAIR_VERTEX_LIMIT vertices
    the test walks ``g.cut_pairs``; past it, it closes reachability over
    bitsets and asks that every edge s->t have t reach s.
    """
    pairs = g.cut_pairs
    if pairs is not None:
        for leaving, entering in pairs:
            if (not mask & leaving) != (not mask & entering):
                return False
        return True
    m = g.num_vertices
    reach = [1 << v for v in range(m)]
    sub_edges = []
    rest = mask
    while rest:
        low = rest & -rest
        idx = low.bit_length() - 1
        rest ^= low
        s, t = g.edges[idx]
        sub_edges.append((s, t))
        reach[s] |= 1 << t
    for k in range(m):
        bit = 1 << k
        rk = reach[k]
        for v in range(m):
            if reach[v] & bit:
                reach[v] |= rk
    return all(reach[t] & (1 << s) for s, t in sub_edges)


def _masks_by_size(m: int) -> Iterator[int]:
    """All nonzero masks below 2^m, ascending within each popcount (Gosper)."""
    limit = 1 << m
    for count in range(1, m + 1):
        mask = (1 << count) - 1
        while mask < limit:
            yield mask
            lo = mask & -mask
            lz = mask + lo
            mask = lz | (((mask ^ lz) // lo) >> 2)


def check_enumerable(num_edges: int, cap: int | None) -> None:
    """Refuse a subset scan over ``num_edges`` edges past the edge limit
    without a cap, and a negative cap."""
    if cap is None and num_edges > WR_ENUMERATION_EDGE_LIMIT:
        raise EnumerationLimitError(
            f"{num_edges} edges exceeds the enumeration limit of "
            f"{WR_ENUMERATION_EDGE_LIMIT}; pass a cap to enumerate anyway"
        )
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")


def _wr_masks(g: EGraph, candidates: Iterable[int], cap: int | None) -> Iterator[int]:
    """The weakly reversible masks among ``candidates``, at most ``cap`` of them.

    Without a cap, graphs past the edge limit raise EnumerationLimitError.
    """
    check_enumerable(g.num_edges, cap)
    yielded = 0
    for mask in candidates:
        if cap is not None and yielded >= cap:
            return
        if _mask_is_weakly_reversible(g, mask):
            yield mask
            yielded += 1


def iter_wr_edge_masks(g: EGraph, cap: int | None = None) -> Iterator[int]:
    """Ascending bitmasks of the nonempty weakly reversible edge subsets of g."""
    return _wr_masks(g, range(1, 1 << g.num_edges), cap)


def wr_masks_by_size(g: EGraph, cap: int | None = None) -> Iterator[int]:
    """The same masks as ``iter_wr_edge_masks``, ordered by edge count, then value."""
    return _wr_masks(g, _masks_by_size(g.num_edges), cap)


def stoich_dim(g: EGraph) -> int:
    """Dimension of the span of the reaction vectors."""
    if not g.edges:
        return 0
    return rank(RationalMatrix.from_rows(g.reaction_vectors))
